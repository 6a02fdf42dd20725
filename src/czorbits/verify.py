"""Self-verification: every structural claim checked in one report.

`CHECKS` holds one function per pass of work, in report order, each yielding
(name, expected, observed) lines for a workspace; the report prints each with
whether they match. Sampled checks use a fixed seed, so all are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from czorbits import kernels
from czorbits.encoding import ENTRY_BYTES, unpack_values
from czorbits.errors import VerificationError
from czorbits.graph import check_isomorphic, cnot_graph_equivalence
from czorbits.groups import GroupTable, left_action, word_product
from czorbits.matrices import CNOT_T1, CNOT_T2, CZ, GateMatrix
from czorbits.io import format_orbit_map, format_table
from czorbits.synth import evaluate
from czorbits.workspace import Workspace, build_workspace

SAMPLE_SEED = 20251117
SAMPLE_SIZE = 1000
# ω^0 .. ω^3, so a numerator (a, b, c, d) lifts as (a, b, c, d) @ _OMEGA_POWERS
_OMEGA_POWERS = np.exp(1j * np.pi / 4 * np.arange(4))
Lines = Iterator[tuple[str, object, object]]


@dataclass
class Check:
    name: str
    expected: object
    observed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.observed

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        exp = _compact(self.expected)
        obs = _compact(self.observed)
        return f"CHECK {self.name} expected={exp} observed={obs} {verdict}"


def _compact(v: object) -> str:
    return str(v).replace(" ", "")


class VerificationReport:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    def add(self, name: str, expected: object, observed: object) -> None:
        self.checks.append(Check(name, expected, observed))

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append("OVERALL " + ("PASS" if self.overall else "FAIL"))
        return out


def _table_to_numpy(table: GroupTable) -> np.ndarray:
    """All elements as one (n, dim, dim) complex array: the row book lifted
    in one expression, then gathered by each element's row ids."""
    vals = np.array([unpack_values(row) for row in table.book]).reshape(-1, table.dim, 5)
    book = vals[..., :4] @ _OMEGA_POWERS / np.sqrt(2.0) ** vals[..., 4]
    return book[table.row_ids(slice(None))]


def _right_mismatches(table: GroupTable) -> int:
    """Products element(e) * g, from the batched kernel, that differ from
    the encoding of element(right[e, g]); 4096 elements at a time."""
    rows = 4096
    gens = b"".join(g.data for g in table.alphabet.values())
    size = table.dim * table.dim * ENTRY_BYTES
    bad = 0
    for lo in range(0, len(table), rows):
        ids = np.arange(lo, min(lo + rows, len(table)))
        got = kernels.mat_mul_batch(table.encodings(ids), gens, table.dim)
        want = table.encodings(table.right[ids].ravel())
        diff = np.frombuffer(got, np.uint8) != np.frombuffer(want, np.uint8)
        bad += int(diff.reshape(-1, size).any(axis=1).sum())
    return bad


def _gather_mismatches(table: GroupTable, gate: GateMatrix) -> int:
    """The ids x where the gate g's gathered left action breaks g·1 = g (x the
    identity) or g·(x·h) = (g·x)·h, summed over the generators h; every id if
    the gather raises VerificationError. Every element is a word in the
    generators, so with `right` exact, zero makes the action exact by induction."""
    try:
        action = left_action(table, gate)
    except VerificationError:
        return len(table)
    bad = int(action[table.identity_id] != table.contains(gate))
    for column in table.right.T:  # x -> x·h for each generator h
        bad += int((action[column] != column[action]).sum())
    return bad


def _distances(weight: list[list[int]]) -> list[int | None]:
    """Each orbit's breadth-first distance from O1 over the nonzero weights,
    None for an orbit it does not reach."""
    dist: list[int | None] = [None] * len(weight)
    dist[0], frontier = 0, [0]
    for i in frontier:  # grows as the walk goes
        for j, w in enumerate(weight[i]):
            if w and dist[j] is None:
                dist[j] = dist[i] + 1
                frontier.append(j)
    return dist


def orders(ws: Workspace) -> Lines:
    """The three group orders, and LC2 as C1 × C1 modulo the 8 phases."""
    yield "c1-order", 192, len(ws.c1)
    yield "lc2-order", 4608, len(ws.lc2)
    yield "c2-order", 92160, len(ws.c2)
    yield "lc2-dedup-ratio", 8, 192 * 192 // len(ws.lc2)


def orbits(ws: Workspace) -> Lines:
    """20 orbits of 4608 that cover C2, the identity's being LC2."""
    atlas, n = ws.atlas, ws.atlas.n_orbits
    yield "orbit-count", 20, n
    yield "orbit-sizes", [4608], sorted({len(atlas.orbit_members(o)) for o in range(1, n + 1)})
    yield "orbit-cover", 92160, sum(len(atlas.orbit_members(o)) for o in range(1, n + 1))
    lc2_ids = {ws.c2.contains(ws.lc2.element(e)) for e in range(len(ws.lc2))}
    yield "identity-orbit-is-lc2", True, set(atlas.orbit_members(1)) == lc2_ids


def graph(ws: Workspace) -> Lines:
    """The CZ graph's weights: 0 or 512, symmetric, 9 neighbours per orbit."""
    w, n = ws.graph.weight, ws.atlas.n_orbits
    yield "weights-law", [0, 512], sorted({w[i][j] for i in range(n) for j in range(n) if i != j})
    yield "diagonal-zero", True, all(w[i][i] == 0 for i in range(n))
    yield "weight-symmetry", True, all(w[i][j] == w[j][i] for i in range(n) for j in range(n))
    yield "degrees", [9], sorted({ws.graph.degree(o) for o in range(1, n + 1)})
    yield "edge-count", 90, len(ws.graph.edges())


def layers(ws: Workspace) -> Lines:
    """The CZ layers, each an orbit's distance from O1, and the graph against
    the paper's figure and the CNOT graphs."""
    atlas, n = ws.atlas, ws.atlas.n_orbits
    yield "layer-profile", [1, 9, 9, 1], [atlas.layers.count(v) for v in range(4)]
    elem_counts = [sum(len(atlas.orbit_members(o)) for o in range(1, n + 1) if atlas.layer(o) == v)
                   for v in range(4)]
    yield "layer-element-counts", [4608, 41472, 41472, 4608], elem_counts
    yield "layer-is-graph-distance", atlas.layers, _distances(ws.graph.weight)
    yield "figure-isomorphism", True, check_isomorphic(ws.graph.edge_set()) is not None
    yield "cnot-equivalence", True, cnot_graph_equivalence(atlas, ws.c2, ws.graph)


def synthesis(ws: Workspace) -> Lines:
    """Every element's circuit has its orbit's layer of CZs and multiplies out to it."""
    atlas, c2 = ws.atlas, ws.c2
    failures = max_cz = 0
    for eid in range(len(c2)):
        try:
            circ = ws.synthesizer.synthesize_id(eid)
        except VerificationError:  # no local factor: a broken row map
            failures += 1
            continue
        max_cz = max(max_cz, circ.cz_count)
        if circ.cz_count != atlas.layer(atlas.orbit_of[eid]) or evaluate(circ) != c2.element(eid):
            failures += 1
    yield "synthesis-full-sweep-failures", 0, failures
    yield "synthesis-max-cz", 3, max_cz


def unitarity(ws: Workspace) -> Lines:
    """Every element of C2 unitary, exactly and in floating point."""
    c2 = ws.c2
    yield "unitarity-exact-failures", 0, sum(not c2.element(e).is_unitary() for e in range(len(c2)))
    arr = _table_to_numpy(c2)
    gram = arr @ arr.conj().transpose(0, 2, 1) - np.eye(c2.dim)
    worst = float(np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2))).max())
    yield "unitarity-numeric-below-1e-12", True, worst < 1e-12


def samples(ws: Workspace) -> Lines:
    """Five properties on SAMPLE_SIZE draws each, from one stream seeded here."""
    rng = random.Random(SAMPLE_SEED)
    c2, lc2, atlas = ws.c2, ws.lc2, ws.atlas
    gens = list(c2.alphabet.values())

    def group_axioms() -> bool:
        x, y = c2.element(rng.randrange(len(c2))), c2.element(rng.randrange(len(c2)))
        return c2.contains(x * y) is not None and c2.contains(x.dagger()) is not None

    def coset_invariance() -> bool:
        v, eid = lc2.element(rng.randrange(len(lc2))), rng.randrange(len(c2))
        return atlas.orbit_of[c2.contains(v * c2.element(eid))] == atlas.orbit_of[eid]

    def coset_well_definedness() -> bool:
        members = atlas.orbit_members(rng.randrange(1, atlas.n_orbits + 1))
        u1, u2 = c2.element(rng.choice(members)), c2.element(rng.choice(members))
        return lc2.contains(u1 * u2.dagger()) is not None

    def word_roundtrip() -> bool:
        eid = rng.randrange(len(c2))
        return word_product(c2.alphabet, c2.word_of(eid)) == c2.element(eid)

    def action_table() -> bool:
        col, eid = rng.randrange(len(gens)), rng.randrange(len(c2))
        return c2.contains(c2.element(eid) * gens[col]) == c2.right[eid, col]

    for name, trial in (("group-axioms", group_axioms), ("coset-invariance", coset_invariance),
                        ("coset-well-definedness", coset_well_definedness),
                        ("word-roundtrip", word_roundtrip), ("action-table", action_table)):
        yield f"{name}-sample", SAMPLE_SIZE, sum(1 for _ in range(SAMPLE_SIZE) if trial())


def right_tables(ws: Workspace) -> Lines:
    """Every entry of the three right tables, against the batched kernel."""
    yield "right-table-exact", [0, 0, 0], [_right_mismatches(t) for t in (ws.c1, ws.lc2, ws.c2)]


def left_gathers(ws: Workspace) -> Lines:
    """Every entry of C2's gathered CZ and CNOT left actions."""
    yield "left-gather-exact", [0, 0, 0], [_gather_mismatches(ws.c2, g)
                                           for g in (CZ, CNOT_T2, CNOT_T1)]


def determinism(ws: Workspace) -> Lines:
    """A fresh rebuild gives the same C2 file, orbit map and graph."""
    fresh = build_workspace(fresh=True)
    same = (format_table(fresh.c2) == format_table(ws.c2)
            and format_orbit_map(fresh.atlas) == format_orbit_map(ws.atlas)
            and fresh.graph.weight == ws.graph.weight)
    yield "determinism-rebuild", True, same


CHECKS = (orders, orbits, graph, layers, synthesis, unitarity, samples, right_tables, left_gathers,
          determinism)


def run_verification(ws: Workspace) -> VerificationReport:
    rep = VerificationReport()
    for check in CHECKS:
        for name, expected, observed in check(ws):
            rep.add(name, expected, observed)
    return rep
