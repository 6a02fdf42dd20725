"""Self-verification: every structural claim checked in one report.

Each check records a name, the expected value, the observed value, and
whether they match; the report prints one line per check. Sampled checks
use a fixed seed, so the whole report is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from czorbits import kernels
from czorbits.encoding import ENTRY_BYTES, unpack_values
from czorbits.graph import cnot_graph_equivalence
from czorbits.groups import GroupTable, word_product
from czorbits.io import format_orbit_map, format_table
from czorbits.synth import evaluate
from czorbits.workspace import Workspace, build_workspace

SAMPLE_SEED = 20251117
SAMPLE_SIZE = 1000
# ω^0 .. ω^3, so a numerator (a, b, c, d) lifts as (a, b, c, d) @ _OMEGA_POWERS
_OMEGA_POWERS = np.exp(1j * np.pi / 4 * np.arange(4))


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


def _left_mismatches(table: GroupTable) -> int:
    """The ids x where a left action breaks g·1 = 1·g (x the identity) or
    g·(x·h) = (g·x)·h, summed over all generators g and h. Every element is a
    word in the generators, so with `right` exact a count of zero makes every
    left action exact, by induction on the word."""
    right, one = table.right, table.identity_id
    bad = 0
    for col, label in enumerate(table.alphabet):
        left = table.left(label)
        bad += int(left[one] != right[one, col])
        for h in range(right.shape[1]):
            bad += int((left[right[:, h]] != right[left, h]).sum())
    return bad


def run_verification(ws: Workspace) -> VerificationReport:
    rep = VerificationReport()
    rng = random.Random(SAMPLE_SEED)
    c1, lc2, c2 = ws.c1, ws.lc2, ws.c2
    atlas, graph = ws.atlas, ws.graph
    n = atlas.n_orbits

    rep.add("c1-order", 192, len(c1))
    rep.add("lc2-order", 4608, len(lc2))
    rep.add("c2-order", 92160, len(c2))
    rep.add("lc2-dedup-ratio", 8, 192 * 192 // len(lc2))

    rep.add("orbit-count", 20, n)
    sizes = sorted({len(atlas.orbit_members(o)) for o in range(1, n + 1)})
    rep.add("orbit-sizes", [4608], sizes)
    covered = sum(len(atlas.orbit_members(o)) for o in range(1, n + 1))
    rep.add("orbit-cover", 92160, covered)
    o1 = set(atlas.orbit_members(1))
    lc2_ids = {c2.contains(lc2.element(e)) for e in range(len(lc2))}
    rep.add("identity-orbit-is-lc2", True, o1 == lc2_ids)

    offdiag = sorted(
        {graph.weight[i][j] for i in range(n) for j in range(n) if i != j}
    )
    rep.add("weights-law", [0, 512], offdiag)
    rep.add(
        "diagonal-zero", True, all(graph.weight[i][i] == 0 for i in range(n))
    )
    rep.add(
        "weight-symmetry",
        True,
        all(
            graph.weight[i][j] == graph.weight[j][i]
            for i in range(n)
            for j in range(n)
        ),
    )
    rep.add("degrees", [9], sorted({graph.degree(o) for o in range(1, n + 1)}))
    rep.add("edge-count", 90, len(graph.edges()))

    layer_counts = [ws.atlas.layers.count(v) for v in range(4)]
    rep.add("layer-profile", [1, 9, 9, 1], layer_counts)
    elem_counts = [
        sum(len(atlas.orbit_members(o)) for o in range(1, n + 1) if atlas.layer(o) == v)
        for v in range(4)
    ]
    rep.add("layer-element-counts", [4608, 41472, 41472, 4608], elem_counts)

    rep.add("figure-isomorphism", True, ws.bijection is not None)
    rep.add("cnot-equivalence", True, cnot_graph_equivalence(atlas, c2, graph))

    failures = 0
    max_cz = 0
    for eid in range(len(c2)):
        circ = ws.synthesizer.synthesize_id(eid)
        max_cz = max(max_cz, circ.cz_count)
        if circ.cz_count != atlas.layer(atlas.orbit_of[eid]):
            failures += 1
        elif evaluate(circ) != c2.element(eid):
            failures += 1
    rep.add("synthesis-full-sweep-failures", 0, failures)
    rep.add("synthesis-max-cz", 3, max_cz)

    bad_unitary = sum(1 for e in range(len(c2)) if not c2.element(e).is_unitary())
    rep.add("unitarity-exact-failures", 0, bad_unitary)

    arr = _table_to_numpy(c2)
    gram = arr @ arr.conj().transpose(0, 2, 1)
    gram -= np.eye(c2.dim)
    worst = float(np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2))).max())
    rep.add("unitarity-numeric-below-1e-12", True, worst < 1e-12)

    ok = 0
    for _ in range(SAMPLE_SIZE):
        x = c2.element(rng.randrange(len(c2)))
        y = c2.element(rng.randrange(len(c2)))
        if c2.contains(x * y) is not None and c2.contains(x.dagger()) is not None:
            ok += 1
    rep.add("group-axioms-sample", SAMPLE_SIZE, ok)

    ok = 0
    for _ in range(SAMPLE_SIZE):
        v = lc2.element(rng.randrange(len(lc2)))
        eid = rng.randrange(len(c2))
        if atlas.orbit_of[c2.contains(v * c2.element(eid))] == atlas.orbit_of[eid]:
            ok += 1
    rep.add("coset-invariance-sample", SAMPLE_SIZE, ok)

    ok = 0
    for _ in range(SAMPLE_SIZE):
        oid = rng.randrange(1, n + 1)
        members = atlas.orbit_members(oid)
        u1 = c2.element(rng.choice(members))
        u2 = c2.element(rng.choice(members))
        if lc2.contains(u1 * u2.dagger()) is not None:
            ok += 1
    rep.add("coset-well-definedness-sample", SAMPLE_SIZE, ok)

    ok = 0
    for _ in range(SAMPLE_SIZE):
        eid = rng.randrange(len(c2))
        if word_product(c2.alphabet, c2.word_of(eid)) == c2.element(eid):
            ok += 1
    rep.add("word-roundtrip-sample", SAMPLE_SIZE, ok)

    gens = list(c2.alphabet.values())
    lefts = [c2.left(label) for label in c2.alphabet]
    ok = 0
    for _ in range(SAMPLE_SIZE):
        col, eid = rng.randrange(len(gens)), rng.randrange(len(c2))
        g, m = gens[col], c2.element(eid)
        if c2.contains(m * g) == c2.right[eid, col] and c2.contains(g * m) == lefts[col][eid]:
            ok += 1
    rep.add("action-table-sample", SAMPLE_SIZE, ok)
    rep.add("right-table-exact", [0, 0, 0], [_right_mismatches(t) for t in (c1, lc2, c2)])
    rep.add("left-table-exact", [0, 0, 0], [_left_mismatches(t) for t in (c1, lc2, c2)])

    ws2 = build_workspace(fresh=True)
    same = (
        format_table(ws2.c2) == format_table(c2)
        and format_orbit_map(ws2.atlas) == format_orbit_map(atlas)
        and ws2.graph.weight == graph.weight
    )
    rep.add("determinism-rebuild", True, same)

    return rep
