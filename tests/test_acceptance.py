"""Acceptance gate.

One test per advertised claim. Each prints a single machine-readable
line "ACCEPTANCE <name>: PASS|FAIL" and then asserts, so the printed
transcript doubles as the release checklist.
"""

import random
import sys

import numpy as np

import conftest
from czorbits.graph import REFERENCE_EDGES, check_isomorphic, cnot_graph_equivalence
from czorbits.io import format_orbit_map, format_orbit_summary, format_table
from czorbits.matrices import CZ, I4
from czorbits.verify import _table_to_numpy
from ringref import CycloNum, conj, pack, to_numpy
from czorbits.workspace import build_workspace


def _report(name: str, ok: bool) -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.stderr)
    return ok


def test_criterion_01_group_orders(ws):
    ok = len(ws.c1) == 192 and len(ws.lc2) == 4608 and len(ws.c2) == 92160
    assert _report("group-orders", ok)


def test_criterion_02_orbit_decomposition(ws):
    sizes = [len(ws.atlas.orbit_members(o)) for o in range(1, 21)]
    ident_orbit = ws.atlas.orbit_of[ws.c2.identity_id]
    members = {
        ws.c2.element(e).data for e in ws.atlas.orbit_members(ident_orbit)
    }
    locals_ = {ws.lc2.element(e).data for e in range(len(ws.lc2))}
    ok = (
        ws.atlas.n_orbits == 20
        and sizes == [4608] * 20
        and ident_orbit == 1
        and members == locals_
    )
    assert _report("orbit-decomposition", ok)


def test_criterion_03_intersection_law(ws):
    # recount every intersection from scratch rather than trusting the
    # cached graph: push each element through CZ and tally orbit pairs
    n = ws.atlas.n_orbits
    weight = [[0] * (n + 1) for _ in range(n + 1)]
    for eid in range(len(ws.c2)):
        src = ws.atlas.orbit_of[eid]
        dst_eid = ws.c2.contains(CZ * ws.c2.element(eid))
        weight[src][ws.atlas.orbit_of[dst_eid]] += 1
    ok = all(weight[i][i] == 0 for i in range(1, n + 1))
    for i in range(1, n + 1):
        row = [weight[i][j] for j in range(1, n + 1) if j != i]
        ok = ok and set(row) <= {0, 512} and sum(v == 512 for v in row) == 9
    ok = ok and all(
        weight[i][j] == ws.graph.weight[i - 1][j - 1]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    assert _report("intersection-law", ok)


def test_criterion_04_layer_profile(ws):
    dist = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for node in frontier:
            for other in ws.graph.neighbors(node):
                if other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        frontier = nxt
    profile = [sum(d == lv for d in dist.values()) for lv in range(4)]
    counts = [
        sum(len(ws.atlas.orbit_members(o)) for o, d in dist.items() if d == lv)
        for lv in range(4)
    ]
    ok = (
        len(dist) == 20
        and profile == [1, 9, 9, 1]
        and counts == [4608, 41472, 41472, 4608]
        and all(ws.atlas.layer(o) == d for o, d in dist.items())
    )
    assert _report("layer-profile", ok)


def test_criterion_05_figure_isomorphism(ws):
    edges = ws.graph.edges()
    degrees = [ws.graph.degree(o) for o in range(1, 21)]
    bijection = check_isomorphic(ws.graph.edge_set())
    ok = (
        len(edges) == 90
        and all(w == 512 for _, _, w in edges)
        and degrees == [9] * 20
        and bijection is not None
        and bijection[1] == 1
        and bijection[20] == 20
        and len(REFERENCE_EDGES) == 90
    )
    if ok:
        mapped = {
            tuple(sorted((bijection[a], bijection[b]))) for a, b, _ in edges
        }
        ok = mapped == set(REFERENCE_EDGES)
    assert _report("figure-isomorphism", ok)


def test_criterion_06_synthesis_totality_and_minimality(verify_run):
    # verify's own sweep over all 92160 circuits, read from the session's run
    _, lines = verify_run
    ok = {
        "CHECK synthesis-full-sweep-failures expected=0 observed=0 PASS",
        "CHECK synthesis-max-cz expected=3 observed=3 PASS",
    } <= set(lines)
    assert _report("synthesis-totality-minimality", ok)


def test_criterion_07_cnot_equivalence(ws):
    ok = cnot_graph_equivalence(ws.atlas, ws.c2, ws.graph)
    assert _report("cnot-equivalence", ok)


def test_criterion_08_property_suites(ws, verify_run):
    rng = random.Random(271828)

    def sample():
        return CycloNum(*(rng.randint(-20, 20) for _ in range(4)), rng.randint(0, 5))

    ok = True
    for _ in range(1000):
        x, y, z = sample(), sample(), sample()
        ok = ok and x + y == y + x and x * y == y * x
        ok = ok and (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
        ok = ok and x * (y + z) == x * y + x * z
        ok = ok and conj(x * y) == conj(x) * conj(y)
        # reduction is idempotent and lands on a unique representative
        packed = pack(x)
        ok = ok and pack(CycloNum.unpack(packed)) == packed
        ok = ok and (x == y) == (pack(x) == pack(y))

    for table in (ws.c1, ws.lc2):
        for m in map(table.element, range(len(table))):
            if not m.is_unitary():
                ok = False
                break
    # C2 exactly and in floating point, from the session's verify run
    ok = ok and {
        "CHECK unitarity-exact-failures expected=0 observed=0 PASS",
        "CHECK unitarity-numeric-below-1e-12 expected=True observed=True PASS",
    } <= set(verify_run[1])

    local_data = {ws.lc2.element(e).data for e in range(len(ws.lc2))}
    for _ in range(1000):
        a = rng.randrange(len(ws.c2))
        b = rng.randrange(len(ws.c2))
        quotient = ws.c2.element(a) * ws.c2.element(b).dagger()
        same_orbit = ws.atlas.orbit_of[a] == ws.atlas.orbit_of[b]
        ok = ok and same_orbit == (quotient.data in local_data)

    stacked = _table_to_numpy(ws.c2)
    for eid in rng.sample(range(len(ws.c2)), 200):
        direct = to_numpy(ws.c2.element(eid))
        ok = ok and np.max(np.abs(stacked[eid] - direct)) < 1e-12
    assert _report("property-suites", ok)


def test_criterion_09_determinism(ws):
    from czorbits.graph import to_dot, to_json

    fresh = build_workspace(fresh=True)
    ok = True
    for name in ("c1", "lc2", "c2"):
        ok = ok and format_table(ws.table(name)) == format_table(fresh.table(name))
    ok = ok and format_orbit_map(ws.atlas) == format_orbit_map(fresh.atlas)
    ok = ok and format_orbit_summary(ws.atlas, ws.c2) == format_orbit_summary(
        fresh.atlas, fresh.c2
    )
    ok = ok and to_dot(ws.graph, ws.atlas) == to_dot(fresh.graph, fresh.atlas)
    ok = ok and to_json(ws.graph, ws.atlas, ws.bijection) == to_json(
        fresh.graph, fresh.atlas, fresh.bijection
    )
    assert _report("determinism", ok)
