"""CZ connectivity graph: intersection law, reference isomorphism, exports."""

import json
import random
import sys

import pytest

from czorbits import workspace
from czorbits.errors import VerificationError
from czorbits.groups import left_action
from czorbits.graph import (
    REFERENCE_EDGES,
    build_graph,
    check_isomorphic,
    check_weight_law,
    cnot_graph_equivalence,
    to_dot,
    to_json,
)
from czorbits.matrices import CZ


class TestIntersectionLaw:
    def test_weights_are_zero_or_512(self, ws):
        values = {
            ws.graph.weight[i][j]
            for i in range(20)
            for j in range(20)
            if i != j
        }
        assert values == {0, 512}

    def test_diagonal_zero(self, ws):
        assert all(ws.graph.weight[i][i] == 0 for i in range(20))

    def test_symmetry(self, ws):
        for i in range(20):
            for j in range(20):
                assert ws.graph.weight[i][j] == ws.graph.weight[j][i]

    def test_nine_neighbors_each(self, ws):
        for oid in range(1, 21):
            assert ws.graph.degree(oid) == 9

    def test_ninety_edges(self, ws):
        edges = ws.graph.edges()
        assert len(edges) == 90
        assert all(w == 512 for _, _, w in edges)

    def test_row_sums_exhaust_orbit(self, ws):
        for row in ws.graph.weight:
            assert sum(row) == 4608

    def test_witnesses_recorded_for_every_edge(self, ws):
        for a, b, _ in ws.graph.edges():
            assert (a, b) in ws.graph.witnesses
            assert (b, a) in ws.graph.witnesses


class TestOneGraph:
    def test_relabeled_graph_equals_a_fresh_build(self, ws):
        fresh = build_graph(ws.atlas, left_action(ws.c2, CZ))
        assert fresh.weight == ws.graph.weight
        assert fresh.witnesses == ws.graph.witnesses

    def test_build_workspace_builds_the_graph_once(self, monkeypatch):
        from czorbits import workspace

        calls = []

        def counting(*args):
            calls.append(args)
            return build_graph(*args)

        monkeypatch.setattr(workspace, "build_graph", counting)
        workspace.build_workspace(fresh=True)
        assert len(calls) == 1


class TestReferenceGraph:
    def test_reference_shape(self):
        assert len(REFERENCE_EDGES) == 90
        degree = {v: 0 for v in range(1, 21)}
        for a, b in REFERENCE_EDGES:
            assert 1 <= a <= 20 and 1 <= b <= 20 and a != b
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {9}

    def test_self_isomorphism_is_identity(self):
        bij = check_isomorphic(REFERENCE_EDGES)
        assert bij == {i: i for i in range(1, 21)}

    def test_broken_graph_not_isomorphic(self):
        # rewiring one endpoint changes the degree sequence
        edges = set(REFERENCE_EDGES)
        edges.discard((16, 19))
        edges.add((16, 18))
        assert check_isomorphic(edges) is None

    def test_missing_edge_not_isomorphic(self):
        edges = set(REFERENCE_EDGES)
        edges.discard((16, 19))
        assert check_isomorphic(edges) is None

    def test_anchors_are_fixed(self):
        # still isomorphic, but node 1 must map to the node 3 steps from node 20
        swap = {1: 2, 2: 1}
        edges = {(swap.get(a, a), swap.get(b, b)) for a, b in REFERENCE_EDGES}
        assert check_isomorphic(edges) is None

    def test_search_backtracks_off_a_double_edge_swap(self):
        # (a, b), (c, d) -> (a, d), (c, b) keeps every degree, so the search
        # places nodes, and takes each back, before it finds no bijection
        (a, b), (c, d) = random.Random(7).sample(sorted(REFERENCE_EDGES), 2)
        swapped = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        assert len({a, b, c, d}) == 4 and not swapped & REFERENCE_EDGES
        edges = (REFERENCE_EDGES - {(a, b), (c, d)}) | swapped
        calls = 0  # of the search's `extend`; each after the first follows a placement

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code.co_name == "extend"

        sys.setprofile(count)
        try:
            assert check_isomorphic(edges) is None
        finally:
            sys.setprofile(None)
        assert calls > 1


class TestComputedIsomorphism:
    def test_bijection_found(self, ws):
        assert ws.bijection is not None

    def test_bijection_respects_anchors(self, ws):
        assert ws.bijection[1] == 1
        assert ws.bijection[20] == 20

    def test_bijection_preserves_edges_exactly(self, ws):
        ours = ws.graph.edge_set()
        mapped = {
            tuple(sorted((ws.bijection[a], ws.bijection[b]))) for a, b in ours
        }
        assert mapped == REFERENCE_EDGES

    def test_bijection_is_permutation(self, ws):
        assert sorted(ws.bijection) == list(range(1, 21))
        assert sorted(ws.bijection.values()) == list(range(1, 21))

    def test_build_refuses_a_graph_off_the_figure(self, ws, monkeypatch):
        monkeypatch.setattr(workspace, "check_isomorphic", lambda edges: None)
        with pytest.raises(VerificationError, match="reference figure"):
            workspace.build_workspace(fresh=True)
        assert workspace.build_workspace() is ws


class TestGateSubstitution:
    def test_cnot_graphs_identical(self, ws):
        assert cnot_graph_equivalence(ws.atlas, ws.c2, ws.graph)

    def test_local_gate_degenerate_probe(self, ws):
        # P1, local and monomial, keeps every element in its orbit
        probe = build_graph(ws.atlas, left_action(ws.c2, ws.c2.alphabet["P1"]))
        assert probe.weight[0][0] == 4608
        for i in range(20):
            for j in range(20):
                assert probe.weight[i][j] == (4608 if i == j else 0)

    def test_weight_law_rejects_degenerate_probe(self, ws):
        check_weight_law(ws.graph)
        with pytest.raises(VerificationError):
            check_weight_law(build_graph(ws.atlas, left_action(ws.c2, ws.c2.alphabet["P1"])))


class TestExports:
    def test_dot_output(self, ws):
        dot = to_dot(ws.graph, ws.atlas)
        assert dot.startswith("graph cz_orbits {")
        assert dot.count(" -- ") == 90
        assert dot.count("rank=same") == 4
        for oid in range(1, 21):
            assert f"O{oid} [" in dot
        assert to_dot(ws.graph, ws.atlas) == dot

    def test_json_output(self, ws):
        doc = json.loads(to_json(ws.graph, ws.atlas, ws.bijection))
        assert len(doc["nodes"]) == 20
        assert len(doc["edges"]) == 90
        assert all(e["weight"] == 512 for e in doc["edges"])
        assert all(n["size"] == 4608 for n in doc["nodes"])
        labels = {n["reference_label"] for n in doc["nodes"]}
        assert labels == {f"O{i}" for i in range(1, 21)}
        layer_of = {n["id"]: n["layer"] for n in doc["nodes"]}
        assert sorted(layer_of.values()).count(1) == 9
