"""Synthesis: minimal CZ counts, exact reconstruction, circuit structure."""

import random

import numpy as np
import pytest

from czorbits import kernels
from czorbits.errors import NotInGroupError, VerificationError
from czorbits.groups import GroupTable, bfs_fill, left_action
from czorbits.matrices import CNOT_T1, CNOT_T2, CZ, H, I2, I4, P, SWAP, GateMatrix
from czorbits.synth import (
    CZ_OP,
    Circuit,
    CzOp,
    LocalOp,
    Synthesizer,
    _suffix_columns,
    evaluate,
)
from ringref import CycloNum, left_fill


def bfs_distance_from_identity_orbit(graph, oid):
    """Independent BFS over the edge list, not using stored layers."""
    dist = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for node in frontier:
            for other in graph.neighbors(node):
                if other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        frontier = nxt
    return dist[oid]


def local_ops(synth, v):
    """The local layer of an LC2 matrix, spelled by its factor pair's c1
    words, as ops: none when both words are empty."""
    lid = synth.lc2.contains(v)
    if lid is None:
        raise VerificationError("descent produced a non-local factor")
    ia, ib = synth.lc2.pairs[lid]
    a, b = synth.c1.word_of(ia), synth.c1.word_of(ib)
    return (LocalOp(a, b),) if a or b else ()


def factors_by_left_fill(synth):
    """Reference: each element's LC2 factor, filled breadth-first from the
    identity and the anchors (factor: the identity) along the left actions of
    LC2's generators on c2 and on lc2 (`left_fill`), as g * (v * a) = (g * v) * a."""
    atlas, graph = synth.atlas, synth.graph
    anchors = [synth.c2.identity_id]
    for oid in range(2, atlas.n_orbits + 1):
        below = [j for j in graph.neighbors(oid) if atlas.layer(j) == atlas.layer(oid) - 1]
        anchors.append(graph.witnesses[(oid, min(below))])
    factor = np.full(len(synth.c2), -1, dtype=np.int32)
    factor[anchors] = synth.lc2.identity_id
    c2_left, lc2_left = left_fill(synth.c2), left_fill(synth.lc2)
    cols = [list(synth.c2.alphabet).index(g) for g in synth.lc2.alphabet]
    return bfs_fill(factor, [(c2_left[c], lc2_left[i]) for i, c in enumerate(cols)])


def synthesize_by_scan(synth, m):
    """Reference descent: first LC2 witness in canonical order.

    Quadratic per element; cross-validates the plan-based path with exact
    products and membership lookups only.
    """
    eid = synth.c2.contains(m)
    if eid is None:
        raise NotInGroupError("matrix is not an element of the group")
    d = synth.atlas.layer(synth.atlas.orbit_of[eid])
    if d == 0:
        return Circuit(local_ops(synth, m))
    for v in map(synth.lc2.element, range(len(synth.lc2))):
        pushed = CZ * v * m
        j = synth.atlas.orbit_of[synth.c2.contains(pushed)]
        if synth.atlas.layer(j) == d - 1:
            rest = synthesize_by_scan(synth, pushed)
            return Circuit((*local_ops(synth, v.dagger()), CZ_OP, *rest.ops))
    raise VerificationError("no descent witness found")


class TestLandmarks:
    def test_identity_synthesizes_empty(self, ws):
        circuit = ws.synthesizer.synthesize(I4)
        assert circuit.ops == ()
        assert circuit.cz_count == 0
        assert evaluate(circuit) == I4

    def test_local_gate_synthesizes_without_cz(self, ws):
        m = H.tensor(P)
        circuit = ws.synthesizer.synthesize(m)
        assert circuit.cz_count == 0
        assert evaluate(circuit) == m

    def test_cz_needs_one(self, ws):
        circuit = ws.synthesizer.synthesize(CZ)
        assert circuit.cz_count == 1
        assert evaluate(circuit) == CZ

    def test_cnots_need_one(self, ws):
        for cnot in (CNOT_T1, CNOT_T2):
            circuit = ws.synthesizer.synthesize(cnot)
            assert circuit.cz_count == 1
            assert evaluate(circuit) == cnot

    def test_swap_needs_three(self, ws):
        circuit = ws.synthesizer.synthesize(SWAP)
        assert circuit.cz_count == 3
        assert evaluate(circuit) == SWAP
        # graph-distance oracle computed here from scratch
        oid = ws.atlas.orbit_of[ws.c2.contains(SWAP)]
        assert bfs_distance_from_identity_orbit(ws.graph, oid) == 3


class TestRoundTrip:
    def test_sample_round_trip_with_minimal_count(self, ws):
        rng = random.Random(83)
        for eid in rng.sample(range(len(ws.c2)), 400):
            circuit = ws.synthesizer.synthesize_id(eid)
            layer = ws.atlas.layer(ws.atlas.orbit_of[eid])
            assert circuit.cz_count == layer
            assert circuit.cz_count <= 3
            assert evaluate(circuit) == ws.c2.element(eid)

    def test_cz_count_matches_independent_bfs(self, ws):
        rng = random.Random(89)
        for eid in rng.sample(range(len(ws.c2)), 50):
            circuit = ws.synthesizer.synthesize_id(eid)
            oid = ws.atlas.orbit_of[eid]
            assert circuit.cz_count == bfs_distance_from_identity_orbit(
                ws.graph, oid
            )

    def test_scan_descent_agrees_with_plans(self, ws):
        rng = random.Random(97)
        for eid in rng.sample(range(len(ws.c2)), 10):
            m = ws.c2.element(eid)
            fast = ws.synthesizer.synthesize(m)
            slow = synthesize_by_scan(ws.synthesizer, m)
            assert fast.cz_count == slow.cz_count
            assert evaluate(fast) == m
            assert evaluate(slow) == m

    def test_plans_and_synthesis_make_no_product(self, ws, monkeypatch):
        def refuse(*args):
            raise AssertionError("synthesis made a matrix product")

        lookups = []
        real_contains = GroupTable.contains

        def counting_contains(table, m):
            lookups.append(table.name)
            return real_contains(table, m)

        rng = random.Random(103)
        ids = rng.sample(range(len(ws.c2)), 300)
        members = [ws.c2.element(eid) for eid in rng.sample(range(len(ws.c2)), 50)]
        members += [I4, CZ, SWAP]
        cz = left_action(ws.c2, CZ)
        for name in ("mat_mul", "mat_dagger", "mat_tensor"):
            monkeypatch.setattr(kernels, name, refuse)
        synth = Synthesizer(ws.c1, ws.lc2, ws.c2, ws.atlas, ws.graph, cz)
        monkeypatch.setattr(GroupTable, "contains", counting_contains)
        by_id = [synth.synthesize_id(eid) for eid in ids]
        by_matrix = [synth.synthesize(m) for m in members]
        monkeypatch.undo()
        # one c2 lookup per matrix, and no lc2 lookup at all
        assert lookups == ["c2"] * len(members)
        for eid, circuit in zip(ids, by_id):
            assert evaluate(circuit) == ws.c2.element(eid)
        for m, circuit in zip(members, by_matrix):
            assert evaluate(circuit) == m

    def test_factors_equal_the_left_action_fill(self, ws):
        want = factors_by_left_fill(ws.synthesizer)
        assert (want >= 0).all()
        assert np.array_equal(np.array(ws.synthesizer._factor), want)

    def test_non_member_rejected(self, ws):
        double = GateMatrix.from_entries(
            [[CycloNum(*v) + CycloNum(*v) for v in row] for row in I4.entries()]
        )
        with pytest.raises(NotInGroupError):
            ws.synthesizer.synthesize(double)


class TestCircuitStructure:
    def test_alternation(self, ws):
        rng = random.Random(101)
        for eid in rng.sample(range(len(ws.c2)), 300):
            ops = ws.synthesizer.synthesize_id(eid).ops
            assert LocalOp((), ()) not in ops
            for left, right in zip(ops, ops[1:]):
                assert not (
                    isinstance(left, LocalOp) and isinstance(right, LocalOp)
                )

    def test_cz_count_property(self):
        circuit = Circuit((CZ_OP, LocalOp(("H",), ()), CZ_OP))
        assert circuit.cz_count == 2

    def test_cz_op_identity(self):
        assert CZ_OP == CzOp()
        assert hash(CZ_OP) == hash(CzOp()) and repr(CZ_OP) == "CzOp()"
        assert CZ_OP != LocalOp((), ())


class TestEvaluate:
    def test_double_cz_is_identity(self):
        assert evaluate(Circuit((CZ_OP, CZ_OP))) == I4

    def test_hadamard_conjugation_gives_cnot(self):
        circuit = Circuit(
            (LocalOp(("H",), ()), CZ_OP, LocalOp(("H",), ()))
        )
        assert evaluate(circuit) == CNOT_T1
        circuit = Circuit(
            (LocalOp((), ("H",)), CZ_OP, LocalOp((), ("H",)))
        )
        assert evaluate(circuit) == CNOT_T2

    def test_local_words_multiply_left_to_right(self):
        circuit = Circuit((LocalOp(("H", "P"), ()),))
        assert evaluate(circuit) == (H * P).tensor(I2)

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Circuit((LocalOp(("Q",), ()),)))

    def test_no_wasted_product(self, ws, monkeypatch):
        """A new circuit of n ops costs n - 1 products, and the same circuit
        again, or another circuit on an evaluated tail, one product and one
        tensor and no lift of the tail; no identity is built. Products are
        counted at `kernels.mat_mul_columns`, which `mat_mul` and the lifted
        tails both reach."""
        circuit = ws.synthesizer.synthesize(SWAP)
        assert circuit.cz_count == 3
        orbit = ws.atlas.orbit_of[ws.c2.contains(SWAP)]
        other_id = next(
            e for e in ws.atlas.orbit_members(orbit)
            if ws.synthesizer.synthesize_id(e).ops[1:] == circuit.ops[1:]
            and ws.synthesizer.synthesize_id(e) != circuit
        )
        other = ws.synthesizer.synthesize_id(other_id)
        assert isinstance(other.ops[0], LocalOp)
        # fill the word caches, then forget every lifted tail
        evaluate(circuit)
        evaluate(other)
        _suffix_columns.cache_clear()
        products, tensors, lifts = [], [], []
        real_mat_mul_columns, real_mat_tensor = kernels.mat_mul_columns, kernels.mat_tensor
        real_columns = kernels.columns

        def counting_mat_mul_columns(*args):
            products.append(args)
            return real_mat_mul_columns(*args)

        def counting_columns(*args):
            lifts.append(args)
            return real_columns(*args)

        def counting_mat_tensor(*args):
            tensors.append(args)
            return real_mat_tensor(*args)

        def refuse(*args):
            raise AssertionError("evaluate built an identity matrix")

        monkeypatch.setattr(kernels, "mat_mul_columns", counting_mat_mul_columns)
        monkeypatch.setattr(kernels, "columns", counting_columns)
        monkeypatch.setattr(kernels, "mat_tensor", counting_mat_tensor)
        monkeypatch.setattr(GateMatrix, "identity", refuse)
        assert evaluate(circuit) == SWAP
        assert len(products) == len(circuit.ops) - 1
        assert len(tensors) == sum(isinstance(op, LocalOp) for op in circuit.ops)
        products.clear()
        tensors.clear()
        lifts.clear()
        assert evaluate(circuit) == SWAP
        assert (len(products), len(tensors)) == (1, 1)
        assert lifts == []
        products.clear()
        tensors.clear()
        assert evaluate(other) == ws.c2.element(other_id)
        assert (len(products), len(tensors)) == (1, 1)
        assert lifts == []
        products.clear()
        tensors.clear()
        assert evaluate(Circuit(())) is I4
        assert (products, tensors) == ([], [])
