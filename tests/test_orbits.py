"""Orbit partition: coset structure, labels, layers."""

import random

import numpy as np

import pytest

from czorbits.errors import VerificationError
from czorbits.groups import closure, left_action
from czorbits.matrices import CNOT_T1, CNOT_T2, CZ, H, I4, P, SWAP
from czorbits.orbits import partition
from ringref import left_fill


def _fixpoint_orbit_of(c2, lc2):
    """Orbit ids found without the closure's cosets: every id takes the least
    label among its neighbours under the left actions on c2 of lc2's
    generators until nothing changes; orbit ids follow the minima in
    increasing order."""
    fill = left_fill(c2)
    actions = [fill[list(c2.alphabet).index(label)] for label in lc2.alphabet]
    low = np.arange(len(c2))
    while True:
        nxt = low.copy()
        for act in actions:
            np.minimum(nxt, low[act], out=nxt)
        if np.array_equal(nxt, low):
            return (np.unique(low, return_inverse=True)[1] + 1).tolist()
        low = nxt


class TestPartition:
    def test_cosets_label_as_the_fixpoint_does(self, ws):
        orbit_of = partition(ws.c2, ws.lc2, left_action(ws.c2, CZ)).orbit_of
        fixpoint = _fixpoint_orbit_of(ws.c2, ws.lc2)
        assert sorted(set(orbit_of)) == sorted(set(fixpoint)) == list(range(1, 21))
        # one fixpoint class per orbit and one orbit per fixpoint class
        assert len(set(zip(orbit_of, fixpoint))) == 20
        assert orbit_of == ws.atlas.orbit_of

    def test_cosets_of_another_size_rejected(self, ws):
        hh_cz = closure({"HH": H.tensor(H), "CZ": CZ}, "hh-cz", local=("HH",))
        with pytest.raises(VerificationError, match="expected 0 cosets of size 4608"):
            partition(hh_cz, ws.lc2, left_action(hh_cz, CZ))

    def test_disconnected_quotient_rejected(self, ws):
        # under the identity action every coset reaches only itself
        with pytest.raises(VerificationError, match="quotient graph is disconnected"):
            partition(ws.c2, ws.lc2, np.arange(len(ws.c2)))

    def test_build_calls_no_np_unique(self, monkeypatch):
        # np.unique's first call in a process costs 11-21 ms (numpy 2.4.6,
        # 2 vCPU), about as much as the partition and the graph together
        from czorbits.workspace import build_workspace

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called during the build")

        monkeypatch.setattr(np, "unique", refuse)
        build_workspace(fresh=True)

    def test_twenty_orbits_of_4608(self, ws):
        assert ws.atlas.n_orbits == 20
        for oid in range(1, 21):
            assert len(ws.atlas.orbit_members(oid)) == 4608

    def test_partition_covers_disjointly(self, ws):
        union = set()
        total = 0
        for oid in range(1, 21):
            members = ws.atlas.orbit_members(oid)
            total += len(members)
            union.update(members)
        assert total == 92160
        assert len(union) == 92160

    def test_orbit_of_consistent_with_members(self, ws):
        rng = random.Random(61)
        for oid in rng.sample(range(1, 21), 5):
            for eid in rng.sample(ws.atlas.orbit_members(oid).tolist(), 50):
                assert ws.atlas.orbit_of[eid] == oid

    def test_identity_orbit_is_lc2(self, ws):
        o1 = set(ws.atlas.orbit_members(1))
        lc2_ids = {ws.c2.contains(ws.lc2.element(e)) for e in range(len(ws.lc2))}
        assert o1 == lc2_ids

    def test_representative_is_minimal(self, ws):
        for oid in range(1, 21):
            members = ws.atlas.orbit_members(oid)
            assert ws.atlas.representative(oid) == min(members)


class TestCosetProperties:
    def test_left_multiplication_preserves_orbit(self, ws):
        rng = random.Random(67)
        for _ in range(300):
            v = ws.lc2.element(rng.randrange(len(ws.lc2)))
            eid = rng.randrange(len(ws.c2))
            moved = ws.c2.contains(v * ws.c2.element(eid))
            assert ws.atlas.orbit_of[moved] == ws.atlas.orbit_of[eid]

    def test_same_orbit_differs_by_local(self, ws):
        rng = random.Random(71)
        for _ in range(300):
            oid = rng.randrange(1, 21)
            members = ws.atlas.orbit_members(oid)
            u1 = ws.c2.element(rng.choice(members))
            u2 = ws.c2.element(rng.choice(members))
            assert ws.lc2.contains(u1 * u2.dagger()) is not None

    def test_different_orbits_not_locally_related(self, ws):
        rng = random.Random(73)
        for _ in range(100):
            o1, o2 = rng.sample(range(1, 21), 2)
            u1 = ws.c2.element(rng.choice(ws.atlas.orbit_members(o1)))
            u2 = ws.c2.element(rng.choice(ws.atlas.orbit_members(o2)))
            assert ws.lc2.contains(u1 * u2.dagger()) is None


class TestLayers:
    def test_layer_profile(self, ws):
        counts = [ws.atlas.layers.count(v) for v in range(4)]
        assert counts == [1, 9, 9, 1]
        assert max(ws.atlas.layers) == 3

    def test_identity_orbit_layer_zero(self, ws):
        assert ws.atlas.layer(1) == 0
        assert ws.atlas.orbit_of[ws.c2.contains(I4)] == 1

    def test_local_gates_layer_zero(self, ws):
        assert ws.atlas.layer(ws.atlas.orbit_of[ws.c2.contains(H.tensor(P))]) == 0

    def test_cz_layer_one(self, ws):
        assert ws.atlas.layer(ws.atlas.orbit_of[ws.c2.contains(CZ)]) == 1

    def test_cnots_layer_one(self, ws):
        for cnot in (CNOT_T1, CNOT_T2):
            assert ws.atlas.layer(ws.atlas.orbit_of[ws.c2.contains(cnot)]) == 1

    def test_swap_layer_three(self, ws):
        assert ws.atlas.layer(ws.atlas.orbit_of[ws.c2.contains(SWAP)]) == 3

    def test_layers_consistent_with_graph(self, ws):
        # each positive layer is 1 + min over its graph neighbors
        for oid in range(1, 21):
            lv = ws.atlas.layer(oid)
            neighbor_layers = [ws.atlas.layer(j) for j in ws.graph.neighbors(oid)]
            if lv == 0:
                assert oid == 1
            else:
                assert lv == 1 + min(neighbor_layers)

    def test_labels_sorted_layer_major(self, ws):
        keys = [
            (ws.atlas.layer(oid), ws.atlas.representative(oid))
            for oid in range(1, 21)
        ]
        assert keys == sorted(keys)
