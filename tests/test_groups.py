"""Group tables: orders, closure behavior, words, membership."""

import copy
import pickle
import random
import sys

import numpy as np
import pytest

from czorbits import groups, kernels, workspace
from czorbits.encoding import ENTRY_BYTES
from czorbits.errors import VerificationError
from czorbits.groups import (
    CLOSURE_CAP,
    LOCAL,
    MAX_ROWS,
    GroupTable,
    build_lc2,
    closure,
    left_action,
    word_product,
)
from czorbits.matrices import (
    C1_GENERATORS,
    C2_GENERATORS,
    CNOT_T1,
    CNOT_T2,
    CZ,
    SWAP,
    GateMatrix,
    H,
    I2,
    I4,
    P,
)
from czorbits.verify import _right_mismatches
from ringref import IMAG_UNIT, OMEGA, ONE, ZERO, left_fill, row_book

T = GateMatrix.from_entries([[ONE, ZERO], [ZERO, OMEGA]])
# the monomial gates whose left actions the tests gather on each table, by name
MONOMIAL = {
    "c1": {"P": P},
    "lc2": {"P1": C2_GENERATORS["P1"], "P2": C2_GENERATORS["P2"]},
    "c2": {"CZ": CZ, "CNOT_T1": CNOT_T1, "CNOT_T2": CNOT_T2, "SWAP": SWAP,
           "P1": C2_GENERATORS["P1"], "P2": C2_GENERATORS["P2"]},
}


class TestOrders:
    def test_c1_order(self, ws):
        assert len(ws.c1) == 192

    def test_lc2_order(self, ws):
        assert len(ws.lc2) == 4608

    def test_c2_order(self, ws):
        assert len(ws.c2) == 92160

    def test_lc2_dedup_ratio_is_eight(self, ws):
        assert 192 * 192 == 8 * len(ws.lc2)

    def test_trivial_closure(self):
        assert len(closure({"I": I2}, "trivial")) == 1


class TestMembership:
    def test_generators_present(self, ws):
        for g in (H.tensor(I2), I2.tensor(P), CZ):
            assert ws.c2.contains(g) is not None

    def test_cz_not_local(self, ws):
        assert ws.lc2.contains(CZ) is None
        assert ws.lc2.contains(I4) is not None

    def test_lc2_subset_of_c2(self, ws):
        assert all(ws.c2.contains(m) is not None for m in map(ws.lc2.element, range(len(ws.lc2))))

    def test_non_clifford_absent(self, ws):
        # controlled-sqrt(P): unitary, entries in the ring, not Clifford
        rows = [[ZERO] * 4 for _ in range(4)]
        for i, v in enumerate([ONE, ONE, ONE, OMEGA]):
            rows[i][i] = v
        assert ws.c2.contains(GateMatrix.from_entries(rows)) is None

    def test_binary_search_boundaries(self, ws):
        for table in (ws.c1, ws.lc2, ws.c2):
            first, last = table.element(0), table.element(len(table) - 1)
            assert table.contains(first) == 0
            assert table.contains(last) == len(table) - 1
            size = len(first.data)
            assert table.contains(GateMatrix(table.dim, bytes(size))) is None
            assert table.contains(GateMatrix(table.dim, b"\xff" * size)) is None
            for eid in (0, len(table) // 2, len(table) - 2):
                lo, hi = table.element(eid).data, table.element(eid + 1).data
                # one more in the last byte, the low byte of the last exponent
                between = lo[:-1] + bytes([lo[-1] + 1])
                assert lo < between < hi
                assert table.contains(GateMatrix(table.dim, between)) is None
        assert ws.c2.contains(I2) is None
        assert ws.c2.contains(H) is None
        assert ws.c1.contains(I4) is None
        assert ws.c1.contains(CZ) is None

    def test_group_axioms_sample(self, ws):
        rng = random.Random(41)
        for _ in range(300):
            x = ws.c2.element(rng.randrange(len(ws.c2)))
            y = ws.c2.element(rng.randrange(len(ws.c2)))
            assert ws.c2.contains(x * y) is not None
            assert ws.c2.contains(x.dagger()) is not None

    def test_stored_elements_unitary_sample(self, ws):
        rng = random.Random(43)
        for eid in rng.sample(range(len(ws.c2)), 300):
            assert ws.c2.element(eid).is_unitary()


class TestWords:
    def test_identity_has_empty_word(self, ws):
        for table in (ws.c1, ws.c2):
            ident = GateMatrix.identity(table.dim)
            assert table.word_of(table.contains(ident)) == ()

    def test_generator_words_are_single_letters(self, ws):
        assert ws.c1.word_of(ws.c1.contains(H)) == ("H",)
        assert ws.c1.word_of(ws.c1.contains(P)) == ("P",)
        assert ws.c2.word_of(ws.c2.contains(CZ)) == ("CZ",)

    def test_word_round_trip_sample(self, ws):
        rng = random.Random(47)
        for eid in rng.sample(range(len(ws.c2)), 200):
            assert word_product(ws.c2.alphabet, ws.c2.word_of(eid)) == ws.c2.element(eid)
        for eid in rng.sample(range(len(ws.lc2)), 200):
            assert word_product(ws.lc2.alphabet, ws.lc2.word_of(eid)) == ws.lc2.element(eid)

    @pytest.mark.parametrize("name, longest", [("c1", 16), ("lc2", 17), ("c2", 23)])
    def test_words_are_a_breadth_first_tree(self, ws, name, longest):
        table = ws.table(name)
        assert table.parent.dtype == np.int32 and table.label.dtype == np.int8
        assert np.flatnonzero(table.parent < 0).tolist() == [table.identity_id]
        rest = np.flatnonzero(table.parent >= 0)
        assert (table.right[table.parent[rest], table.label[rest]] == rest).all()
        assert max(len(table.word_of(e)) for e in range(len(table))) == longest

    def test_lc2_pairs_factor_elements(self, ws):
        rng = random.Random(53)
        for lid in rng.sample(range(len(ws.lc2)), 200):
            ia, ib = ws.lc2.pairs[lid]
            product = ws.c1.element(ia).tensor(ws.c1.element(ib))
            assert product == ws.lc2.element(lid)

    def test_invalid_id_rejected(self, ws):
        with pytest.raises(ValueError):
            ws.c1.word_of(len(ws.c1))
        with pytest.raises(ValueError):
            ws.c1.word_of(-1)

    @pytest.mark.parametrize("eid", [-1, 92160])
    def test_invalid_id_rejected_on_every_path(self, ws, eid):
        with pytest.raises(ValueError, match="not in"):
            ws.c2.element(eid)
        with pytest.raises(ValueError, match="not in"):
            ws.c2.word_of(eid)
        with pytest.raises(ValueError, match="not in"):
            ws.synthesizer.synthesize_id(eid)

    def test_unknown_label_rejected(self, ws):
        with pytest.raises(ValueError):
            word_product(ws.c1.alphabet, ("H", "X"))

    def test_evaluate_makes_no_wasted_product(self, ws, monkeypatch):
        """A word of n letters costs n - 1 products and builds no identity."""
        word = ws.c2.word_of(len(ws.c2) - 1)
        products = []
        real_mat_mul = kernels.mat_mul

        def counting_mat_mul(*args):
            products.append(args)
            return real_mat_mul(*args)

        def refuse(*args):
            raise AssertionError("evaluate built an identity matrix")

        monkeypatch.setattr(kernels, "mat_mul", counting_mat_mul)
        monkeypatch.setattr(GateMatrix, "identity", refuse)
        assert word_product(ws.c2.alphabet, word) == ws.c2.element(len(ws.c2) - 1)
        assert len(products) == len(word) - 1
        assert word_product(ws.c2.alphabet, ()) is I4 and word_product(ws.c1.alphabet, ()) is I2
        assert word_product(ws.c1.alphabet, ("H",)) is H
        assert len(products) == len(word) - 1


class TestActionTables:
    def test_right_table_shape(self, ws):
        assert ws.c2.right.shape == (92160, 5)
        assert ws.c2.right.dtype == np.int32
        assert ws.c1.right.shape == (192, 2)
        assert ws.lc2.right.shape == (4608, 4)
        assert ws.lc2.right.dtype == np.int32

    def test_right_matches_exact_products(self, ws):
        rng = random.Random(61)
        for table in (ws.c2, ws.lc2):
            labels = list(table.alphabet)
            for eid in rng.sample(range(len(table)), 200):
                for col, label in enumerate(labels):
                    product = table.element(eid) * table.alphabet[label]
                    assert table.right[eid, col] == table.contains(product)

    @pytest.mark.parametrize("label", ["CZ", "CNOT_T1", "CNOT_T2", "SWAP", "P1", "P2"])
    def test_left_matches_exact_products(self, ws, label):
        rng = random.Random(67)
        for table in (ws.c2, ws.lc2):
            if label not in MONOMIAL[table.name]:
                continue  # only P1 and P2 keep lc2
            gate = MONOMIAL[table.name][label]
            action = left_action(table, gate)
            assert sorted(action.tolist()) == list(range(len(table)))
            for eid in rng.sample(range(len(table)), 200):
                assert action[eid] == table.contains(gate * table.element(eid))

    @pytest.mark.parametrize("name", ["c1", "lc2", "c2"])
    def test_left_actions_agree_with_right_on_every_id(self, ws, name):
        # g * (e * h) = (g * e) * h and g * 1 = g fix a left action from
        # `right`, by integer gathers alone
        table = getattr(ws, name)
        for label, gate in MONOMIAL[name].items():
            action = left_action(table, gate)
            assert action.shape == (len(table),) and action.dtype == np.int32, label
            assert (np.bincount(action, minlength=len(table)) == 1).all(), label
            assert action[table.identity_id] == table.contains(gate), label
            for h, column in enumerate(table.right.T):
                assert np.array_equal(action[column], column[action]), (label, h)

    def test_left_of_whole_c1(self, ws):
        expected = [ws.c1.contains(P * m) for m in map(ws.c1.element, range(len(ws.c1)))]
        assert left_action(ws.c1, P).tolist() == expected

    def test_left_of_whole_hh_cz_closure(self):
        # a closure other than the workspace's: every element, and a local
        # gate whose products leave the group
        table = closure({"HH": H.tensor(H), "CZ": CZ}, "hh-cz")
        expected = [table.contains(CZ * table.element(e)) for e in range(len(table))]
        assert left_action(table, CZ).tolist() == expected
        with pytest.raises(VerificationError, match="not an element of hh-cz"):
            left_action(table, C2_GENERATORS["P1"])

    def test_left_action_rejects_a_gate_that_is_not_monomial(self, ws):
        # H1 and H have two nonzeros in a row, CZ is not 2x2, the last repeats a column
        for table, gate in ((ws.c2, C2_GENERATORS["H1"]), (ws.c1, H), (ws.c1, CZ),
                            (ws.c1, GateMatrix.from_entries([[ONE, ZERO], [ONE, ZERO]]))):
            with pytest.raises(ValueError, match="not a monomial"):
                left_action(table, gate)


def _reference_closure(generators):
    """A plain breadth-first search over exact products, one at a time: the
    elements numbered in (parent, generator) order, then ranked by encoding.
    Returns the encodings in rank order and parent, label and right in ranks."""
    gens = list(generators.values())
    found = [GateMatrix.identity(gens[0].dim)]
    number, tree, right = {found[0].data: 0}, [(-1, -1)], []
    for i, m in enumerate(found):  # found grows while it is read
        right.append([])
        for g, gen in enumerate(gens):
            product = m * gen
            if product.data not in number:
                number[product.data] = len(found)
                found.append(product)
                tree.append((i, g))
            right[-1].append(number[product.data])
    order = sorted(range(len(found)), key=lambda i: found[i].data)
    rank = {i: r for r, i in enumerate(order)} | {-1: -1}
    return ([found[i].data for i in order], [rank[tree[i][0]] for i in order],
            [tree[i][1] for i in order], [[rank[j] for j in right[i]] for i in order])


class TestClosureAgainstReference:
    @pytest.mark.parametrize("name, generators", [
        ("c1", C1_GENERATORS), ("hh-cz", {"HH": H.tensor(H), "CZ": CZ})])
    def test_closure_equals_a_plain_search(self, name, generators):
        table = closure(generators, name)
        encodings, parent, label, right = _reference_closure(generators)
        assert [table.element(e).data for e in range(len(table))] == encodings
        assert table.parent.tolist() == parent
        assert table.label.tolist() == label
        assert table.right.tolist() == right


class TestCosetSearch:
    """A closure that meets whole left cosets of its local generators' subgroup
    makes the table a closure without them makes, and keeps the cosets."""

    @pytest.mark.parametrize("name, generators, local, shape", [
        ("hh-cz", {"HH": H.tensor(H), "CZ": CZ}, ("HH",), (6, 2)),
        ("c2", C2_GENERATORS, ("H1", "P1", "H2", "P2"), (20, 4608)),
    ])
    def test_cosets_change_no_field(self, name, generators, local, shape):
        plain, by_cosets = closure(generators, name), closure(generators, name, local)
        assert by_cosets.book == plain.book
        assert by_cosets.keys.typecode == plain.keys.typecode == "q"
        assert by_cosets.keys == plain.keys
        for field in ("parent", "label", "right"):
            got, want = getattr(by_cosets, field), getattr(plain, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        assert np.array(plain.cosets).shape == (len(plain), 1)
        assert np.array(by_cosets.cosets).shape == shape
        assert {c.typecode for c in plain.cosets + by_cosets.cosets} == {"i"}
        assert sorted(np.array(by_cosets.cosets).ravel().tolist()) == list(range(len(plain)))

    def test_c2_cosets_are_closed_under_lc2_left_actions(self, ws):
        cosets = ws.c2.cosets
        coset_of = np.empty(len(ws.c2), dtype=np.int64)
        coset_of[cosets] = np.arange(len(cosets))[:, None]
        fill = left_fill(ws.c2)
        for label in ws.lc2.alphabet:
            moved = coset_of[fill[list(ws.c2.alphabet).index(label)][cosets]]
            assert (moved == np.arange(len(cosets))[:, None]).all(), label

    def test_identity_coset_is_lc2(self, ws):
        lc2_ids = sorted(ws.c2.contains(ws.lc2.element(e)) for e in range(len(ws.lc2)))
        (row,) = [c for c in ws.c2.cosets if ws.c2.identity_id in c]
        assert sorted(row.tolist()) == lc2_ids

    def test_unknown_local_label_rejected(self):
        with pytest.raises(ValueError):
            closure(C1_GENERATORS, "c1", local=("X",))


class TestLc2FromC2:
    def test_derived_lc2_equals_its_own_closure(self, ws):
        """LC2 read off C2's tables is, element by element, the table closing
        H1, P1, H2, P2 makes, kept on C2's own rows."""
        closed = closure({label: C2_GENERATORS[label] for label in LOCAL}, "lc2")
        derived = build_lc2(ws.c1, ws.c2)
        assert derived.name == closed.name and derived.alphabet == closed.alphabet
        assert len(derived) == len(closed) == 4608
        ids = np.arange(len(closed))
        assert derived.encodings(ids) == closed.encodings(ids)
        for field in ("parent", "label", "right"):
            got, want = getattr(derived, field), getattr(closed, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        for label, gate in MONOMIAL["lc2"].items():
            assert np.array_equal(left_action(derived, gate), left_action(closed, gate)), label
        assert derived.pairs == ws.lc2.pairs
        cols = [list(ws.c2.alphabet).index(label) for label in LOCAL]
        for table in (derived, ws.lc2):
            assert table.book is ws.c2.book
            assert all(a is ws.c2.act[col] for a, col in zip(table.act, cols, strict=True))

    def test_derived_lc2_ids_are_its_c2_elements_in_order(self, ws):
        ids = [ws.c2.contains(ws.lc2.element(e)) for e in range(len(ws.lc2))]
        assert None not in ids and ids == sorted(ids)

    def test_c2_closed_without_local_generators_is_refused(self, ws):
        # its first coset is the identity alone, which H1 leads out of
        c2 = closure(C2_GENERATORS, "c2")
        assert np.array(c2.cosets).shape == (92160, 1)
        with pytest.raises(VerificationError, match="not closed"):
            build_lc2(ws.c1, c2)


class TestClosureValidation:
    def test_cap_triggers(self, monkeypatch):
        monkeypatch.setattr(groups, "CLOSURE_CAP", 10)
        with pytest.raises(VerificationError):
            closure(C1_GENERATORS, "capped")
        assert CLOSURE_CAP == 10**6

    def test_cap_counts_the_keys_of_whole_cosets(self, monkeypatch):
        # the subgroup {I, HH} closes in 2 keys; the six cosets hold 12
        monkeypatch.setattr(groups, "CLOSURE_CAP", 11)
        with pytest.raises(VerificationError, match="exceeded 11 elements"):
            closure({"HH": H.tensor(H), "CZ": CZ}, "capped", local=("HH",))

    def test_rejects_non_unitary_generator(self):
        shear = GateMatrix.from_entries([[ONE, ONE], [ZERO, ONE]])
        with pytest.raises(ValueError):
            closure({"S": shear}, "bad")

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            closure({"A": I2, "B": I4}, "mixed")

    def test_rejects_empty_generators(self):
        with pytest.raises(ValueError):
            closure({}, "empty")

    def test_more_rows_than_keys_hold_raises(self):
        # H and T generate an infinite group, whose rows never repeat
        assert MAX_ROWS == 512
        with pytest.raises(VerificationError, match="more than 512 distinct rows"):
            closure({"H": H, "T": T}, "ht")


class TestRowBook:
    # size: the distinct rows the table's keys use; LC2's are 288 of C2's book
    @pytest.mark.parametrize("name, size", [("c1", 48), ("lc2", 288), ("c2", 480)])
    def test_row_book_ascends_and_keys_rise_strictly(self, ws, name, size):
        table = ws.table(name)
        assert len(np.unique(table.row_ids(slice(None)))) == size
        assert table.book is ws.c2.book if name == "lc2" else len(table.book) == size
        assert all(len(row) == table.dim * ENTRY_BYTES for row in table.book)
        assert all(a < b for a, b in zip(table.book, table.book[1:]))
        assert table.keys.typecode == "q" and table.keys.itemsize == 8
        assert len(table.keys) == len(table)
        assert (np.diff(table.keys) > 0).all()

    @pytest.mark.parametrize("name, step", [("c1", 1), ("lc2", 1), ("c2", 7)])
    def test_key_order_is_encoding_order(self, ws, name, step):
        table = ws.table(name)
        datas = [table.element(e).data for e in range(0, len(table), step)]
        assert all(a < b for a, b in zip(datas, datas[1:]))

    def test_contains_inverts_element_on_every_id(self, ws):
        c2 = ws.c2
        assert all(c2.contains(c2.element(e)) == e for e in range(len(c2)))

    def test_non_members_in_and_outside_the_row_book(self, ws):
        c2 = ws.c2
        t1 = T.tensor(I2)
        rows = range(0, len(t1.data), 4 * ENTRY_BYTES)
        # each row of T (x) I is a unit row times a power of omega, a row of
        # some C2 element: a binary-search miss
        assert {t1.data[o : o + 4 * ENTRY_BYTES] for o in rows} <= set(c2.book)
        assert c2.contains(t1) is None
        # H T H has the entry (1 + omega) / 2, which no C2 row has
        hth = (H * T * H).tensor(I2)
        assert not {hth.data[o : o + 4 * ENTRY_BYTES] for o in rows} <= set(c2.book)
        assert c2.contains(hth) is None
        assert c2.contains(H) is None and c2.contains(I2) is None

    @pytest.mark.parametrize("gens", [C1_GENERATORS, C2_GENERATORS, {"HH": H.tensor(H), "CZ": CZ}],
                             ids=["c1", "c2", "hh-cz"])
    def test_row_book_matches_the_cyclonum_reference(self, gens):
        gens = list(gens.items())
        dim = gens[0][1].dim
        book, act, identity = groups._row_book(gens, dim, "t")
        want_book, want_act, want_identity = row_book(gens, dim)
        assert book == want_book
        assert act.dtype == want_act.dtype and np.array_equal(act, want_act)
        assert np.array_equal(identity, want_identity)

    def test_columns_with_more_than_two_nonzeros_fold(self):
        hh = H.tensor(H)  # four nonzero entries in every column
        table = closure({"HH": hh, "CZ": CZ}, "hh-cz")
        assert len(table) == 12
        for eid in range(len(table)):
            for col, g in enumerate(table.alphabet.values()):
                assert table.contains(table.element(eid) * g) == table.right[eid, col]
        last = len(table) - 1
        assert word_product(table.alphabet, table.word_of(last)) == table.element(last)


class TestRightTableOracle:
    def test_every_table_matches_the_batched_kernel(self, ws):
        assert [_right_mismatches(t) for t in (ws.c1, ws.lc2)] == [0, 0]

    def test_a_wrong_entry_is_counted(self, ws):
        # lc2 has 4608 rows, so the wrong entry sits in the second slice
        broken = copy.copy(ws.lc2)
        broken.right = ws.lc2.right.copy()
        broken.right[4500, 1] = broken.right[4501, 1]
        assert _right_mismatches(broken) == 1

    def test_a_product_outside_the_table_is_refused(self, ws):
        act = copy.deepcopy(ws.c1.act)
        act[0][1] = act[0][0]  # H sends rows 0 and 1 to one row
        broken = GroupTable("c1", ws.c1.alphabet, ws.c1.keys, ws.c1.book, act)
        with pytest.raises(VerificationError, match="c1 is not closed under H"):
            broken.right


class TestColdBuild:
    """A build derives nothing of C2's Cayley table: CZ's left action and the
    synthesis factors are row gathers, and the closure checks closedness."""

    def test_a_fresh_build_derives_nothing_of_c2(self):
        fresh = workspace.build_workspace(fresh=True)
        assert not set(groups.DERIVED) & set(vars(fresh.c2))
        assert fresh.lc2._row_of is fresh.c2._row_of

    def test_build_workspace_gathers_cz_once(self, monkeypatch):
        # the partition, the graph and the synthesis tails read one array
        calls = []

        def counting(*args):
            calls.append(args)
            return left_action(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("czorbits") and getattr(module, "left_action", None) is left_action:
                monkeypatch.setattr(module, "left_action", counting)
        workspace.build_workspace(fresh=True)
        assert len(calls) == 1

    def test_cz_row_gather_is_the_left_action_on_every_id(self, ws):
        action = left_action(ws.c2, CZ)
        assert action.dtype == np.int32
        assert np.array_equal(action, left_fill(ws.c2)[list(ws.c2.alphabet).index("CZ")])

    def test_cz_row_gather_on_another_closure(self):
        hh_cz = closure({"HH": H.tensor(H), "CZ": CZ}, "hh-cz")
        assert left_action(hh_cz, CZ).tolist() == left_fill(hh_cz)[1].tolist()

    def test_ids_of_inverts_row_ids_and_refuses_outsiders(self, ws):
        ids = np.array([0, 5, 4607])
        assert ws.lc2.ids_of(ws.lc2.row_ids(ids)).tolist() == ids.tolist()
        outside = ws.c2.row_ids([ws.c2.contains(CZ)])
        with pytest.raises(VerificationError, match="not an element of lc2"):
            ws.lc2.ids_of(outside)
        with pytest.raises(VerificationError, match="not an element of c2"):
            ws.c2.ids_of(np.full((1, 4), -1))

    def test_row_map_is_right_multiplication(self, ws):
        word = ["H1", "CZ", "P2", "P2", "H2"]
        m = word_product(ws.c2.alphabet, word)
        forward = ws.c2.row_map(word)
        assert sorted(forward.tolist()) == list(range(len(ws.c2.book)))
        for eid in (0, 777, 91234):
            got = ws.c2.ids_of(forward[ws.c2.row_ids([eid])])
            assert got.tolist() == [ws.c2.contains(ws.c2.element(eid) * m)]

    def test_a_corrupted_row_action_fails_the_closedness_check(self, ws):
        # on a copied C2, CZ sends rows 0 and 1 to one row
        broken = copy.copy(ws.c2)
        broken.act = [copy.copy(a) for a in ws.c2.act]
        assert broken.act[4][1] != broken.act[4][0]
        broken.act[4][1] = broken.act[4][0]
        with pytest.raises(VerificationError, match="c2 is not closed under CZ"):
            for _ in groups._closed_products(broken):
                pass
        assert all(len(keys) == len(ws.c2) for keys in groups._closed_products(ws.c2))

    def test_closure_runs_the_closedness_check(self, monkeypatch):
        # the search's own result, its P row action then corrupted
        search = groups._level_search

        def corrupted(*args):
            keys, book, act, cosets = search(*args)
            act[1][1] = act[1][0]
            return keys, book, act, cosets

        monkeypatch.setattr(groups, "_level_search", corrupted)
        with pytest.raises(VerificationError, match="c1 is not closed under P"):
            groups.build_c1()


class TestPickle:
    """A pickled table holds what the closure found; what derives from it is
    made again, equal, the first time something reads it."""

    @pytest.fixture(scope="class")
    def loaded(self, ws):
        return pickle.loads(pickle.dumps(ws, protocol=pickle.HIGHEST_PROTOCOL))

    @pytest.mark.parametrize("name", ["c1", "lc2", "c2"])
    def test_derived_entries_are_left_out_and_made_equal(self, ws, loaded, name):
        built, table = ws.table(name), loaded.table(name)
        for field in groups.DERIVED:
            getattr(built, field)
        assert set(groups.DERIVED) <= set(vars(built))
        assert not set(groups.DERIVED) & set(built.__getstate__())
        assert not set(groups.DERIVED) & set(vars(table))
        for field in ("right", "parent", "label"):
            got, want = getattr(table, field), getattr(built, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        for label, gate in MONOMIAL[name].items():
            got, want = left_action(table, gate), left_action(built, gate)
            assert got.dtype == want.dtype and np.array_equal(got, want), label

    def test_workspace_pickle_is_compact(self, ws):
        assert len(pickle.dumps(ws, protocol=pickle.HIGHEST_PROTOCOL)) <= 1.67e6


class TestCanonicalOrder:
    def test_elements_sorted_by_encoding(self, ws):
        datas = [ws.c1.element(e).data for e in range(len(ws.c1))]
        assert datas == sorted(datas)
        sample = [ws.c2.element(i).data for i in range(0, len(ws.c2), 997)]
        assert sample == sorted(sample)

    def test_index_round_trip(self, ws):
        rng = random.Random(59)
        for eid in rng.sample(range(len(ws.c2)), 100):
            assert ws.c2.contains(ws.c2.element(eid)) == eid

    def test_phase_subgroup_in_c1(self, ws):
        # the eight scalar matrices omega^j * I2 all belong to C1
        phase = I2
        omega_i2 = GateMatrix.from_entries([[OMEGA, ZERO], [ZERO, OMEGA]])
        seen = set()
        for _ in range(8):
            assert ws.c1.contains(phase) is not None
            seen.add(phase.data)
            phase = phase * omega_i2
        assert phase == I2
        assert len(seen) == 8

    def test_imag_unit_scalar_in_c1(self, ws):
        i_i2 = GateMatrix.from_entries([[IMAG_UNIT, ZERO], [ZERO, IMAG_UNIT]])
        assert ws.c1.contains(i_i2) is not None
