"""Report plumbing, the packed-table numeric bridge, and checks run alone."""

import copy
import dataclasses

import numpy as np
import pytest

from czorbits import groups, verify
from czorbits.graph import CzGraph
from czorbits.matrices import CNOT_T1, CNOT_T2, CZ, P, SWAP
from czorbits.verify import (
    SAMPLE_SIZE,
    VerificationReport,
    _gather_mismatches,
    _table_to_numpy,
    determinism,
    graph,
    layers,
    samples,
    tables,
)
from czorbits.workspace import build_workspace
from ringref import left_fill, to_numpy


class TestReport:
    def test_pass_line(self):
        report = VerificationReport()
        report.add("orders", 192, 192)
        assert report.lines()[0] == "CHECK orders expected=192 observed=192 PASS"
        assert report.overall

    def test_fail_line_and_overall(self):
        report = VerificationReport()
        report.add("orders", 192, 191)
        report.add("edges", 90, 90)
        assert "FAIL" in report.lines()[0]
        assert not report.overall
        assert report.lines()[-1] == "OVERALL FAIL"

    def test_values_compacted(self):
        report = VerificationReport()
        report.add("profile", [1, 9, 9, 1], [1, 9, 9, 1])
        line = report.lines()[0]
        # one token per field, so values must not contain spaces
        assert len(line.split()) == 5


class TestTableBridge:
    @pytest.mark.parametrize("name, step", [("c1", 7), ("c2", 97)], ids=["c1", "c2"])
    def test_matches_per_element_numpy(self, ws, name, step):
        table = ws.table(name)
        stacked = _table_to_numpy(table)
        assert stacked.shape == (len(table), table.dim, table.dim)
        for eid in range(0, len(table), step):
            direct = to_numpy(table.element(eid))
            assert np.max(np.abs(stacked[eid] - direct)) < 1e-12

    def test_shape(self, ws):
        assert _table_to_numpy(ws.c1).shape == (192, 2, 2)


class TestLeftTableExact:
    def test_built_tables_have_no_mismatch(self, ws, monkeypatch):
        gates = (CZ, CNOT_T2, CNOT_T1, SWAP, ws.c2.alphabet["P1"], ws.c2.alphabet["P2"])
        assert [_gather_mismatches(ws.c2, g) for g in gates] == [0] * 6
        p2 = ws.lc2.alphabet["P2"]
        assert _gather_mismatches(ws.c1, P) == _gather_mismatches(ws.lc2, p2) == 0
        # the tests' reference left actions of every generator, H's too
        for table in (ws.c1, ws.lc2, ws.c2):
            fill = left_fill(table)
            for g, (label, gate) in enumerate(table.alphabet.items()):
                monkeypatch.setattr(verify, "left_action", lambda t, _: fill[g])
                assert _gather_mismatches(table, gate) == 0, (table.name, label)

    @pytest.mark.parametrize("label", ["H1", "P1", "H2", "P2", "CZ"])
    def test_swapped_left_entries_are_caught(self, ws, label, monkeypatch):
        action = left_fill(ws.c2)[list(ws.c2.alphabet).index(label)]
        action[[5, 9]] = action[[9, 5]]
        monkeypatch.setattr(verify, "left_action", lambda table, gate: action)
        assert _gather_mismatches(ws.c2, ws.c2.alphabet[label]) > 0


class TestChecksAlone:
    def test_samples_alone(self, ws):
        names = ["group-axioms-sample", "coset-invariance-sample",
                 "coset-well-definedness-sample", "word-roundtrip-sample", "action-table-sample"]
        assert list(samples(ws)) == [(name, SAMPLE_SIZE, SAMPLE_SIZE) for name in names]

    # orbit 1's weight to its neighbour orbit 2 moved to orbit 20, which is
    # not a neighbour, or onto orbit 1 itself
    @pytest.mark.parametrize("k, failed", [
        (19, ["weight-symmetry"]),
        (0, ["diagonal-zero", "weight-symmetry", "edge-count"]),
    ], ids=["off-diagonal", "diagonal"])
    def test_moved_weight_fails_the_graph_check(self, ws, k, failed):
        weight = [row[:] for row in ws.graph.weight]
        assert (weight[0][1], weight[0][k]) == (512, 0)
        weight[0][1], weight[0][k] = weight[0][k], weight[0][1]
        broken = dataclasses.replace(ws, graph=CzGraph(weight, ws.graph.witnesses))
        assert [name for name, exp, obs in graph(broken) if exp != obs] == failed
        assert all(exp == obs for _, exp, obs in graph(ws))

    # the count lines cannot see two orbits of 4608 trade layers
    @pytest.mark.parametrize("a, b", [(2, 12), (1, 20)], ids=["O2-O12", "O1-O20"])
    def test_swapped_layers_fail_the_distance_check(self, ws, a, b):
        atlas = copy.copy(ws.atlas)
        atlas.layers = ws.atlas.layers[:]
        assert atlas.layers[a - 1] != atlas.layers[b - 1]
        atlas.layers[a - 1], atlas.layers[b - 1] = atlas.layers[b - 1], atlas.layers[a - 1]
        broken = dataclasses.replace(ws, atlas=atlas)
        assert [name for name, exp, obs in layers(broken) if exp != obs] == [
            "layer-is-graph-distance"]
        assert all(exp == obs for _, exp, obs in layers(ws))

    def test_changed_right_entry_fails_the_table_checks(self, ws):
        # a copied table derives its tree again, here from the broken `right`
        c2 = copy.copy(ws.c2)
        c2.right = ws.c2.right.copy()
        assert c2.right[100, 4] != c2.right[101, 4]
        c2.right[100, 4] = c2.right[101, 4]
        broken = dataclasses.replace(ws, c2=c2)
        assert [name for name, exp, obs in tables(broken) if exp != obs] == [
            "right-table-exact", "left-gather-exact"]

    def test_swapped_gather_ids_fail_the_left_gather_check(self, ws, monkeypatch):
        # two ids swapped in each gathered action: CZ's, CNOT_T2's, CNOT_T1's
        def swapped(table, gate):
            action = groups.left_action(table, gate)
            action[[5, 9]] = action[[9, 5]]
            return action

        monkeypatch.setattr(verify, "left_action", swapped)
        lines = list(tables(ws))
        assert [name for name, exp, obs in lines if exp != obs] == ["left-gather-exact"]
        assert all(count > 0 for count in lines[1][2])

    def test_layers_alone_derive_no_cayley_table_of_c2(self):
        # the CNOT check gathers rows, so C2's `right` and tree stay underived
        fresh = build_workspace(fresh=True)
        assert all(exp == obs for _, exp, obs in layers(fresh))
        assert not {"right", "_tree"} & set(vars(fresh.c2))

    def test_replaced_book_row_fails_the_right_table_check(self, ws):
        # LC2 shares C2's book, so the copy gets its own list and row index;
        # a copied table derives its `_book` again from that list
        c2 = copy.copy(ws.c2)
        c2.book = ws.c2.book[:]
        assert c2.book[7] != c2.book[8]
        c2.book[7] = c2.book[8]
        c2._row_of = {data: r for r, data in enumerate(c2.book)}
        broken = dataclasses.replace(ws, c2=c2)
        # CZ's gather meets a negated row that the book no longer holds, and
        # the report counts that gate as failing instead of raising
        lines = {name: obs for name, exp, obs in tables(broken) if exp != obs}
        assert list(lines) == ["right-table-exact", "left-gather-exact"]
        assert lines["left-gather-exact"][0] == len(c2)

    def test_swapped_orbit_labels_fail_the_rebuild_check(self, ws):
        # elements 0 and 1 trade orbits: every orbit keeps its size, so no
        # count line sees it, but the rebuilt orbit map differs
        atlas = copy.copy(ws.atlas)
        atlas.orbit_of = copy.copy(ws.atlas.orbit_of)
        of = atlas.orbit_of
        assert of[0] != of[1]
        of[0], of[1] = of[1], of[0]
        broken = dataclasses.replace(ws, atlas=atlas)
        assert [name for name, exp, obs in determinism(broken) if exp != obs] == [
            "determinism-rebuild"]
