"""Report plumbing and the packed-table numeric bridge."""

import numpy as np

from czorbits.verify import VerificationReport, _table_to_numpy
from ringref import to_numpy


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
    def test_matches_per_element_numpy(self, ws):
        stacked = _table_to_numpy(ws.c1)
        for eid in range(0, len(ws.c1), 7):
            direct = to_numpy(ws.c1.element(eid))
            assert np.max(np.abs(stacked[eid] - direct)) < 1e-12

    def test_shape(self, ws):
        assert _table_to_numpy(ws.c1).shape == (192, 2, 2)
