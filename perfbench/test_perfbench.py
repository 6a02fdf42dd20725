"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

test_full_build_counts_are_exact builds the whole workspace under the
tracer, which takes about a minute on the pure-Python kernels.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

SWAP = "4\n" + "\n".join(
    " ".join("1,0,0,0/0" if j == perm else "0,0,0,0/0" for j in range(4))
    for perm in (0, 2, 1, 3)
) + "\n"
# `czorbits synth` output for SWAP, as the README documents it
SWAP_CIRCUIT = """CZ-COUNT 3
LOCAL a=HPPHPPHPPHPP b=
CZ
LOCAL a=H b=H
CZ
LOCAL a=H b=H
CZ
LOCAL a=PPHPPHPPHPP b=H
"""


class StubReference:
    def lookup_stdout(self, eid):
        return f"element {eid}\norbit O20\nreference-label O20\nlayer 3\n"

    def layer(self, eid):
        return 3


def outcome(code, stdout="", stderr="", error=None):
    return workloads.Outcome(code, stdout, stderr, error, 0.001)


def tally(problem, is_result):
    result = {"attempted": 0, "failed": 0, "wrong": 0, "problems": {}}
    workloads._tally(result, problem, is_result)
    return result


# --- the oracle flags what it must ---------------------------------------------


def test_oracle_accepts_pinned_artefact_and_flags_a_tampered_one(tmp_path):
    from czorbits.groups import build_c1
    from czorbits.io import format_table

    path = tmp_path / "c1.tbl"
    path.write_bytes(format_table(build_c1()).encode())
    assert oracle.artefact_mismatches(tmp_path, ["c1.tbl"]) == []

    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    assert oracle.artefact_mismatches(tmp_path, ["c1.tbl"]) == ["c1.tbl"]
    assert "lc2.tbl" in oracle.artefact_mismatches(tmp_path)


def test_pins_agree_with_the_roadmap_prefixes():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    for sha in oracle.ARTEFACT_SHA256.values():
        assert sha[:16] in roadmap


def test_right_circuit_passes():
    assert oracle.synth_problems(SWAP, SWAP_CIRCUIT, layer=3) == []


@pytest.mark.parametrize("tamper", [
    lambda c: c.replace("LOCAL a=H b=H", "LOCAL a=P b=H", 1),
    lambda c: c.replace("CZ-COUNT 3", "CZ-COUNT 2"),
    lambda c: c.replace("CZ\n", "", 1),
    lambda c: c.replace("b=H\n", "b=HX\n", 1),
])
def test_wrong_circuit_is_flagged(tamper):
    assert oracle.synth_problems(SWAP, tamper(SWAP_CIRCUIT), layer=3)


def test_cz_count_must_equal_the_layer():
    assert oracle.synth_problems(SWAP, SWAP_CIRCUIT, layer=2)


def test_traceback_is_a_failed_operation():
    def crashing_main(argv):
        raise AssertionError("coefficient exceeds the 32-bit range")

    got = workloads.run_cli(crashing_main, ["lookup", "m.txt"])
    assert got.code is None and "AssertionError" in got.error
    non_member = workloads.Query(0, "lookup", "non-unitary", None, "4\n")
    problem = oracle.query_problem(non_member, got, StubReference())
    assert problem.startswith("traceback")
    assert tally(problem, is_result=False) == {
        "attempted": 1, "failed": 1, "wrong": 0, "problems": {problem: 1}}
    member = workloads.Query(1, "lookup", "member", 7, None)
    assert tally(oracle.query_problem(member, got, StubReference()), True)["wrong"] == 1


def test_non_members_must_exit_4_with_the_documented_message():
    q = workloads.Query(0, "synth", "non-clifford", 5, "4\n")
    ref = StubReference()
    good = outcome(4, stderr="error: matrix is unitary but not an element of the group\n")
    assert oracle.query_problem(q, good, ref) is None
    assert oracle.query_problem(q, outcome(1, stderr=good.stderr), ref)
    assert oracle.query_problem(q, outcome(4, stderr="error: matrix is not unitary\n"), ref)


def test_lookup_answer_is_compared_exactly():
    q = workloads.Query(0, "lookup", "member", 83679, None)
    ref = StubReference()
    assert oracle.query_problem(q, outcome(0, ref.lookup_stdout(83679)), ref) is None
    assert oracle.query_problem(q, outcome(0, ref.lookup_stdout(83678)), ref)


# --- generated inputs --------------------------------------------------------


def test_times_omega_multiplies_by_omega():
    omega = np.exp(1j * np.pi / 4)
    for token in ("1,0,0,0/0", "3,-2,0,7/1", "0,0,0,-1/2", "0,5,-5,0/3"):
        got = oracle.entry_value(workloads._times_omega(token))
        assert abs(got - omega * oracle.entry_value(token)) < 1e-12


def test_non_clifford_input_is_unitary_and_non_unitary_input_is_not():
    import random

    for wire in (1, 2):
        m = oracle.matrix_value(workloads.non_clifford(SWAP, wire))
        assert oracle.is_unitary_value(m)
        assert not np.allclose(m, oracle.matrix_value(SWAP))
    rng = random.Random(3)
    for _ in range(20):
        text = workloads.non_unitary(rng)
        assert not oracle.is_unitary_value(oracle.matrix_value(text))
        assert max(abs(int(c)) for c in re.findall(r"-?\d+(?=[,/])", text)) < 2**13


def test_stream_non_unitary_inputs_stay_clear_of_the_overflow():
    import random

    from czorbits.io import parse_matrix

    rng = random.Random(5)
    worst = "4\n" + "\n".join([" ".join(["8191,-8191,8191,-8191/0"] * 4)] * 4) + "\n"
    for text in [worst] + [workloads.non_unitary(rng) for _ in range(50)]:
        assert parse_matrix(text).is_unitary() is False


# --- the known-defect probes ---------------------------------------------------


def test_defect_probes_are_fixed_well_formed_non_unitary_inputs():
    probes = workloads.defect_probes()
    assert probes == workloads.defect_probes()
    assert len(probes) == 40 and {q.command for q in probes} == {"lookup", "synth"}
    for q in probes:
        assert q.kind == "non-unitary"
        assert not oracle.is_unitary_value(oracle.matrix_value(q.matrix))
        assert max(int(c) for c in re.findall(r"-?\d+(?=[,/])", q.matrix)) < 2**20


def test_defect_probe_outcomes_are_told_apart(tmp_path):
    def cli_for(response):
        class Cli:
            @staticmethod
            def main(argv):
                return response()
        return Cli

    def overflow():
        raise AssertionError("coefficient exceeds the 32-bit range")

    def rejected():
        print("error: matrix is not unitary", file=sys.stderr)
        return 4

    def other_crash():
        raise KeyError("x")

    cases = [(rejected, "rejected"), (overflow, "overflow_tracebacks"), (lambda: 0, None),
             (other_crash, None)]
    for response, counter in cases:
        got = workloads.run_defect_probes(cli_for(response), tmp_path, tmp_path)
        assert got["probes"] == 40
        if counter is None:
            assert got["rejected"] == got["overflow_tracebacks"] == 0
            assert sum(got["problems"].values()) == 40
        else:
            assert got[counter] == 40 and not got["problems"]


# --- metric names --------------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    e2e = run.end_to_end([1.0], [0.001, 0.002], 100.0)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    layer = spans.per_layer_metrics(spans.Tracer(), 1.0, 1.0, 0.0, 1, 1.0, 1.0)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}


# --- traced counts -----------------------------------------------------------


def traced(build):
    import czorbits.cli  # noqa: F401  (loads every module the tracer wraps)

    tracer = spans.Tracer()
    tracer.install()
    try:
        build()
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_exactly():
    from czorbits import groups

    counts = [
        traced(lambda: groups.build_c1()).calls_under("groups.build_c1", "kernels.mat_mul")
        for _ in range(2)
    ]
    # 192 elements times 2 generators, plus one unitarity check per generator
    assert counts == [386, 386]


def test_tracer_puts_the_originals_back():
    from czorbits import kernels, workspace
    from czorbits.matrices import GateMatrix

    before = (kernels.mat_mul, workspace.build_c2, GateMatrix.__mul__, GateMatrix.identity)
    traced(lambda: None)
    assert (kernels.mat_mul, workspace.build_c2, GateMatrix.__mul__,
            GateMatrix.identity) == before


def test_full_build_counts_are_exact():
    from czorbits.workspace import build_workspace

    tracer = traced(lambda: build_workspace(fresh=True))
    m = spans.per_layer_metrics(tracer, 1.0, 1.0, 0.0, 92160, 1.0, 1.0)
    assert m["groups.build_c2.products"] == 460805
    assert m["groups.closure.useful_ratio"] == 92160 / 460805
    assert m["orbits.partition.products"] == 92160
    assert m["graph.build_graph.calls"] == 2
    assert m["graph.build_graph.products_per_call"] == 92160


# --- the contract's failure case ---------------------------------------------


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
