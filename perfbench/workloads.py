"""The work each benchmark workload does, after set-up, in its worker.

Everything here runs once czorbits is set up; it may import numpy (the
oracle does), which worker.py must not do earlier because set-up time
includes `import czorbits.cli`.
"""

from __future__ import annotations

import contextlib
import copyreg
import io
import os
import pickle
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from oracle import (
    C2_ORDER,
    COMMAND_ARTEFACTS,
    Reference,
    artefact_mismatches,
    is_unitary_value,
    matrix_value,
    query_problem,
)

ATLAS_COMMANDS = (["generate"], ["orbits"], ["graph", "--format", "json"])

# Query-mix composition: the share of each input kind and command.
NON_MEMBER_SHARE = 0.10
ELEMENT_ARG_SHARE = 0.25
COEF_CAP_BITS = 20  # the parser rejects coefficients of 2**20 or more
# Non-unitary stream inputs stay below 2**13: an entry of M M-dagger is then
# at most 16 * (2**13)**2 = 2**30, inside the kernels' 32-bit coefficient
# range. Larger coefficients hit the known overflow defect (ROADMAP item 1),
# which would fail a number of queries that varies with timing; the fixed
# defect probes below cover them in every run instead.
NON_UNITARY_BITS = 13

# Queries in each half (untraced, then traced) of a traced query-mix run.
TRACED_QUERIES = 600
MICROBENCH_PRODUCTS = 2000
MICROBENCH_REPEATS = 5


# --- running one CLI command in-process ------------------------------------


@dataclass
class Outcome:
    code: int | None  # None when an exception escaped cli.main
    stdout: str
    stderr: str
    error: str | None
    seconds: float


def run_cli(main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code, escaped = None, exc
    seconds = time.perf_counter() - t0
    error = None
    if escaped is not None:
        error = "".join(traceback.format_exception_only(escaped)).strip()
    return Outcome(code, out.getvalue(), err.getvalue(), error, seconds)


# --- the seeded query stream -----------------------------------------------


@dataclass
class Query:
    index: int
    command: str  # "lookup" or "synth"
    kind: str  # "member", "non-clifford" or "non-unitary"
    eid: int | None
    matrix: str | None  # file content; None means --element eid

    def argv(self, path: str) -> list[str]:
        source = [path] if self.matrix is not None else ["--element", str(self.eid)]
        extra = ["--verify"] if self.command == "synth" else []
        return [self.command, *source, *extra]


def _times_omega(token: str) -> str:
    """Entry times ω: (a, b, c, d) -> (-d, a, b, c), since ω⁴ = -1."""
    body, _, k = token.partition("/")
    a, b, c, d = body.split(",")
    neg_d = d[1:] if d.startswith("-") else ("-" + d if d != "0" else "0")
    return f"{neg_d},{a},{b},{c}/{k}"


def non_clifford(record: str, wire: int) -> str:
    """The element times T on one wire: a unitary outside the group.

    Right-multiplying by T (x) I scales columns 2 and 3 by ω; I (x) T scales
    columns 1 and 3 (basis index 2*q1 + q2).
    """
    lines = record.split("\n")
    cols = (2, 3) if wire == 1 else (1, 3)
    rows = []
    for line in lines[1:5]:
        tokens = line.split(" ")
        rows.append(" ".join(_times_omega(t) if j in cols else t for j, t in enumerate(tokens)))
    return "\n".join([lines[0], *rows]) + "\n"


def non_unitary(rng: random.Random) -> str:
    """A well-formed 4x4 matrix that is not unitary.

    One magnitude per matrix, log-uniform below 2**NON_UNITARY_BITS; each
    coefficient is that magnitude, its negative or zero.
    """
    while True:
        mag = int(2 ** rng.uniform(0, NON_UNITARY_BITS))
        rows = [
            " ".join(
                ",".join(str(rng.choice((-mag, 0, mag))) for _ in range(4)) + "/0"
                for _ in range(4)
            )
            for _ in range(4)
        ]
        text = "4\n" + "\n".join(rows) + "\n"
        if not is_unitary_value(matrix_value(text)):
            return text


def query_stream(seed: int, ref: Reference):
    """Endless seeded stream of queries; the same seed gives the same stream.

    Member ids are uniform over C2, so repeats are rare and no cache can be
    flattered by reuse. Non-members are split evenly between unitary
    non-Cliffords and non-unitary matrices.
    """
    rng = random.Random(seed)
    index = 0
    while True:
        command = rng.choice(("lookup", "synth"))
        eid = rng.randrange(C2_ORDER)
        if rng.random() >= NON_MEMBER_SHARE:
            as_element = rng.random() < ELEMENT_ARG_SHARE
            matrix = None if as_element else ref.record(eid)
            yield Query(index, command, "member", eid, matrix)
        elif rng.random() < 0.5:
            wire = rng.choice((1, 2))
            yield Query(index, command, "non-clifford", eid, non_clifford(ref.record(eid), wire))
        else:
            yield Query(index, command, "non-unitary", None, non_unitary(rng))
        index += 1


# --- workloads ---------------------------------------------------------------


def _tally(result: dict, problem: str | None, is_result: bool) -> None:
    """Count one operation; `is_result` marks output the paper's results rest on."""
    result["attempted"] += 1
    if problem is None:
        return
    result["failed"] += 1
    if is_result:
        result["wrong"] += 1
    problems = result["problems"]
    if problem in problems or len(problems) < 10:
        problems[problem] = problems.get(problem, 0) + 1


def atlas_pass(cli, out_dir: Path, result: dict) -> float:
    """The three atlas commands, all six artefacts checked; returns seconds.

    The pass is one operation: it fails when any of its commands does.
    """
    problems = []
    seconds = 0.0
    for cmd in ATLAS_COMMANDS:
        outcome = run_cli(cli.main, [*cmd, "--out-dir", str(out_dir)])
        seconds += outcome.seconds
        if cmd[0] == "graph" and outcome.code == 0:
            (out_dir / "graph.json").write_text(outcome.stdout)
        if outcome.code != 0:
            problems.append(f"{cmd[0]}: exit {outcome.code} {outcome.error or outcome.stderr.strip()}")
        elif bad := artefact_mismatches(out_dir, COMMAND_ARTEFACTS[cmd[0]]):
            problems.append(f"{cmd[0]}: digest mismatch in {', '.join(bad)}")
        elif cmd[0] == "orbits" and outcome.stdout != (out_dir / "orbit_summary.txt").read_text():
            problems.append("orbits: stdout differs from orbit_summary.txt")
    _tally(result, "; ".join(problems) or None, is_result=True)
    return seconds


def run_queries(cli, queries, ref: Reference, atlas_dir: Path, work: Path, result: dict,
                tracer=None, budget: float | None = None) -> None:
    """Closed loop, one client: the next query starts when the last is checked."""
    path = work / "query.txt"
    spent = 0.0
    for q in queries:
        if q.matrix is not None:
            path.write_text(q.matrix)
        if tracer is not None:
            tracer.query_id = q.index
        outcome = run_cli(cli.main, [*q.argv(str(path)), "--out-dir", str(atlas_dir)])
        result["latencies"].append(outcome.seconds)
        result["kinds"].append(f"{q.command}/{q.kind}")
        _tally(result, query_problem(q, outcome, ref), is_result=q.kind == "member")
        spent += outcome.seconds
        if budget is not None and spent >= budget:
            break


def defect_probes() -> list[Query]:
    """Fixed non-unitary inputs with coefficients from 2 up to the parser's cap.

    Each is the all-ones 4x4 matrix times 2**b (b = 1..19) or 2**20 - 1, sent
    to `lookup` and to `synth`; every one must exit 4 as "not unitary". On the
    pure-Python kernels, those from 2**15 up end in the overflow
    AssertionError instead.
    """
    probes = []
    for bits in range(1, COEF_CAP_BITS + 1):
        mag = min(2**bits, 2**COEF_CAP_BITS - 1)
        row = " ".join(f"{mag},0,0,0/0" for _ in range(4))
        text = "4\n" + "\n".join([row] * 4) + "\n"
        for command in ("lookup", "synth"):
            probes.append(Query(len(probes), command, "non-unitary", None, text))
    return probes


def is_overflow_defect(outcome: Outcome) -> bool:
    """The known defect: the kernels' 32-bit coefficient check escapes as a traceback."""
    return (outcome.code is None and outcome.error is not None
            and outcome.error.startswith("AssertionError")
            and "32-bit range" in outcome.error)


def run_defect_probes(cli, atlas_dir: Path, work: Path) -> dict:
    """Run the defect probes untimed; tally right answers, the known defect and the rest.

    The probes are not workload operations: they are outside `attempted` and
    `failed`, so that those count only what a run's timing decides. Any
    outcome other than exit 4 or the known overflow is a new defect, which
    run.py reports as an incorrect run.
    """
    path = work / "probe.txt"
    tally = {"probes": 0, "rejected": 0, "overflow_tracebacks": 0, "problems": {}}
    for q in defect_probes():
        path.write_text(q.matrix)
        outcome = run_cli(cli.main, [*q.argv(str(path)), "--out-dir", str(atlas_dir)])
        tally["probes"] += 1
        problem = query_problem(q, outcome, None)
        if problem is None:
            tally["rejected"] += 1
        elif is_overflow_defect(outcome):
            tally["overflow_tracebacks"] += 1
        else:
            tally["problems"][problem] = tally["problems"].get(problem, 0) + 1
    return tally


def write_reference(cli, atlas: Path) -> None:
    """Write the six artefacts the query oracle reads, outside any timing.

    They are not checked here: run.py checks them against their digests.
    """
    atlas.mkdir(parents=True, exist_ok=True)
    atlas_pass(cli, atlas, {"attempted": 0, "failed": 0, "wrong": 0, "problems": {}})


def _reduce_matrix(m):
    return type(m), (m.dim, m.data)


def build_snapshot(snapshot: Path) -> None:
    """Write the six artefacts and the pickled workspace from one real build."""
    from czorbits import cli
    from czorbits.matrices import GateMatrix
    from czorbits.workspace import build_workspace

    write_reference(cli, snapshot / "atlas")
    # GateMatrix refuses attribute assignment, which pickle's default uses
    copyreg.pickle(GateMatrix, _reduce_matrix)
    tmp = snapshot / "workspace.pickle.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(build_workspace(), f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, snapshot / "workspace.pickle")


def kernel_microbench(seed: int) -> float:
    """Median microseconds per exact 4x4 product over seeded random pairs."""
    from czorbits import kernels
    from czorbits.matrices import C2_GENERATORS, I4

    rng = random.Random(seed)
    gens = list(C2_GENERATORS.values())
    mats = []
    for _ in range(MICROBENCH_PRODUCTS):
        m = I4
        for _ in range(rng.randint(3, 12)):
            m = m * rng.choice(gens)
        mats.append(m.data)
    pairs = list(zip(mats, mats[1:] + mats[:1]))
    mat_mul = kernels.mat_mul
    per_call = []
    for _ in range(MICROBENCH_REPEATS):
        t0 = time.perf_counter()
        for x, y in pairs:
            mat_mul(x, y, 4)
        per_call.append((time.perf_counter() - t0) / len(pairs))
    per_call.sort()
    return per_call[len(per_call) // 2] * 1e6


def query_workload(cli, atlas_dir: Path, work: Path, seed: int, seconds: float,
                   result: dict, phase: str, tracer=None) -> None:
    """Queries: for `seconds` of command time when timed, else a fixed slice.

    "plain" takes the first TRACED_QUERIES queries of the stream and
    "traced" the next ones, so caches warmed by one half cannot flatter the
    other, and the traced counts repeat exactly for a seed.
    """
    with Reference(atlas_dir) as ref:
        stream = query_stream(seed, ref)
        if phase == "timed":
            run_queries(cli, stream, ref, atlas_dir, work, result, budget=seconds)
            return
        queries = [next(stream) for _ in range(2 * TRACED_QUERIES)]
        half = queries[:TRACED_QUERIES] if phase == "plain" else queries[TRACED_QUERIES:]
        run_queries(cli, half, ref, atlas_dir, work, result, tracer)
