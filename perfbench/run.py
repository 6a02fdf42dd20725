"""czorbits benchmark: one command, every workload, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload atlas-build --seed 1 --seconds 20 --trace 0

The library is imported from ./src; nothing under src/ is modified. Each
measurement runs in a fresh interpreter (perfbench/worker.py) started by
this process; runs are sequential, with one client and no threads.
Artefacts, the query-mix workspace snapshot, spans and per-run results go
to ./.bench_build. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable report and the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from oracle import artefact_mismatches

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ("atlas-build", "query-mix")
# extra fresh interpreters that only set up, so that query-mix's setup_s is
# a median of nine; atlas-build sets up once per cold job
QUERY_SETUP_PROBES = 8

RUN_DEADLINE_S = 170  # every run ends well inside the 180 s allowed


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_digest() -> str:
    """sha256 over src/ and the code that writes and loads the snapshot."""
    h = hashlib.sha256(sys.version.encode())
    files = [p for p in sorted((ROOT / "src").rglob("*")) if "__pycache__" not in p.parts]
    for path in [*files, HERE / "worker.py", HERE / "workloads.py"]:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def launch(mode: str, args, work: Path, deadline: float, snapshot: Path | None = None) -> dict:
    """Run one worker to completion and return its result."""
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / f"{mode}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--mode", mode,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--result", str(result_path),
    ]
    if snapshot is not None:
        cmd += ["--snapshot", str(snapshot)]
    t_launch = monotonic()
    cmd += ["--launch", repr(t_launch)]
    timeout = max(1.0, deadline - t_launch)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {mode} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(result_path.read_text())


def ensure_snapshot(args, deadline: float) -> Path:
    """The query-mix workspace snapshot of these sources, built once.

    Each version keeps its own directory, so two versions measured in one
    checkout do not rebuild each other's.
    """
    snapshot = BUILD / f"snapshot-{source_digest()[:16]}"
    if snapshot.is_dir():
        return snapshot
    partial = snapshot.with_name(snapshot.name + ".partial")
    shutil.rmtree(partial, ignore_errors=True)
    print("building the workspace snapshot (once per version)", flush=True)
    launch("snapshot", args, BUILD / "snapshot-work", deadline, partial)
    partial.rename(snapshot)
    return snapshot


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def merge(runs: list[dict]) -> dict:
    """One result from the workers of a run."""
    res = dict(runs[-1])
    for key in ("latencies", "kinds"):
        res[key] = [x for r in runs for x in r[key]]
    for key in ("attempted", "failed", "wrong"):
        res[key] = sum(r[key] for r in runs)
    res["problems"] = {}
    for r in runs:
        for problem, count in r["problems"].items():
            res["problems"][problem] = res["problems"].get(problem, 0) + count
    res["rss_peak_mb"] = max(r["rss_peak_mb"] for r in runs)
    defect = res["defect"] = {"probes": 0, "rejected": 0, "overflow_tracebacks": 0,
                              "problems": {}}
    for r in runs:
        for key in ("probes", "rejected", "overflow_tracebacks"):
            defect[key] += r["defect"][key]
        for problem, count in r["defect"]["problems"].items():
            defect["problems"][problem] = defect["problems"].get(problem, 0) + count
    return res


def end_to_end(setups: list[float], latencies: list[float], rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, by name."""
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        # p90, not p99 or p95: on a 2-vCPU VM shared with other tenants, ten
        # seeds of query-mix spread (IQR/median) 7-22% at p99, 5-22% at p95
        # and 12% at p90 in the noisiest set; each run has ~800 queries above p90
        "op_p90_ms": percentile(latencies, 0.90) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "rss_peak_mb": rss_mb,
    }


def machine_record(args, res: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = out.stdout.strip() or None
        except OSError:
            pass
    return {
        "backend": res["backend"],
        "compiled_extension_importable": res["compiled"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    p = argparse.ArgumentParser(description="czorbits benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "czorbits" / "__init__.py").is_file():
        print(f"error: no czorbits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + RUN_DEADLINE_S
    work = BUILD / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    runs, setups = [], []
    # the artefacts the query oracle reads: the snapshot's, or the traced
    # worker's own, written after its cold build
    reference = work / "atlas"
    if args.trace:
        runs.append(launch(args.workload, args, work, deadline))
    elif args.workload == "query-mix":
        snapshot = ensure_snapshot(args, deadline)
        for _ in range(QUERY_SETUP_PROBES):
            setups.append(launch("setup-probe", args, work, deadline, snapshot)["setup_s"])
        runs.append(launch("query-mix", args, work, deadline, snapshot))
        reference = snapshot / "atlas"
    else:
        # one atlas-build operation is a cold job in a fresh interpreter
        start = monotonic()
        while not runs or monotonic() - start < args.seconds:
            runs.append(launch("atlas-build", args, work, deadline))
            shutil.rmtree(work / "atlas", ignore_errors=True)
    setups += [r["setup_s"] for r in runs]
    res = merge(runs)
    reference_bad = []
    if args.workload == "query-mix":
        reference_bad = artefact_mismatches(reference)
    shutil.rmtree(work / "atlas", ignore_errors=True)

    lat = res["latencies"]
    problems = dict(res["problems"])
    oracle_bad = bool(reference_bad)
    if oracle_bad:
        problems[f"pinned artefacts differ from their digests: {reference_bad}"] = 1
    defect = res["defect"]
    for problem, count in defect["problems"].items():
        problems[f"defect probe: {problem}"] = count
    correct = res["wrong"] == 0 and not oracle_bad and not defect["problems"]

    e2e_units, layer_units = declared_units()
    if args.trace:
        values = res["trace"]
        units = layer_units
    else:
        units = e2e_units
        values = end_to_end(setups, lat, res["rss_peak_mb"])
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    machine = machine_record(args, res)
    print(f"machine {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} operations, "
          f"{sum(lat):.2f} s in operations, set-up samples {[round(s, 3) for s in setups]}")
    if res["kinds"]:
        by_kind: dict[str, list[float]] = {}
        for kind, seconds in zip(res["kinds"], lat):
            by_kind.setdefault(kind, []).append(seconds)
        for kind, values in sorted(by_kind.items()):
            print(f"  {kind:<24} n={len(values):<6} p50 {statistics.median(values) * 1e3:8.3f} ms")
    print(f"error_ratio {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.5f}")
    print(f"known defect (ROADMAP item 1): {defect['overflow_tracebacks']} of "
          f"{defect['probes']} fixed non-unitary probes end in the coefficient overflow "
          f"AssertionError instead of exit 4; {defect['rejected']} are rejected as they should be")
    for problem, count in problems.items():
        print(f"  failed x{count}: {problem}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}
    (results / f"{work.name}.json").write_text(json.dumps(
        {**line, "machine": machine, "problems": problems, "defect_probes": defect,
         "setup_samples": setups}, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
