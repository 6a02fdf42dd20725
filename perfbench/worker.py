"""One benchmark process: set up czorbits, run one workload, report as JSON.

run.py launches this script in a fresh interpreter for every measurement and
passes the monotonic clock reading taken just before the launch, so set-up
time counts interpreter start and `import czorbits.cli`. Until set-up ends
this file imports nothing beyond the standard library and czorbits, so
nothing of the benchmark's own (numpy, say) is charged to set-up or hides
an import the library makes. Modes:

  atlas-build   cold build, then `generate`, `orbits`, `graph --format json`
  query-mix     load the snapshot, then a closed loop of lookup/synth queries
  setup-probe   load the snapshot and exit (an extra set-up sample)
  snapshot      build with the library, save what query-mix loads

After the workload, untimed, every worker but a setup-probe sends the fixed
defect probes (workloads.defect_probes) through `lookup` and `synth`.
README.md gives the run-time budget that keeps query-mix from building
cold in every run. A traced run (--trace 1) of either workload builds cold
with every layer wrapped and uses no snapshot; a traced query-mix writes
the artefacts its oracle reads itself, untimed, after the build. It then
does a fixed amount of the workload untraced and the same amount traced.
The result goes to the file named by --result; stdout belongs to the CLI.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path


def load_snapshot(snapshot: Path):
    """Install the saved workspace as the library's cached one.

    The pickle is the one workloads.build_snapshot wrote in this checkout,
    from the same sources.
    """
    import czorbits.workspace as workspace

    with open(snapshot / "workspace.pickle", "rb") as f:
        ws = pickle.load(f)
    if not hasattr(workspace, "_CACHE"):
        raise RuntimeError("czorbits.workspace has no _CACHE to install the snapshot in")
    workspace._CACHE = ws
    if workspace.build_workspace() is not ws:
        raise RuntimeError("build_workspace() did not return the installed snapshot")


def write_result(path: Path, result: dict) -> int:
    result["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, path)
    return 0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", required=True,
                   choices=("atlas-build", "query-mix", "setup-probe", "snapshot"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--snapshot", type=Path, help="snapshot directory, for untraced query-mix")
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args()

    if args.mode == "snapshot":
        import workloads

        workloads.build_snapshot(args.snapshot)
        return write_result(args.result, {})

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    t_import = time.perf_counter()
    import czorbits
    import czorbits.cli as cli
    import czorbits.workspace

    if tracer is not None:
        tracer.add_span("cli.import", "cli", t_import, time.perf_counter())
        tracer.install()
        czorbits.workspace.build_workspace()  # cold, so every layer shows
        tracer.uninstall()
    elif args.mode == "atlas-build":
        czorbits.workspace.build_workspace()
    else:
        load_snapshot(args.snapshot)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launch

    result = {
        "setup_s": setup_s,
        "latencies": [],
        "kinds": [],
        "attempted": 0,
        "failed": 0,
        "wrong": 0,
        "problems": {},
        "backend": czorbits.BACKEND,
        "compiled": importlib.util.find_spec("czorbits._kernels_cy") is not None,
    }
    if args.mode == "setup-probe":
        return write_result(args.result, result)

    import workloads

    # where the artefacts go; for query-mix, the ones its oracle reads
    atlas_dir = args.work / "atlas"
    if args.mode == "query-mix" and tracer is None:
        atlas_dir = args.snapshot / "atlas"
    elif args.mode == "query-mix":
        workloads.write_reference(cli, atlas_dir)

    def workload(phase: str, with_tracer=None) -> None:
        if args.mode == "query-mix":
            workloads.query_workload(cli, atlas_dir, args.work, args.seed,
                                     args.seconds, result, phase, with_tracer)
            return
        seconds = workloads.atlas_pass(cli, atlas_dir, result)
        # one timed atlas-build operation is the whole cold job, from launch
        end = time.clock_gettime(time.CLOCK_MONOTONIC)
        result["latencies"].append(end - args.launch if phase == "timed" else seconds)

    if tracer is None:
        workload("timed")
        result["defect"] = workloads.run_defect_probes(cli, atlas_dir, args.work)
        return write_result(args.result, result)

    from spans import per_layer_metrics

    covered = sum(tracer.layer_self.values())
    workload("plain")
    plain = sum(result["latencies"])
    tracer.install()
    workload("traced", tracer)
    tracer.uninstall()
    traced = sum(result["latencies"]) - plain
    defect = result["defect"] = workloads.run_defect_probes(cli, atlas_dir, args.work)
    result["trace"] = per_layer_metrics(
        tracer,
        setup_s=setup_s,
        setup_covered_s=covered,
        overhead_ratio=traced / plain - 1,
        c2_order=len(czorbits.workspace.build_workspace().c2),
        mat_mul_us=workloads.kernel_microbench(args.seed),
        probe_rejected_ratio=defect["rejected"] / defect["probes"],
    )
    with open(args.work / "spans.json", "w") as f:
        json.dump(tracer.dump(), f)
    return write_result(args.result, result)


if __name__ == "__main__":
    sys.exit(main())
