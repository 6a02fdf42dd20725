"""Time czorbits layer by layer, in this checkout and in a baseline checkout.

Usage, from the root of a checkout:

    python3 scripts/bench_layers.py --baseline ../parent --runs 7 --out BENCH_33.json

Every run is a fresh interpreter (this script with --measure) that imports
czorbits from one tree's src/ and records:

- `import_s`: `import czorbits.cli`, which imports no numpy;
- `loadavg_1m`: the host's one-minute load average when the run starts,
  since load on a shared host moves the build times by about 2x;
- one cold `build_workspace()`, as `build_workspace_s`, with its stages
  timed by wrapping the names `czorbits.workspace` calls: `c1_closure_s`,
  `c2_closure_s` (with C2's row book and its closedness check),
  `lc2_closure_s` (LC2, read off C2's first coset), `cz_action_s` (CZ's
  left action, `groups.left_action`, or `groups.cz_left` on a tree from
  before it; 0 on a tree with neither), `partition_s`
  (the cosets, their CZ layers and orbit order), `graph_s` and `plans_s`
  (the synthesis plans);
- `row_book_s`: the time in `czorbits.groups._row_book` over both
  closures, which each hold their row book inside their figure;
- `tables_s`: the time in the derivations a table makes on first use,
  `GroupTable.right` and `GroupTable._tree`, wherever first use runs them:
  in a cold build, C1's and LC2's inside the LC2 stage and the synthesis
  plans, and none of C2's;
- `build_rss_peak_mb`: the process's peak RSS right after the build;
- `write_tables_s`: `write_tables` into a temporary directory, which
  streams the three table files to disk as `generate` does;
- `orbit_map_s`: the orbit map streamed to `orbit_map.txt` there, as
  `orbits` writes it;
- `atlas_rss_peak_mb`: the process's peak RSS after those two writes, the
  point where a cold `generate` and `orbits` job peaks;
- `format_table_c2_s`: `format_table(c2)`, C2's file as one string, after
  that reading, since the string outweighs any streamed chunk;
- `lookup_wall_s`: the wall time of `czorbits lookup --element 83679` in a
  fresh interpreter with those table files on disk (`python -m
  czorbits.cli`, which rebuilds the workspace as every command does);
- `c2_element_us` and `c2_contains_us`: the mean of one `c2.element` and
  one `c2.contains` call over every 31st element of C2 (2973 calls each;
  `contains` looks up the matrices `element` made);
- `pickle_mb` and `pickle_load_s`: the size of `pickle.dumps(workspace)`,
  the snapshot perfbench's query-mix loads, and the time to load it;
- `query_start_s`: the wall time of a fresh interpreter that imports
  `czorbits.cli`, loads that pickle, installs it as the cached workspace
  and answers `lookup --element 83679` and `synth --element 83679
  --verify` in-process with the table files on disk,
  `query_start_numpy`, 1 if numpy was in `sys.modules` when it finished,
  and `query_start_dataclasses`, 1 if `dataclasses` was;
- `dispatch_lookup_element_us`, `dispatch_lookup_file_us` and
  `dispatch_synth_file_us`: the mean of one in-process `cli.main` call,
  the least of five passes, on that pickle loaded as the cached workspace:
  `lookup --element`, and `lookup` and `synth --verify` of a matrix file,
  over every 310th element of C2, from argv to printed output; and
  `parse_argv_us`, the mean of one `cli._parse` call over those argvs;
- `parse_matrix_us`, `mat_mul_us`, `mat_tensor_us`, `synthesize_id_us`
  and `evaluate_us`: the exact work behind one query, each a mean per
  call, the least of five passes, over the same elements: `parse_matrix`
  of their `format_matrix` text, `kernels.mat_mul` of consecutive pairs,
  `kernels.mat_tensor` of 192 pairs of C1 elements,
  `Synthesizer.synthesize_id` of their ids, and `synth.evaluate` of their
  circuits after one warm pass;
- `verify_checks_s`: the seconds of each function of `verify.CHECKS`,
  called in report order, by name, and `run_verification_s`, their sum.

Runs alternate between the two trees. The output holds every sample and,
per tree, the median of each figure and its first and third quartiles
(`statistics.quantiles`), so that a figure's spread shows next to it, with
the machine, each tree's git revision, `loc` (the lines of
src/czorbits/*.py) and `tests_loc` (the lines of tests/*.py). After the
samples it runs each tree's Tier-1 suite once and records its wall time,
exit status and pytest's summary line as `tier1`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# workspace-module names wrapped by --measure, and the figure each one feeds
STAGES = {
    "build_c1": "c1_closure_s",
    "build_lc2": "lc2_closure_s",
    "build_c2": "c2_closure_s",
    "left_action": "cz_action_s",
    "cz_left": "cz_action_s",  # CZ's left action on a tree before left_action
    "partition": "partition_s",
    "build_graph": "graph_s",
    "Synthesizer": "plans_s",
}


# a query process: import the CLI, load the pickled workspace from the table
# directory argv[1], answer two queries, print whether numpy and dataclasses
# were imported
QUERY_START = """
import pickle, sys
import czorbits.cli as cli
import czorbits.workspace as workspace
with open(sys.argv[1] + "/workspace.pickle", "rb") as f:
    workspace._CACHE = pickle.load(f)
for argv in (["lookup"], ["synth", "--verify"]):
    args = [argv[0], "--element", "83679", *argv[1:], "--out-dir", sys.argv[1], "--no-regen"]
    assert cli.main(args) == 0
print("numpy" in sys.modules, "dataclasses" in sys.modules)
"""


def measure() -> dict:
    """The figures of one cold run in this interpreter."""
    load = os.getloadavg()[0]
    t0 = time.perf_counter()
    import czorbits.cli  # noqa: F401
    import czorbits.workspace as workspace
    from czorbits import groups
    from czorbits.io import format_table, orbit_map_records, write_atomic

    figures = {"import_s": time.perf_counter() - t0, **dict.fromkeys(STAGES.values(), 0.0)}
    from czorbits import verify  # which imports numpy, as cli does not
    figures["loadavg_1m"] = load
    figures["row_book_s"] = figures["tables_s"] = 0.0

    running = set()

    def timed(fn, figure):
        def wrapper(*args, **kwargs):
            if figure in running:  # a nested call: the outer one holds its time
                return fn(*args, **kwargs)
            running.add(figure)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                figures[figure] += time.perf_counter() - start
                running.discard(figure)
        return wrapper

    # a tree before cz_left reads CZ's action off C2's derived left actions,
    # so its cz_action_s stays 0 and that time is in tables_s; a tree has
    # left_action or cz_left, not both
    originals = {name: getattr(workspace, name) for name in STAGES if hasattr(workspace, name)}
    for name, fn in originals.items():
        setattr(workspace, name, timed(fn, STAGES[name]))
    row_book = groups._row_book
    groups._row_book = timed(row_book, "row_book_s")
    derived = [vars(groups.GroupTable)[name] for name in ("right", "_tree")]
    derive = [d.func for d in derived]
    for d in derived:
        d.func = timed(d.func, "tables_s")
    t0 = time.perf_counter()
    ws = workspace.build_workspace()
    figures["build_workspace_s"] = time.perf_counter() - t0
    # unwrapped again, so the rebuild inside run_verification adds to no stage
    for name, fn in originals.items():
        setattr(workspace, name, fn)
    groups._row_book = row_book
    for d, fn in zip(derived, derive):
        d.func = fn
    figures["build_rss_peak_mb"] = peak_rss_mb()
    with tempfile.TemporaryDirectory() as out_dir:
        t0 = time.perf_counter()
        workspace.write_tables(ws, Path(out_dir))
        figures["write_tables_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        write_atomic(Path(out_dir) / "orbit_map.txt", orbit_map_records(ws.atlas))
        figures["orbit_map_s"] = time.perf_counter() - t0
        figures["atlas_rss_peak_mb"] = peak_rss_mb()
        t0 = time.perf_counter()
        format_table(ws.c2)
        figures["format_table_c2_s"] = time.perf_counter() - t0
        lookup = [sys.executable, "-m", "czorbits.cli", "lookup", "--element", "83679",
                  "--out-dir", out_dir, "--no-regen"]
        t0 = time.perf_counter()
        subprocess.run(lookup, capture_output=True, check=True, timeout=600)
        figures["lookup_wall_s"] = time.perf_counter() - t0
    ids = range(0, len(ws.c2), 31)
    t0 = time.perf_counter()
    matrices = [ws.c2.element(e) for e in ids]
    figures["c2_element_us"] = (time.perf_counter() - t0) / len(ids) * 1e6
    t0 = time.perf_counter()
    for m in matrices:
        ws.c2.contains(m)
    figures["c2_contains_us"] = (time.perf_counter() - t0) / len(ids) * 1e6
    blob = pickle.dumps(ws, protocol=pickle.HIGHEST_PROTOCOL)
    figures["pickle_mb"] = len(blob) / 1e6
    t0 = time.perf_counter()
    pickle.loads(blob)
    figures["pickle_load_s"] = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as out_dir:
        workspace.write_tables(ws, Path(out_dir))
        (Path(out_dir) / "workspace.pickle").write_bytes(blob)
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", QUERY_START, out_dir],
                             capture_output=True, text=True, check=True, timeout=600)
        figures["query_start_s"] = time.perf_counter() - t0
        numpy, dataclasses = out.stdout.splitlines()[-1].split()
        figures["query_start_numpy"] = int(numpy == "True")
        figures["query_start_dataclasses"] = int(dataclasses == "True")
    with tempfile.TemporaryDirectory() as out_dir:
        workspace.write_tables(ws, Path(out_dir))
        figures.update(dispatch_figures(pickle.loads(blob), ids[::10], Path(out_dir)))
    figures.update(query_figures(ws, ids, matrices))
    figures["verify_checks_s"] = {}
    for check in verify.CHECKS:
        t0 = time.perf_counter()
        list(check(ws))
        figures["verify_checks_s"][check.__name__] = time.perf_counter() - t0
    figures["run_verification_s"] = sum(figures["verify_checks_s"].values())
    return figures


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dispatch_figures(loaded, ids, out_dir: Path) -> dict:
    """Mean microseconds per in-process `cli.main` call, the least of five
    passes, on the loaded workspace `loaded` with the tables in out_dir:
    `lookup --element`, and `lookup` and `synth --verify` of a matrix file,
    over the elements `ids`, as perfbench's query-mix asks them; and per
    `cli._parse` call over all of those argvs (`parse_argv_us`)."""
    import czorbits.cli as cli
    import czorbits.workspace as workspace
    from czorbits.io import format_matrix

    files = []
    for e in ids:
        path = out_dir / f"q{e}.txt"
        path.write_text(format_matrix(loaded.c2.element(e)))
        files.append(str(path))
    queries = {
        "dispatch_lookup_element_us": [["lookup", "--element", str(e)] for e in ids],
        "dispatch_lookup_file_us": [["lookup", f] for f in files],
        "dispatch_synth_file_us": [["synth", f, "--verify"] for f in files],
    }
    queries = {figure: [([*argv, "--out-dir", str(out_dir)],) for argv in argvs]
               for figure, argvs in queries.items()}

    def run(argv):
        if cli.main(argv) != 0:
            raise RuntimeError(f"{argv} failed")

    cached, workspace._CACHE = workspace._CACHE, loaded
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            figures = {figure: per_call_us(run, argvs) for figure, argvs in queries.items()}
    finally:
        workspace._CACHE = cached
    figures["parse_argv_us"] = per_call_us(cli._parse, [a for v in queries.values() for a in v])
    return figures


def per_call_us(fn, args) -> float:
    """Mean microseconds per call fn(*a) over the argument tuples `args`, the
    least of five passes."""
    passes = []
    for _ in range(5):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        passes.append((time.perf_counter() - t0) / len(args) * 1e6)
    return min(passes)


def query_figures(ws, ids, matrices) -> dict:
    """Mean microseconds per call of the exact steps behind one query, the
    least of five passes over the same arguments."""
    from czorbits import kernels
    from czorbits.io import format_matrix, parse_matrix
    from czorbits.synth import evaluate

    c1 = [ws.c1.element(e).data for e in range(len(ws.c1))]
    circuits = [ws.synthesizer.synthesize_id(e) for e in ids]
    for circuit in circuits:
        evaluate(circuit)
    return {
        "parse_matrix_us": per_call_us(parse_matrix, [(format_matrix(m),) for m in matrices]),
        "mat_mul_us": per_call_us(
            kernels.mat_mul, [(x.data, y.data, 4) for x, y in zip(matrices, matrices[1:])]
        ),
        "mat_tensor_us": per_call_us(
            kernels.mat_tensor, [(x, c1[(31 * i + 7) % len(c1)]) for i, x in enumerate(c1)]
        ),
        "synthesize_id_us": per_call_us(ws.synthesizer.synthesize_id, [(e,) for e in ids]),
        "evaluate_us": per_call_us(evaluate, [(c,) for c in circuits]),
    }


def revision(tree: Path) -> dict:
    """The tree's git revision, whether src/ differs from it, a digest of src/
    and the line counts of src/czorbits/*.py and tests/*.py."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    def lines(files):
        return sum(p.read_bytes().count(b"\n") for p in files)

    status = git("status", "--porcelain", "--", "src")
    return {
        "git_revision": git("rev-parse", "HEAD"),
        "src_differs_from_revision": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "loc": lines((tree / "src" / "czorbits").glob("*.py")),
        "tests_loc": lines((tree / "tests").glob("*.py")),
    }


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            models = (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
            return next(models, None)
    except OSError:
        return None


def tier1(tree: Path) -> dict:
    """The tree's Tier-1 suite, run once: its wall time and pytest's summary line."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        env=env, cwd=tree, capture_output=True, text=True, timeout=1800,
    )
    lines = out.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "returncode": out.returncode,
            "summary": lines[-1] if lines else ""}


def summary(runs: list[dict], stat) -> dict:
    """stat over the runs of each figure, and of each entry of a figure that
    is a dict (`verify_checks_s`)."""
    return {k: summary([r[k] for r in runs], stat) if isinstance(runs[0][k], dict)
            else stat([r[k] for r in runs]) for k in runs[0]}


def run_once(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, __file__, "--measure"], env=env, cwd=tree,
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--baseline", type=Path, help="checkout to compare against (the parent)")
    p.add_argument("--runs", type=int, default=5, help="fresh interpreters per tree, at least 2")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_33.json")
    args = p.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.runs < 2:
        p.error("--runs must be at least 2 for the quartiles")

    trees = {"change": ROOT}
    if args.baseline is not None:
        trees = {"parent": args.baseline.resolve(), **trees}
    samples: dict[str, list[dict]] = {side: [] for side in trees}
    for i in range(args.runs):
        # alternate which tree runs first
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            samples[side].append(run_once(trees[side]))
    result = {
        "machine": {
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "cpu": cpu_model(),
        },
        "runs_per_tree": args.runs,
    }
    for side, runs in samples.items():
        median = summary(runs, statistics.median)
        # the first and third quartiles of each figure
        quartiles = summary(runs, lambda xs: statistics.quantiles(xs, n=4)[::2])
        result[side] = {**revision(trees[side]), "median": median, "quartiles": quartiles,
                        "samples": runs}
        print(side, json.dumps(summary([median], lambda xs: round(xs[0], 3))))
    for side, tree in trees.items():
        result[side]["tier1"] = tier1(tree)
        print(side, "tier1", json.dumps(result[side]["tier1"]))
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
