"""Span tracer that times czorbits' public functions from outside the library.

`Tracer.install()` replaces module attributes and class methods with timing
wrappers, in every czorbits module that holds a reference to them (so
`czorbits.workspace.build_c2` is wrapped as well as `czorbits.groups.build_c2`);
`uninstall()` puts the originals back. No file of the library is edited.

Functions listed as SPAN record one span per call: name, start, end, parent
span and query id. HOT functions run hundreds of thousands of times per
build, so a span each would distort the timing and fill memory; their calls
are counted and timed, and the counts are charged to the enclosing span.
Every wrapped call, hot or not, subtracts its duration from its caller's
self time, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

HOT, SPAN = "hot", "span"

# (layer, defining module, attribute path, metric name, kind): every public
# function the two workloads reach
TARGETS = [
    ("kernels", "czorbits.kernels", "mat_mul", "kernels.mat_mul", HOT),
    ("kernels", "czorbits.kernels", "mat_tensor", "kernels.mat_tensor", HOT),
    ("kernels", "czorbits.kernels", "mat_dagger", "kernels.mat_dagger", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.__mul__", "matrices.mul", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.tensor", "matrices.tensor", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.dagger", "matrices.dagger", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.identity", "matrices.identity", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.from_entries", "matrices.from_entries", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.entries", "matrices.entries", HOT),
    ("matrices", "czorbits.matrices", "GateMatrix.is_unitary", "matrices.is_unitary", SPAN),
    ("groups", "czorbits.groups", "GroupTable.contains", "groups.contains", HOT),
    ("groups", "czorbits.groups", "GroupTable.element", "groups.element", HOT),
    ("groups", "czorbits.groups", "closure", "groups.closure", SPAN),
    ("groups", "czorbits.groups", "build_c1", "groups.build_c1", SPAN),
    ("groups", "czorbits.groups", "build_lc2", "groups.build_lc2", SPAN),
    ("groups", "czorbits.groups", "build_c2", "groups.build_c2", SPAN),
    ("orbits", "czorbits.orbits", "partition", "orbits.partition", SPAN),
    ("orbits", "czorbits.orbits", "assign_layers_and_labels", "orbits.assign_layers", SPAN),
    ("graph", "czorbits.graph", "build_graph", "graph.build_graph", SPAN),
    ("graph", "czorbits.graph", "check_isomorphic", "graph.check_isomorphic", SPAN),
    ("graph", "czorbits.graph", "to_json", "graph.to_json", SPAN),
    ("synth", "czorbits.synth", "Synthesizer.__init__", "synth.plans", SPAN),
    ("synth", "czorbits.synth", "Synthesizer.synthesize", "synth.synthesize", SPAN),
    ("synth", "czorbits.synth", "evaluate", "synth.evaluate", SPAN),
    ("io", "czorbits.io", "format_matrix", "io.format_matrix", HOT),
    ("io", "czorbits.io", "parse_matrix", "io.parse_matrix", SPAN),
    ("io", "czorbits.io", "format_table", "io.format_table", SPAN),
    ("io", "czorbits.io", "format_orbit_map", "io.format_orbit_map", SPAN),
    ("io", "czorbits.io", "format_orbit_summary", "io.format_orbit_summary", SPAN),
    ("io", "czorbits.io", "format_circuit", "io.format_circuit", SPAN),
    ("workspace", "czorbits.workspace", "build_workspace", "workspace.build_workspace", SPAN),
    ("workspace", "czorbits.workspace", "write_tables", "workspace.write_tables", SPAN),
    ("workspace", "czorbits.workspace", "ensure_tables", "workspace.ensure_tables", SPAN),
    ("cli", "czorbits.cli", "main", "cli.dispatch", SPAN),
]

LAYERS = ("kernels", "matrices", "groups", "orbits", "graph", "synth", "io", "workspace", "cli")

# Formatters whose output length is summed into io.bytes_formatted.
_FORMATTERS = {
    "io.format_table", "io.format_orbit_map", "io.format_orbit_summary",
    "io.format_circuit", "graph.to_json",
}


class Tracer:
    """Spans and per-name counters, kept in memory until written out."""

    def __init__(self) -> None:
        self.query_id = None
        # one entry per span: [name, start, end, parent index, query id, counts]
        self.spans: list[list] = []
        # name -> [calls, busy seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.contains_hits = 0
        self.bytes_formatted = 0
        # one frame per wrapped call in progress: [seconds spent in callees]
        self._frames: list[list] = []
        self._span_stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def add_span(self, name: str, layer: str, start: float, end: float) -> None:
        """Record a span timed by the caller, outside any wrapped call."""
        self.spans.append([name, start, end, None, self.query_id, {}])
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += end - start
        stat[2] += end - start
        self.layer_self[layer] += end - start

    def _wrap(self, fn, name: str, layer: str, kind: str):
        clock = time.perf_counter
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        stat = self.stats[name]
        layer_self = self.layer_self
        tracer = self

        if kind == HOT:
            is_contains = name == "groups.contains"

            def hot(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt - frame[0]
                    layer_self[layer] += dt - frame[0]
                    if frames:
                        frames[-1][0] += dt
                    if span_stack:
                        counts = spans[span_stack[-1]][5]
                        counts[name] = counts.get(name, 0) + 1
                if is_contains and result is not None:
                    tracer.contains_hits += 1
                return result

            return hot

        formatter = name in _FORMATTERS

        def span(*args, **kwargs):
            index = len(spans)
            parent = span_stack[-1] if span_stack else None
            record = [name, 0.0, 0.0, parent, tracer.query_id, {}]
            spans.append(record)
            span_stack.append(index)
            frame = [0.0]
            frames.append(frame)
            t0 = record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = record[2] = clock()
                dt = t1 - t0
                frames.pop()
                span_stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                layer_self[layer] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
            if formatter:
                tracer.bytes_formatted += len(result)
            return result

        return span

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a czorbits module refers to it."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "czorbits"]
        for layer, modname, path, name, kind in TARGETS:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, layer, kind))
                else:
                    wrapped = self._wrap(raw, name, layer, kind)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, name, layer, kind)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    # -- reading -------------------------------------------------------------

    def subtree_counts(self) -> list[dict]:
        """Per span: hot calls made under it, its descendants included."""
        totals = [dict(s[5]) for s in self.spans]
        for index in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[index][3]
            if parent is not None:
                into = totals[parent]
                for name, n in totals[index].items():
                    into[name] = into.get(name, 0) + n
        return totals

    def calls_under(self, span_name: str, hot_name: str) -> int:
        """Calls of `hot_name` made inside spans called `span_name`."""
        totals = self.subtree_counts()
        return sum(
            totals[i].get(hot_name, 0)
            for i, s in enumerate(self.spans)
            if s[0] == span_name and not self._inside(i, span_name)
        )

    def _inside(self, index: int, span_name: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == span_name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "query", "hot_calls"],
            "spans": self.spans,
            "stats": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]} for k, v in self.stats.items()},
            "layer_self_s": self.layer_self,
        }


def per_layer_metrics(
    tracer: Tracer,
    setup_s: float,
    setup_covered_s: float,
    overhead_ratio: float,
    c2_order: int,
    mat_mul_us: float,
    probe_rejected_ratio: float,
) -> dict[str, float]:
    """The per-layer metrics a traced run reports, by name.

    Counts repeat exactly for a seed. Times that only one workload can make
    nonzero (say `synth.synthesize` on atlas-build) are reported as counts,
    and their time is in the layer's self_s.
    """
    stats = tracer.stats

    def calls(name: str) -> int:
        return stats[name][0] if name in stats else 0

    def busy(name: str) -> float:
        return stats[name][1] if name in stats else 0.0

    c2_products = tracer.calls_under("groups.build_c2", "kernels.mat_mul")
    graph_calls = calls("graph.build_graph")
    contains = calls("groups.contains")
    m = {f"{layer}.self_s": tracer.layer_self[layer] for layer in LAYERS if layer != "cli"}
    m.update({
        "kernels.mat_mul.calls": calls("kernels.mat_mul"),
        "kernels.mat_mul.busy_s": busy("kernels.mat_mul"),
        "kernels.mat_mul.us_per_call": mat_mul_us,
        "kernels.mat_dagger.calls": calls("kernels.mat_dagger"),
        "kernels.mat_tensor.calls": calls("kernels.mat_tensor"),
        "matrices.is_unitary.calls": calls("matrices.is_unitary"),
        "matrices.is_unitary.s": busy("matrices.is_unitary"),
        "matrices.identity.calls": calls("matrices.identity"),
        "matrices.is_unitary.probe_rejected_ratio": probe_rejected_ratio,
        "groups.build_c2.s": busy("groups.build_c2"),
        "groups.build_c2.products": c2_products,
        "groups.closure.useful_ratio": c2_order / c2_products if c2_products else 0.0,
        "groups.build_lc2.s": busy("groups.build_lc2"),
        "groups.contains.calls": contains,
        "groups.contains.hit_ratio": tracer.contains_hits / contains if contains else 0.0,
        "orbits.partition.s": busy("orbits.partition"),
        "orbits.partition.products": tracer.calls_under("orbits.partition", "kernels.mat_mul"),
        "graph.build_graph.calls": graph_calls,
        "graph.build_graph.s": busy("graph.build_graph"),
        "graph.build_graph.products_per_call": (
            tracer.calls_under("graph.build_graph", "kernels.mat_mul") / graph_calls
            if graph_calls else 0.0
        ),
        "graph.check_isomorphic.s": busy("graph.check_isomorphic"),
        "synth.plans.s": busy("synth.plans"),
        "synth.synthesize.calls": calls("synth.synthesize"),
        "synth.evaluate.calls": calls("synth.evaluate"),
        "io.parse_matrix.calls": calls("io.parse_matrix"),
        "io.format_table.calls": calls("io.format_table"),
        "io.bytes_formatted": tracer.bytes_formatted,
        "workspace.ensure_tables.s": busy("workspace.ensure_tables"),
        "workspace.build_workspace.s": busy("workspace.build_workspace"),
        "workspace.build_workspace.self_s": stats["workspace.build_workspace"][2],
        "cli.import.s": busy("cli.import"),
        "cli.dispatch.calls": calls("cli.dispatch"),
        "cli.dispatch.self_s": stats["cli.dispatch"][2],
        "trace.setup_s": setup_s,
        "trace.setup_coverage": setup_covered_s / setup_s,
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(tracer.spans),
    })
    return m
