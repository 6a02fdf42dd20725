"""One-stop construction of the full group/orbit/graph workspace.

Building everything from scratch takes about 0.1 s on a shared 2-vCPU
machine (`build_workspace_s`, BENCH_30.json), most of it the C2 closure, off
which LC2 is read; commands simply rebuild in memory on every invocation,
and the table files on disk act as the deterministic persistence layer. When files are present
they can be validated by byte comparison against the regenerated content,
which catches truncation or editing without trusting any cached state.

A cold build derives C1's `right` and tree and LC2's `right`, for LC2's
factor pairs, and nothing of C2's: CZ's left action is one row gather
(`groups.left_action`), which the partition, the graph and the synthesis
tails read, and the synthesis factors are row maps too. C2's `right` and
tree stay underived until `verify` or a test reads them.

A workspace holds numpy arrays only in what its tables derive on first use,
which pickling leaves out (`groups.DERIVED`); everything else is plain
Python and stdlib arrays. So a pickled workspace loads without numpy, and,
installed as the cached one, answers `lookup` and `synth` (with `--verify`)
without importing it: numpy is imported by the code that builds, derives,
writes tables or verifies, when it runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from czorbits.errors import InputFormatError, VerificationError
from czorbits.graph import CzGraph, build_graph, check_isomorphic, check_weight_law
from czorbits.groups import GroupTable, build_c1, build_c2, build_lc2, left_action
from czorbits.io import table_records, write_atomic
from czorbits.orbits import OrbitAtlas, partition
from czorbits.synth import Synthesizer

TABLE_NAMES = ("c1", "lc2", "c2")


@dataclass
class Workspace:
    c1: GroupTable
    lc2: GroupTable
    c2: GroupTable
    atlas: OrbitAtlas
    graph: CzGraph
    bijection: dict[int, int]
    synthesizer: Synthesizer

    def table(self, name: str) -> GroupTable:
        return {"c1": self.c1, "lc2": self.lc2, "c2": self.c2}[name]


_CACHE: Optional[Workspace] = None


def build_workspace(fresh: bool = False) -> Workspace:
    """Build (or fetch the cached) full workspace.

    fresh=True forces a complete rebuild even when a workspace is cached;
    determinism checks compare such a rebuild against the cached one. The
    first workspace built in a process, fresh or not, becomes the cached
    one, and a later build never replaces it. A CZ graph that breaks the
    weight law or is not the reference figure raises VerificationError.
    """
    global _CACHE
    if _CACHE is not None and not fresh:
        return _CACHE
    c1 = build_c1()
    c2 = build_c2()
    lc2 = build_lc2(c1, c2)
    cz = left_action(c2, c2.alphabet["CZ"])
    atlas = partition(c2, lc2, cz)
    graph = build_graph(atlas, cz)
    check_weight_law(graph)
    bijection = check_isomorphic(graph.edge_set())
    if bijection is None:
        raise VerificationError("CZ graph is not isomorphic to the reference figure")
    synthesizer = Synthesizer(c1, lc2, c2, atlas, graph, cz)
    ws = Workspace(c1, lc2, c2, atlas, graph, bijection, synthesizer)
    if _CACHE is None:
        _CACHE = ws
    return ws


def atlas_dir(override: Optional[str] = None) -> Path:
    if override:
        return Path(override)
    return Path(os.environ.get("CLIFFORD_ATLAS_DIR") or "atlas")


def write_tables(ws: Workspace, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in TABLE_NAMES:
        path = out_dir / f"{name}.tbl"
        write_atomic(path, table_records(ws.table(name)))
        written.append(path)
    return written


def ensure_tables(
    ws: Workspace,
    out_dir: Path,
    no_regen: bool = False,
    validate: bool = False,
) -> None:
    """Make the table files exist; optionally check them byte-for-byte.

    Every query runs this, so a file found with nothing to check costs one
    `os.path.exists` on a joined string; the messages name `Path`s.
    """
    base = os.fspath(out_dir)
    for name in TABLE_NAMES:
        if not validate and os.path.exists(os.path.join(base, f"{name}.tbl")):
            continue
        path = out_dir / f"{name}.tbl"
        if not path.exists():
            if no_regen:
                raise InputFormatError(
                    f"missing table file {path} and regeneration is disabled"
                )
            out_dir.mkdir(parents=True, exist_ok=True)
            write_atomic(path, table_records(ws.table(name)))
        elif validate and not _matches(path, table_records(ws.table(name))):
            raise InputFormatError(
                f"corrupt table file {path}: content does not match "
                "the regenerated table"
            )


def _matches(path: Path, chunks: Iterable[bytes]) -> bool:
    """Whether the file holds exactly the chunks, read one chunk at a time."""
    with open(path, "rb") as f:
        return all(f.read(len(chunk)) == chunk for chunk in chunks) and not f.read(1)
