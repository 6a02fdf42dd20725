"""Deterministic text formats for matrices, tables, and orbit files.

Matrix text format: the dimension on one line, then dim lines of dim
entries "a,b,c,d/k" separated by single spaces. Table files carry the
header "CLIFFORD-TABLE v1 <name> <count>" followed by one matrix per
record in canonical order. A table stores each element as the ids of its
rows in the table's row book (480 rows for C2's 92160 elements), so its
file is written from each book row's text, printed once. Orbit files are
line-oriented: the map file has "element_id orbit_id" lines, the summary
file "orbit_id layer size representative_encoding" with the encoding in hex.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from czorbits.encoding import pack_values, unpack_values
from czorbits.errors import InputFormatError
from czorbits.groups import GroupTable
from czorbits.matrices import GateMatrix
from czorbits.orbits import OrbitAtlas
from czorbits.ring import parse_entry, parse_integer

TABLE_MAGIC = "CLIFFORD-TABLE"
TABLE_VERSION = "v1"
_ENTRY = "%d,%d,%d,%d/%d"
CHUNK_BYTES = 1 << 20


def _row(dim: int) -> str:
    """The text of one row of dim entries, with five %d slots per entry."""
    return " ".join([_ENTRY] * dim) + "\n"


def format_matrix(m: GateMatrix) -> str:
    # stored entries are reduced, so their five integers print as they are
    return (f"{m.dim}\n" + _row(m.dim) * m.dim) % tuple(unpack_values(m.data))


def parse_matrix(text: str) -> GateMatrix:
    """The matrix of the text format; each entry is parsed and reduced by
    `ring.parse_entry` and the matrix packed with one `pack_values` call."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise InputFormatError("empty matrix text")
    try:
        dim = parse_integer(lines[0])
    except ValueError:
        raise InputFormatError(f"bad dimension line {lines[0]!r}") from None
    if dim not in (2, 4):
        raise InputFormatError(f"unsupported dimension {dim}")
    if len(lines) != 1 + dim:
        raise InputFormatError(
            f"expected {dim} rows after the dimension, got {len(lines) - 1}"
        )
    values: list[int] = []
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != dim:
            raise InputFormatError(f"expected {dim} entries per row, got {ln!r}")
        try:
            for tok in tokens:
                values += parse_entry(tok)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None
    return GateMatrix(dim, pack_values(values))


def table_records(table: GroupTable) -> Iterator[bytes]:
    """The table file as chunks of at most CHUNK_BYTES: the header, then one
    record of dim rows per element. Each row of the table's row book is
    printed once, and once more after the "<dim>" line that opens a record; a
    chunk joins the pieces its elements' row ids pick from an object array, so
    no whole file is held."""
    import numpy as np
    yield f"{TABLE_MAGIC} {TABLE_VERSION} {table.name} {len(table)}\n".encode()
    dim = table.dim
    rest = [(_row(dim) % tuple(unpack_values(row))).encode() for row in table.book]
    first = [b"%d\n" % dim + piece for piece in rest]
    pieces, shift = np.array(first + rest, dtype=object), np.repeat([0, len(rest)], [1, dim - 1])
    longest = max(map(len, first)) + (dim - 1) * max(map(len, rest))
    step = max(1, CHUNK_BYTES // longest)
    for at in range(0, len(table), step):
        picks = table.row_ids(slice(at, at + step)) + shift
        yield b"".join(pieces[picks.ravel()].tolist())


def format_table(table: GroupTable) -> str:
    return b"".join(table_records(table)).decode("ascii")


def write_atomic(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write via a temporary file in the same directory, then rename over path.

    `data` is the content, or an iterable of byte chunks written in turn, so
    a large file never has to be held whole.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines([data] if isinstance(data, bytes) else data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def orbit_map_records(atlas: OrbitAtlas) -> Iterator[bytes]:
    """The orbit map's "element_id orbit_id" lines in chunks, so the map is never
    held whole: a chunk has as many lines as CHUNK_BYTES holds of its longest
    line as a str object, and is one % format over its ids and orbit ids,
    interleaved."""
    of = atlas.orbit_of
    step = max(1, CHUNK_BYTES // sys.getsizeof(f"{len(of) - 1} {max(of)}\n"))
    for at in range(0, len(of), step):
        ids = range(at, min(at + step, len(of)))
        values = [0] * (2 * len(ids))
        values[::2], values[1::2] = ids, of[at : at + step]
        yield ("%d %d\n" * len(ids) % tuple(values)).encode()


def format_orbit_map(atlas: OrbitAtlas) -> str:
    return b"".join(orbit_map_records(atlas)).decode("ascii")


def format_orbit_summary(atlas: OrbitAtlas, c2: GroupTable) -> str:
    lines = []
    for oid in range(1, atlas.n_orbits + 1):
        members = atlas.orbit_members(oid)
        rep = c2.element(atlas.representative(oid)).data.hex()
        lines.append(f"{oid} {atlas.layer(oid)} {len(members)} {rep}\n")
    return "".join(lines)


def format_circuit(circuit, time_order: bool = False) -> str:
    """Circuit text format; time order reverses the product order."""
    from czorbits.synth import CzOp

    lines = [f"CZ-COUNT {circuit.cz_count}"]
    ops = list(circuit.ops)
    if time_order:
        ops.reverse()
    for op in ops:
        if isinstance(op, CzOp):
            lines.append("CZ")
        else:
            a = "".join(op.a)
            b = "".join(op.b)
            lines.append(f"LOCAL a={a} b={b}")
    return "\n".join(lines) + "\n"
