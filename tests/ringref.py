"""Ring and matrix helpers that only the tests use.

The library keeps the arithmetic its own code runs; these reference helpers
(powers, conjugation, parsing an entry into a CycloNum, packing one, the
complex lift of a matrix, the constants ω and √2, and a row book closed in
CycloNum sums) build on it for the tests' checks.
"""

from functools import cache

import numpy as np

from czorbits.encoding import pack_values
from czorbits.matrices import GateMatrix
from czorbits.ring import ONE, ZERO, CycloNum, parse_entry

OMEGA = CycloNum(0, 1, 0, 0)
SQRT2 = CycloNum(0, 1, 0, -1)


def power(x: CycloNum, n: int) -> CycloNum:
    """x**n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative powers are not defined in this ring")
    out = ONE
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


def conj(x: CycloNum) -> CycloNum:
    """The complex conjugate: ω -> ω⁻¹ = −ω³, so (a, b, c, d) -> (a, −d, −c, −b)."""
    a, b, c, d, k = x.coeffs()
    return CycloNum(a, -d, -c, -b, k)


def parse(text: str) -> CycloNum:
    """The CycloNum of the textual entry form "a,b,c,d/k"."""
    return CycloNum(*parse_entry(text))


def to_numpy(m: GateMatrix) -> np.ndarray:
    """The matrix as a complex numpy array."""
    return np.array([[v.to_complex() for v in row] for row in m.entries()], dtype=complex)


def pack(x: CycloNum) -> bytes:
    """The 20-byte encoding of one entry."""
    return pack_values(x.coeffs())


def row_book(gens: list[tuple[str, GateMatrix]], dim: int) -> tuple:
    """Reference for `groups._row_book`, by other arithmetic: the closure of
    the dim unit rows under r -> r * g for each generator, as the row
    encodings ascending, act[g, r] (uint16) and the identity's row ids.
    Entry j of r * g sums r[t] * g[t, j] over the nonzeros (t, g[t, j]) in
    columns[g][j] as CycloNum values, memoised on those entries of r."""
    columns = [[[(t, m[t][j]) for t in range(dim) if m[t][j]] for j in range(dim)]
               for m in (g.entries() for _, g in gens)]

    @cache
    def entry(g: int, j: int, *entries: bytes) -> bytes:
        terms = zip(entries, columns[g][j])
        return pack(sum((CycloNum.unpack(e) * v for e, (_, v) in terms), ZERO))

    rows = [tuple(pack(ONE if i == j else ZERO) for j in range(dim)) for i in range(dim)]
    found = {row: r for r, row in enumerate(rows)}
    images = []
    for row in rows:  # rows grows while it is read: each new row is met once
        images.append([])
        for g, column in enumerate(columns):
            image = tuple(entry(g, j, *[row[t] for t, _ in terms])
                          for j, terms in enumerate(column))
            if image not in found:
                found[image] = len(rows)
                rows.append(image)
            images[-1].append(found[image])
    book = [b"".join(row) for row in rows]
    order = sorted(range(len(rows)), key=book.__getitem__)
    rank = np.argsort(order).astype(np.uint16)
    return [book[r] for r in order], rank[np.array(images)[order].T], rank[:dim]
