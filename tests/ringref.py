"""Ring and matrix helpers that only the tests use.

The library computes on (a, b, c, d, k) entry tuples; `CycloNum` here is the
tests' reference value type over the same ring, built on the library's
`reduce_entry`, `scale_entry` and `mul_entry`, with its own sum, negation
and complex lift. The other helpers (powers, conjugation, parsing an entry
into a CycloNum, packing one, one entry of a matrix, the complex lift of a
matrix, the constants, and a row book closed in CycloNum sums) build on it
for the tests' checks. `left_fill` is the reference left action of every
generator, filled along a table's breadth-first tree.
"""

import cmath
from functools import cache

import numpy as np

from czorbits.encoding import BIAS, pack_values, unpack_values
from czorbits.matrices import GateMatrix
from czorbits.ring import mul_entry, parse_entry, reduce_entry, scale_entry

_OMEGA_COMPLEX = cmath.exp(1j * cmath.pi / 4)
_SQRT2 = 2.0**0.5


class CycloNum:
    """(a + bω + cω² + dω³) / √2^k, kept reduced, so field-wise equality is
    numeric equality. It iterates as its five integers, so a row of values
    is a row of entries to `GateMatrix.from_entries`."""

    __slots__ = ("_a", "_b", "_c", "_d", "_k")

    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0, k: int = 0) -> None:
        if k < 0:
            raise AssertionError(f"negative denominator exponent {k}")
        a, b, c, d, k = reduce_entry(a, b, c, d, k)
        for v in (a, b, c, d):
            if not -BIAS <= v < BIAS:
                raise AssertionError(f"coefficient {v} exceeds the 32-bit range")
        self._a, self._b, self._c, self._d, self._k = a, b, c, d, k

    def coeffs(self) -> tuple[int, int, int, int, int]:
        return self._a, self._b, self._c, self._d, self._k

    def __iter__(self):
        return iter(self.coeffs())

    def __repr__(self) -> str:
        return f"CycloNum({self._a}, {self._b}, {self._c}, {self._d}, k={self._k})"

    def __str__(self) -> str:
        return f"{self._a},{self._b},{self._c},{self._d}/{self._k}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.coeffs() == other.coeffs()

    def __hash__(self) -> int:
        return hash(self.coeffs())

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0 or self._c != 0 or self._d != 0

    def __neg__(self) -> "CycloNum":
        return CycloNum(-self._a, -self._b, -self._c, -self._d, self._k)

    def __add__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        *x, k1 = self.coeffs()
        *y, k2 = other.coeffs()
        k = max(k1, k2)  # both numerators lifted to the larger exponent
        x, y = scale_entry(*x, k - k1), scale_entry(*y, k - k2)
        return CycloNum(*(p + q for p, q in zip(x, y)), k)

    def __mul__(self, other: "CycloNum") -> "CycloNum":
        if not isinstance(other, CycloNum):
            return NotImplemented
        return CycloNum(*mul_entry(self.coeffs(), other.coeffs()))

    def to_complex(self) -> complex:
        num = (
            self._a
            + self._b * _OMEGA_COMPLEX
            + self._c * 1j
            + self._d * _OMEGA_COMPLEX**3
        )
        return num / _SQRT2**self._k

    @classmethod
    def unpack(cls, data: bytes) -> "CycloNum":
        return cls(*unpack_values(data))


ZERO = CycloNum(0)
ONE = CycloNum(1)
MINUS_ONE = CycloNum(-1)
IMAG_UNIT = CycloNum(0, 0, 1, 0)
INV_SQRT2 = CycloNum(1, 0, 0, 0, 1)
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


def entry(m: GateMatrix, i: int, j: int) -> CycloNum:
    """Entry (i, j) of the matrix."""
    return CycloNum(*m.entries()[i][j])


def to_numpy(m: GateMatrix) -> np.ndarray:
    """The matrix as a complex numpy array."""
    return np.array([[CycloNum(*v).to_complex() for v in row] for row in m.entries()],
                    dtype=complex)


def pack(x: CycloNum) -> bytes:
    """The 20-byte encoding of one entry."""
    return pack_values(x.coeffs())


def row_book(gens: list[tuple[str, GateMatrix]], dim: int) -> tuple:
    """Reference for `groups._row_book`, by other arithmetic: the closure of
    the dim unit rows under r -> r * g for each generator, as the row
    encodings ascending, act[g, r] (uint16) and the identity's row ids.
    Entry j of r * g sums r[t] * g[t, j] over the nonzeros (t, g[t, j]) in
    columns[g][j] as CycloNum values, memoised on those entries of r."""
    columns = [[[(t, entry(m, t, j)) for t in range(dim) if entry(m, t, j)]
                for j in range(dim)] for _, m in gens]

    @cache
    def image_entry(g: int, j: int, *entries: bytes) -> bytes:
        terms = zip(entries, columns[g][j])
        return pack(sum((CycloNum.unpack(e) * v for e, (_, v) in terms), ZERO))

    rows = [tuple(pack(ONE if i == j else ZERO) for j in range(dim)) for i in range(dim)]
    found = {row: r for r, row in enumerate(rows)}
    images = []
    for row in rows:  # rows grows while it is read: each new row is met once
        images.append([])
        for g, column in enumerate(columns):
            image = tuple(image_entry(g, j, *[row[t] for t, _ in terms])
                          for j, terms in enumerate(column))
            if image not in found:
                found[image] = len(rows)
                rows.append(image)
            images[-1].append(found[image])
    book = [b"".join(row) for row in rows]
    order = sorted(range(len(rows)), key=book.__getitem__)
    rank = np.argsort(order).astype(np.uint16)
    return [book[r] for r in order], rank[np.array(images)[order].T], rank[:dim]


def left_fill(table) -> np.ndarray:
    """Reference left actions of the table's generators, from its `right`
    and its breadth-first tree: left[g, e] (int32) is the id of the g-th
    generator times element(e). As g·1 = 1·g and g·(p·h) = (g·p)·h, each
    element e = p·h of the tree gets left[g, e] = right[left[g, p], h],
    filled one level of the tree at a time from the identity."""
    right, parent, label, one = table.right, table.parent, table.label, table.identity_id
    left = np.full((right.shape[1], len(table)), -1, dtype=np.int32)
    left[:, one] = right[one]
    level = np.array([one])
    while level.size:
        level = np.flatnonzero(np.isin(parent, level))
        left[:, level] = right[left[:, parent[level]], label[level]]
    return left
