"""Exact arithmetic in Z[ω, 1/√2] with ω = exp(iπ/4).

A value is (a + bω + cω² + dω³) / √2^k with integer coefficients, under the
sign-wrap convention ω⁴ = −1. Every instance is kept in reduced form: either
k = 0, or the numerator is not divisible by √2 (equivalently a ≢ c or
b ≢ d mod 2), and zero is always (0, 0, 0, 0, k=0). Reduced forms are unique,
so field-wise equality decides numeric equality.
"""

from __future__ import annotations

import cmath
import re
from typing import Sequence

from .encoding import COEF_LIMIT, K_LIMIT, check_coeff, unpack_values

_OMEGA_COMPLEX = cmath.exp(1j * cmath.pi / 4)
_SQRT2 = 2.0**0.5
# an optional sign then ASCII digits; int() alone also takes "1_0" and "١"
_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
_ENTRY = re.compile(",".join([f"({_INT})"] * 4) + f"/({_INT})")


def parse_integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def scale_entry(a: int, b: int, c: int, d: int, gap: int) -> tuple[int, int, int, int]:
    """The numerator times √2^gap: an odd gap's ×√2 step (√2 = ω − ω³), then a shift."""
    if gap & 1:
        a, b, c, d = b - d, a + c, b + d, c - a
    s = gap >> 1
    return a << s, b << s, c << s, d << s


def reduce_entry(a: int, b: int, c: int, d: int, k: int) -> tuple[int, int, int, int, int]:
    """The reduced form of (a + bω + cω² + dω³)/√2^k, for k >= 0."""
    if not (a or b or c or d):
        return 0, 0, 0, 0, 0
    # √2 divides the numerator iff a ≡ c and b ≡ d (mod 2); the quotient is
    # the inverse of the ×√2 map (a,b,c,d) -> (b−d, a+c, b+d, c−a)
    while k and (a ^ c) & 1 == 0 and (b ^ d) & 1 == 0:
        a, b, c, d = (b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1
        k -= 1
    return a, b, c, d, k


def mul_entry(x: Sequence[int], y: Sequence[int]) -> tuple[int, int, int, int, int]:
    """The reduced product of two (a, b, c, d, k) entries: the ω-power
    convolution of the numerators, with the wrap ω⁴ = −1, over √2^(k1 + k2)."""
    a1, b1, c1, d1, k1 = x
    a2, b2, c2, d2, k2 = y
    return reduce_entry(
        a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2,
        a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
        a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2,
        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        k1 + k2,
    )


def parse_entry(text: str) -> tuple[int, int, int, int, int]:
    """The reduced (a, b, c, d, k) of the textual entry form "a,b,c,d/k",
    with k at most K_LIMIT and every |coefficient| below COEF_LIMIT."""
    match = _ENTRY.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed ring entry {text!r}")
    a, b, c, d, k = map(int, match.groups())
    if k < 0 or k > K_LIMIT:
        raise ValueError(f"denominator exponent out of range in {text!r}")
    if max(abs(a), abs(b), abs(c), abs(d)) >= COEF_LIMIT:
        raise ValueError(f"coefficient out of range in {text!r}")
    return reduce_entry(a, b, c, d, k)


class CycloNum:
    __slots__ = ("_a", "_b", "_c", "_d", "_k")

    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0, k: int = 0) -> None:
        if k < 0:
            raise AssertionError(f"negative denominator exponent {k}")
        a, b, c, d, k = reduce_entry(a, b, c, d, k)
        self._a = check_coeff(a)
        self._b = check_coeff(b)
        self._c = check_coeff(c)
        self._d = check_coeff(d)
        self._k = k

    def coeffs(self) -> tuple[int, int, int, int, int]:
        return self._a, self._b, self._c, self._d, self._k

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

    def __neg__(self) -> CycloNum:
        return CycloNum(-self._a, -self._b, -self._c, -self._d, self._k)

    def __add__(self, other: CycloNum) -> CycloNum:
        if not isinstance(other, CycloNum):
            return NotImplemented
        *x, k1 = self.coeffs()
        *y, k2 = other.coeffs()
        k = max(k1, k2)  # both numerators lifted to the larger exponent
        x, y = scale_entry(*x, k - k1), scale_entry(*y, k - k2)
        return CycloNum(*(p + q for p, q in zip(x, y)), k)

    def __mul__(self, other: CycloNum) -> CycloNum:
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
    def unpack(cls, data: bytes) -> CycloNum:
        return cls(*unpack_values(data))


ZERO = CycloNum(0)
ONE = CycloNum(1)
MINUS_ONE = CycloNum(-1)
IMAG_UNIT = CycloNum(0, 0, 1, 0)
INV_SQRT2 = CycloNum(1, 0, 0, 0, 1)
