"""Exact arithmetic in Z[ω, 1/√2] with ω = exp(iπ/4).

A value is an entry, the integer tuple (a, b, c, d, k) meaning
(a + bω + cω² + dω³) / √2^k, under the sign-wrap convention ω⁴ = −1. The
library computes on these tuples only, through `reduce_entry`, `scale_entry`
and `mul_entry`, and every entry it stores is in reduced form: either k = 0,
or the numerator is not divisible by √2 (equivalently a ≢ c or b ≢ d mod 2),
and zero is always (0, 0, 0, 0, 0). Reduced forms are unique, so field-wise
equality decides numeric equality.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from .encoding import COEF_LIMIT, K_LIMIT

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


@lru_cache(maxsize=256)
def parse_entry(text: str) -> tuple[int, int, int, int, int]:
    """The reduced (a, b, c, d, k) of the textual entry form "a,b,c,d/k",
    with k at most K_LIMIT and every |coefficient| below COEF_LIMIT.
    Memoised: C2's 92160 elements spell their entries with 25 tokens, so a
    query's 16 entries are nearly always hits. A raising token is not cached,
    so it raises its own message on every call."""
    match = _ENTRY.fullmatch(text)
    if match is None:
        raise ValueError(f"malformed ring entry {text!r}")
    a, b, c, d, k = map(int, match.groups())
    if k < 0 or k > K_LIMIT:
        raise ValueError(f"denominator exponent out of range in {text!r}")
    if max(abs(a), abs(b), abs(c), abs(d)) >= COEF_LIMIT:
        raise ValueError(f"coefficient out of range in {text!r}")
    return reduce_entry(a, b, c, d, k)

