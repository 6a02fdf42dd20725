"""Byte encoding shared by the scalar ring, matrices, and the kernels.

An entry (a, b, c, d, k) is packed as five big-endian 32-bit words. The four
numerator coefficients are biased by 2**31 so that lexicographic byte order
of an encoding coincides with lexicographic order of the integer tuples;
the exponent k is non-negative and stored raw. A matrix encoding is the
row-major concatenation of its entry encodings.
"""

from __future__ import annotations

import struct

BIAS = 1 << 31
ENTRY_BYTES = 20

# Caps for externally supplied values: the parser rejects |coefficient| >=
# COEF_LIMIT and k > K_LIMIT, and the batched kernel refuses such inputs,
# which keeps its int64 intermediates below 2^60. Values produced by the
# group engine stay tiny.
COEF_LIMIT = 1 << 20
K_LIMIT = 16


def check_coeff(v: int) -> int:
    if not -BIAS <= v < BIAS:
        raise AssertionError(f"coefficient {v} exceeds the 32-bit range")
    return v


def pack_entry(a: int, b: int, c: int, d: int, k: int) -> bytes:
    if k < 0:
        raise AssertionError(f"negative denominator exponent {k}")
    return struct.pack(
        ">5I",
        check_coeff(a) + BIAS,
        check_coeff(b) + BIAS,
        check_coeff(c) + BIAS,
        check_coeff(d) + BIAS,
        k,
    )


def unpack_entry(data: bytes) -> tuple[int, int, int, int, int]:
    a, b, c, d, k = struct.unpack(">5I", data)
    return a - BIAS, b - BIAS, c - BIAS, d - BIAS, k


def unpack_entries(data: bytes) -> list[tuple[int, int, int, int, int]]:
    if len(data) % ENTRY_BYTES:
        raise ValueError(f"encoding length {len(data)} is not a multiple of {ENTRY_BYTES}")
    return [
        unpack_entry(data[i : i + ENTRY_BYTES])
        for i in range(0, len(data), ENTRY_BYTES)
    ]
