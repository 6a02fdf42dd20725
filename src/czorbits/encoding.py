"""Byte encoding of ring entries and matrices, and its one codec.

An entry (a, b, c, d, k) is packed as five big-endian 32-bit words. The four
numerator coefficients are biased by 2**31 so that lexicographic byte order
of an encoding coincides with lexicographic order of the integer tuples;
the exponent k is non-negative and stored raw. A matrix encoding is the
row-major concatenation of its entry encodings. `pack_values` and
`unpack_values` are the one codec: every module packs and unpacks entries,
matrix rows and matrices through them.
"""

from __future__ import annotations

import struct
from typing import Sequence

BIAS = 1 << 31
ENTRY_BYTES = 20

# Caps for externally supplied values: the parser rejects |coefficient| >=
# COEF_LIMIT and k > K_LIMIT, and the batched kernel refuses such inputs,
# which keeps its int64 intermediates below 2^60. Values produced by the
# group engine stay tiny.
COEF_LIMIT = 1 << 20
K_LIMIT = 16

# _STRUCTS[n]: per entry four signed coefficients and the unsigned exponent,
# for one entry, a row of 2 or 4 and a matrix of 4 or 16
_STRUCTS = {n: struct.Struct(">" + "4iI" * n) for n in (1, 2, 4, 16)}
# Adding the bias 2^31 to a 32-bit word is, mod 2^32, flipping its top bit:
# XOR with this mask turns the biased coefficient words into signed ones and
# back, and leaves the exponent words alone.
_SIGN_BITS = {
    n * ENTRY_BYTES: int.from_bytes((b"\x80\0\0\0" * 4 + bytes(4)) * n, "big") for n in _STRUCTS
}


def _flip(data: bytes) -> bytes:
    return (int.from_bytes(data, "big") ^ _SIGN_BITS[len(data)]).to_bytes(len(data), "big")


def unpack_values(data: bytes) -> list[int]:
    """The five integers a, b, c, d, k of each entry of an encoding of 1, 2, 4
    or 16 entries, in order."""
    st = _STRUCTS.get(len(data) // ENTRY_BYTES)
    if st is None or st.size != len(data):
        raise ValueError(f"bad encoding length {len(data)}")
    return list(st.unpack(_flip(data)))


def pack_values(vals: Sequence[int]) -> bytes:
    """The encoding of 1, 2, 4 or 16 entries given as their five integers each,
    in order; AssertionError for a coefficient outside 32 bits or k < 0."""
    st = _STRUCTS.get(len(vals) // 5)
    if st is None or len(vals) % 5:
        raise ValueError(f"{len(vals)} values are not 1, 2, 4 or 16 entries")
    try:
        return _flip(st.pack(*vals))
    except struct.error:
        raise AssertionError("value exceeds the 32-bit range of its word") from None
