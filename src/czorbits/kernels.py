"""Exact matrix kernels over packed encodings.

Matrices are the packed byte encodings described in `encoding`, entries
(a,b,c,d,k) meaning (a + bω + cω² + dω³)/√2^k with ω⁴ = −1. Every output is
reduced, and reduced forms are unique, so a product's bytes depend only on
its value.

`mat_mul` and `mat_dagger` act on one matrix in Python integers, and
`mat_tensor` is one `mat_mul` of its two factors padded to 4x4.
`mat_mul_batch` multiplies many matrices by many at once in numpy int64,
with the scalar `mat_mul` as its reference. Group closure uses neither:
it works on row ids (see `groups`). The batched kernel is the
independent oracle that `verify` holds every closure's Cayley table to.
"""

from __future__ import annotations

import struct

import numpy as np

from .encoding import BIAS, COEF_LIMIT, ENTRY_BYTES, K_LIMIT, pack_entry

BACKEND = "pure-python"

_ZERO = pack_entry(0, 0, 0, 0, 0)

_STRUCTS = {
    20: struct.Struct(">20I"),
    80: struct.Struct(">80I"),
}


def _unpack(data: bytes) -> list[int]:
    st = _STRUCTS.get(len(data) // 4)
    if st is None or st.size != len(data):
        raise ValueError(f"bad matrix encoding length {len(data)}")
    vals = list(st.unpack(data))
    for i in range(0, len(vals), 5):
        vals[i] -= BIAS
        vals[i + 1] -= BIAS
        vals[i + 2] -= BIAS
        vals[i + 3] -= BIAS
    return vals


def _pack(vals: list[int]) -> bytes:
    for i in range(0, len(vals), 5):
        vals[i] += BIAS
        vals[i + 1] += BIAS
        vals[i + 2] += BIAS
        vals[i + 3] += BIAS
    try:
        return _STRUCTS[len(vals)].pack(*vals)
    except (struct.error, KeyError):
        raise AssertionError("coefficient exceeds the 32-bit range") from None


def mat_mul(x: bytes, y: bytes, dim: int) -> bytes:
    if len(x) != dim * dim * 20 or len(y) != dim * dim * 20:
        raise ValueError("matrix encoding does not match dimension")
    a = _unpack(x)
    b = _unpack(y)
    out = [0] * (dim * dim * 5)
    stride = dim * 5
    for i in range(dim):
        arow = i * stride
        for j in range(dim):
            sa = sb = sc = sd = 0
            sk = 0
            for t in range(dim):
                pa = arow + t * 5
                pb = t * stride + j * 5
                a1 = a[pa]
                b1 = a[pa + 1]
                c1 = a[pa + 2]
                d1 = a[pa + 3]
                a2 = b[pb]
                b2 = b[pb + 1]
                c2 = b[pb + 2]
                d2 = b[pb + 3]
                e = a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2
                f = a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
                g = a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2
                h = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
                if e | f | g | h == 0:
                    continue
                kk = a[pa + 4] + b[pb + 4]
                # align denominators via the push-down map (×√2 on numerators)
                while kk < sk:
                    e, f, g, h = f - h, e + g, f + h, g - e
                    kk += 1
                if sk < kk:
                    if sa | sb | sc | sd == 0:
                        sk = kk
                    else:
                        while sk < kk:
                            sa, sb, sc, sd = sb - sd, sa + sc, sb + sd, sc - sa
                            sk += 1
                sa += e
                sb += f
                sc += g
                sd += h
            if sa | sb | sc | sd == 0:
                sk = 0
            else:
                while sk > 0 and (sa ^ sc) & 1 == 0 and (sb ^ sd) & 1 == 0:
                    sa, sb, sc, sd = (
                        (sb - sd) // 2,
                        (sa + sc) // 2,
                        (sb + sd) // 2,
                        (sc - sa) // 2,
                    )
                    sk -= 1
            o = (i * dim + j) * 5
            out[o] = sa
            out[o + 1] = sb
            out[o + 2] = sc
            out[o + 3] = sd
            out[o + 4] = sk
    return _pack(out)


def mat_tensor(x: bytes, y: bytes) -> bytes:
    """x (x) y for 2x2 encodings, as the product (x (x) I)(I (x) y)."""
    if len(x) != 80 or len(y) != 80:
        raise ValueError("tensor expects two 2x2 encodings")
    xs = [x[o : o + ENTRY_BYTES] for o in range(0, 80, ENTRY_BYTES)]
    ys = [y[o : o + ENTRY_BYTES] for o in range(0, 80, ENTRY_BYTES)]
    # basis index 2*q1 + q2: x acts on q1 (the high bit), y on q2
    cells = [(r, c) for r in range(4) for c in range(4)]
    xi = b"".join(xs[(r >> 1) * 2 + (c >> 1)] if r & 1 == c & 1 else _ZERO for r, c in cells)
    iy = b"".join(ys[(r & 1) * 2 + (c & 1)] if r >> 1 == c >> 1 else _ZERO for r, c in cells)
    return mat_mul(xi, iy, 4)


def mat_dagger(x: bytes, dim: int) -> bytes:
    if len(x) != dim * dim * 20:
        raise ValueError("matrix encoding does not match dimension")
    a = _unpack(x)
    out = [0] * (dim * dim * 5)
    for i in range(dim):
        for j in range(dim):
            p = (j * dim + i) * 5
            o = (i * dim + j) * 5
            # conjugation (a,b,c,d) -> (a,−d,−c,−b) preserves reducedness
            out[o] = a[p]
            out[o + 1] = -a[p + 3]
            out[o + 2] = -a[p + 2]
            out[o + 3] = -a[p + 1]
            out[o + 4] = a[p + 4]
    return _pack(out)


# _OMEGA_MUL[c, s, t]: coefficient of ω^t in ω^c · ω^s, with ω⁴ = −1
_OMEGA_MUL = np.zeros((4, 4, 4), dtype=np.int64)
for _c in range(4):
    for _s in range(4):
        _OMEGA_MUL[_c, _s, (_c + _s) % 4] = 1 if _c + _s < 4 else -1


def _times_sqrt2(v: np.ndarray) -> np.ndarray:
    """Numerators times √2 = ω − ω³, coefficients on the last axis."""
    a, b, c, d = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return np.stack([b - d, a + c, b + d, c - a], axis=-1)


def _lift(data: bytes, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode matrices onto a common exponent each: m = num / √2^k.

    Returns num (n, dim, dim, 4) and k (n,). Inputs are capped at the
    parser's limits, so the lift stays below 2^28 and every later sum of
    products below 2^60: nothing can wrap in int64.
    """
    if len(data) % (dim * dim * ENTRY_BYTES):
        raise ValueError("matrix encoding does not match dimension")
    raw = np.frombuffer(data, dtype=">u4").astype(np.int64).reshape(-1, dim, dim, 5)
    num = raw[..., :4] - BIAS
    ks = raw[..., 4]
    if num.size and (np.abs(num).max() >= COEF_LIMIT or ks.max() > K_LIMIT):
        raise AssertionError("coefficient exceeds the batched kernel's range")
    top = ks.max(axis=(1, 2))
    gap = top[:, None, None] - ks
    num = num << (gap // 2)[..., None]
    num = np.where((gap % 2 == 1)[..., None], _times_sqrt2(num), num)
    return num, top


def mat_mul_batch(xs: bytes, ys: bytes, dim: int) -> bytes:
    """Every product x * y over concatenated encodings, x-major.

    With n matrices in xs and m in ys, the result holds n * m encodings,
    x_i * y_j at position i * m + j, byte-identical to `mat_mul(x_i, y_j)`.
    Raises AssertionError for an input coefficient of magnitude COEF_LIMIT
    or more, an input exponent above K_LIMIT, or a result outside 32 bits.
    """
    if dim not in (2, 4):
        raise ValueError("matrix dimension must be 2 or 4")
    x, kx = _lift(xs, dim)
    y, ky = _lift(ys, dim)
    n, m = len(x), len(y)
    # y_j as an integer operator on the (t, ω-power) coefficients of a row
    op = np.einsum("mtjs,csk->tcmjk", y, _OMEGA_MUL).reshape(dim * 4, m * dim * 4)
    num = (x.reshape(n * dim, dim * 4) @ op).reshape(n, dim, m, dim, 4)
    num = num.transpose(0, 2, 1, 3, 4)
    k = np.where(num.any(axis=-1), (kx[:, None] + ky)[:, :, None, None], 0)
    while True:
        a, b, c, d = num[..., 0], num[..., 1], num[..., 2], num[..., 3]
        # divisible by √2 exactly when a ≡ c and b ≡ d (mod 2)
        down = (k > 0) & (((a ^ c) | (b ^ d)) & 1 == 0)
        if not down.any():
            break
        num = np.where(down[..., None], _times_sqrt2(num) >> 1, num)
        k = k - down
    if num.size and (num.min() < -BIAS or num.max() >= BIAS):
        raise AssertionError("coefficient exceeds the 32-bit range")
    out = np.concatenate([num + BIAS, k[..., None]], axis=-1)
    return out.astype(">u4").tobytes()
