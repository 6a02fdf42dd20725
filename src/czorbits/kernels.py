"""Exact matrix kernels over packed encodings.

Matrices are the packed byte encodings described in `encoding` of `ring`'s
entry tuples (a, b, c, d, k), (a + bω + cω² + dω³)/√2^k with ω⁴ = −1, read and
written with its codec. Every output is reduced, and reduced forms are unique,
so a product's bytes depend only on its value.

`mat_mul`, `mat_tensor` and `mat_dagger` act on one matrix in Python
integers. `mat_mul` lifts each operand once to its largest exponent, skips
zero entries and reduces each output entry once; its loop, `mat_mul_lifted`,
takes its operands as `lifted` (or `tensor_lifted`) and `columns` make them,
so a caller lifts a reused operand once. `tensor_lifted` makes x (x) y of two
lifted 2x2 operands as 16 unreduced ring products on the exponent kx + ky, and
`mat_tensor` is that tensor reduced and packed.
`mat_mul_batch` multiplies many matrices by many at once in numpy int64,
with the scalar `mat_mul` as its reference. Group closure multiplies only its
row book's rows, with `mat_mul_lifted`, lifting each generator once (see
`groups`); the batched kernel is the independent oracle that `verify` holds
every closure's Cayley table to. The scalar kernels are plain Python, so a
query's products import no numpy: only the batched kernel imports it, when
it runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .encoding import BIAS, COEF_LIMIT, ENTRY_BYTES, K_LIMIT, pack_values, unpack_values
from .ring import reduce_entry, scale_entry

if TYPE_CHECKING:
    import numpy as np

BACKEND = "pure-python"


def lifted(data: bytes) -> tuple[tuple, int]:
    """The left operand of `mat_mul_lifted`: the numerators of one matrix's
    entries in row-major order, all on the matrix's largest exponent k
    (m = num / √2^k), None for a zero entry, and k."""
    vals = unpack_values(data)
    top = max(vals[4::5])
    return tuple([
        None if not (a or b or c or d)
        else (a, b, c, d) if k == top else scale_entry(a, b, c, d, top - k)
        for a, b, c, d, k in zip(*[iter(vals)] * 5)
    ]), top


def packed(x: tuple[tuple, int]) -> bytes:
    """The encoding of a lifted operand, each entry reduced."""
    return pack_values([v for e in x[0] for v in reduce_entry(*(e or (0, 0, 0, 0)), x[1])])


def mat_mul(x: bytes, y: bytes, dim: int) -> bytes:
    """x * y for dim x dim encodings: each output entry sums the ring products
    over y's nonzero column entries at the fixed exponent kx + ky, reduced once."""
    if len(x) != dim * dim * ENTRY_BYTES or len(y) != dim * dim * ENTRY_BYTES:
        raise ValueError("matrix encoding does not match dimension")
    return mat_mul_lifted(lifted(x), columns(y, dim), dim)


def columns(y: bytes, dim: int) -> tuple[tuple, int]:
    """The right operand of `mat_mul_lifted`: y's nonzero entries column by
    column, as (row, a, b, c, d) on y's largest exponent, and that exponent.
    A caller that multiplies many matrices by one y lifts it once; the
    operand is immutable, so a memo may hand it to every caller."""
    ys, ky = lifted(y)
    return tuple(
        tuple((t, *ys[t * dim + j]) for t in range(dim) if ys[t * dim + j]) for j in range(dim)
    ), ky


def mat_mul_lifted(x: tuple[tuple, int], y: tuple[tuple, int], dim: int) -> bytes:
    """x * y for x as `lifted` or `tensor_lifted` makes it and y as `columns` does."""
    xs, kx = x
    cols, ky = y
    k = kx + ky
    out: list[int] = []
    for i in range(0, dim * dim, dim):
        row = xs[i : i + dim]
        for col in cols:
            sa = sb = sc = sd = 0
            for t, a2, b2, c2, d2 in col:
                e = row[t]
                if e is None:
                    continue
                a1, b1, c1, d1 = e
                # ω-power convolution with the wrap ω⁴ = −1
                sa += a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2
                sb += a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
                sc += a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2
                sd += a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
            out += reduce_entry(sa, sb, sc, sd, k)
    return pack_values(out)


# (entry of x, entry of y) behind each entry of x (x) y, row-major; basis
# index 2*q1 + q2, so x acts on q1 (the high bit) and y on q2
_TENSOR_CELLS = [
    (i1 * 2 + j1, i2 * 2 + j2)
    for i1 in range(2) for i2 in range(2) for j1 in range(2) for j2 in range(2)
]


def tensor_lifted(x: tuple[tuple, int], y: tuple[tuple, int]) -> tuple[tuple, int]:
    """x (x) y of two lifted 2x2 operands, lifted: 16 unreduced ring products of an
    entry of x and one of y on the exponent kx + ky, None where either is zero."""
    (xs, kx), (ys, ky) = x, y
    out = []
    for p, q in _TENSOR_CELLS:
        if xs[p] is None or ys[q] is None:
            out.append(None)
            continue
        (a1, b1, c1, d1), (a2, b2, c2, d2) = xs[p], ys[q]
        out.append((a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2, a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
                    a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2, a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2))
    return tuple(out), kx + ky


def mat_tensor(x: bytes, y: bytes) -> bytes:
    """x (x) y for 2x2 encodings: `tensor_lifted`, reduced and packed."""
    if len(x) != 4 * ENTRY_BYTES or len(y) != 4 * ENTRY_BYTES:
        raise ValueError("tensor expects two 2x2 encodings")
    return packed(tensor_lifted(lifted(x), lifted(y)))


def mat_dagger(x: bytes, dim: int) -> bytes:
    if len(x) != dim * dim * ENTRY_BYTES:
        raise ValueError("matrix encoding does not match dimension")
    entries = list(zip(*[iter(unpack_values(x))] * 5))
    out: list[int] = []
    for i in range(dim):
        # row i is column i conjugated, (a,b,c,d) -> (a,−d,−c,−b): still reduced
        for a, b, c, d, k in entries[i::dim]:
            out += (a, -d, -c, -b, k)
    return pack_values(out)


def _times_sqrt2(v: np.ndarray) -> np.ndarray:
    """Numerators times √2 = ω − ω³, coefficients on the last axis."""
    import numpy as np
    a, b, c, d = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    return np.stack([b - d, a + c, b + d, c - a], axis=-1)


def _lift(data: bytes, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode matrices onto a common exponent each: m = num / √2^k.

    Returns num (n, dim, dim, 4) and k (n,). Inputs are capped at the
    parser's limits, so the lift stays below 2^28 and every later sum of
    products below 2^60: nothing can wrap in int64.
    """
    import numpy as np
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
    import numpy as np
    if dim not in (2, 4):
        raise ValueError("matrix dimension must be 2 or 4")
    x, kx = _lift(xs, dim)
    y, ky = _lift(ys, dim)
    n, m = len(x), len(y)
    # omega[u, v, t]: coefficient of ω^t in ω^u · ω^v, with ω⁴ = −1
    u, v = np.indices((4, 4))
    omega = np.zeros((4, 4, 4), dtype=np.int64)
    omega[u, v, (u + v) % 4] = np.where(u + v < 4, 1, -1)
    # y_j as an integer operator on the (t, ω-power) coefficients of a row
    op = np.einsum("mtjs,csk->tcmjk", y, omega).reshape(dim * 4, m * dim * 4)
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
