"""Exact unitary matrices over the cyclotomic ring.

A GateMatrix is an immutable 2x2 or 4x4 matrix whose entries live in the
ring of CycloNum values. The canonical packed byte string doubles as the
equality key, the hash key, and the total-order key, so matrices can be
deduplicated in sets and sorted deterministically without ever touching
floating point.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Sequence

from czorbits import kernels
from czorbits.encoding import ENTRY_BYTES, pack_values, unpack_values
from czorbits.ring import IMAG_UNIT, INV_SQRT2, MINUS_ONE, ONE, ZERO, CycloNum


@total_ordering
class GateMatrix:
    """Immutable exact matrix, canonically encoded."""

    __slots__ = ("dim", "data", "_hash")

    dim: int
    data: bytes

    def __init__(self, dim: int, data: bytes) -> None:
        if dim not in (2, 4):
            raise ValueError("matrix dimension must be 2 or 4")
        if len(data) != dim * dim * ENTRY_BYTES:
            raise ValueError("matrix encoding does not match dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_hash", hash((dim, data)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GateMatrix is immutable")

    def __reduce__(self) -> tuple:
        return GateMatrix, (self.dim, self.data)

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[CycloNum]]) -> GateMatrix:
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square")
        return cls(dim, pack_values([x for row in rows for v in row for x in v.coeffs()]))

    @classmethod
    def identity(cls, dim: int) -> GateMatrix:
        rows = [[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)]
        return cls.from_entries(rows)

    def entry(self, i: int, j: int) -> CycloNum:
        off = (i * self.dim + j) * ENTRY_BYTES
        return CycloNum.unpack(self.data[off : off + ENTRY_BYTES])

    def entries(self) -> tuple[tuple[CycloNum, ...], ...]:
        n = self.dim
        return tuple(
            tuple(self.entry(i, j) for j in range(n)) for i in range(n)
        )

    def __repr__(self) -> str:
        return f"GateMatrix(dim={self.dim}, data={self.data.hex()[:16]}...)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateMatrix):
            return NotImplemented
        return self.dim == other.dim and self.data == other.data

    def __lt__(self, other: GateMatrix) -> bool:
        return (self.dim, self.data) < (other.dim, other.data)

    def __hash__(self) -> int:
        return self._hash

    def __mul__(self, other: GateMatrix) -> GateMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        return GateMatrix(self.dim, kernels.mat_mul(self.data, other.data, self.dim))

    def tensor(self, other: GateMatrix) -> GateMatrix:
        if self.dim != 2 or other.dim != 2:
            raise ValueError("tensor product is defined for 2x2 factors")
        return GateMatrix(4, kernels.mat_tensor(self.data, other.data))

    def dagger(self) -> GateMatrix:
        return GateMatrix(self.dim, kernels.mat_dagger(self.data, self.dim))

    def is_unitary(self) -> bool:
        # Galois conjugates of a unitary are unitary and an entry's four
        # conjugates have |.|² summing to 4(a²+b²+c²+d²)/2^k, so a unitary
        # entry has a²+b²+c²+d² <= 2^k; this also keeps M*M† in 32 bits.
        for a, b, c, d, k in zip(*[iter(unpack_values(self.data))] * 5):
            if a * a + b * b + c * c + d * d > 1 << k:
                return False
        return self * self.dagger() == (I2 if self.dim == 2 else I4)


def _perm_rows(dim: int, perm: Iterable[int]) -> list[list[CycloNum]]:
    rows = [[ZERO] * dim for _ in range(dim)]
    for src, dst in enumerate(perm):
        rows[dst][src] = ONE
    return rows


I2 = GateMatrix.identity(2)
I4 = GateMatrix.identity(4)

H = GateMatrix.from_entries(
    [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]]
)
P = GateMatrix.from_entries([[ONE, ZERO], [ZERO, IMAG_UNIT]])

CZ = GateMatrix.from_entries(
    [
        [ONE, ZERO, ZERO, ZERO],
        [ZERO, ONE, ZERO, ZERO],
        [ZERO, ZERO, ONE, ZERO],
        [ZERO, ZERO, ZERO, MINUS_ONE],
    ]
)

# Basis order |q1 q2> with index 2*q1 + q2. CNOT_T2 targets qubit 2
# (flips it when qubit 1 is set); CNOT_T1 targets qubit 1.
CNOT_T2 = GateMatrix.from_entries(_perm_rows(4, [0, 1, 3, 2]))
CNOT_T1 = GateMatrix.from_entries(_perm_rows(4, [0, 3, 2, 1]))
SWAP = GateMatrix.from_entries(_perm_rows(4, [0, 2, 1, 3]))

C1_GENERATORS: dict[str, GateMatrix] = {"H": H, "P": P}

C2_GENERATORS: dict[str, GateMatrix] = {
    "H1": H.tensor(I2),
    "P1": P.tensor(I2),
    "H2": I2.tensor(H),
    "P2": I2.tensor(P),
    "CZ": CZ,
}
