"""Exact unitary matrices over the cyclotomic ring.

A GateMatrix is an immutable 2x2 or 4x4 matrix whose entries live in
Z[ω, 1/√2], each an (a, b, c, d, k) tuple in `ring`'s reduced form. Its
fields (dim, canonical packed byte string) are the dataclass's equality,
hash and total-order key, so matrices can be deduplicated in sets and
sorted deterministically without ever touching floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from czorbits import kernels
from czorbits.encoding import ENTRY_BYTES, pack_values, unpack_values
from czorbits.ring import reduce_entry

Entry = Sequence[int]  # (a, b, c, d, k): (a + bω + cω² + dω³) / √2^k

ZERO = (0, 0, 0, 0, 0)
ONE = (1, 0, 0, 0, 0)
MINUS_ONE = (-1, 0, 0, 0, 0)
IMAG_UNIT = (0, 0, 1, 0, 0)  # ω²
INV_SQRT2 = (1, 0, 0, 0, 1)
MINUS_INV_SQRT2 = (-1, 0, 0, 0, 1)


@dataclass(frozen=True, order=True, slots=True, repr=False)
class GateMatrix:
    """Immutable exact matrix, canonically encoded."""

    dim: int
    data: bytes

    def __post_init__(self) -> None:
        if self.dim not in (2, 4):
            raise ValueError("matrix dimension must be 2 or 4")
        if len(self.data) != self.dim * self.dim * ENTRY_BYTES:
            raise ValueError("matrix encoding does not match dimension")

    def __reduce__(self) -> tuple:
        # unpickling calls the constructor, however this Python restores frozen slots
        return GateMatrix, (self.dim, self.data)

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[Entry]]) -> GateMatrix:
        """The matrix of rows of (a, b, c, d, k) entries, each one reduced."""
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("matrix must be square")
        return cls(dim, pack_values([x for row in rows for v in row for x in reduce_entry(*v)]))

    @classmethod
    def identity(cls, dim: int) -> GateMatrix:
        return cls.from_entries(_perm_rows(dim, range(dim)))

    def entries(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The rows of (a, b, c, d, k) entries, unpacked in one pass."""
        cells = zip(*[iter(unpack_values(self.data))] * 5)
        return tuple(zip(*[cells] * self.dim))

    def __repr__(self) -> str:
        return f"GateMatrix(dim={self.dim}, data={self.data.hex()[:16]}...)"

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
        return self * self.dagger() == IDENTITY[self.dim]


def _perm_rows(dim: int, perm: Iterable[int]) -> list[list[Entry]]:
    rows = [[ZERO] * dim for _ in range(dim)]
    for src, dst in enumerate(perm):
        rows[dst][src] = ONE
    return rows


I2 = GateMatrix.identity(2)
I4 = GateMatrix.identity(4)
IDENTITY = {2: I2, 4: I4}

H = GateMatrix.from_entries([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, MINUS_INV_SQRT2]])
P = GateMatrix.from_entries([[ONE, ZERO], [ZERO, IMAG_UNIT]])

CZ = GateMatrix.from_entries(
    [[ONE, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
     [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, MINUS_ONE]]
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
