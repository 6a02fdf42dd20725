"""Ring and matrix helpers that only the tests use.

The library keeps the arithmetic its own code runs; these reference helpers
(powers, conjugation, parsing an entry into a CycloNum, the complex lift of
a matrix, and the constants ω and √2) build on it for the tests' checks.
"""

import numpy as np

from czorbits.matrices import GateMatrix
from czorbits.ring import ONE, CycloNum, parse_entry

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
