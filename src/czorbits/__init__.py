"""Exact two-qubit Clifford group tables, orbit structure, and synthesis.

The package enumerates the two-qubit Clifford group (92160 elements) in
exact cyclotomic arithmetic, partitions it into the 20 left cosets of the
local-Clifford subgroup, builds the CZ-connectivity graph on those cosets,
and synthesizes any group element as local gates plus a minimal number of
CZ gates (at most three).
"""

from czorbits.kernels import BACKEND
from czorbits.matrices import (
    CNOT_T1,
    CNOT_T2,
    CZ,
    H,
    I2,
    I4,
    P,
    SWAP,
    C1_GENERATORS,
    C2_GENERATORS,
    GateMatrix,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "GateMatrix",
    "I2",
    "I4",
    "H",
    "P",
    "CZ",
    "CNOT_T1",
    "CNOT_T2",
    "SWAP",
    "C1_GENERATORS",
    "C2_GENERATORS",
    "__version__",
]
