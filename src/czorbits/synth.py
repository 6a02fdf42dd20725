"""CZ-count-optimal synthesis of two-qubit Clifford elements.

Every element of C2 factors as an alternating product of local Clifford
layers and CZ gates, with exactly layer(orbit(m)) CZ gates; fewer is
impossible because a local layer never changes the orbit and one CZ moves
at most one edge in the quotient graph.

The synthesizer gathers row ids and multiplies no matrices. Each orbit O_i
is the left coset LC2 * a_i of its anchor a_i: the identity for O1, else the
graph's witness for its edge to the lowest-numbered orbit one layer down.
So every element e of O_i is v * a_i for one v in LC2, its factor, and v is
e * a_i^-1. As CZ * CZ = 1, a_i = CZ * factor(CZ * a_i) * a_j with O_j one
layer down, so each orbit has a fixed circuit tail, built once, shallow
orbits first, that spells its anchor. Right multiplication by a_i acts on
each row alone, as the row map of the tail's letters (`GroupTable.row_map`),
a permutation of C2's row book; its inverse sends e's rows to v's, which
LC2's keys find. An element's circuit is its factor's local layer, left out
when both words are empty, then its orbit's tail, which starts with a CZ: no
two local layers ever meet.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Union

from czorbits import kernels
from czorbits.errors import NotInGroupError, VerificationError
from czorbits.graph import CzGraph
from czorbits.groups import GroupTable, stdlib_array, word_product
from czorbits.matrices import C1_GENERATORS, CZ, I4, GateMatrix
from czorbits.orbits import OrbitAtlas

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class LocalOp:
    """One layer of local gates: words over {H, P} per wire."""

    a: tuple[str, ...]
    b: tuple[str, ...]


@dataclass(frozen=True)
class CzOp:
    """Marker for a CZ gate in a circuit."""


CZ_OP = CzOp()

Op = Union[LocalOp, CzOp]


@dataclass(frozen=True)
class Circuit:
    """Alternating local/CZ operation list, left-to-right product order."""

    ops: tuple[Op, ...]

    @property
    def cz_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, CzOp))


@lru_cache(maxsize=512)
def _word_matrix(word: tuple[str, ...]) -> GateMatrix:
    return word_product(C1_GENERATORS, word)


def _product(ops: tuple[Op, ...]) -> GateMatrix:
    """The exact product of `ops`: the head op's matrix times its suffix's."""
    op, rest = ops[0], ops[1:]
    head = CZ if isinstance(op, CzOp) else _word_matrix(op.a).tensor(_word_matrix(op.b))
    if not rest:
        return head
    return GateMatrix(4, kernels.mat_mul_columns(head.data, _suffix_columns(rest), 4))


@lru_cache(maxsize=256)
def _suffix_columns(ops: tuple[Op, ...]) -> tuple[tuple, int]:
    """The suffix's product as the right operand of `kernels.mat_mul_columns`."""
    return kernels.columns(_product(ops).data, 4)


def evaluate(circuit: Circuit) -> GateMatrix:
    """Exact product of the circuit's matrices, multiplied right to left, and
    the identity for no ops. Each proper op suffix's lifted product is
    memoised, so a new circuit of n ops costs n - 1 products and one whose
    tail this process has already evaluated costs one, with the tail lifted
    once: every element's circuit is its local layer followed by its orbit's
    fixed tail, one of 20."""
    return _product(circuit.ops) if circuit.ops else I4


def _letters(ops: tuple[Op, ...]) -> list[str]:
    """The ops as one word over C2's generators, read left to right: a local
    layer A (x) B is A's letters on wire 1, then B's on wire 2."""
    return [label for op in ops for label in (
        ["CZ"] if isinstance(op, CzOp) else [g + "1" for g in op.a] + [g + "2" for g in op.b])]


class Synthesizer:
    """Per-element factors and per-orbit circuit tails over a fixed workspace."""

    def __init__(
        self,
        c1: GroupTable,
        lc2: GroupTable,
        c2: GroupTable,
        atlas: OrbitAtlas,
        graph: CzGraph,
        cz: np.ndarray,
    ) -> None:
        self.c1 = c1
        self.lc2 = lc2
        self.c2 = c2
        self.atlas = atlas
        self.graph = graph
        self._c1_words = [c1.word_of(e) for e in range(len(c1))]
        self._factor, self._tails = self._build_plans(cz)

    def _local(self, lid: int) -> tuple[Op, ...]:
        """LC2 element lid's local layer as ops: none for two empty words."""
        ia, ib = self.lc2.pairs[lid]
        a, b = self._c1_words[ia], self._c1_words[ib]
        return (LocalOp(a, b),) if a or b else ()

    def _build_plans(self, cz: np.ndarray) -> tuple[array, dict[int, tuple[Op, ...]]]:
        """Each element's factor, as an lc2 id (array "h", int16), and each
        orbit's tail, one orbit at a time, shallow orbits first: a tail reads
        the factor of CZ times its anchor, one layer down, read off cz, CZ's left action."""
        import numpy as np
        atlas, graph, c2 = self.atlas, self.graph, self.c2
        # CZ times each anchor below O1, shallow orbits first so each tail reuses the one below
        pushed: dict[int, int] = {}
        for oid in sorted(range(2, atlas.n_orbits + 1), key=atlas.layer):
            below = [
                j for j in graph.neighbors(oid)
                if atlas.layer(j) == atlas.layer(oid) - 1
            ]
            if not below:
                raise VerificationError(f"orbit {oid} has no downward edge")
            pushed[oid] = int(cz[graph.witnesses[(oid, min(below))]])

        factor = np.empty(len(c2), dtype=np.int32)
        tails: dict[int, tuple[Op, ...]] = {}
        for oid in (1, *pushed):
            tails[oid] = () if oid == 1 else (
                CZ_OP, *self._local(factor[pushed[oid]]), *tails[atlas.orbit_of[pushed[oid]]])
            # e's rows times a_i^-1: a_i's row map is a permutation; argsort inverts it
            inverse = np.argsort(c2.row_map(_letters(tails[oid])))
            members = atlas.orbit_members(oid)
            factor[members] = self.lc2.ids_of(inverse[c2.row_ids(members)])
        return stdlib_array(factor, "h"), tails

    def synthesize(self, m: GateMatrix) -> Circuit:
        eid = self.c2.contains(m)
        if eid is None:
            raise NotInGroupError("matrix is not an element of the group")
        return self.synthesize_id(eid)

    def synthesize_id(self, eid: int) -> Circuit:
        tail = self._tails[self.atlas.orbit_of[self.c2._check_id(eid)]]
        return Circuit((*self._local(self._factor[eid]), *tail))
