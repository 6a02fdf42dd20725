"""CZ-count-optimal synthesis of two-qubit Clifford elements.

Every element of C2 factors as an alternating product of local Clifford
layers and CZ gates, with exactly layer(orbit(m)) CZ gates; fewer is
impossible because a local layer never changes the orbit and one CZ moves
at most one edge in the quotient graph.

The synthesizer gathers row ids and multiplies no matrices. Each orbit O_i
is the left coset LC2 * a_i of its anchor a_i: the identity for O1, else
O_i's least member that CZ sends into O_j, the lowest-numbered orbit one
layer down. So every element e of O_i is v * a_i for one v in LC2, its
factor, and v is e * a_i^-1. As CZ * CZ = 1, a_i is CZ times CZ * a_i, which
lies in O_j, so each orbit has a fixed circuit tail that spells its anchor:
CZ, then the circuit of CZ * a_i, built once, shallow orbits first. Right
multiplication by a_i acts on each row alone, as the row map of the tail's
letters (`GroupTable.row_map`), a permutation of C2's row book; its inverse
sends e's rows to v's. Besides C1's words, the synthesizer stores only the
20 tails and those 20 inverse maps, nothing per element: a query maps e's
four row ids and finds v by one key search in LC2 (`GroupTable.find`). An
element's circuit is v's local layer, left out when both words are empty,
then its orbit's tail, which starts with a CZ: no two local layers ever meet.

`evaluate`, which `synth --verify` runs, is the independent oracle: it reads
no table, row map or action. It multiplies the lifted tensor of a local
layer's two word matrices, each lifted once, into its memoised tail's lifted
columns, so a query's check is one exact 4x4 product.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Union

from czorbits import kernels
from czorbits.errors import NotInGroupError, VerificationError
from czorbits.graph import CzGraph
from czorbits.groups import GroupTable, stdlib_array, word_product
from czorbits.matrices import C1_GENERATORS, CZ, I4, GateMatrix
from czorbits.orbits import OrbitAtlas

if TYPE_CHECKING:
    import numpy as np


class LocalOp(NamedTuple):
    """One layer of local gates: words over {H, P} per wire."""

    a: tuple[str, ...]
    b: tuple[str, ...]


class CzOp(NamedTuple):
    """Marker for a CZ gate in a circuit."""


CZ_OP = CzOp()

Op = Union[LocalOp, CzOp]


class Circuit(NamedTuple):
    """Alternating local/CZ operation list, left-to-right product order."""

    ops: tuple[Op, ...]

    @property
    def cz_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, CzOp))


@lru_cache(maxsize=512)
def _word(word: tuple[str, ...]) -> tuple[tuple, int]:
    """The word's 2x2 matrix as an operand of `kernels.tensor_lifted`."""
    return kernels.lifted(word_product(C1_GENERATORS, word).data)


_CZ_LIFTED = kernels.lifted(CZ.data)


def _product(ops: tuple[Op, ...]) -> GateMatrix:
    """The exact product of `ops`: the head op's lifted matrix times its suffix's."""
    op, rest = ops[0], ops[1:]
    head = _CZ_LIFTED if isinstance(op, CzOp) else kernels.tensor_lifted(_word(op.a), _word(op.b))
    if not rest:
        return GateMatrix(4, kernels.packed(head))
    return GateMatrix(4, kernels.mat_mul_lifted(head, _suffix_columns(rest), 4))


@lru_cache(maxsize=256)
def _suffix_columns(ops: tuple[Op, ...]) -> tuple[tuple, int]:
    """The suffix's product as the right operand of `kernels.mat_mul_lifted`."""
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
    """Each orbit's circuit tail and its inverse row map (array "H") over a workspace."""

    def __init__(
        self,
        c1: GroupTable,
        lc2: GroupTable,
        c2: GroupTable,
        atlas: OrbitAtlas,
        graph: CzGraph,
        cz: np.ndarray,
    ) -> None:
        self.lc2 = lc2
        self.c2 = c2
        self.atlas = atlas
        self._c1_words = [c1.word_of(e) for e in range(len(c1))]
        self._tails: dict[int, tuple[Op, ...]] = {1: ()}
        self._unmaps: dict[int, array] = {}
        self._build_plans(graph, cz)

    def _local(self, lid: int) -> tuple[Op, ...]:
        """LC2 element lid's local layer as ops: none for two empty words."""
        ia, ib = self.lc2.pairs[lid]
        a, b = self._c1_words[ia], self._c1_words[ib]
        return (LocalOp(a, b),) if a or b else ()

    def _build_plans(self, graph: CzGraph, cz: np.ndarray) -> None:
        """Each orbit's tail and inverse row map, shallow orbits first: a tail reads the
        circuit of CZ times its anchor, one layer down, off cz, CZ's left action."""
        import numpy as np
        atlas = self.atlas
        for oid in sorted(range(1, atlas.n_orbits + 1), key=atlas.layer):
            if oid > 1:
                below = [j for j in graph.neighbors(oid) if atlas.layer(j) == atlas.layer(oid) - 1]
                # the anchor: the least member that CZ sends into the lowest orbit below
                anchor = next(u for u in atlas.orbit_members(oid)
                              if atlas.orbit_of[cz[u]] == below[0])
                self._tails[oid] = (CZ_OP, *self.synthesize_id(int(cz[anchor])).ops)
            # a_i's row map is a permutation; argsort inverts it
            self._unmaps[oid] = stdlib_array(
                np.argsort(self.c2.row_map(_letters(self._tails[oid]))), "H")

    def synthesize(self, m: GateMatrix) -> Circuit:
        eid = self.c2.contains(m)
        if eid is None:
            raise NotInGroupError("matrix is not an element of the group")
        return self.synthesize_id(eid)

    def synthesize_id(self, eid: int) -> Circuit:
        rows = self.c2.rows_of(eid)  # which checks eid
        oid = self.atlas.orbit_of[eid]
        lid = self.lc2.find([self._unmaps[oid][r] for r in rows])
        if lid is None:
            raise VerificationError(f"element {eid} has no local factor over its orbit's anchor")
        return Circuit((*self._local(lid), *self._tails[oid]))
