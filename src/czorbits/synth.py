"""CZ-count-optimal synthesis of two-qubit Clifford elements.

Every element of C2 factors as an alternating product of local Clifford
layers and CZ gates, with exactly layer(orbit(m)) CZ gates; fewer is
impossible because a local layer never changes the orbit and one CZ moves
at most one edge in the quotient graph.

The synthesizer uses per-orbit descent plans built from the graph's
witnesses. For orbit i at layer d with recorded witness w in O_i whose
pushforward CZ*w lies one layer down, any m in O_i satisfies
w*dagger(m) in LC2; therefore

    m = dagger(V1) * CZ * (CZ * w),   V1 = w * dagger(m),

and CZ*w is a fixed matrix one layer closer to the identity. Descending
from CZ*w is the same computation again, so the whole tail of the circuit
depends only on the orbit and is precomputed; synthesizing one element
costs a single matrix product plus hash lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from czorbits.errors import NotInGroupError, VerificationError
from czorbits.graph import CzGraph
from czorbits.groups import GroupTable
from czorbits.matrices import CZ, H, I2, P, GateMatrix
from czorbits.orbits import OrbitAtlas


@dataclass(frozen=True)
class LocalOp:
    """One layer of local gates: words over {H, P} per wire."""

    a: tuple[str, ...]
    b: tuple[str, ...]


class CzOp:
    """Marker for a CZ gate in a circuit."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CzOp()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CzOp)

    def __hash__(self) -> int:
        return hash(CzOp)


CZ_OP = CzOp()

Op = Union[LocalOp, CzOp]


@dataclass(frozen=True)
class Circuit:
    """Alternating local/CZ operation list, left-to-right product order."""

    ops: tuple[Op, ...]

    @property
    def cz_count(self) -> int:
        return sum(1 for op in self.ops if isinstance(op, CzOp))


def make_circuit(items: list[Op]) -> Circuit:
    """Normalize: merge adjacent local layers, drop empty ones."""
    ops: list[Op] = []
    for op in items:
        if isinstance(op, LocalOp):
            if op.a == () and op.b == ():
                continue
            if ops and isinstance(ops[-1], LocalOp):
                prev = ops[-1]
                ops[-1] = LocalOp(prev.a + op.a, prev.b + op.b)
                continue
        ops.append(op)
    return Circuit(tuple(ops))


@lru_cache(maxsize=512)
def _word_matrix(word: tuple[str, ...]) -> GateMatrix:
    m = I2
    for label in word:
        if label == "H":
            m = m * H
        elif label == "P":
            m = m * P
        else:
            raise ValueError(f"unknown local gate label {label!r}")
    return m


@lru_cache(maxsize=16384)
def _local_matrix(a: tuple[str, ...], b: tuple[str, ...]) -> GateMatrix:
    return _word_matrix(a).tensor(_word_matrix(b))


def evaluate(circuit: Circuit) -> GateMatrix:
    """Exact product of the circuit's matrices, left-to-right."""
    m = GateMatrix.identity(4)
    for op in circuit.ops:
        if isinstance(op, CzOp):
            m = m * CZ
        else:
            m = m * _local_matrix(op.a, op.b)
    return m


class Synthesizer:
    """Precomputed descent plans over a fixed workspace."""

    def __init__(
        self,
        c1: GroupTable,
        lc2: GroupTable,
        c2: GroupTable,
        atlas: OrbitAtlas,
        graph: CzGraph,
    ) -> None:
        if atlas.layers is None:
            raise ValueError("atlas must have layers assigned")
        if graph.witnesses is None:
            raise ValueError("graph must carry witnesses")
        self.c1 = c1
        self.lc2 = lc2
        self.c2 = c2
        self.atlas = atlas
        self.graph = graph
        self._plans = self._build_plans()

    def _local_op(self, v: GateMatrix) -> LocalOp:
        lid = self.lc2.contains(v)
        if lid is None:
            raise VerificationError("descent produced a non-local factor")
        ia, ib = self.lc2.pairs[lid]
        return LocalOp(self.c1.words[ia], self.c1.words[ib])

    def _build_plans(self) -> dict[int, tuple[GateMatrix, tuple[Op, ...]]]:
        """Per orbit: (dagger of its witness, fixed circuit tail).

        The tail realizes CZ*w_i as a circuit, so that prepending
        LOCAL(dagger(V1)) reconstructs any member of the orbit.
        """
        atlas, graph = self.atlas, self.graph
        down: dict[int, int] = {}
        for oid in range(1, atlas.n_orbits + 1):
            if atlas.layer(oid) == 0:
                continue
            below = [
                j for j in graph.neighbors(oid)
                if atlas.layer(j) == atlas.layer(oid) - 1
            ]
            if not below:
                raise VerificationError(f"orbit {oid} has no downward edge")
            down[oid] = min(below)

        plans: dict[int, tuple[GateMatrix, tuple[Op, ...]]] = {}
        # shallow orbits first so each tail can reuse the one below it
        for oid in sorted(down, key=atlas.layer):
            w = self.c2.element(self.graph.witnesses[(oid, down[oid])])
            pushed = CZ * w
            tail: list[Op] = [CZ_OP]
            j = atlas.orbit_of[self.c2.contains(pushed)]
            if atlas.layer(j) == 0:
                tail.append(self._local_op(pushed))
            else:
                w2_dag, tail2 = plans[j]
                tail.append(self._local_op(pushed * w2_dag))
                tail.extend(tail2)
            plans[oid] = (w.dagger(), tuple(tail))
        return plans

    def synthesize(self, m: GateMatrix) -> Circuit:
        eid = self.c2.contains(m)
        if eid is None:
            raise NotInGroupError("matrix is not an element of the group")
        oid = self.atlas.orbit_of[eid]
        if self.atlas.layer(oid) == 0:
            return make_circuit([self._local_op(m)])
        w_dag, tail = self._plans[oid]
        return make_circuit([self._local_op(m * w_dag), *tail])

    def synthesize_id(self, eid: int) -> Circuit:
        return self.synthesize(self.c2.element(eid))

    def cz_cost_histogram(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for oid in range(1, self.atlas.n_orbits + 1):
            lv = self.atlas.layer(oid)
            counts[lv] = counts.get(lv, 0) + len(self.atlas.orbit_members(oid))
        return dict(sorted(counts.items()))
