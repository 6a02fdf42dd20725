"""Left-coset partition of the two-qubit group under local Cliffords.

Two elements are equivalent when they differ by left multiplication with
an element of LC2; the classes are the left cosets LC2*U, which C2's
closure meets one at a time and keeps as rows of element ids. The atlas
maps every element id to its orbit id, keeps sorted member lists, and
(after labeling) each orbit's CZ layer. Orbit ids are 1-based.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from czorbits.errors import VerificationError
from czorbits.groups import GroupTable


class OrbitAtlas:
    """Immutable orbit partition with optional layer assignment."""

    def __init__(
        self,
        orbit_of: list[int],
        members: list[array],
        ident_eid: int,
        layers: Optional[list[int]] = None,
    ) -> None:
        self.orbit_of = orbit_of
        # members[oid - 1]: the orbit's element ids, ascending, as int32
        self.members = members
        # element id of the identity matrix in the underlying table; BFS
        # layering is anchored at its orbit
        self.ident_eid = ident_eid
        self.layers = layers

    @property
    def n_orbits(self) -> int:
        return len(self.members)

    def orbit_members(self, oid: int) -> array:
        return self.members[oid - 1]

    def representative(self, oid: int) -> int:
        """Element id of the orbit's canonical (minimal) member.

        Element ids rank the canonical encodings, so the minimal id is the
        lexicographically minimal encoding.
        """
        return self.members[oid - 1][0]

    def layer(self, oid: int) -> int:
        if self.layers is None:
            raise ValueError("layers not assigned yet")
        return self.layers[oid - 1]


def partition(c2: GroupTable, lc2: GroupTable) -> OrbitAtlas:
    """Split c2 into the left cosets of lc2 that its closure met.

    c2's closure searches whole left cosets of the subgroup its local
    generators make, LC2 for build_c2, and keeps them as rows of ids. Each
    coset is sorted, so its least id leads, and orbit ids follow those least
    ids in increasing order.
    """
    cosets = np.sort(c2.cosets, axis=1)
    cosets = cosets[np.argsort(cosets[:, 0])]
    if cosets.shape != (len(c2) // len(lc2), len(lc2)):
        raise VerificationError(
            f"expected {len(c2) // len(lc2)} cosets of size {len(lc2)}, "
            f"got {len(cosets)} of size {cosets.shape[1]}"
        )
    orbit_of = np.empty(len(c2), dtype=np.int32)
    orbit_of[cosets] = np.arange(1, len(cosets) + 1, dtype=np.int32)[:, None]
    members = [array("i", coset.tobytes()) for coset in cosets]
    return OrbitAtlas(orbit_of.tolist(), members, c2.identity_id)


def assign_layers_and_labels(atlas: OrbitAtlas, graph) -> tuple:
    """Relabel orbits deterministically and attach CZ layers; returns the
    relabeled atlas and the CzGraph `graph` under the same relabeling.

    Layers come from BFS over the quotient graph starting at the orbit of
    the identity (layer 0). Final ids sort by (layer, representative), so
    labeling is reproducible; in particular the identity orbit becomes
    orbit 1 and the unique deepest orbit takes the last id.
    """
    n = atlas.n_orbits
    start = atlas.orbit_of[atlas.ident_eid]

    layer_of = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for oid in frontier:
            for other in range(1, n + 1):
                if graph.weight[oid - 1][other - 1] and other not in layer_of:
                    layer_of[other] = layer_of[oid] + 1
                    nxt.append(other)
        frontier = nxt
    if len(layer_of) != n:
        raise VerificationError("quotient graph is disconnected")

    old_order = sorted(
        range(1, n + 1), key=lambda o: (layer_of[o], atlas.representative(o))
    )
    new_of_old = {old: new + 1 for new, old in enumerate(old_order)}
    orbit_of = [new_of_old[o] for o in atlas.orbit_of]
    members = [atlas.members[old - 1] for old in old_order]
    layers = [layer_of[old] for old in old_order]
    return OrbitAtlas(orbit_of, members, atlas.ident_eid, layers), graph.relabeled(old_order)
