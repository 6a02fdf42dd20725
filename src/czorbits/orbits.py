"""Left-coset partition of the two-qubit group under local Cliffords.

Two elements are equivalent when they differ by left multiplication with
an element of LC2; the classes are the left cosets LC2*U, which C2's
closure meets one at a time and keeps as rows of ascending element ids.
The atlas keeps those rows, the same arrays, in orbit order as each
orbit's members, maps every element id to its orbit id, and keeps each
orbit's CZ layer. Orbit ids are 1-based. Like a table, the
atlas keeps stdlib arrays, so a loaded one answers without numpy.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from czorbits.errors import VerificationError
from czorbits.groups import GroupTable, stdlib_array

if TYPE_CHECKING:
    import numpy as np


class OrbitAtlas:
    """Immutable orbit partition with each orbit's CZ layer."""

    def __init__(self, orbit_of: array, members: list[array], layers: list[int]) -> None:
        # orbit_of[e] (array "B", one byte): element e's orbit id
        self.orbit_of = orbit_of
        # members[oid - 1]: the orbit's element ids, ascending, as an array
        # "i"; each is one of the table's own coset rows, not a copy
        self.members = members
        # layers[oid - 1]: the orbit's CZ layer, 0 for the identity's orbit
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
        return self.orbit_members(oid)[0]

    def layer(self, oid: int) -> int:
        return self.layers[oid - 1]


def partition(c2: GroupTable, lc2: GroupTable, cz: np.ndarray) -> OrbitAtlas:
    """Split c2 into the left cosets of lc2 that its closure met, labelled.

    c2's closure searches whole left cosets of the subgroup its local
    generators make, LC2 for build_c2, and keeps them as rows of ascending
    ids; cz is CZ's left action on those ids, as groups.left_action gives it.
    """
    import numpy as np
    cosets = np.array(c2.cosets)
    if cosets.shape != (len(c2) // len(lc2), len(lc2)):
        raise VerificationError(
            f"expected {len(c2) // len(lc2)} cosets of size {len(lc2)}, "
            f"got {len(cosets)} of size {cosets.shape[1]}"
        )
    rows, layers = assign_layers_and_labels(cosets, cz, c2.identity_id)
    orbit_of = np.empty(len(c2), dtype=np.int32)
    orbit_of[cosets[rows]] = np.arange(1, len(rows) + 1, dtype=np.int32)[:, None]
    members = [c2.cosets[row] for row in rows.tolist()]
    return OrbitAtlas(stdlib_array(orbit_of, "B"), members, layers.tolist())


def assign_layers_and_labels(cosets: np.ndarray, cz: np.ndarray, ident_eid: int) -> tuple:
    """The rows of `cosets`, each row's ids ascending, in orbit order, (layer,
    least id), and their CZ layers.

    A breadth-first walk from the identity's coset, layer 0, steps from a
    coset to every coset that CZ times one of its members lies in.
    """
    import numpy as np
    n = len(cosets)
    coset_of = np.empty(len(cz), dtype=np.int32)
    coset_of[cosets] = np.arange(n)[:, None]
    layer = np.full(n, n)
    layer[coset_of[ident_eid]] = 0
    for depth in range(n - 1):
        hit = np.zeros(n, dtype=bool)
        hit[coset_of[cz[cosets[layer == depth]]]] = True
        layer[hit & (layer == n)] = depth + 1
    if (layer == n).any():
        raise VerificationError("quotient graph is disconnected")
    order = np.lexsort((cosets[:, 0], layer))
    return order, layer[order]
