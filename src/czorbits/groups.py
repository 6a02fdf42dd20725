"""Finite matrix group tables built by breadth-first closure.

A GroupTable holds the elements of a finitely generated matrix group in
canonical encoding order (the element id is the rank in that order) and one
generating word per element. It keeps no hash index: membership is a binary
search over that order. Closure uses right multiplication, so stored words
read left-to-right as matrix products, and it keeps those products as an
integer Cayley table.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from czorbits import kernels
from czorbits.errors import VerificationError
from czorbits.matrices import C1_GENERATORS, C2_GENERATORS, I2, I4, GateMatrix

CLOSURE_CAP = 10**6
# queue entries multiplied by every generator in one batched kernel call
CLOSURE_SLICE = 256


def bfs_fill(out: np.ndarray, moves: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Set out[step[e]] = relabel[out[e]] for each (step, relabel), breadth-first
    from the entries >= 0 until no more entries of -1 are reached; returns out."""
    frontier = np.flatnonzero(out >= 0)
    while frontier.size:
        reached = []
        for step, relabel in moves:
            dst = step[frontier]
            fresh = out[dst] < 0
            out[dst[fresh]] = relabel[out[frontier[fresh]]]
            reached.append(dst[fresh])
        frontier = np.concatenate(reached)
    return out


class GroupTable:
    """Immutable table of group elements with generator words.

    Precondition: `elements` is sorted by encoding, as `closure()` leaves it
    and `build_lc2` keeps it, so an id is its element's rank and `contains`
    is a binary search.
    """

    def __init__(
        self,
        name: str,
        alphabet: Mapping[str, GateMatrix],
        elements: list[GateMatrix],
        words: list[tuple[str, ...]],
        right: np.ndarray,
        pairs: Optional[list[tuple[int, int]]] = None,
    ) -> None:
        self.name = name
        self.alphabet = dict(alphabet)
        self.elements = elements
        self.words = words
        # right[e, g] (int32) is the id of element(e) times the g-th
        # generator of the alphabet
        self.right = right
        # pairs: for the local group, the (wire-1 id, wire-2 id) factor
        # pair of each element over the single-qubit table
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, size={len(self.elements)})"

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def identity_id(self) -> int:
        return self.contains(I2 if self.dim == 2 else I4)

    def _check_id(self, eid: int) -> int:
        if not 0 <= eid < len(self.elements):
            raise ValueError(f"element id {eid} is not in [0, {len(self.elements) - 1}]")
        return eid

    def element(self, eid: int) -> GateMatrix:
        return self.elements[self._check_id(eid)]

    def contains(self, m: GateMatrix) -> Optional[int]:
        """Element id of m, or None when m is not in the group."""
        eid = bisect_left(self.elements, m.data, key=attrgetter("data"))
        return eid if eid < len(self) and self.elements[eid] == m else None

    def word_of(self, eid: int) -> tuple[str, ...]:
        return self.words[self._check_id(eid)]

    def left(self, label: str) -> np.ndarray:
        """Left action of generator g: out[e] is the id of g * element(e).

        No matrix product: g * 1 = g and g * (e * h) = (g * e) * h, so a
        breadth-first walk over `right` from the identity fills every entry.
        """
        ident = self.identity_id
        out = np.full(len(self), -1, dtype=np.int32)
        out[ident] = self.right[ident, list(self.alphabet).index(label)]
        return bfs_fill(out, [(column, column) for column in self.right.T])

    def evaluate(self, word: Iterable[str]) -> GateMatrix:
        """Exact left-to-right product of the word's generators."""
        m = GateMatrix.identity(self.dim)
        for label in word:
            gen = self.alphabet.get(label)
            if gen is None:
                raise ValueError(f"unknown generator label {label!r}")
            m = m * gen
        return m


def closure(generators: Mapping[str, GateMatrix], name: str = "group",
            cap: int = CLOSURE_CAP) -> GroupTable:
    """Breadth-first closure of the group generated by `generators`.

    Elements are discovered in word-length order (ties broken by frontier
    position, then generator order), so the first word found for each
    element is a shortest one. Final ids follow canonical encoding order,
    which is independent of discovery order. Every product m * g the
    search makes is kept, in final ids, as the table's `right`.

    The products come CLOSURE_SLICE queue entries at a time from one
    `kernels.mat_mul_batch` call, and are visited in (queue position,
    generator) order, the order of one product at a time. Entries found
    while a slice is visited join the queue behind it.
    """
    gens = list(generators.items())
    if not gens:
        raise ValueError("closure requires at least one generator")
    dim = gens[0][1].dim
    for label, g in gens:
        if g.dim != dim:
            raise ValueError("generators must share one dimension")
        if not g.is_unitary():
            raise ValueError(f"generator {label!r} is not unitary")

    # encodings in discovery order; the list is also the breadth-first queue
    found = [GateMatrix.identity(dim).data]
    words: list[tuple[str, ...]] = [()]
    index = {found[0]: 0}
    # right[i * len(gens) + g]: discovery number of found[i] * gens[g]
    right = array("i")
    labels = [label for label, _ in gens]
    gen_data = b"".join(g.data for _, g in gens)
    size = len(found[0])
    pos = 0
    while pos < len(found):
        rows = found[pos : pos + CLOSURE_SLICE]
        prods = kernels.mat_mul_batch(b"".join(rows), gen_data, dim)
        at = 0
        for word in words[pos : pos + len(rows)]:
            for label in labels:
                prod = prods[at : at + size]
                at += size
                j = index.get(prod)
                if j is None:
                    j = index[prod] = len(found)
                    found.append(prod)
                    words.append(word + (label,))
                    if len(found) > cap:
                        raise VerificationError(
                            f"closure of {name} exceeded {cap} elements; "
                            "the representation is not closing"
                        )
                right.append(j)
        pos += len(rows)
    del index

    order = sorted(range(len(found)), key=found.__getitem__)
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    table = rank[np.frombuffer(right, dtype=np.int32).reshape(-1, len(gens))[order]]
    elements = [GateMatrix(dim, found[i]) for i in order]
    words = [words[i] for i in order]
    return GroupTable(name, dict(gens), elements, words, table)


def build_c1() -> GroupTable:
    return closure(C1_GENERATORS, "c1")


def build_lc2(c1: GroupTable) -> GroupTable:
    """The local group: the closure of H1, P1, H2 and P2, factored over c1.

    Each element is A (x) B = (A (x) I)(I (x) B), so walking `right` from
    the identity by A's letters on wire 1, then B's on wire 2, lands on it.
    The 192*192 pairs collide in eights (opposite global phases cancel), so
    each element keeps the pair with the fewest total letters, ties broken by
    (ia, ib); its word is the wire-1 word followed by the wire-2 word, and
    the identity factors as two empty words.
    """
    table = closure({k: v for k, v in C2_GENERATORS.items() if k != "CZ"}, "lc2")
    n = len(c1)
    wl = np.array([len(w) for w in c1.words])
    # letters[i, t]: the t-th letter of c1's word i as a c1 generator index
    letters = np.full((n, wl.max()), -1)
    c1_labels = list(c1.alphabet)
    for i, word in enumerate(c1.words):
        letters[i, : len(word)] = [c1_labels.index(lbl) for lbl in word]
    # at[ia, ib]: id of the walk so far; wire w's letters are columns 2w, 2w+1
    at = np.full((n, n), table.identity_id, dtype=np.int32)
    for col in letters.T:
        on = col >= 0
        at[on] = table.right[at[on], col[on, None]]
    for col in letters.T:
        on = col >= 0
        at[:, on] = table.right[at[:, on], 2 + col[on]]
    # candidates sorted by (total letters, ia, ib); keep each element's first
    order = np.lexsort((np.arange(n * n), (wl[:, None] + wl).ravel()))
    _, first = np.unique(at.ravel()[order], return_index=True)
    pairs = [divmod(int(p), n) for p in order[first]]
    words = [
        tuple(lbl + "1" for lbl in c1.words[ia])
        + tuple(lbl + "2" for lbl in c1.words[ib])
        for ia, ib in pairs
    ]
    return GroupTable("lc2", table.alphabet, table.elements, words, table.right, pairs)


def build_c2() -> GroupTable:
    return closure(C2_GENERATORS, "c2")
