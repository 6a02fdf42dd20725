"""Finite matrix group tables built by breadth-first closure.

A GroupTable holds the elements of a finitely generated matrix group in
canonical encoding order (the element id is the rank in that order), as
integer arrays only. An element is stored as dim*dim one-byte codes into the
table's codebook, its distinct entry encodings in ascending order, so code
rows sort like encodings and membership is a binary search over them.
Closure uses right multiplication and keeps those products as an integer
Cayley table, from which the table fills each generator's left action once,
when it is made. Its breadth-first tree gives each element a shortest word:
the element's parent id and the generator that leads from the parent to it,
so words read left-to-right as matrix products.

The closure multiplies no matrices. Entry (i, j) of m * g sums m[i, t] *
g[t, j] over the few nonzero g[t, j], so it is one lookup per nonzero in
small tables indexed by codes, whose cells are computed once each in exact
arithmetic.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from math import isqrt
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from czorbits.encoding import ENTRY_BYTES
from czorbits.errors import VerificationError
from czorbits.matrices import C1_GENERATORS, C2_GENERATORS, I2, I4, GateMatrix
from czorbits.ring import ONE, ZERO, CycloNum

CLOSURE_CAP = 10**6
# _SPLIT[dim].unpack(data): a dim x dim encoding's entries, row-major
_SPLIT = {dim: struct.Struct(f"{ENTRY_BYTES}s" * dim * dim) for dim in (2, 4)}
# codes are one byte, and the code 255 marks a cell not computed yet
MAX_CODES = 255


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


def _row_keys(codes: np.ndarray) -> np.ndarray:
    """Each code row as one byte string, a view of the rows. numpy's S dtype
    drops trailing NUL bytes, which on rows of one width keeps them distinct
    and in order."""
    return codes.view(f"S{codes.shape[1]}").ravel()


class GroupTable:
    """Immutable table of group elements with a shortest word for each and
    the right and left actions of its generators on element ids.

    Precondition: the rows of `codes` ascend, as `closure()` leaves them,
    so an id is its element's rank and `contains` is a binary search.
    """

    def __init__(
        self,
        name: str,
        alphabet: Mapping[str, GateMatrix],
        codes: np.ndarray,
        book: list[bytes],
        parent: np.ndarray,
        label: np.ndarray,
        right: np.ndarray,
    ) -> None:
        self.name = name
        self.alphabet = dict(alphabet)
        # codes[e] (uint8, dim*dim): element e's entries, row-major, as
        # indices into book, the distinct entry encodings in ascending order
        self.codes = codes
        self.book = book
        self._book = np.frombuffer(b"".join(book), dtype=np.uint8).reshape(-1, ENTRY_BYTES)
        self.dim = isqrt(codes.shape[1])
        # the breadth-first tree: element e is element(parent[e]) (int32)
        # times generator label[e] (int8); both are -1 at the identity
        self.parent = parent
        self.label = label
        # right[e, g] (int32) is the id of element(e) times the g-th
        # generator of the alphabet
        self.right = right
        # pairs: for the local group, the (wire-1 id, wire-2 id) factor
        # pair of each element over the single-qubit table, set by build_lc2
        self.pairs: Optional[list[tuple[int, int]]] = None
        # each entry encoding's code, to spell a query as a code row
        self._key_of = {data: code for code, data in enumerate(book)}
        # _left[g, e] (int32): the id of the g-th generator times element(e).
        # No matrix product: g * 1 = g and g * (e * h) = (g * e) * h, so each
        # row fills breadth-first over `right` from the identity
        ident, moves = self.identity_id, [(column, column) for column in right.T]
        self._left = np.full((len(self.alphabet), len(codes)), -1, dtype=np.int32)
        for g, row in enumerate(self._left):
            row[ident] = right[ident, g]
            bfs_fill(row, moves)
        self._left.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, size={len(self)})"

    @property
    def identity_id(self) -> int:
        return self.contains(I2 if self.dim == 2 else I4)

    def _check_id(self, eid: int) -> int:
        if not 0 <= eid < len(self):
            raise ValueError(f"element id {eid} is not in [0, {len(self) - 1}]")
        return eid

    def element(self, eid: int) -> GateMatrix:
        codes = self.codes[self._check_id(eid)].tobytes()
        return GateMatrix(self.dim, b"".join(map(self.book.__getitem__, codes)))

    def encodings(self, ids: int | np.ndarray) -> bytes:
        """The encodings of the elements `ids`, concatenated in that order."""
        return self._book[self.codes[ids]].tobytes()

    def contains(self, m: GateMatrix) -> Optional[int]:
        """Element id of m, or None when m is not in the group."""
        if m.dim != self.dim:
            return None
        try:
            key = bytes(map(self._key_of.__getitem__, _SPLIT[self.dim].unpack(m.data)))
        except KeyError:  # an entry no element has
            return None
        # stripped, as the S dtype reads the rows without trailing NUL bytes
        key, keys = key.rstrip(b"\0"), _row_keys(self.codes)
        eid = bisect_left(keys, key)
        return eid if eid < len(self) and keys[eid] == key else None

    def word_of(self, eid: int) -> tuple[str, ...]:
        """The closure's shortest word for the element, read off the tree."""
        labels, word, e = list(self.alphabet), [], self._check_id(eid)
        while self.parent[e] >= 0:
            word.append(labels[self.label[e]])
            e = self.parent[e]
        return tuple(reversed(word))

    def left(self, label: str) -> np.ndarray:
        """Left action of generator `label`, read-only: out[e] is the id of
        the generator times element(e)."""
        return self._left[list(self.alphabet).index(label)]

    def evaluate(self, word: Iterable[str]) -> GateMatrix:
        """Exact left-to-right product of the word's generators."""
        m = GateMatrix.identity(self.dim)
        for label in word:
            gen = self.alphabet.get(label)
            if gen is None:
                raise ValueError(f"unknown generator label {label!r}")
            m = m * gen
        return m


def closure(generators: Mapping[str, GateMatrix], name: str) -> GroupTable:
    """Breadth-first closure of the group generated by `generators`.

    Elements are discovered in word-length order (ties broken by frontier
    position, then generator order), so the first word found for each
    element is a shortest one. Final ids follow canonical encoding order,
    which is independent of discovery order. Every product m * g the
    search makes is kept, in final ids, as the table's `right`, and the
    product that first found each element as its `parent` and `label`.
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
    # the table fills its left actions, so it is made once the level arrays are freed
    return GroupTable(name, dict(gens), *_level_search(gens, dim, name))


def _level_search(gens: list[tuple[str, GateMatrix]], dim: int, name: str) -> tuple:
    """closure's search, one word length at a time on code rows; returns the
    table's codes, book, parent, label and right. A level's products are
    looked up against every element numbered so far, and the new ones are
    numbered in (parent, generator) order of first occurrence, the order of
    one product at a time. More than CLOSURE_CAP elements stop the search.
    """
    # codes 0 and 1 are zero and one, so the identity's row is eye(dim)
    book = [ZERO.pack(), ONE.pack()]
    code_of = {data: code for code, data in enumerate(book)}
    # cells[k][a << 8 | c]: code of book[a] + book[c] * k, 255 until needed
    cells: dict[CycloNum, np.ndarray] = {}

    def add_times(acc: np.ndarray, k: CycloNum, src: np.ndarray) -> np.ndarray:
        table = cells.get(k)
        if table is None:
            table = cells[k] = np.full(1 << 16, MAX_CODES, dtype=np.uint8)
        index = (acc.astype(np.intp) << 8) | src
        out = table[index]
        if (out == MAX_CODES).any():
            for i in np.unique(index[out == MAX_CODES]).tolist():
                a, c = CycloNum.unpack(book[i >> 8]), CycloNum.unpack(book[i & 255])
                data = (a + c * k).pack()
                if data not in code_of:
                    if len(book) == MAX_CODES:
                        raise VerificationError(
                            f"closure of {name} met more than {MAX_CODES} distinct entries"
                        )
                    code_of[data] = len(book)
                    book.append(data)
                table[i] = code_of[data]
            out = table[index]
        return out

    # columns[g][j]: the nonzero entries (t, g[t, j]) of column j of generator g
    columns = [
        [[(t, g.entry(t, j)) for t in range(dim) if g.entry(t, j)] for j in range(dim)]
        for _, g in gens
    ]

    def products(rows: np.ndarray) -> np.ndarray:
        """Code rows of rows[p] * g, in (p, g) order: (m * g)[i, j] is the
        sum of m[i, t] * g[t, j], added up one nonzero g[t, j] at a time."""
        m = rows.reshape(-1, dim, dim)
        out = np.empty((len(m), len(gens), dim, dim), dtype=np.uint8)
        for gi, cols in enumerate(columns):
            for j, terms in enumerate(cols):
                acc = np.zeros_like(m[:, :, 0])
                for t, k in terms:
                    acc = add_times(acc, k, m[:, :, t])
                out[:, gi, :, j] = acc
        return out.reshape(-1, dim * dim)

    frontier = np.eye(dim, dtype=np.uint8).reshape(1, -1)
    levels = [frontier]
    # tree[L]: the (discovery number of the parent, generator) of level L
    tree = [(np.full(1, -1), np.full(1, -1))]
    # known: the row keys met so far, ascending, and known_ids their discovery
    # numbers; right_levels[L][p, g]: that of frontier row p of level L times g
    known, known_ids = _row_keys(frontier), np.zeros(1, dtype=np.int32)
    right_levels = []
    while len(frontier):
        start, found = len(known) - len(frontier), len(known)
        cand = products(frontier)
        keys, first, inverse = np.unique(_row_keys(cand), return_index=True, return_inverse=True)
        pos = np.searchsorted(known, keys)
        ids = known_ids[np.minimum(pos, found - 1)]
        new = np.flatnonzero(known[np.minimum(pos, found - 1)] != keys)
        fresh = new[np.argsort(first[new])]
        if found + len(fresh) > CLOSURE_CAP:
            raise VerificationError(
                f"closure of {name} exceeded {CLOSURE_CAP} elements; "
                "the representation is not closing"
            )
        ids[fresh] = np.arange(found, found + len(fresh))
        known = np.insert(known, pos[new], keys[new])
        known_ids = np.insert(known_ids, pos[new], ids[new])
        right_levels.append(ids[inverse].reshape(-1, len(gens)))
        parent, label = np.divmod(first[fresh], len(gens))
        tree.append((start + parent, label))
        frontier = cand[first[fresh]]
        levels.append(frontier)

    # renumber the codes that rows use in encoding order, then sort the rows
    codes = np.concatenate(levels)
    used = sorted(np.unique(codes).tolist(), key=book.__getitem__)
    recode = np.zeros(len(book), dtype=np.uint8)
    recode[used] = np.arange(len(used))
    codes = recode[codes]
    order = np.argsort(_row_keys(codes))
    rank = np.argsort(order).astype(np.int32)
    right = rank[np.concatenate(right_levels)[order]]
    parent, label = (np.concatenate(column)[order] for column in zip(*tree))
    parent = np.where(parent < 0, -1, rank[parent]).astype(np.int32)
    return codes[order], [book[c] for c in used], parent, label.astype(np.int8), right


def build_c1() -> GroupTable:
    return closure(C1_GENERATORS, "c1")


def build_lc2(c1: GroupTable) -> GroupTable:
    """The local group: the closure of H1, P1, H2 and P2, factored over c1.

    (A * g) (x) B = (A (x) B)(g (x) I), and the same holds on wire 2, so the
    id of each A (x) B fills breadth-first from the identity pair along c1's
    `right` on one wire and the closure's `right` on the whole. The 192*192
    pairs collide in eights (opposite global phases cancel), so each element
    keeps the pair with the fewest total letters of c1's words, ties broken
    by (ia, ib); the identity factors as the identity pair.
    """
    table = closure({k: v for k, v in C2_GENERATORS.items() if k != "CZ"}, "lc2")
    n, k = len(c1), len(c1.alphabet)
    ia, ib = np.divmod(np.arange(n * n), n)
    # at[ia * n + ib]: id of c1's ia (x) c1's ib; wire w's generators are
    # the closure's columns k*w .. k*w + k - 1
    at = np.full(n * n, -1, dtype=np.int32)
    at[c1.identity_id * (n + 1)] = table.identity_id
    bfs_fill(at, [(c1.right[ia, g] * n + ib, table.right[:, g]) for g in range(k)]
             + [(ia * n + c1.right[ib, g], table.right[:, k + g]) for g in range(k)])
    wl = np.array([len(c1.word_of(e)) for e in range(n)])
    # candidates sorted by (total letters, ia, ib); keep each element's first
    order = np.lexsort((np.arange(n * n), (wl[:, None] + wl).ravel()))
    _, first = np.unique(at[order], return_index=True)
    table.pairs = [divmod(int(p), n) for p in order[first]]
    return table


def build_c2() -> GroupTable:
    return closure(C2_GENERATORS, "c2")
