"""Finite matrix group tables built by breadth-first closure.

A GroupTable holds the elements of a finitely generated matrix group in
canonical encoding order (the element id is the rank in that order), as
integer arrays only. The groups have few distinct matrix rows (48 in C1, 480
in C2's 92160 elements, 288 of them in LC2's 4608): the table keeps them once,
as its row book, their encodings in ascending order. An element is its dim row
ids packed into one int64 key, ROW_BITS bits each and the first row highest.
Rows of one width sort like their ids, so keys sort like encodings and
membership is a binary search over them.

Closure multiplies rows, not elements. Since (m * g)[i, :] = m[i, :] * g, a
generator acts on each row on its own: the row book is closed from the unit
rows under r -> r * g, dim rows to one kernels.mat_mul product, and right
multiplication of an element is then one gather per row in a small
(generators, rows) table. Closure finds the element set on keys one word
length at a time, in blocks: first the subgroup S that its local generators
make, one key at a time, then the whole group one left coset S * u at a time,
since (S * u) * g = S * (u * g) is again a whole coset. C2's search so meets
its 20 cosets of LC2 as 20 blocks of 4608 keys, LC2 itself first, and keeps
them as ids. The sorted keys are the ids. The closure then checks that the
table is closed: each generator's products, sorted, are the keys. LC2 is read
off the first coset on C2's own rows: its keys are C2's at those ids, and its
row book, row index and the row action of its generators are C2's own
objects, so it keeps no rows of its own.

A table stores what the closure finds: its keys, its row book with each row's
id (`_row_of`), the row action `act` of its generators and its cosets (and LC2
its factor pairs), which is all that a pickled table holds. It derives the
rest the first time something reads it, and keeps it: the integer Cayley table
`right`, one gather per row in `act` and a sort per generator; and from
`right` the breadth-first tree that gives each element a shortest word (its
parent id and the generator that leads from the parent to it, so words read
left-to-right as matrix products). Membership reads the keys and `_row_of`,
and elements the keys and the book, so a loaded table answers them without
deriving anything.

A cold build derives these only for C1, and LC2's `right`, which are small.
What it needs of C2 are row gathers: a monomial gate's left action (CZ's)
maps each row alone (`left_action`), and so does right multiplication by a
fixed element (`GroupTable.row_map`); `ids_of` finds the products by binary
search. C2's `right` and tree are derived only by `verify` and tests.

What a table stores it keeps in stdlib arrays (`stdlib_array`), so that a
pickled table loads, and answers membership by `bisect` and elements by a
plain index, without importing numpy. numpy is imported inside the functions
that build, derive or gather, and only when one of them runs.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from czorbits import kernels
from czorbits.encoding import ENTRY_BYTES, pack_values, unpack_values
from czorbits.errors import VerificationError
from czorbits.matrices import C1_GENERATORS, C2_GENERATORS, IDENTITY, ONE, GateMatrix
from czorbits.ring import mul_entry

if TYPE_CHECKING:
    import numpy as np

CLOSURE_CAP = 10**6
# the C2 generators that make LC2, the local group, each on one wire
LOCAL = ("H1", "P1", "H2", "P2")
# a key holds dim row ids of ROW_BITS bits each, so a book holds MAX_ROWS rows
ROW_BITS = 9
MAX_ROWS = 1 << ROW_BITS
# _SHIFTS[dim]: the shift of each row's id in a key, first row first
_SHIFTS = {dim: range(ROW_BITS * (dim - 1), -1, -ROW_BITS) for dim in (2, 4)}
# the attributes a GroupTable derives on first use and leaves out of its pickle
DERIVED = ("right", "_tree", "parent", "label", "_book")


def stdlib_array(a: np.ndarray, code: str) -> array:
    """The items of `a`, flat, as a stdlib array of typecode `code`, which
    names the same C type in numpy; OverflowError if an item does not fit."""
    import numpy as np
    out = a.astype(code)
    if not np.array_equal(out, a):
        raise OverflowError(f"an item does not fit typecode {code!r}")
    return array(code, out.tobytes())


def bfs_fill(out: np.ndarray, moves: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Set out[step[e]] = relabel[out[e]] for each (step, relabel), breadth-first
    from the entries >= 0 until no more entries of -1 are reached; returns out.
    Its one caller is build_lc2, which fills LC2's factor pairs."""
    import numpy as np
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


def _unpack(keys: np.ndarray, dim: int) -> np.ndarray:
    """The row ids of each key, one more axis of dim in front, the first id first."""
    import numpy as np
    shifts = np.array(_SHIFTS[dim]).reshape(-1, *[1] * np.ndim(keys))
    return (keys >> shifts) & (MAX_ROWS - 1)


def _pack(rows: np.ndarray) -> np.ndarray:
    """The int64 key of each column of row ids (the first axis), the first id highest."""
    import numpy as np
    keys = rows[0].astype(np.int64)
    for row in rows[1:]:
        keys <<= ROW_BITS
        keys |= row
    return keys


class GroupTable:
    """Immutable table of group elements: their keys and row book, the row
    action of the generators and, derived from those on first use, the right
    action of the generators on element ids and a shortest word for each
    element (see DERIVED, which pickling leaves out).

    Precondition: `keys` ascend, as `closure()` leaves them, so an id is its
    element's rank and `contains` is a binary search.
    """

    def __init__(
        self,
        name: str,
        alphabet: Mapping[str, GateMatrix],
        keys: array,
        book: list[bytes],
        act: list[array],
        cosets: Optional[list[array]] = None,
    ) -> None:
        self.name = name
        self.alphabet = dict(alphabet)
        self.dim = next(iter(self.alphabet.values())).dim
        # keys[e] (array "q", int64): element e's row ids, packed; book[r]: the
        # encoding of row r, the distinct rows in ascending order
        self.keys = keys
        self.book = book
        self._row_of = {data: r for r, data in enumerate(book)}
        # act[g][r] (array "H", uint16): the id of row r times the g-th generator
        self.act = act
        # cosets[c] (array "i", int32): the ids of one left coset of the subgroup
        # that the closure's local generators make, ascending; set by closure()
        self.cosets = cosets
        # pairs: for the local group, the (wire-1 id, wire-2 id) factor
        # pair of each element over the single-qubit table, set by build_lc2
        self.pairs: Optional[list[tuple[int, int]]] = None

    def __getstate__(self) -> dict:
        """Every attribute but the DERIVED ones, which a loaded table makes again."""
        return {k: v for k, v in self.__dict__.items() if k not in DERIVED}

    @cached_property
    def right(self) -> np.ndarray:
        """right[e, g] (int32): the id of element(e) times the g-th generator
        of the alphabet. A product outside the table raises VerificationError."""
        import numpy as np
        keys, right = np.asarray(self.keys), np.empty((len(self), len(self.act)), np.int32)
        for g, products in enumerate(_closed_products(self)):
            right[:, g] = np.searchsorted(keys, products)
        return right

    @cached_property
    def _tree(self) -> tuple[np.ndarray, np.ndarray]:
        """parent and label, from one walk over `right` (see _bfs_tree)."""
        return _bfs_tree(self.right, self.identity_id)

    # the breadth-first tree: element e is element(parent[e]) (int32) times
    # generator label[e] (int8), both -1 at the identity
    parent = cached_property(lambda self: self._tree[0])
    label = cached_property(lambda self: self._tree[1])

    @cached_property
    def _book(self) -> np.ndarray:
        """The row book as one (rows, bytes per row) uint8 array, for `encodings`."""
        import numpy as np
        return np.frombuffer(b"".join(self.book), dtype=np.uint8).reshape(len(self.book), -1)

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return f"GroupTable({self.name!r}, size={len(self)})"

    @property
    def identity_id(self) -> int:
        return self.contains(IDENTITY[self.dim])

    def _check_id(self, eid: int) -> int:
        if not 0 <= eid < len(self):
            raise ValueError(f"element id {eid} is not in [0, {len(self) - 1}]")
        return eid

    def rows_of(self, eid: int) -> list[int]:
        """The row ids of element eid, the first row first."""
        key = self.keys[self._check_id(eid)]
        return [(key >> s) & (MAX_ROWS - 1) for s in _SHIFTS[self.dim]]

    def element(self, eid: int) -> GateMatrix:
        return GateMatrix(self.dim, b"".join([self.book[r] for r in self.rows_of(eid)]))

    def row_ids(self, ids: int | slice | np.ndarray) -> np.ndarray:
        """The row ids of the elements `ids`, one more axis of dim at the end."""
        import numpy as np
        return np.moveaxis(_unpack(np.asarray(self.keys)[ids], self.dim), 0, -1)

    def ids_of(self, rows: np.ndarray) -> np.ndarray:
        """The id (int32) of each element whose row ids are `rows`, dim at the
        end as `row_ids` gives them, by binary search in the keys. A row id
        < 0 or a key not in the table raises VerificationError."""
        import numpy as np
        keys, products = np.asarray(self.keys), _pack(np.moveaxis(rows, -1, 0))
        found = np.minimum(np.searchsorted(keys, products), len(self) - 1)
        if (rows < 0).any() or not np.array_equal(keys[found], products):
            raise VerificationError(f"a product of rows is not an element of {self.name}")
        return found.astype(np.int32)

    def row_map(self, word: Iterable[str]) -> np.ndarray:
        """out[r]: the id of row r times the word's product, read left to right
        as a matrix product: `act` composed along the word. Right multiplication
        by a group element permutes the row book, so out is a permutation."""
        import numpy as np
        act, labels = np.array(self.act), list(self.alphabet)
        out = np.arange(len(self.book))
        for label in word:
            out = act[labels.index(label)][out]
        return out

    def encodings(self, ids: int | np.ndarray) -> bytes:
        """The encodings of the elements `ids`, concatenated in that order."""
        return self._book[self.row_ids(ids)].tobytes()

    def contains(self, m: GateMatrix) -> Optional[int]:
        """Element id of m, or None when m is not in the group."""
        if m.dim != self.dim:
            return None
        size = self.dim * ENTRY_BYTES
        rows = [self._row_of.get(m.data[at : at + size]) for at in range(0, len(m.data), size)]
        return None if None in rows else self.find(rows)  # None: a row outside the book

    def find(self, rows: Iterable[int]) -> Optional[int]:
        """The id of the element with row ids `rows`, the first row first, or None."""
        key = 0
        for r in rows:
            key = key << ROW_BITS | r
        eid = bisect_left(self.keys, key)
        return eid if eid < len(self) and self.keys[eid] == key else None

    def word_of(self, eid: int) -> tuple[str, ...]:
        """The closure's shortest word for the element, read off the tree."""
        labels, word, e = list(self.alphabet), [], self._check_id(eid)
        while self.parent[e] >= 0:
            word.append(labels[self.label[e]])
            e = self.parent[e]
        return tuple(reversed(word))


def word_product(alphabet: Mapping[str, GateMatrix], word: Iterable[str]) -> GateMatrix:
    """Exact left-to-right product of the word's generators: n - 1 products
    for n letters, and the identity for none."""
    try:
        gens = [alphabet[label] for label in word]
    except KeyError as exc:
        raise ValueError(f"unknown generator label {exc.args[0]!r}") from None
    if gens:
        return reduce(GateMatrix.__mul__, gens)
    return IDENTITY[next(iter(alphabet.values())).dim]


def closure(
    generators: Mapping[str, GateMatrix], name: str, local: tuple[str, ...] = ()
) -> GroupTable:
    """Breadth-first closure of the group generated by `generators`.

    The search meets the group one left coset S * u at a time, where S is the
    subgroup that the generators labeled in `local` make (the trivial group
    when there are none), and the table keeps those cosets as ids. Ids follow
    canonical encoding order. Every product m * g of an element and a
    generator must be an element, one sort per generator (`_closed_products`),
    or VerificationError names the generator; the table derives those
    products, in ids, as its `right` on first use.
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
    local_cols = [list(generators).index(label) for label in local]
    table = GroupTable(name, dict(gens), *_level_search(gens, dim, name, local_cols))
    for _ in _closed_products(table):  # the search kept whole blocks: check each product
        pass
    return table


def _row_book(gens: list[tuple[str, GateMatrix]], dim: int, name: str) -> tuple:
    """The closure of the dim unit rows under r -> r * g for each generator,
    in exact arithmetic: the row encodings in ascending order, act[g, r]
    (uint16), the id of row r times the g-th generator, and the identity's
    row ids. Rows are multiplied dim at a time, as the rows of one operand
    of kernels.mat_mul_lifted, zero rows padding the last, lifted once, by
    each generator lifted once. More than MAX_ROWS rows stop the search."""
    import numpy as np
    size, unit = dim * ENTRY_BYTES, IDENTITY[dim].data
    gen_columns = [kernels.columns(g.data, dim) for _, g in gens]
    # found[row]: the row's id, in the order met
    found = {unit[at : at + size]: r for r, at in enumerate(range(0, len(unit), size))}
    images: list[list[int]] = []
    while len(images) < len(found):  # found grows while it is read: each new row is met once
        if len(found) > MAX_ROWS:
            raise VerificationError(f"closure of {name} met more than {MAX_ROWS} distinct rows")
        block = list(found)[len(images) : len(images) + dim]
        operand = kernels.lifted(b"".join(block) + pack_values([0] * 5 * dim) * (dim - len(block)))
        products = [kernels.mat_mul_lifted(operand, g, dim) for g in gen_columns]
        for at in range(0, len(block) * size, size):
            images.append([found.setdefault(p[at : at + size], len(found)) for p in products])
    rows = list(found)
    order = sorted(range(len(rows)), key=rows.__getitem__)
    rank = np.argsort(order).astype(np.uint16)
    return [rows[r] for r in order], rank[np.array(images)[order].T], rank[:dim]


def _level_search(gens: list[tuple[str, GateMatrix]], dim: int, name: str,
                  local_cols: list[int]) -> tuple:
    """closure's search on keys of row ids; returns the table's keys, row book,
    row action and cosets, as the table stores them. The subgroup the
    `local_cols` generators make is met from the identity in blocks of one key;
    the group is then met from that subgroup in blocks of its width, each block
    a left coset. The keys, sorted, are the ids; each coset's row holds its ids
    ascending, the rows in the order the search met their blocks."""
    book, act, identity = _row_book(gens, dim, name)
    start = _pack(identity[:, None, None])
    subgroup = _blocks(act[local_cols], start, dim, name)
    blocks = _blocks(act, subgroup.reshape(1, -1), dim, name)
    order, ranks = _ranks(blocks.ravel())
    cosets = ranks.reshape(blocks.shape)
    cosets.sort(axis=1)  # in place: a sorted copy would raise the search's peak
    return (stdlib_array(blocks.ravel()[order], "q"), book,
            [stdlib_array(a, "H") for a in act], [stdlib_array(c, "i") for c in cosets])


def _closed_products(table: GroupTable) -> Iterator[np.ndarray]:
    """For each generator g in turn, the keys of the products x * g of all the
    table's elements x, in id order. x * g runs over the group once as x does,
    so those keys, sorted, are the table's keys; VerificationError names the
    first g for which they are not."""
    import numpy as np
    keys = np.asarray(table.keys)
    # uint16 row ids, gathered one row at a time: int64 ids would be the peak
    rows = _unpack(keys, table.dim).astype(np.uint16)
    for label, a in zip(table.alphabet, np.array(table.act)):
        products = _pack([a[r] for r in rows])
        if not np.array_equal(np.sort(products), keys):
            raise VerificationError(f"{table.name} is not closed under {label}")
        yield products


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts distinct `keys`, and each key's rank (int32) in it."""
    import numpy as np
    order, ranks = np.argsort(keys), np.empty(len(keys), dtype=np.int32)
    ranks[order] = np.arange(len(keys), dtype=np.int32)
    return order, ranks


def _blocks(act: np.ndarray, start: np.ndarray, dim: int, name: str) -> np.ndarray:
    """The blocks of keys met from `start`, a (1, width) block, one word length at a
    time: each level multiplies every block the last level met by every generator,
    a gather per row in `act`, and keeps the products whose least key, the block's
    name, no block met so far has; one binary search against the sorted names finds
    them. Returns the blocks, (blocks, width), in the order met. More than
    CLOSURE_CAP keys in all stop the search."""
    import numpy as np
    width = start.shape[1]
    met, names, frontier = [start], start.min(axis=1), start
    while len(frontier):
        # each product's row ids, (dim, generators, blocks, width), then its keys
        images = np.take(act, _unpack(frontier, dim), axis=1).swapaxes(0, 1)
        cand = _pack(images).reshape(-1, width)
        least = cand.min(axis=1)
        order = np.argsort(least)
        least = least[order]
        pos = np.minimum(np.searchsorted(names, least), len(names) - 1)
        fresh = (names[pos] != least) & (np.diff(least, prepend=-1) != 0)
        if (len(names) + np.count_nonzero(fresh)) * width > CLOSURE_CAP:
            raise VerificationError(f"closure of {name} exceeded {CLOSURE_CAP} elements; "
                                    "the representation is not closing")
        names, frontier = np.sort(np.concatenate([names, least[fresh]])), cand[order[fresh]]
        met.append(frontier)
    return np.concatenate(met)


def _bfs_tree(right: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """The breadth-first tree from the identity `start` over the columns of `right`, as
    one product at a time finds it: parent[e] (int32) and label[e] (int8) are the id and
    column that first reached e, -1 at start; parent is -2 at ids not reached. The walk
    meets elements in word-length order (ties broken by frontier position, then column
    order), so the word the tree spells for each element is a shortest one."""
    import numpy as np
    n, k = right.shape
    parent, label = np.full(n, -2, dtype=np.int32), np.full(n, -1, dtype=np.int8)
    parent[start] = -1
    frontier = np.array([start])
    while frontier.size:
        # first[e]: e's first position among the level's products
        cand, first = right[frontier].ravel(), np.full(n, n * k)
        at = np.flatnonzero(parent[cand] == -2)
        np.minimum.at(first, cand[at], at)
        fresh = at[first[cand[at]] == at]
        p, h, frontier = frontier[fresh // k], fresh % k, cand[fresh]
        parent[frontier], label[frontier] = p, h
    return parent, label


def build_c1() -> GroupTable:
    return closure(C1_GENERATORS, "c1")


def build_lc2(c1: GroupTable, c2: GroupTable) -> GroupTable:
    """The local group the LOCAL generators make, read off c2 and factored over c1.

    c2's closure meets that group first, so c2's first coset row holds LC2's
    ids, ascending, and LC2 is a table on c2's own rows: its keys are c2's at
    those ids, its row book and row index are c2's, and its row action is
    c2's `act` for the LOCAL generators. A product outside the coset (c2 closed without `local`)
    raises VerificationError when LC2's `right` is derived for the fill below.

    (A * g) (x) B = (A (x) B)(g (x) I), and the same holds on wire 2, so the
    id of each A (x) B fills breadth-first from the identity pair along c1's
    `right` on one wire and LC2's `right` on the whole. The 192*192 pairs
    collide in eights (opposite global phases cancel), so each element keeps
    the pair with the fewest total letters of c1's words, ties broken by
    (ia, ib); the identity factors as the identity pair.
    """
    import numpy as np
    table = GroupTable("lc2", {label: c2.alphabet[label] for label in LOCAL},
                       stdlib_array(np.asarray(c2.keys)[c2.cosets[0]], "q"), c2.book,
                       [c2.act[list(c2.alphabet).index(label)] for label in LOCAL])
    table._row_of = c2._row_of  # the same book, so one row index, pickled once
    right = table.right
    n, k = len(c1), len(c1.alphabet)
    ia, ib = np.divmod(np.arange(n * n), n)
    # at[ia * n + ib]: id of c1's ia (x) c1's ib; wire w's generators are
    # LC2's columns k*w .. k*w + k - 1
    at = np.full(n * n, -1, dtype=np.int32)
    at[c1.identity_id * (n + 1)] = table.identity_id
    bfs_fill(at, [(c1.right[ia, g] * n + ib, right[:, g]) for g in range(k)]
             + [(ia * n + c1.right[ib, g], right[:, k + g]) for g in range(k)])
    wl = np.array([len(c1.word_of(e)) for e in range(n)])
    # candidates sorted by (total letters, ia, ib); keep each element's first
    order = np.lexsort((np.arange(n * n), (wl[:, None] + wl).ravel()))
    first = np.full(len(table), n * n)
    np.minimum.at(first, at[order], np.arange(n * n))
    table.pairs = [divmod(int(p), n) for p in order[first]]
    return table


def build_c2() -> GroupTable:
    return closure(C2_GENERATORS, "c2", local=LOCAL)


def left_action(table: GroupTable, gate: GateMatrix) -> np.ndarray:
    """out[e] (int32): the id of the monomial gate times element(e). Row r of
    gate * m is the unit gate[r, c] times row c of m, so each unit other than 1
    maps the row book once, through ring.mul_entry and `_row_of`, and `ids_of`
    finds the products. A gate that is not monomial or not of the table's
    dimension raises ValueError; a product outside the table VerificationError."""
    import numpy as np
    cells = gate.entries()
    cols = [[c for c, v in enumerate(row) if any(v)] for row in cells]
    if gate.dim != table.dim or sorted(cols) != [[c] for c in range(gate.dim)]:
        raise ValueError(f"the gate is not a monomial {table.dim}x{table.dim} matrix")
    # maps[unit][s]: the id of unit times row s, -1 for a row outside the book
    maps = {ONE: np.arange(len(table.book))}
    # one row id of every key at a time, as int16: int64 ids would set the build's peak
    keys, out = np.asarray(table.keys), np.empty((len(table), table.dim), np.int16)
    for r, [c] in enumerate(cols):
        unit = cells[r][c]
        if unit not in maps:
            scaled = (pack_values([x for e in zip(*[iter(unpack_values(row))] * 5)
                                   for x in mul_entry(unit, e)]) for row in table.book)
            maps[unit] = np.array([table._row_of.get(row, -1) for row in scaled])
        out[:, r] = maps[unit][keys >> _SHIFTS[table.dim][c] & (MAX_ROWS - 1)]
    return table.ids_of(out)
