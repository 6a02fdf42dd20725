"""CZ-connectivity graph on the 20 orbits.

The weight between orbits i and j is |CZ*O_i intersect O_j|, counted by
reading the orbit of CZ*u from the integer left action of CZ for every
element u, a row gather (`groups.left_action`). The result is a 9-regular
graph whose every edge carries weight 512; it must match the embedded
reference diagram up to isomorphism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from czorbits.errors import VerificationError
from czorbits.groups import GroupTable, left_action
from czorbits.matrices import CNOT_T1, CNOT_T2
from czorbits.orbits import OrbitAtlas

if TYPE_CHECKING:
    import numpy as np

# Reference 20-node diagram, one entry per unordered edge (90 total,
# every node degree 9). Node 1 is the identity orbit, node 20 the
# deepest one.
REFERENCE_EDGES: frozenset[tuple[int, int]] = frozenset(
    (min(a, b), max(a, b))
    for a, rest in [
        (1, (2, 3, 4, 5, 6, 7, 8, 9, 10)),
        (2, (7, 8, 9, 10, 11, 12, 13, 14)),
        (3, (4, 5, 7, 9, 14, 15, 16, 17)),
        (4, (6, 7, 10, 13, 15, 16, 18)),
        (5, (6, 8, 9, 12, 15, 17, 19)),
        (6, (8, 10, 11, 15, 18, 19)),
        (7, (8, 13, 14, 17, 18)),
        (8, (11, 12, 17, 18)),
        (9, (10, 12, 14, 16, 19)),
        (10, (11, 13, 16, 19)),
        (11, (12, 13, 18, 19)),
        (12, (14, 17, 19)),
        (13, (14, 16, 18)),
        (14, (16, 17)),
        (15, (16, 17, 18, 19)),
        (16, (19,)),
        (17, (18,)),
        (20, (11, 12, 13, 14, 15, 16, 17, 18, 19)),
    ]
    for b in rest
)


class CzGraph:
    """Symmetric weighted graph on 1-based orbit ids."""

    def __init__(self, weight: list[list[int]], witnesses: dict[tuple[int, int], int]) -> None:
        self.n = len(weight)
        self.weight = weight
        # witnesses[(i, j)]: minimal element id u in O_i with CZ*u in O_j
        self.witnesses = witnesses

    def edges(self) -> list[tuple[int, int, int]]:
        return [
            (i + 1, j + 1, self.weight[i][j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.weight[i][j]
        ]

    def neighbors(self, oid: int) -> list[int]:
        row = self.weight[oid - 1]
        return [j + 1 for j in range(self.n) if row[j]]

    def degree(self, oid: int) -> int:
        return len(self.neighbors(oid))

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, b, _ in self.edges())


def build_graph(atlas: OrbitAtlas, action: np.ndarray) -> CzGraph:
    """Weight matrix of the pushforward through a left action.

    action[e] is the id of gate*element(e), as groups.left_action gives it;
    weight[i][j] counts elements of O_{i+1} landing in O_{j+1}.
    """
    import numpy as np
    n = atlas.n_orbits
    orbit = np.asarray(atlas.orbit_of, dtype=np.intp) - 1
    pair = orbit * n + orbit[action]
    weight = np.bincount(pair, minlength=n * n).reshape(n, n).tolist()
    # each pair's witness is its minimal element id
    first = np.full(n * n, len(pair))
    np.minimum.at(first, pair, np.arange(len(pair)))
    witnesses = {(p // n + 1, p % n + 1): e for p, e in enumerate(first.tolist()) if e < len(pair)}
    return CzGraph(weight, witnesses)


def check_weight_law(graph: CzGraph) -> None:
    """Enforce the structural law: symmetric, weights in {0, 512}, zero diagonal."""
    weight, block = graph.weight, 512
    for i in range(graph.n):
        if weight[i][i] != 0:
            raise VerificationError(f"orbit {i + 1} connects to itself")
        for j in range(graph.n):
            if weight[i][j] != weight[j][i]:
                raise VerificationError("weight matrix is asymmetric")
            if weight[i][j] not in (0, block):
                raise VerificationError(
                    f"weight[{i + 1}][{j + 1}] = {weight[i][j]}, "
                    f"expected 0 or {block}"
                )


def check_isomorphic(edges: Iterable[tuple[int, int]]) -> Optional[dict[int, int]]:
    """Edge-preserving node bijection from the 20-node graph `edges` to
    REFERENCE_EDGES, or None.

    Node 1 maps to 1 and node 20 to 20 (the identity orbit and the deepest
    orbit both carry forced labels). Backtracking with adjacency consistency
    is instant at this size. Candidate nodes are tried in ascending order,
    so mapping a graph onto itself yields the identity bijection.
    """
    n = 20
    a_adj = {v: set() for v in range(1, n + 1)}
    b_adj = {v: set() for v in range(1, n + 1)}
    for adj, pairs in ((a_adj, edges), (b_adj, REFERENCE_EDGES)):
        for x, y in pairs:
            adj[x].add(y)
            adj[y].add(x)

    if sorted(len(a_adj[v]) for v in a_adj) != sorted(len(b_adj[v]) for v in b_adj):
        return None

    mapping: dict[int, int] = {}

    def consistent(u: int, v: int) -> bool:
        if len(a_adj[u]) != len(b_adj[v]):
            return False
        for w, mw in mapping.items():
            if (w in a_adj[u]) != (mw in b_adj[v]):
                return False
        return True

    for u, v in ((1, 1), (n, n)):
        if not consistent(u, v):
            return None
        mapping[u] = v

    def extend() -> bool:
        if len(mapping) == n:
            return True
        # most-constrained first: prefer nodes touching the mapped region
        u = min((u for u in a_adj if u not in mapping),
                key=lambda u: (-sum(w in mapping for w in a_adj[u]), u))
        for v in b_adj:
            if v in mapping.values() or not consistent(u, v):
                continue
            mapping[u] = v
            if extend():
                return True
            del mapping[u]
        return False

    return dict(sorted(mapping.items())) if extend() else None


def cnot_graph_equivalence(atlas: OrbitAtlas, c2: GroupTable, graph: CzGraph) -> bool:
    """True iff both CNOT pushforward graphs equal the CZ graph exactly.

    The CNOT onto wire w is H_w*CZ*H_w (checked exactly); it permutes the
    basis, so its left action on c2 is a row gather.
    """
    for wire, cnot in (("2", CNOT_T2), ("1", CNOT_T1)):
        h = c2.alphabet["H" + wire]
        if h * c2.alphabet["CZ"] * h != cnot:
            raise VerificationError(f"H{wire}*CZ*H{wire} is not the CNOT onto wire {wire}")
        if build_graph(atlas, left_action(c2, cnot)).weight != graph.weight:
            return False
    return True


def to_dot(graph: CzGraph, atlas: OrbitAtlas) -> str:
    lines = ["graph cz_orbits {"]
    for lv in sorted(set(atlas.layers)):
        nodes = [f"O{o}" for o in range(1, graph.n + 1) if atlas.layer(o) == lv]
        lines.append(f"  {{ rank=same; {'; '.join(nodes)}; }}")
    for oid in range(1, graph.n + 1):
        size = len(atlas.orbit_members(oid))
        lines.append(f'  O{oid} [label="O{oid}" layer={atlas.layer(oid)} size={size}];')
    for a, b, w in graph.edges():
        lines.append(f"  O{a} -- O{b} [weight={w}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: CzGraph, atlas: OrbitAtlas, bijection: Mapping[int, int]) -> str:
    import json

    nodes = [
        {
            "id": oid,
            "layer": atlas.layer(oid),
            "size": len(atlas.orbit_members(oid)),
            "reference_label": f"O{bijection[oid]}",
        }
        for oid in range(1, graph.n + 1)
    ]
    edges = [{"a": a, "b": b, "weight": w} for a, b, w in graph.edges()]
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2) + "\n"
