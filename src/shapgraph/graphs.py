"""Feature-interaction graphs and connected-subset machinery.

Feature subsets are represented throughout the package as Python integer
bitmasks: bit ``j`` set means feature ``j`` is in the subset.  This keeps
memo keys cheap and enumeration allocation-free; :func:`subset_of` and
:func:`members_of` convert to and from index collections, and
:func:`member_matrix` turns a batch of masks into boolean membership rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError

DEFAULT_ENUMERATION_BUDGET = 10**6


def subset_of(indices: Iterable[int]) -> int:
    """Bitmask for a collection of feature indices."""
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def members_of(mask: int) -> tuple[int, ...]:
    """Sorted feature indices of a bitmask subset."""
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def member_matrix(masks: Sequence[int], d: int) -> np.ndarray:
    """Boolean ``(len(masks), d)`` matrix; row r is True at the members of masks[r].

    Masks are Python or numpy integers and may be wider than 64 bits.  Each is
    serialized little-endian, so bit j of a mask lands in column j after one
    batched unpack.
    """
    width = (d + 7) // 8
    packed = b"".join(int(m).to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=d, bitorder="little").view(bool)


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class FeatureGraph:
    """Undirected connected graph over feature indices 0..d-1.

    ``kind`` is one of ``"chain"``, ``"grid"`` or ``"general"``; chain and
    grid graphs remember nothing beyond their shape, general graphs carry an
    explicit edge list.  ``adjacency[j]`` is the bitmask of neighbours of j.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    kind: str
    rows: int | None = None
    cols: int | None = None
    adjacency: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.num_nodes
        if d < 1:
            raise ValueError(f"graph needs at least one node, got {d}")
        adj = [0] * d
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < d and 0 <= b < d):
                raise ValueError(f"edge ({a},{b}) out of range for {d} nodes")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        object.__setattr__(self, "adjacency", tuple(adj))
        if not self._is_connected():
            raise ValueError("graph must be connected")

    def _is_connected(self) -> bool:
        full = (1 << self.num_nodes) - 1
        reached = 1
        frontier = 1
        while frontier:
            grow = 0
            for j in iter_bits(frontier):
                grow |= self.adjacency[j]
            frontier = grow & ~reached
            reached |= frontier
        return reached == full

    @property
    def d(self) -> int:
        return self.num_nodes

    def neighbors(self, i: int) -> int:
        self._check_index(i)
        return self.adjacency[i]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.num_nodes:
            raise IndexError(f"node {i} out of range for {self.num_nodes} nodes")

    def boundary(self, mask: int) -> int:
        """Bitmask of nodes outside ``mask`` adjacent to some node inside."""
        grow = 0
        for j in iter_bits(mask):
            grow |= self.adjacency[j]
        return grow & ~mask

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "d": self.num_nodes}
        if self.kind == "grid":
            out["rows"] = self.rows
            out["cols"] = self.cols
        if self.kind == "general":
            out["edges"] = [list(e) for e in self.edges]
        return out

    @staticmethod
    def from_json(data: dict) -> "FeatureGraph":
        kind = data["kind"]
        if kind == "chain":
            return chain_graph(data["d"])
        if kind == "grid":
            return grid_graph(data["rows"], data["cols"])
        if kind == "general":
            return general_graph(data["d"], [tuple(e) for e in data["edges"]])
        raise ValueError(f"unknown graph kind {kind!r}")


def chain_graph(d: int) -> FeatureGraph:
    """Line graph on d nodes with edges (i, i+1)."""
    if d < 1:
        raise ValueError(f"chain needs at least one node, got {d}")
    edges = tuple((i, i + 1) for i in range(d - 1))
    return FeatureGraph(d, edges, "chain")


def grid_graph(rows: int, cols: int) -> FeatureGraph:
    """4-neighbour lattice on rows x cols nodes in row-major order."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid needs positive dimensions, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                edges.append((idx, idx + 1))
            if r + 1 < rows:
                edges.append((idx, idx + cols))
    return FeatureGraph(rows * cols, tuple(edges), "grid", rows=rows, cols=cols)


def general_graph(d: int, edges: Iterable[tuple[int, int]]) -> FeatureGraph:
    return FeatureGraph(d, tuple(tuple(e) for e in edges), "general")


def graph_distance(g: FeatureGraph, i: int, j: int) -> int:
    """Shortest-path edge count between nodes i and j (BFS)."""
    g._check_index(i)
    g._check_index(j)
    if i == j:
        return 0
    dist = 0
    reached = 1 << i
    frontier = reached
    while frontier:
        dist += 1
        grow = 0
        for a in iter_bits(frontier):
            grow |= g.adjacency[a]
        frontier = grow & ~reached
        reached |= frontier
        if (reached >> j) & 1:
            return dist
    raise ValueError(f"nodes {i} and {j} are not connected")  # unreachable: graphs are connected


def diameter(g: FeatureGraph) -> int:
    return max(graph_distance(g, i, j) for i in range(g.d) for j in range(i, g.d))


def k_neighborhood(g: FeatureGraph, i: int, k: int) -> int:
    """Bitmask of all nodes at graph distance at most k from node i."""
    g._check_index(i)
    if k < 0:
        raise ValueError(f"neighborhood radius must be nonnegative, got {k}")
    reached = 1 << i
    frontier = reached
    for _ in range(k):
        grow = 0
        for a in iter_bits(frontier):
            grow |= g.adjacency[a]
        frontier = grow & ~reached
        if not frontier:
            break
        reached |= frontier
    return reached


def connected_subsets_in(
    g: FeatureGraph,
    i: int,
    universe: int,
    max_size: int | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[int]:
    """All connected subsets containing i inside an arbitrary node universe.

    Subsets are returned in canonical order: by size, then by bitmask value.
    Duplicate-free by construction: a node may only enter a subset through the
    branch where it first became reachable, so no seen-set is needed.

    Raises :class:`BudgetExceededError` once more than ``budget`` subsets
    would be emitted.
    """
    if not (universe >> i) & 1:
        raise ValueError(f"node {i} is not inside the given universe")
    cap = max_size if max_size is not None else bin(universe).count("1")
    if cap < 1:
        raise ValueError(f"max_size must be positive, got {cap}")
    out: list[int] = []

    def extend(sub: int, candidates: list[int], banned: int) -> None:
        if len(out) >= budget:
            raise BudgetExceededError(
                f"connected-subset enumeration for node {i} exceeded its budget: "
                f"{budget} subsets emitted with more remaining",
                count=budget,
            )
        out.append(sub)
        if bin(sub).count("1") >= cap:
            return
        for pos, w in enumerate(candidates):
            fresh = g.adjacency[w] & universe & ~banned
            nxt = candidates[pos + 1 :] + list(iter_bits(fresh))
            extend(sub | (1 << w), nxt, banned | fresh)

    seed_candidates = list(iter_bits(g.adjacency[i] & universe))
    extend(1 << i, seed_candidates, (1 << i) | (g.adjacency[i] & universe))
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out


def connected_subsets_containing(
    g: FeatureGraph,
    i: int,
    k: int,
    max_size: int | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[int]:
    """All connected subsets U with i in U, U inside the k-neighborhood of i.

    See :func:`connected_subsets_in` for ordering and budget semantics.
    """
    return connected_subsets_in(g, i, k_neighborhood(g, i, k), max_size, budget)


def connected_components(g: FeatureGraph, s: int) -> list[int]:
    """Maximal connected pieces of the subset ``s`` under the induced subgraph.

    Returned in increasing order of their smallest member; the pieces are
    disjoint and their union is ``s``.
    """
    remaining = s
    comps = []
    while remaining:
        start = remaining & -remaining
        comp = 0
        frontier = start
        while frontier:
            comp |= frontier
            grow = 0
            for j in iter_bits(frontier):
                grow |= g.adjacency[j]
            frontier = grow & remaining & ~comp
        comps.append(comp)
        remaining &= ~comp
    return comps
