"""Feature-interaction graphs and connected-subset machinery.

Feature subsets are represented throughout the package as Python integer
bitmasks: bit ``j`` set means feature ``j`` is in the subset.  This keeps
enumeration allocation-free; :func:`subset_of` and :func:`members_of`
convert to and from index collections, and :func:`submasks` lists the
subsets of a mask.  Batches of subsets travel as packed member rows, one
little-endian mask of ``ceil(d / 8)`` bytes per row (:func:`pack_masks`),
are valued and kept as such, and :func:`unpack_rows` turns them into boolean
membership rows.  :func:`reach` is the one breadth-first search: distances,
neighbourhoods, components and connectivity are read off its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, ConfigurationError

DEFAULT_ENUMERATION_BUDGET = 10**6


def subset_of(indices: Iterable[int]) -> int:
    """Bitmask for a collection of feature indices."""
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members_of(mask: int) -> tuple[int, ...]:
    """Sorted feature indices of a bitmask subset."""
    return tuple(iter_bits(mask))


def submasks(mask: int) -> list[int]:
    """Every subset of ``mask``, in ascending order, the empty set first."""
    subs = [0]
    for j in iter_bits(mask):
        subs += [s | (1 << j) for s in subs]
    return subs


def pack_masks(masks: Sequence[int] | np.ndarray, d: int) -> np.ndarray:
    """The masks as packed member rows: a ``(len(masks), ceil(d / 8))`` uint8
    array whose row r is masks[r] little-endian, so bit j of a mask is bit
    ``j % 8`` of byte ``j // 8``.  ``masks`` are Python or numpy integers, or
    for d <= 64 an integer ndarray, whose rows are its entries' little-endian
    bytes after one range check.  A negative mask, or one with a bit at d or
    above, raises ``ConfigurationError`` (see :func:`check_masks`)."""
    width = (d + 7) // 8
    if isinstance(masks, np.ndarray) and masks.dtype.kind in "iu" and d <= 64:
        check_masks(masks, d)
        return np.ascontiguousarray(masks.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :width])
    try:
        packed = b"".join(map(int.to_bytes, map(int, masks), repeat(width), repeat("little")))
    except OverflowError:  # negative, or wider than the whole bytes
        check_masks(masks, d)
        raise
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width)
    # the bits of the last byte above d; an unpack would drop them unseen
    if d & 7 and rows.size and (rows[:, -1] >> (d & 7)).any():
        check_masks(masks, d)
    return rows


def unpack_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """Boolean ``(n, d)`` membership matrix of n packed member rows."""
    return np.unpackbits(rows, axis=1, count=d, bitorder="little").view(bool)


def row_masks(rows: np.ndarray) -> list[int]:
    """The integer masks of packed member rows."""
    data, width = rows.tobytes(), rows.shape[1]
    return [int.from_bytes(data[at : at + width], "little") for at in range(0, len(data), width)]


def check_masks(masks: Sequence[int], d: int) -> None:
    """Raise ``ConfigurationError`` naming the first mask that is negative or
    has a bit at ``d`` or above, if any: no subset of d features is that."""
    if not len(masks) or (np.min(masks) >= 0 and not int(np.max(masks)) >> d):
        return
    for mask in map(int, masks):
        if mask < 0 or mask >> d:
            what = "is negative" if mask < 0 else f"has bit {mask.bit_length() - 1}"
            raise ConfigurationError(f"subset mask {mask:#x} {what}; subsets of {d} features lie in [0, 2**{d})")


@dataclass(frozen=True)
class FeatureGraph:
    """Undirected connected graph over feature indices 0..d-1.

    ``kind`` is one of ``"chain"``, ``"grid"`` or ``"general"``; chain and
    grid graphs remember nothing beyond their shape, general graphs carry an
    explicit edge list.  ``adjacency[j]`` is the bitmask of neighbours of j.
    ``_templates`` holds the estimators' term templates, one per
    neighbourhood shape, and ``_tables`` their plans, one per method,
    order, weighting and budget, for as long as the graph lives (see
    :mod:`shapgraph.attribution`).
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    kind: str
    rows: int | None = None
    cols: int | None = None
    adjacency: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _templates: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        *_, reached = reach(self, 1)
        return reached == (1 << self.num_nodes) - 1

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


def chain_graph(d: int) -> FeatureGraph:
    """Line graph on d nodes with edges (i, i+1)."""
    if d < 1:
        raise ConfigurationError(f"chain needs at least one node, got {d}")
    edges = tuple((i, i + 1) for i in range(d - 1))
    return FeatureGraph(d, edges, "chain")


def grid_graph(rows: int, cols: int) -> FeatureGraph:
    """4-neighbour lattice on rows x cols nodes in row-major order."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(f"grid needs positive dimensions, got {rows}x{cols}")
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


def reach(g: FeatureGraph, start: int, within: int = -1) -> Iterator[int]:
    """Breadth-first search from the nodes ``start`` through the nodes
    ``within`` (all of them by default): the nodes reached after 0, 1, 2, ...
    steps, as bitmasks, until a step adds no node."""
    reached = frontier = start
    while frontier:
        yield reached
        frontier = g.boundary(frontier) & within & ~reached
        reached |= frontier


def graph_distance(g: FeatureGraph, i: int, j: int) -> int:
    """Shortest-path edge count between nodes i and j."""
    g._check_index(i)
    g._check_index(j)
    # graphs are connected, so j is reached
    return next(dist for dist, reached in enumerate(reach(g, 1 << i)) if (reached >> j) & 1)


def diameter(g: FeatureGraph) -> int:
    return max(graph_distance(g, i, j) for i in range(g.d) for j in range(i, g.d))


def k_neighborhood(g: FeatureGraph, i: int, k: int) -> int:
    """Bitmask of all nodes at graph distance at most k from node i."""
    g._check_index(i)
    if k < 0:
        raise ConfigurationError(f"neighborhood radius must be nonnegative, got {k}")
    *_, reached = islice(reach(g, 1 << i), k + 1)
    return reached


def connected_subsets_in(
    g: FeatureGraph,
    i: int,
    universe: int,
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
    out: list[int] = []

    def extend(sub: int, candidates: list[int], banned: int) -> None:
        if len(out) >= budget:
            raise BudgetExceededError(
                f"connected-subset enumeration for node {i} exceeded its budget: "
                f"{budget} subsets emitted with more remaining",
                count=budget,
            )
        out.append(sub)
        for pos, w in enumerate(candidates):
            fresh = g.adjacency[w] & universe & ~banned
            nxt = candidates[pos + 1 :] + list(iter_bits(fresh))
            extend(sub | (1 << w), nxt, banned | fresh)

    seed_candidates = list(iter_bits(g.adjacency[i] & universe))
    extend(1 << i, seed_candidates, (1 << i) | (g.adjacency[i] & universe))
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def connected_subsets_containing(
    g: FeatureGraph,
    i: int,
    k: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[int]:
    """All connected subsets U with i in U, U inside the k-neighborhood of i.

    See :func:`connected_subsets_in` for ordering and budget semantics.
    """
    return connected_subsets_in(g, i, k_neighborhood(g, i, k), budget)


def connected_components(g: FeatureGraph, s: int) -> list[int]:
    """Maximal connected pieces of the subset ``s`` under the induced subgraph.

    Returned in increasing order of their smallest member; the pieces are
    disjoint and their union is ``s``.
    """
    comps = []
    while s:
        *_, comp = reach(g, s & -s, s)
        comps.append(comp)
        s &= ~comp
    return comps
