"""Hot numeric kernels over dense tables indexed by subset bitmask."""

from __future__ import annotations

import numpy as np

# There is no compiled kernel path; nothing branches on this flag.  It stays
# because the benchmark's environment record reads it.
USE_NUMBA = False


def popcounts(num_bits: int) -> np.ndarray:
    """Table of bit counts for every mask below ``2**num_bits``."""
    masks = np.arange(1 << num_bits, dtype=np.int64)
    counts = np.zeros(1 << num_bits, dtype=np.int64)
    for j in range(num_bits):
        counts += (masks >> j) & 1
    return counts


# ---------------------------------------------------------------------------
# Shapley reduction: attribution scores from a dense table of subset values.
#
# values[mask] holds v(S) for the subset encoded by the bitmask; w_member[s]
# weighs the marginal contribution v(S) - v(S minus {i}) of a member i of a
# size-s subset.  Marginals are formed before weighting so that a constant
# added to every value cancels exactly, not just approximately.
# ---------------------------------------------------------------------------


def shapley_scatter(values: np.ndarray, d: int, w_member: np.ndarray) -> np.ndarray:
    """Scores for all d features given a dense subset-value table.

    ``values`` may be 1-d (one game) or 2-d of shape ``(2**d, m)`` for m games
    sharing the same weights; the result is ``(d,)`` or ``(d, m)``.
    """
    values = np.asarray(values, dtype=np.float64)
    w_member = np.asarray(w_member, dtype=np.float64)
    squeeze = values.ndim == 1
    if squeeze:
        values = values[:, None]
    masks = np.arange(1 << d, dtype=np.int64)
    sizes = popcounts(d)
    out = np.empty((d,) + values.shape[1:], dtype=np.float64)
    for i in range(d):
        with_i = masks[((masks >> i) & 1).astype(bool)]
        weights = w_member[sizes[with_i]]
        marginals = values[with_i] - values[with_i & ~(1 << i)]
        out[i] = np.tensordot(weights, marginals, axes=(0, 0))
    return out[:, 0] if squeeze else out


# ---------------------------------------------------------------------------
# Connected-component bookkeeping over all masks of a small graph, used for
# the graph-restricted (component-additive) game transform.
# ---------------------------------------------------------------------------


def _neighbour_tables(adjacency: np.ndarray, d: int) -> list[np.ndarray]:
    """Per-byte lookup tables: ``tables[b][v]`` is the union of the
    neighbourhoods of the nodes ``8*b + j`` for the bits j set in byte v."""
    byte = np.arange(256, dtype=np.int64)
    tables = []
    for b in range(0, d, 8):
        table = np.zeros(256, dtype=np.int64)
        for j in range(min(8, d - b)):
            table[(byte >> j) & 1 == 1] |= int(adjacency[b + j])
        tables.append(table)
    return tables


def lowbit_component_masks(adjacency: np.ndarray, d: int) -> np.ndarray:
    """For every mask, the connected component containing its lowest set bit.

    All 2**d components start at their mask's lowest bit and grow together,
    each step adding the neighbours inside the mask, until none changes.
    """
    tables = _neighbour_tables(adjacency, d)
    masks = np.arange(1 << d, dtype=np.int64)
    comp = masks & -masks
    live, cur = masks, comp  # masks still growing, and their components
    while live.size:
        grow = np.zeros(live.size, dtype=np.int64)
        for b, table in enumerate(tables):
            grow |= table[(cur >> (8 * b)) & 255]
        grown = (cur | grow) & live
        changed = grown != cur
        live, cur = live[changed], grown[changed]
        comp[live] = cur
    return comp


def component_sum_table(comp: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Dense table of the component-additive extension.

    ``comp`` comes from :func:`lowbit_component_masks`; ``raw[mask]`` must hold
    the base value for every connected mask (other entries are never read).
    Entry ``out[mask]`` is the sum of ``raw`` over the components of ``mask``.
    The table fills level by level: ``rest = mask & ~comp[mask]`` has one
    component fewer than ``mask``, so level t holds the masks of t components.
    """
    comp = np.asarray(comp, dtype=np.int64)
    raw = np.asarray(raw, dtype=np.float64)
    masks = np.arange(len(comp), dtype=np.int64)
    rest = masks & ~comp
    out = np.zeros(len(comp), dtype=np.float64)
    done = np.zeros(len(comp), dtype=bool)
    done[0] = True
    level = np.flatnonzero(rest == 0)[1:]
    while level.size:
        out[level] = raw[comp[level]] + out[rest[level]]
        done[level] = True
        level = np.flatnonzero(~done & done[rest])
    return out


# ---------------------------------------------------------------------------
# Bit-compaction indices: for a coordinate subset ``mask`` of d binary
# variables, map every full assignment x in [0, 2**d) to the packed index of
# its restriction to ``mask``.  Used heavily by exact marginalization.
# ---------------------------------------------------------------------------


def restriction_indices(d: int, mask: int) -> np.ndarray:
    xs = np.arange(1 << d, dtype=np.int64)
    out = np.zeros(1 << d, dtype=np.int64)
    pos = 0
    for j in range(d):
        if (mask >> j) & 1:
            out |= ((xs >> j) & 1) << pos
            pos += 1
    return out
