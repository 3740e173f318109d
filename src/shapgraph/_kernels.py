"""Hot numeric kernels over dense tables indexed by subset bitmask."""

from __future__ import annotations

import numpy as np

# There is no compiled kernel path; nothing branches on this flag.  It stays
# because the benchmark's environment record reads it.
USE_NUMBA = False

# Temporaries built chunk by chunk stay at about CHUNK_BYTES, well below
# glibc's default mmap threshold of 128 KiB, so they come from the heap rather
# than from a fresh mapping that faults its pages in anew on every call.
CHUNK_BYTES = 64 << 10


def chunk_rows(row_bytes: int) -> int:
    """Rows per chunk when each row's temporaries take ``row_bytes``."""
    return max(1, CHUNK_BYTES // max(row_bytes, 1))


def popcounts(num_bits: int) -> np.ndarray:
    """Table of bit counts for every mask below ``2**num_bits``."""
    counts = np.zeros(1 << num_bits, dtype=np.int64)
    for j in range(num_bits):
        # the masks in [2**j, 2**(j+1)) are those below 2**j plus bit j
        np.add(counts[: 1 << j], 1, out=counts[1 << j : 2 << j])
    return counts


def row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, bitwise.  numpy adds a row of fewer than 8 items in
    order, which a loop over the columns does far faster for short rows."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    out = a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        out += a[..., c]
    return out


def row_maxes(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, bitwise, by the same loop as :func:`row_sums`; a
    NaN anywhere in a row is its maximum either way."""
    if a.shape[-1] >= 8:
        return a.max(axis=-1)
    out = a[..., 0].copy()
    for c in range(1, a.shape[-1]):
        np.maximum(out, a[..., c], out=out)
    return out


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
    squeeze = values.ndim == 1
    if squeeze:
        values = values[:, None]
    weights = np.asarray(w_member, dtype=np.float64)[popcounts(d)]
    out = np.empty((d,) + values.shape[1:], dtype=np.float64)
    buffers = (np.empty((len(values) >> 1, values.shape[1])), np.empty(len(values) >> 1))
    for i in range(d):
        out[i] = feature_score(values, weights, i, buffers)
    return out[:, 0] if squeeze else out


def feature_score(values: np.ndarray, weights: np.ndarray, i: int, buffers=None) -> np.ndarray:
    """Score of feature i for each game in ``values`` of shape ``(2**d, m)``.

    ``weights[mask]`` is ``w_member[popcount(mask)]``.  Viewed as
    ``(-1, 2, 2**i, m)``, the table holds the subsets with i at ``[:, 1]`` and
    the same subsets without i at ``[:, 0]``, both in ascending mask order, so
    no index arrays are gathered.  ``buffers``, arrays of shape
    ``(2**(d-1), m)`` and ``(2**(d-1),)``, receive the marginals and their
    weights; a caller scoring several features passes the same pair each time.
    """
    m = values.shape[1]
    pairs = values.reshape(-1, 2, 1 << i, m)
    w_pairs = weights.reshape(-1, 2, 1 << i)
    if buffers is None:
        buffers = (np.empty((len(values) >> 1, m)), np.empty(len(values) >> 1))
    marginals, w_with = buffers
    np.subtract(pairs[:, 1], pairs[:, 0], out=marginals.reshape(pairs[:, 1].shape))
    # a contiguous weight vector, so that BLAS takes its unit-stride path and
    # sums in the same order as for a gathered one
    np.copyto(w_with.reshape(w_pairs[:, 1].shape), w_pairs[:, 1])
    return np.tensordot(w_with, marginals, axes=(0, 0))


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

    The components of each block of masks start at their mask's lowest bit
    and grow together, each step adding the neighbours inside the mask, until
    none changes.
    """
    tables = _neighbour_tables(adjacency, d)
    comp = np.empty(1 << d, dtype=np.int64)
    step = chunk_rows(8)  # one int64 per mask
    for lo in range(0, 1 << d, step):
        live = np.arange(lo, min(lo + step, 1 << d), dtype=np.int64)  # masks still growing
        cur = live & -live  # and their components
        comp[lo : lo + step] = cur
        while live.size:
            grown = cur.copy()
            for b, table in enumerate(tables):
                grown |= table[(cur >> (8 * b)) & 255]
            grown &= live
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
