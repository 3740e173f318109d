"""Each kernel agrees with an independent brute-force path: the subset-form
Shapley and BFS component oracles in ``oracles.py``, or a per-bit loop."""

import numpy as np
import pytest

from oracles import components_oracle, shapley_subset_oracle
from shapgraph import _kernels
from shapgraph.attribution import exact_shapley_weights
from shapgraph.graphs import chain_graph, general_graph, grid_graph, members_of

GRAPHS = [
    chain_graph(5),
    grid_graph(2, 3),
    general_graph(6, [(0, 3), (3, 1), (1, 5), (5, 2), (2, 4), (4, 0), (1, 4)]),
]


def oracle_components(g, mask):
    """Bitmasks of the components of ``mask``, ordered by smallest member."""
    return [sum(1 << j for j in comp) for comp in components_oracle(g.d, g.edges, members_of(mask))]


def test_popcounts():
    pc = _kernels.popcounts(5)
    assert pc[0] == 0 and pc[0b10110] == 3 and pc[31] == 5


def test_shapley_scatter_paths_agree():
    rng = np.random.default_rng(0)
    for d in (1, 3, 6):
        w = exact_shapley_weights(d)
        values = rng.normal(size=(1 << d, 4))
        got = _kernels.shapley_scatter(values, d, w)
        for col in range(values.shape[1]):
            expected = shapley_subset_oracle(lambda m: values[m, col], d)
            np.testing.assert_allclose(got[:, col], expected, rtol=0, atol=1e-12)
        single = values[:, 0]
        np.testing.assert_allclose(
            _kernels.shapley_scatter(single, d, w),
            shapley_subset_oracle(lambda m: single[m], d),
            rtol=0,
            atol=1e-12,
        )


def test_shapley_scatter_1d_shape():
    values = np.arange(8, dtype=float)
    out = _kernels.shapley_scatter(values, 3, exact_shapley_weights(3))
    assert out.shape == (3,)


def test_lowbit_component_paths_agree():
    for g in GRAPHS:
        comp = _kernels.lowbit_component_masks(np.asarray(g.adjacency, dtype=np.int64), g.d)
        assert comp[0] == 0
        for mask in range(1, 1 << g.d):
            assert comp[mask] == oracle_components(g, mask)[0], (g.kind, mask)


def test_component_sum_table_paths_agree():
    rng = np.random.default_rng(0)
    for g in GRAPHS:
        comp = _kernels.lowbit_component_masks(np.asarray(g.adjacency, dtype=np.int64), g.d)
        raw = rng.normal(size=1 << g.d)
        table = _kernels.component_sum_table(comp, raw)
        for mask in range(1 << g.d):
            expected = sum(raw[c] for c in oracle_components(g, mask))
            assert table[mask] == pytest.approx(expected, abs=1e-12), (g.kind, mask)


def gather_shapley_scatter(values, d, w_member):
    """The scatter that gathered index and value arrays per feature, which
    the strided-view kernel replaced."""
    values = np.asarray(values, dtype=np.float64)
    squeeze = values.ndim == 1
    if squeeze:
        values = values[:, None]
    masks = np.arange(1 << d, dtype=np.int64)
    sizes = _kernels.popcounts(d)
    out = np.empty((d,) + values.shape[1:], dtype=np.float64)
    for i in range(d):
        with_i = masks[((masks >> i) & 1).astype(bool)]
        weights = np.asarray(w_member, dtype=np.float64)[sizes[with_i]]
        marginals = values[with_i] - values[with_i & ~(1 << i)]
        out[i] = np.tensordot(weights, marginals, axes=(0, 0))
    return out[:, 0] if squeeze else out


@pytest.mark.parametrize("d", [1, 3, 10, 15, 16])
def test_shapley_scatter_equals_gather_scatter(d):
    rng = np.random.default_rng(d)
    w = exact_shapley_weights(d)
    shapes = [(1 << d,), (1 << d, 3)] + ([(1 << d, 1 << d)] if d <= 10 else [])
    for shape in shapes:
        values = rng.normal(size=shape)
        got = _kernels.shapley_scatter(values, d, w)
        assert got.shape == (d,) + shape[1:]
        assert (got == gather_shapley_scatter(values, d, w)).all(), shape


def test_feature_score_is_one_row_of_the_scatter():
    d = 8
    values = np.random.default_rng(1).normal(size=(1 << d, 5))
    w = exact_shapley_weights(d)
    weights = w[_kernels.popcounts(d)]
    full = _kernels.shapley_scatter(values, d, w)
    for i in range(d):
        assert (_kernels.feature_score(values, weights, i) == full[i]).all()


def loop_lowbit_component_masks(adjacency, d):
    """The per-mask frontier loop the vectorised kernel replaced."""
    adj = [int(a) for a in adjacency]
    out = np.zeros(1 << d, dtype=np.int64)
    for mask in range(1, 1 << d):
        comp, frontier = 0, mask & -mask
        while frontier:
            comp |= frontier
            grow, f = 0, frontier
            while f:
                b = f & -f
                grow |= adj[b.bit_length() - 1]
                f ^= b
            frontier = grow & mask & ~comp
        out[mask] = comp
    return out


def loop_component_sum_table(comp, raw):
    """The per-mask loop the level-by-level kernel replaced."""
    out = np.zeros(len(comp), dtype=np.float64)
    for mask in range(1, len(comp)):
        c = comp[mask]
        out[mask] = raw[c] + out[mask & ~c]
    return out


BITWISE_GRAPHS = [chain_graph(d) for d in (1, 2, 12, 15, 16)] + [grid_graph(3, 5), grid_graph(4, 4)] + GRAPHS


@pytest.mark.parametrize("g", BITWISE_GRAPHS, ids=lambda g: f"{g.kind}{g.d}")
def test_component_kernels_equal_per_mask_loops(g):
    adjacency = np.asarray(g.adjacency, dtype=np.int64)
    comp = _kernels.lowbit_component_masks(adjacency, g.d)
    expected = loop_lowbit_component_masks(adjacency, g.d)
    assert comp.dtype == np.int64
    assert (comp == expected).all()
    raw = np.random.default_rng(g.d).normal(size=1 << g.d)
    table = _kernels.component_sum_table(comp, raw)
    assert (table == loop_component_sum_table(expected, raw)).all()


def test_restriction_indices_paths_agree():
    for d, mask in [(4, 0b1010), (6, 0b000111), (5, 0), (6, 0b101101), (3, 0b111)]:
        idx = _kernels.restriction_indices(d, mask)
        for x in range(1 << d):
            packed = 0
            for pos, j in enumerate(members_of(mask)):
                packed |= ((x >> j) & 1) << pos
            assert idx[x] == packed


def test_restriction_indices_values():
    idx = _kernels.restriction_indices(4, 0b1010)
    # x = 0b1111 restricted to bits {1, 3} packs to 0b11
    assert idx[0b1111] == 0b11
    assert idx[0b1000] == 0b10
    assert idx[0b0010] == 0b01
    assert idx[0b0101] == 0


def test_env_flag_reported():
    assert _kernels.USE_NUMBA is False
