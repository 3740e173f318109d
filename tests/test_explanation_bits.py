"""L-/C-Shapley explanations give the same bits as the reference path.

The reference (``reference_path.py``) enumerates every feature's terms, builds
each block of rows with ``np.where`` and scores them with the full naive-Bayes
gather.  The current path shares one term template per neighbourhood shape,
fills one reused row buffer and gathers only non-padding tokens.
"""

import numpy as np
import pytest

import reference_path as ref
from shapgraph import Instance, ValueFunction, c_shapley_all, chain_graph, grid_graph, l_shapley_all
from shapgraph.cli import build_demo_nb
from shapgraph.models import two_topic_corpus

NB = build_demo_nb()
# one graph per shape for every case, so that later cases run on templates
# that earlier ones, with another method or weighting, left behind
CHAIN = chain_graph(400)
GRID = grid_graph(10, 10)
CASES = [
    ("chain400-l-k2", CHAIN, "l", 2, None),
    ("chain400-c-k3", CHAIN, "c", 3, "myerson"),
    ("grid10x10-c-k2-myerson", GRID, "c", 2, "myerson"),
    ("grid10x10-c-k2-interior", GRID, "c", 2, "interior"),
]


def _instance(d, seed=17):
    tokens = two_topic_corpus(seed, 1, doc_len=d)[0][0]
    return Instance(tokens, np.zeros(d, dtype=int))


def _explain(model, x, g, method, k, weighting):
    vf = ValueFunction(model, x)
    if method == "l":
        return l_shapley_all(vf, g, k)
    return c_shapley_all(vf, g, k, weighting=weighting)


def _reference(model, x, g, method, k, weighting):
    game = ref.PluginValue(model, x)
    if method == "l":
        scores, per_feature = ref.l_shapley_all(game, g, k)
    else:
        scores, per_feature = ref.c_shapley_all(game, g, k, weighting)
    return scores, game.eval_count, per_feature


@pytest.mark.parametrize("name,g,method,k,weighting", CASES, ids=[c[0] for c in CASES])
def test_scores_and_counts_equal_the_reference_path(name, g, method, k, weighting):
    x = _instance(g.d)
    got = _explain(NB, x, g, method, k, weighting)
    scores, evals, per_feature = _reference(ref.GatherModel(NB), x, g, method, k, weighting)
    np.testing.assert_array_equal(got.scores, scores)
    assert got.model_evaluations == evals
    assert got.per_feature_evaluations == per_feature


def test_buffered_rows_equal_np_where_rows_block_by_block():
    g = GRID
    x = _instance(g.d, seed=18)
    current = ref.RecordingModel(NB)
    _explain(current, x, g, "c", 2, "myerson")
    earlier = ref.RecordingModel(ref.GatherModel(NB))
    _reference(earlier, x, g, "c", 2, "myerson")
    assert len(current.blocks) == len(earlier.blocks)
    for got, expected in zip(current.blocks, earlier.blocks):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
