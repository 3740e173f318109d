"""L-/C-Shapley explanations give the same bits as the reference path.

The reference (``reference_path.py``) enumerates every feature's terms, builds
each block of rows with ``np.where`` and scores them with the full naive-Bayes
gather.  The current path packs each feature's terms as member rows, values
each plan's distinct subsets as one table, fills one reused row buffer and
gathers only non-padding tokens.
"""

import numpy as np
import pytest

import reference_path as ref
from shapgraph import Instance, ValueFunction, c_shapley, c_shapley_all, chain_graph, grid_graph, l_shapley_all
from shapgraph.attribution import c_shapley_terms
from shapgraph.cli import build_demo_nb
from shapgraph.models import two_topic_corpus
from shapgraph.valuation import DEFAULT_BATCH_SIZE

NB = build_demo_nb()
# one graph per shape for every case, so that its kept plans of one method
# and weighting sit beside those of the others without being mixed up
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
    return scores, game, per_feature


@pytest.mark.parametrize("name,g,method,k,weighting", CASES, ids=[c[0] for c in CASES])
def test_scores_and_counts_equal_the_reference_path(name, g, method, k, weighting):
    x = _instance(g.d)
    got = _explain(NB, x, g, method, k, weighting)
    scores, game, per_feature = _reference(ref.GatherModel(NB), x, g, method, k, weighting)
    np.testing.assert_array_equal(got.scores, scores)
    assert got.model_evaluations == game.eval_count
    assert got.per_feature_evaluations == per_feature


def test_buffered_rows_equal_np_where_rows_block_by_block():
    # The reference values each flush of pending features in blocks of its
    # own, in the order the features need the subsets; the plan table values
    # all new subsets in blocks that run on over the whole plan, in the byte
    # order of their packed rows, then the full set, which no plan here
    # lists and the reference values first, on its own.  The rows are the
    # same, one per subset.
    for _, g, method, k, weighting in CASES:
        x = _instance(g.d, seed=18)
        current = ref.RecordingModel(NB)
        _explain(current, x, g, method, k, weighting)
        earlier = ref.RecordingModel(ref.GatherModel(NB))
        masks = list(_reference(earlier, x, g, method, k, weighting)[1].cache)  # in the order valued
        width = (g.d + 7) // 8
        order = sorted(range(1, len(masks)), key=lambda r: masks[r].to_bytes(width, "little")) + [0]
        got, expected = np.concatenate(current.blocks), np.concatenate(earlier.blocks)[order]
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        # the unmasked instance is the last row of the last block, and every block but that is full
        np.testing.assert_array_equal(current.blocks[-1][-1], x.values)
        assert [len(block) for block in current.blocks[:-1]] == [DEFAULT_BATCH_SIZE] * (len(current.blocks) - 1)
        assert len(current.blocks) == -(-len(got) // DEFAULT_BATCH_SIZE) < len(earlier.blocks)


@pytest.mark.parametrize("g,l_k,c_k", [(chain_graph(60), 2, 3), (grid_graph(6, 7), 1, 2)], ids=["chain60", "grid6x7"])
def test_mixed_use_of_one_value_function_equals_the_reference_path(g, l_k, c_k):
    # a table valued against the stored rows of an earlier one, membership
    # tests before and after a read by mask merges the runs valued so far
    # into the store, a one-feature run read by mask, and a table valued again
    x = _instance(g.d, seed=19)
    rng = np.random.default_rng(g.d)
    plan_masks = [m for m, _ in c_shapley_terms(g, g.d // 2, c_k)][:5]
    ad_hoc = plan_masks + [int.from_bytes(rng.bytes(g.d // 8 + 1), "little") >> (8 - g.d % 8) for _ in range(5)]
    ad_hoc += [0, (1 << g.d) - 1, ad_hoc[7]]
    probes = (plan_masks[0], ((1 << g.d) - 1) ^ 5, 0)
    i = g.d // 3

    vf = ValueFunction(NB, x)
    got = [l_shapley_all(vf, g, l_k), c_shapley_all(vf, g, c_k)]
    got_in = [m in vf for m in probes]
    got_values = vf.scores(ad_hoc)
    got_in += [m in vf for m in probes]
    got_counts = [vf.eval_count]
    got_one = c_shapley(vf, g, i, c_k + 1)  # its order-c_k subsets are valued already
    got_counts.append(vf.eval_count)
    again = l_shapley_all(vf, g, l_k)

    game = ref.PluginValue(ref.GatherModel(NB), x)
    expected = []
    for run in (lambda: ref.l_shapley_all(game, g, l_k), lambda: ref.c_shapley_all(game, g, c_k)):
        before = game.eval_count
        scores, per_feature = run()
        expected.append((scores, game.eval_count - before, per_feature))
    expected_in = [m in game for m in probes]
    expected_values = game.scores(ad_hoc)
    expected_in += [m in game for m in probes]
    expected_counts = [game.eval_count]
    expected_one = ref.weighted_marginal(lambda m: game.scores([m])[0], i, c_shapley_terms(g, i, c_k + 1))
    expected_counts.append(game.eval_count)

    for result, (scores, evals, per_feature) in zip(got, expected):
        np.testing.assert_array_equal(result.scores, scores)
        assert result.model_evaluations == evals
        assert result.per_feature_evaluations == per_feature
    np.testing.assert_array_equal(got_values, expected_values)
    assert got_in == expected_in == [True, False, True] * 2
    assert got_counts == expected_counts and got_counts[1] > got_counts[0]
    assert got_one == expected_one
    np.testing.assert_array_equal(again.scores, got[0].scores)
    assert again.model_evaluations == 0 and again.per_feature_evaluations == [0] * g.d
