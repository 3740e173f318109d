import math

import numpy as np
import pytest

from shapgraph import (
    BudgetExceededError,
    c_shapley,
    c_shapley_all,
    chain_graph,
    exact_shapley,
    general_graph,
    grid_graph,
    k_neighborhood,
    l_shapley,
    l_shapley_all,
    myerson_value,
    sample_shapley,
    subset_of,
    synthetic_game,
)
from shapgraph import attribution, graphs, harness, models, regression, theory
from shapgraph.attribution import (
    c_shapley_terms,
    connected_subset_weight,
    exact_shapley_weights,
    interior_subset_weight,
    l_shapley_terms,
)
from shapgraph.cli import build_demo_nb
from shapgraph.models import two_topic_corpus
from shapgraph.valuation import (
    DEFAULT_BATCH_SIZE,
    FunctionGame,
    Instance,
    ValueFunction,
    additive_game,
)

from oracles import myerson_oracle, shapley_permutation_oracle
from reference_path import GraphRestrictedGame, decomposable_chain_game, weighted_marginal


class TestExactShapley:
    def test_single_player(self):
        game = synthetic_game(1, table=np.array([0.3, 1.7]))
        res = exact_shapley(game)
        assert res.scores[0] == pytest.approx(1.4, abs=1e-15)

    def test_two_player_hand_example(self):
        game = synthetic_game(2, table=np.array([0.0, 1.0, 2.0, 4.0]))
        res = exact_shapley(game)
        np.testing.assert_allclose(res.scores, [1.5, 2.5], atol=1e-12)

    def test_additive_games_recover_coefficients(self):
        rng = np.random.default_rng(0)
        for d in (2, 5, 8, 10):
            coeffs = rng.normal(size=d)
            res = exact_shapley(additive_game(coeffs))
            np.testing.assert_allclose(res.scores, coeffs, atol=1e-9)

    def test_matches_permutation_oracle(self):
        for seed in range(5):
            game = synthetic_game(5, seed=seed)
            res = exact_shapley(game)
            oracle = shapley_permutation_oracle(lambda m: game.table[m], 5)
            np.testing.assert_allclose(res.scores, oracle, atol=1e-10)

    def test_efficiency(self):
        game = synthetic_game(6, seed=4)
        res = exact_shapley(game)
        total = game((1 << 6) - 1) - game(0)
        assert abs(res.scores.sum() - total) < 1e-9

    def test_equal_contributions(self):
        # v depends only on |S| treatment of features 0 and 1: make them twins
        rng = np.random.default_rng(1)
        base = rng.normal(size=1 << 4)
        table = np.empty(1 << 4)
        for m in range(1 << 4):
            # value depends on the pair {0,1} only through how many are present
            key = (bin(m & 0b0011).count("1"), m >> 2)
            table[m] = base[key[0] * 4 + key[1]]
        game = synthetic_game(4, table=table)
        res = exact_shapley(game)
        assert abs(res.scores[0] - res.scores[1]) < 1e-12

    def test_monotonicity(self):
        rng = np.random.default_rng(2)
        t1 = rng.normal(size=1 << 4)
        bump = np.zeros(1 << 4)
        for m in range(1 << 4):
            if (m >> 1) & 1:
                bump[m] = rng.uniform(0.0, 1.0)  # raises every marginal of feature 1
        g1 = synthetic_game(4, table=t1)
        g2 = synthetic_game(4, table=t1 + bump)
        assert exact_shapley(g2).scores[1] >= exact_shapley(g1).scores[1]

    def test_constant_shift_cancels_exactly(self):
        # dyadic values keep float arithmetic exact under the shift
        rng = np.random.default_rng(3)
        table = rng.integers(-16, 16, size=1 << 5) / 8.0
        shifted = synthetic_game(5, table=table + 0.5)
        plain = synthetic_game(5, table=table)
        np.testing.assert_array_equal(
            exact_shapley(plain).scores, exact_shapley(shifted).scores
        )

    def test_limit_refusal_names_the_table(self):
        game = additive_game(np.ones(25))
        with pytest.raises(BudgetExceededError, match="subsets of exact Shapley on 25 features: 33554432,") as err:
            exact_shapley(game)
        assert err.value.count == 1 << 25
        assert game.eval_count == 0

    def test_reducer_takes_many_games(self):
        plan = attribution.exact_shapley_plan(6)
        values = np.random.default_rng(6).standard_normal((len(plan.subsets), 5))
        single = [plan.reduce(values[:, j].copy()) for j in range(5)]
        # BLAS may sum a matrix product in another order than a vector one
        np.testing.assert_allclose(plan.reduce(values), np.stack(single, axis=1), rtol=1e-13, atol=1e-15)

    def test_eval_count(self):
        game = synthetic_game(6, seed=0)
        res = exact_shapley(game)
        assert res.model_evaluations == 1 << 6


class TestLShapley:
    def test_equals_exact_when_k_covers_graph(self):
        rng = np.random.default_rng(5)
        for d in (3, 5, 7):
            g = chain_graph(d)
            game = synthetic_game(d, seed=int(rng.integers(1 << 30)))
            exact = exact_shapley(game).scores
            for i in range(d):
                assert l_shapley(game, g, i, d) == pytest.approx(exact[i], abs=1e-9)

    def test_chain_d3_middle_equals_exact(self):
        game = synthetic_game(3, seed=8)
        g = chain_graph(3)
        assert l_shapley(game, g, 1, 1) == pytest.approx(
            exact_shapley(game).scores[1], abs=1e-12
        )

    def test_k0_is_singleton_marginal(self):
        game = synthetic_game(4, seed=9)
        g = chain_graph(4)
        for i in range(4):
            expected = game(1 << i) - game(0)
            assert l_shapley(game, g, i, 0) == pytest.approx(expected, abs=1e-15)

    def test_all_matches_per_feature(self):
        game = synthetic_game(6, seed=10)
        g = chain_graph(6)
        res = l_shapley_all(game, g, 1)
        for i in range(6):
            assert res.scores[i] == pytest.approx(l_shapley(game, g, i, 1), abs=0)

    def test_interior_per_feature_evals_bound(self):
        for k in (1, 2):
            game = additive_game(np.ones(12))
            res = l_shapley_all(game, chain_graph(12), k)
            interior = res.per_feature_evaluations[1:-1]
            assert max(interior) <= 1 << (2 * k + 1)

    def test_chain_total_evals(self):
        game = additive_game(np.ones(10))
        res = l_shapley_all(game, chain_graph(10), 1)
        assert max(res.per_feature_evaluations) <= 8
        assert res.model_evaluations <= (1 << 2) * 10 + 4  # boundary slack

    def test_budget_error(self):
        # k=4 from the centre of a 5x5 grid holds all 25 nodes: 2^24 subsets,
        # refused before any is listed
        game = additive_game(np.ones(25))
        g = grid_graph(5, 5)
        with pytest.raises(BudgetExceededError, match="terms of node 12, whose neighbourhood holds 25") as err:
            l_shapley(game, g, 12, 4)
        assert err.value.count == 1 << 24
        assert game.eval_count == 0

    def test_d1(self):
        game = synthetic_game(1, table=np.array([1.0, 3.0]))
        res = l_shapley_all(game, chain_graph(1), 2)
        assert res.scores[0] == pytest.approx(2.0)

    def test_terms_run_from_the_whole_neighbourhood_down(self):
        # the order every L-Shapley sum adds its terms in, and so its bits
        masks = [mask for mask, _ in l_shapley_terms(chain_graph(5), 2, 1)]
        assert masks == [0b1110, 0b1100, 0b0110, 0b0100]


class CountingGame(FunctionGame):
    """Deterministic pseudo-random game that counts its batched evaluations."""

    def __init__(self, d: int):
        super().__init__(d, lambda m: (m * 2654435761 % 1000003) / 1000003.0)
        self.calls = 0

    def _evaluate_many(self, masks):
        self.calls += 1
        return super()._evaluate_many(masks)


def _per_feature_alone(estimator, make_game, g, k):
    """Distinct subsets each feature adds when features are valued one call
    at a time, in order, against one shared game."""
    game = make_game()
    counts = []
    for i in range(g.d):
        before = game.eval_count
        estimator(game, g, i, k)
        counts.append(game.eval_count - before)
    return counts


class TestBatchedPlan:
    @pytest.mark.parametrize("all_fn,terms_fn", [(l_shapley_all, l_shapley_terms), (c_shapley_all, c_shapley_terms)])
    def test_model_calls_fill_full_batches(self, all_fn, terms_fn):
        d, k = 400, 2
        g = chain_graph(d)
        game = CountingGame(d)
        all_fn(game, g, k)
        terms = sum(len(terms_fn(g, i, k)) for i in range(d))
        assert game.calls <= -(-2 * terms // DEFAULT_BATCH_SIZE) + 1

    @pytest.mark.parametrize("all_fn,one_fn", [(l_shapley_all, l_shapley), (c_shapley_all, c_shapley)])
    @pytest.mark.parametrize("d,k", [(7, 3), (40, 2), (9, 0)])
    def test_per_feature_evaluations_match_one_feature_at_a_time(self, all_fn, one_fn, d, k):
        # a value function also values its unmasked instance on first use;
        # at d=7, k=3 some neighborhoods cover every feature, so the full set
        # is requested again by a later feature of the same batch
        nb = build_demo_nb()
        doc = two_topic_corpus(5, 1, doc_len=d)[0][0]

        def make_game():
            return ValueFunction(nb, Instance(doc, np.zeros(d, dtype=int)))

        g = chain_graph(d)
        game = make_game()
        res = all_fn(game, g, k)
        assert res.per_feature_evaluations == _per_feature_alone(one_fn, make_game, g, k)
        assert sum(res.per_feature_evaluations) == res.model_evaluations == game.eval_count
        for i in range(d):
            assert res.scores[i] == one_fn(make_game(), g, i, k)

    @pytest.mark.parametrize("all_fn,terms_fn", [(l_shapley_all, l_shapley_terms), (c_shapley_all, c_shapley_terms)])
    def test_flush_at_the_model_batch_size(self, all_fn, terms_fn):
        # a model that declares a batch size gets blocks of that many rows;
        # the blocks grow with it and leave every output as it was
        class WideModel:
            batch_size = 1024

            def __init__(self, inner):
                self.inner = inner
                self.num_classes = inner.num_classes
                self.calls = 0

            def evaluate_batch(self, values):
                self.calls += 1
                return self.inner.evaluate_batch(values)

        d, k = 100, 2
        nb = build_demo_nb()
        x = Instance(two_topic_corpus(8, 1, doc_len=d)[0][0], np.zeros(d, dtype=int))
        g = chain_graph(d)
        wide = WideModel(nb)
        narrow = WideModel(nb)
        narrow.batch_size = DEFAULT_BATCH_SIZE
        results = [all_fn(ValueFunction(model, x), g, k) for model in (narrow, wide)]
        assert results[0].scores.tolist() == results[1].scores.tolist()
        assert results[0].per_feature_evaluations == results[1].per_feature_evaluations
        assert results[0].model_evaluations == results[1].model_evaluations
        terms = sum(len(terms_fn(g, i, k)) for i in range(d))
        # the unmasked instance is one call of its own
        assert wide.calls <= -(-2 * terms // 1024) + 1 < narrow.calls

    @pytest.mark.parametrize("all_fn,terms_fn", [(l_shapley_all, l_shapley_terms), (c_shapley_all, c_shapley_terms)])
    def test_over_budget_raises_before_any_model_call(self, all_fn, terms_fn, monkeypatch):
        # a chain of 40 whose last node also holds 12 leaves: under a limit of
        # 1000, only that hub's 2^13 subsets are over it, and the features
        # before it ask for more subsets than a model batch holds.  The graph
        # is fresh, so no plan of it was kept under the real limit.
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", 1000)
        d, k = 52, 1
        g = general_graph(d, [(j, j + 1) for j in range(39)] + [(39, 40 + j) for j in range(12)])
        assert sum(2 * len(terms_fn(g, i, k)) for i in range(39)) > DEFAULT_BATCH_SIZE

        class Recording:
            def __init__(self, inner):
                self.inner = inner
                self.num_classes = inner.num_classes
                self.calls = 0

            def evaluate_batch(self, values):
                self.calls += 1
                return self.inner.evaluate_batch(values)

        model = Recording(build_demo_nb())
        vf = ValueFunction(model, Instance(two_topic_corpus(3, 1, doc_len=d)[0][0], np.zeros(d, dtype=int)))
        with pytest.raises(BudgetExceededError, match="node 39") as err:
            all_fn(vf, g, k)
        # L refuses the hub's 2^13 terms before listing them; C stops its
        # listing at the first subset over the limit of 1000
        assert err.value.count == (1 << 13 if all_fn is l_shapley_all else 1001)
        assert model.calls == 0 and vf.eval_count == 0

    def test_warm_cache_charges_only_new_subsets(self):
        g = chain_graph(30)
        game = CountingGame(30)
        first = l_shapley_all(game, g, 1)
        again = l_shapley_all(game, g, 1)
        assert again.per_feature_evaluations == [0] * 30 and again.model_evaluations == 0
        np.testing.assert_array_equal(again.scores, first.scores)


class TestCShapley:
    @pytest.mark.parametrize("weighting", ["myerson", "interior"])
    @pytest.mark.parametrize("g", [chain_graph(6), grid_graph(3, 4)], ids=["chain6", "grid3x4"])
    def test_all_matches_per_feature(self, weighting, g):
        game = synthetic_game(g.d, seed=10)
        res = c_shapley_all(game, g, 2, weighting=weighting)
        for i in range(g.d):
            assert res.scores[i] == pytest.approx(c_shapley(game, g, i, 2, weighting), abs=0)

    def test_interior_coefficients(self):
        assert interior_subset_weight(1) == pytest.approx(1 / 3)
        assert interior_subset_weight(2) == pytest.approx(1 / 12)
        assert interior_subset_weight(3) == pytest.approx(1 / 30)
        # the paper's interior formula, bit for bit
        for u in range(1, 400):
            assert interior_subset_weight(u) == 2.0 / ((u + 2) * (u + 1) * u)

    def test_coefficients_are_the_written_out_shapley_weights(self):
        for size in range(1, 400):
            for boundary in range(60):
                s = size + boundary - 1
                assert connected_subset_weight(size, boundary) == 1.0 / ((s + 1) * math.comb(s, size - 1))
        for d in range(1, 21):
            w = exact_shapley_weights(d)
            assert all(w[s] == 1.0 / (d * math.comb(d - 1, s - 1)) for s in range(1, d + 1))

    def test_myerson_weights_reduce_to_interior_form(self):
        # a subset with two blocked neighbors gets exactly the interior weight
        for size in (1, 2, 3, 5):
            assert connected_subset_weight(size, 2) == pytest.approx(
                interior_subset_weight(size), abs=1e-15
            )

    def test_interior_mode_chain_boundary_example(self):
        # order-1 estimate at the chain end under the fixed interior weighting:
        # (1/3) m({0}, 0) + (1/12) m({0,1}, 0)
        game = synthetic_game(3, seed=11)
        g = chain_graph(3)
        t = game.table
        expected = (t[0b001] - t[0b000]) / 3 + (t[0b011] - t[0b010]) / 12
        assert c_shapley(game, g, 0, 1, weighting="interior") == pytest.approx(
            expected, abs=1e-12
        )

    def test_weightings_agree_exactly_on_fully_interior_subsets(self):
        # a subset whose in-window boundary has two nodes carries the interior
        # coefficient under both weightings
        g = chain_graph(9)
        window = subset_of([3, 4, 5])
        t_my = dict(c_shapley_terms(g, 4, 1, "myerson"))
        t_in = dict(c_shapley_terms(g, 4, 1, "interior"))
        singleton = subset_of([4])  # boundary {3, 5} lies inside the window
        assert t_my[singleton] == pytest.approx(t_in[singleton], abs=1e-15)
        assert t_my[window] != pytest.approx(t_in[window])  # window itself is blocked by nothing

    def test_order_d_equals_myerson_on_decomposable_games(self):
        for seed in range(5):
            g = chain_graph(6)
            game = decomposable_chain_game(6, g, seed)
            mv = myerson_value(game, g).scores
            for i in range(6):
                assert c_shapley(game, g, i, 6) == pytest.approx(mv[i], abs=1e-9)

    def test_order_diameter_equals_myerson_on_grid(self):
        from shapgraph.graphs import diameter

        g = grid_graph(2, 3)
        for seed in range(4):
            game = GraphRestrictedGame(synthetic_game(6, seed=seed), g)
            mv = myerson_value(game, g).scores
            k = diameter(g)
            for i in range(6):
                assert c_shapley(game, g, i, k) == pytest.approx(mv[i], abs=1e-9)

    def test_terms_stable_beyond_diameter(self):
        from shapgraph.graphs import diameter

        g = grid_graph(2, 3)
        for i in range(6):
            assert c_shapley_terms(g, i, diameter(g), "myerson") == c_shapley_terms(
                g, i, diameter(g) + 3, "myerson"
            )

    def test_chain_total_evals_scale(self):
        # distinct evaluations total roughly (k+1)^2 * d: (2k+1)d interval
        # masks shared across features plus ~k^2 d unshared holed masks
        for k in (3, 4):
            d = 64
            game = additive_game(np.ones(d))
            res = c_shapley_all(game, chain_graph(d), k)
            assert res.model_evaluations <= 2 * k * k * d
        game = additive_game(np.ones(64))
        res = c_shapley_all(game, chain_graph(64), 2)
        assert res.model_evaluations <= (2 + 1) ** 2 * 64

    def test_weighting_validation(self):
        game = synthetic_game(3, seed=0)
        with pytest.raises(ValueError, match="weighting"):
            c_shapley(game, chain_graph(3), 0, 1, weighting="bogus")

    def test_grid_runs(self):
        game = synthetic_game(9, seed=3)
        g = grid_graph(3, 3)
        res = c_shapley_all(game, g, 1)
        assert res.scores.shape == (9,)


class TestSampleShapley:
    def test_exhaustive_permutations_match_exact(self):
        # with few features, averaging over many sampled permutations of a
        # *telescoping* accumulation converges; the strict check uses the
        # independent permutation oracle
        for d in (3, 4):
            game = synthetic_game(d, seed=d)
            oracle = shapley_permutation_oracle(lambda m: game.table[m], d)
            exact = exact_shapley(game).scores
            np.testing.assert_allclose(oracle, exact, atol=1e-9)

    def test_additive_game_single_permutation_is_exact(self):
        coeffs = np.array([1.0, -2.0, 0.25, 4.0])
        res = sample_shapley(additive_game(coeffs), 1, seed=0)
        np.testing.assert_allclose(res.scores, coeffs, atol=1e-12)

    def test_fixed_seed_reproducible(self):
        a = sample_shapley(synthetic_game(6, seed=1), 20, seed=7)
        b = sample_shapley(synthetic_game(6, seed=1), 20, seed=7)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.seed == 7

    def test_converges_to_exact(self):
        game = synthetic_game(5, seed=2)
        exact = exact_shapley(game).scores
        approx = sample_shapley(synthetic_game(5, seed=2), 4000, seed=0).scores
        assert np.abs(approx - exact).max() < 0.05

    def test_needs_a_permutation(self):
        with pytest.raises(ValueError):
            sample_shapley(synthetic_game(3, seed=0), 0, seed=0)


class TestMyerson:
    def test_complete_graph_equals_exact(self):
        d = 5
        edges = [(i, j) for i in range(d) for j in range(i + 1, d)]
        g = general_graph(d, edges)
        game = synthetic_game(d, seed=13)
        np.testing.assert_allclose(
            myerson_value(game, g).scores,
            exact_shapley(synthetic_game(d, seed=13)).scores,
            atol=1e-12,
        )

    def test_additive_game_on_chain(self):
        coeffs = np.array([0.5, 2.0, -1.0, 3.0])
        res = myerson_value(additive_game(coeffs), chain_graph(4))
        np.testing.assert_allclose(res.scores, coeffs, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        game = synthetic_game(5, seed=14)
        g = general_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
        oracle = myerson_oracle(lambda m: game.table[m], 5, g.edges)
        np.testing.assert_allclose(myerson_value(game, g).scores, oracle, atol=1e-9)

    def test_kernel_path_equals_generic_path(self):
        game = synthetic_game(6, seed=15)
        g = grid_graph(2, 3)
        np.testing.assert_allclose(
            myerson_value(game, g).scores,
            myerson_oracle(lambda m: game.table[m], 6, g.edges),
            atol=1e-12,
        )

    def test_restricted_game_efficiency(self):
        # on a connected graph the full set is one component, so the scores
        # sum to v(full) - v(empty) exactly as for the exact Shapley value
        g = chain_graph(5)
        game = synthetic_game(5, seed=16)
        res = myerson_value(game, g)
        total = game((1 << 5) - 1) - game(0)
        assert abs(res.scores.sum() - total) < 1e-9

    def test_restricted_wrapper_matches_kernel_table(self):
        g = chain_graph(4)
        game = synthetic_game(4, seed=20)
        wrapped = GraphRestrictedGame(synthetic_game(4, seed=20), g, normalize_empty=True)
        from shapgraph import _kernels
        import numpy as np_

        comp = _kernels.lowbit_component_masks(np_.asarray(g.adjacency, dtype=np_.int64), 4)
        baseline = game(0)
        connected = np_.unique(comp[1:])
        raw = np_.zeros(16)
        raw[connected] = game.scores([int(c) for c in connected]) - baseline
        table = _kernels.component_sum_table(comp, raw)
        np.testing.assert_allclose(wrapped.scores(range(16)), table, atol=1e-12)

    def test_evaluates_connected_subsets_only(self):
        d = 6
        game = synthetic_game(d, seed=17)
        res = myerson_value(game, chain_graph(d))
        # every interval of the chain plus the empty-set baseline
        assert res.model_evaluations == d * (d + 1) // 2 + 1

    def test_limit_refusal(self):
        game = additive_game(np.ones(21))
        with pytest.raises(BudgetExceededError, match="Myerson value on 21 features") as err:
            myerson_value(game, chain_graph(21))
        assert err.value.count == 1 << 21
        assert game.eval_count == 0


class TestShiftInvarianceAcrossMethods:
    def test_all_methods_unchanged_by_constant_shift(self):
        rng = np.random.default_rng(18)
        table = rng.integers(-32, 32, size=1 << 5) / 16.0  # dyadic
        g = chain_graph(5)

        def run_all(t):
            game = synthetic_game(5, table=t)
            out = [exact_shapley(game).scores]
            out.append(l_shapley_all(game, g, 1).scores)
            out.append(c_shapley_all(game, g, 1).scores)
            out.append(sample_shapley(synthetic_game(5, table=t), 10, seed=3).scores)
            out.append(myerson_value(synthetic_game(5, table=t), g).scores)
            return out

        for a, b in zip(run_all(table), run_all(table + 2.0)):
            np.testing.assert_array_equal(a, b)


def _terms(method, g, i, k, weighting):
    if method == "c_shapley":
        return c_shapley_terms(g, i, k, weighting)
    return l_shapley_terms(g, i, k)


# features 2 and 5 have neighbourhoods of one shape at k=2, but 2 hangs off
# the middle of its neighbourhood's path and 5 off its end
SHARED_LOCAL_KEY = general_graph(6, [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5)])
LOCAL_GRAPHS = {
    "chain1": (chain_graph(1), range(4)),
    "chain2": (chain_graph(2), range(4)),
    "chain7": (chain_graph(7), range(4)),
    "chain400": (chain_graph(400), range(4)),
    "grid3x4": (grid_graph(3, 4), range(4)),
    "grid10x10": (grid_graph(10, 10), range(3)),
    "general6": (SHARED_LOCAL_KEY, range(4)),
    "general9": (general_graph(9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7), (7, 8), (8, 6), (1, 7)]), range(4)),
}


class TestTermTemplates:
    """The all-features plans sum exactly each feature's own terms, in
    their order, and keep the plans of one graph apart."""

    @pytest.mark.parametrize("method,weighting", [("l_shapley", None), ("c_shapley", "myerson"), ("c_shapley", "interior")])
    @pytest.mark.parametrize("name", list(LOCAL_GRAPHS))
    def test_plan_equals_per_feature_terms(self, name, method, weighting):
        g, ks = LOCAL_GRAPHS[name]
        game = FunctionGame(g.d, lambda m: math.sin(m % 1_000_003) + 0.125 * m.bit_count())
        for k in ks:
            if name == "grid10x10" and method == "l_shapley" and k == 2:
                continue  # 2^12 subsets per feature: slow to list term by term
            plan = attribution.local_plan(method, g, k, weighting)
            res = plan.run(game)
            needed = set()
            for i in range(g.d):
                terms = _terms(method, g, i, k, weighting)
                needed.update(m for mask, _ in terms for m in (mask, mask & ~(1 << i)))
                assert res.scores[i] == weighted_marginal(game, i, terms)
            assert len(plan.subsets) == len(needed)

    def test_shared_local_key_with_different_subgraphs(self):
        g, k = SHARED_LOCAL_KEY, 2
        for i in (2, 5):
            nbhd = k_neighborhood(g, i, k)
            lo = (nbhd & -nbhd).bit_length() - 1
            assert (i - lo, nbhd >> lo) == (2, 0b111)
        game = FunctionGame(g.d, lambda m: math.sin(m) + 0.125 * m.bit_count())
        for weighting in ("myerson", "interior"):
            shifted = [[(m >> lo, w) for m, w in c_shapley_terms(g, i, k, weighting)] for i, lo in ((2, 0), (5, 3))]
            assert shifted[0] != shifted[1]  # one shape of neighbourhood, two term lists
            res = attribution.local_plan("c_shapley", g, k, weighting).run(game)
            for i in (2, 5):
                assert res.scores[i] == weighted_marginal(game, i, c_shapley_terms(g, i, k, weighting))
                single = attribution.local_plan("c_shapley", g, k, weighting, [i]).run(game)
                assert single.scores[i] == res.scores[i]

    def test_one_graph_across_weightings_and_orders(self):
        g = grid_graph(3, 4)
        for k, weighting in ((2, "myerson"), (2, "interior"), (3, "interior"), (3, "myerson"), (2, "myerson")):
            game = synthetic_game(g.d, seed=10)
            res = c_shapley_all(game, g, k, weighting=weighting)
            for i in range(g.d):
                expected = weighted_marginal(game, i, c_shapley_terms(g, i, k, weighting))
                assert res.scores[i] == expected
        for k in (1, 2, 1):
            game = synthetic_game(g.d, seed=11)
            res = l_shapley_all(game, g, k)
            for i in range(g.d):
                assert res.scores[i] == weighted_marginal(game, i, l_shapley_terms(g, i, k))

    def test_plan_build_keeps_masks_off_python_ints(self):
        import tracemalloc

        g = grid_graph(10, 10)
        tracemalloc.start()
        try:
            attribution.local_plan("c_shapley", g, 2, "myerson")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 8 MB with each feature's terms packed on their own; packing
        # every feature's masks as Python ints first peaked at about 23 MB
        assert peak < 12_000_000, peak

    @pytest.mark.parametrize("method,weighting", [("l_shapley", None), ("c_shapley", "myerson")])
    @pytest.mark.parametrize("graph,k", [("chain12", 1), ("chain12", 2), ("grid3x4", 1)])
    def test_reducer_of_many_games_stacks_single_reductions(self, graph, k, method, weighting):
        g = chain_graph(12) if graph == "chain12" else grid_graph(3, 4)
        plan = attribution.local_plan(method, g, k, weighting)
        values = np.random.default_rng(k).standard_normal((len(plan.subsets), 5))
        single = [plan.reduce(values[:, j].copy()) for j in range(5)]
        np.testing.assert_array_equal(plan.reduce(values), np.stack(single, axis=1))


def _built(*args, **kwargs):
    raise AssertionError("a table was built past the limit")


def _uniform_joint(d: int) -> "theory.DiscreteJoint":
    """A one-class joint on d features, its table built without a draw."""
    return theory.DiscreteJoint(d, 1, np.full((1 << d, 1), 1.0 / (1 << d)))


def _random_joint5(game):
    return theory.random_joint(5, 2, 0)


class TestEnumerationLimit:
    """``graphs.check_size`` is the one check against
    ``graphs.ENUMERATION_LIMIT``, read at call time, and every table the
    package builds passes through it: subsets, plan rows, design rows,
    permutation prefixes, atoms, or (mask, assignment) pairs.  A table at
    the limit is built; one over it is refused with a
    ``BudgetExceededError`` whose ``count`` is the keys it needed, before any
    model call or table draw."""

    # name: (keys of the largest table, the call on a 5-feature game, and
    # what the refusal must come before)
    CASES = {
        "exact": (1 << 5, exact_shapley, ()),
        "kernelshap-exhaustive": ((1 << 5) - 2, lambda game: regression.kernelshap(game, 0, exhaustive=True), ()),
        # 5 design rows of each size 1 to 4, by kernel mass
        "kernelshap-sampled": (20, lambda game: regression.kernelshap(game, 20), ((np.random, "default_rng"),)),
        # feature 2's neighbourhood is the whole chain: 2^4 terms hold it
        "l-shapley": (1 << 4, lambda game: l_shapley_terms(chain_graph(5), 2, 2), ()),
        # and 3 x 3 intervals of it hold feature 2
        "c-shapley": (9, lambda game: c_shapley_terms(chain_graph(5), 2, 2), ()),
        # S and S minus i of 4 + 8 + 16 + 8 + 4 terms
        "l-plan": (80, lambda game: l_shapley_all(game, chain_graph(5), 2), ()),
        # of 3 + 6 + 9 + 6 + 3 terms
        "c-plan": (54, lambda game: c_shapley_all(game, chain_graph(5), 2), ()),
        # the one-feature plans of feature 2
        "l-plan-one-feature": (2 << 4, lambda game: l_shapley(game, chain_graph(5), 2, 2), ()),
        "c-plan-one-feature": (2 * 9, lambda game: c_shapley(game, chain_graph(5), 2, 2), ()),
        # intervals of length 1 to 4
        "regression-c": (5 + 4 + 3 + 2, lambda game: regression.regression_c_shapley(game, chain_graph(5), 4), ()),
        # 3 permutations of 6 prefixes each
        "permutations": (3 * 6, lambda game: sample_shapley(game, 3, 0), ((np.random, "default_rng"),)),
        "myerson": (1 << 5, lambda game: myerson_value(game, chain_graph(5)), ()),
        "random-joint": (1 << 5, _random_joint5, ((np.random, "default_rng"),)),
        "markov-joint": (
            1 << 5,
            lambda game: models.markov_label_model(0, 5, 0.5),
            ((np.random, "default_rng"), (models.MarkovLabelModel, "dense_joint")),
        ),
        "epsilon-l": (
            3**5,
            lambda game: theory.epsilon_for_lshapley(_random_joint5(game), chain_graph(5), 2, 0b00100),
            ((theory, "_MarginalTable"),),
        ),
        "epsilon-c": (
            3**5,
            lambda game: theory.epsilon_for_cshapley(_random_joint5(game), chain_graph(5), 2, 0b01110),
            ((theory, "_MarginalTable"),),
        ),
        "theorem1": (
            4**5,
            lambda game: theory.verify_theorem1(_random_joint5(game), chain_graph(5), 2, 1),
            ((theory, "_MarginalTable"), (theory, "value_matrix")),
        ),
        "theorem2": (
            4**5,
            lambda game: theory.verify_theorem2(_random_joint5(game), chain_graph(5), 2, 1),
            ((theory, "_MarginalTable"), (theory, "value_matrix")),
        ),
        "value-matrix": (4**5, lambda game: theory.value_matrix(_uniform_joint(5)), ((theory, "_MarginalTable"),)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_table_is_capped_by_the_one_limit(self, case, monkeypatch):
        keys, call, built_after = self.CASES[case]
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", keys)
        call(CountingGame(5))  # at the limit, built
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", keys - 1)
        for owner, name in built_after:
            monkeypatch.setattr(owner, name, _built)
        game = CountingGame(5)
        with pytest.raises(BudgetExceededError, match=f": {keys}, over the limit of {keys - 1}$") as err:
            call(game)
        assert err.value.count == keys
        assert game.calls == 0

    @pytest.mark.parametrize(
        "call,largest",
        [
            (lambda d: myerson_value(CountingGame(d), chain_graph(d)), 20),
            (lambda d: theory.random_joint(d, 2, 0), 20),
            (lambda d: models.markov_label_model(0, d, 0.5), 20),
            (lambda d: theory.epsilon_for_lshapley(_uniform_joint(d), chain_graph(d), 0, 1), 12),
            (lambda d: theory.verify_theorem1(_uniform_joint(d), chain_graph(d), 0, 1), 10),
            (lambda d: theory.value_matrix(_uniform_joint(d)), 10),
        ],
        ids=["myerson", "random-joint", "markov-joint", "epsilon", "theorem", "value-matrix"],
    )
    def test_the_default_limit_admits_the_largest_d_and_refuses_one_more(self, call, largest, monkeypatch):
        assert graphs.ENUMERATION_LIMIT == 1 << 20
        call(largest)
        monkeypatch.setattr(theory, "_MarginalTable", _built)
        with pytest.raises(BudgetExceededError, match=f"on {largest + 1} features"):
            call(largest + 1)

    @pytest.mark.parametrize(
        "call,keys",
        [
            # 25575 permutations of 41 prefixes fit in 2^20, 25576 do not
            (lambda: attribution.sample_shapley_plan(40, 25576, 0), 25576 * 41),
            (lambda: regression.kernelshap_plan(40, (1 << 20) + 1), (1 << 20) + 1),
        ],
        ids=["permutations", "kernelshap-sampled"],
    )
    def test_the_default_limit_refuses_a_sampled_plan_before_any_draw(self, call, keys, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", _built)
        with pytest.raises(BudgetExceededError, match="on 40 features") as err:
            call()
        assert err.value.count == keys

    def test_dense_plans_refuse_d21_before_listing(self, monkeypatch):
        def listed(*args, **kwargs):
            raise AssertionError("subsets were listed")

        monkeypatch.setattr(attribution.Plan, "of_masks", listed)
        monkeypatch.setattr(regression, "_fit_plan", listed)
        with pytest.raises(BudgetExceededError, match="exact Shapley on 21 features: 2097152,"):
            attribution.exact_shapley_plan(21)
        with pytest.raises(BudgetExceededError, match="exhaustive KernelSHAP on 21 features: 2097150,"):
            regression.kernelshap_plan(21, 0, exhaustive=True)


def _nb_games(d: int, n: int) -> list[ValueFunction]:
    nb = build_demo_nb()
    return [ValueFunction(nb, Instance(doc, np.zeros(d, dtype=int))) for doc, _ in two_topic_corpus(11, n, doc_len=d)]


class TestPlanCache:
    """The exact plan of the last d and the Myerson plan of each graph are
    built once; the seeded planners plan afresh on every call."""

    def test_exact_plan_is_kept_for_the_last_d(self):
        plan = attribution.exact_shapley_plan(6)
        assert attribution.exact_shapley_plan(6) is plan
        attribution.exact_shapley_plan(5)
        assert attribution.exact_shapley_plan(6) is not plan

    def test_myerson_plan_is_kept_on_the_graph(self):
        g = grid_graph(2, 3)
        plan = attribution.myerson_plan(g)
        assert attribution.myerson_plan(g) is plan
        assert attribution.myerson_plan(grid_graph(2, 3)) is not plan

    def test_seeded_planners_plan_afresh(self):
        assert attribution.sample_shapley_plan(6, 3, 0) is not attribution.sample_shapley_plan(6, 3, 0)
        assert harness.random_plan(6, 0) is not harness.random_plan(6, 0)

    def test_a_lowered_limit_refuses_a_kept_plan(self, monkeypatch):
        attribution.exact_shapley_plan(5)
        g = chain_graph(5)
        attribution.myerson_plan(g)
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", (1 << 5) - 1)
        with pytest.raises(BudgetExceededError, match="on 5 features"):
            attribution.exact_shapley_plan(5)
        with pytest.raises(BudgetExceededError, match="on 5 features"):
            attribution.myerson_plan(g)

    @pytest.mark.parametrize("method", ["exact", "myerson"])
    def test_a_shared_plan_scores_as_a_fresh_one(self, method):
        # instance b after instance a on one kept plan, and b alone on a cold cache
        d = 9

        def plan(g):
            return attribution.exact_shapley_plan(d) if method == "exact" else attribution.myerson_plan(g)

        attribution._exact_plan.cache_clear()
        cold = plan(grid_graph(3, 3)).run(_nb_games(d, 2)[1])
        attribution._exact_plan.cache_clear()
        a, b = _nb_games(d, 2)
        g = grid_graph(3, 3)
        plan(g).run(a)
        warm = plan(g).run(b)
        assert warm.scores.tobytes() == cold.scores.tobytes()
        assert warm.model_evaluations == cold.model_evaluations
