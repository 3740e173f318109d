import numpy as np
import pytest

from shapgraph import (
    ConfigurationError,
    EvaluationError,
    Instance,
    ValueFunction,
    empirical_conditional,
    importance_score,
    marginal_contribution,
    plugin_masked_instance,
    subset_of,
    chain_graph,
    l_shapley_all,
    synthetic_game,
)
from shapgraph.graphs import member_matrix
from shapgraph.models import UniformModel
from shapgraph.valuation import TableGame, additive_game


class OneHotModel:
    """Deterministic classifier: always class 0 with probability one."""

    num_classes = 3

    def evaluate_batch(self, values):
        out = np.full((len(values), 3), np.log(1e-12))
        out[:, 0] = 0.0
        # normalize so exp sums to 1 within tolerance
        return out - np.log(np.exp(out).sum(axis=1, keepdims=True))


class TokenSumModel:
    """Two classes, logit equal to the sum of feature values."""

    num_classes = 2

    def evaluate_batch(self, values):
        values = np.asarray(values, dtype=float)
        logit = values.sum(axis=1)
        scores = np.stack([np.zeros_like(logit), logit], axis=1)
        return scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))


def make_instance(d=4):
    return Instance(np.arange(1, d + 1, dtype=float), np.zeros(d))


class TestPluginMasking:
    def test_full_set_is_identity(self):
        x = make_instance()
        out = plugin_masked_instance(x, (1 << 4) - 1)
        np.testing.assert_array_equal(out.values, x.values)

    def test_empty_set_is_reference(self):
        x = make_instance()
        out = plugin_masked_instance(x, 0)
        np.testing.assert_array_equal(out.values, x.reference)

    def test_componentwise_example(self):
        x = Instance(np.array([5, 7, 9]), np.zeros(3))
        out = plugin_masked_instance(x, subset_of([1]))
        np.testing.assert_array_equal(out.values, [0, 7, 0])

    def test_componentwise_property_randomized(self):
        rng = np.random.default_rng(0)
        x = Instance(rng.normal(size=8), rng.normal(size=8))
        for _ in range(50):
            s = int(rng.integers(0, 1 << 8))
            out = plugin_masked_instance(x, s)
            for j in range(8):
                expected = x.values[j] if (s >> j) & 1 else x.reference[j]
                assert out.values[j] == expected

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Instance(np.zeros(3), np.zeros(4))


class TestEmpiricalConditional:
    def test_full_subset_ignores_pool(self):
        x = make_instance()
        model = TokenSumModel()
        pool = np.random.default_rng(1).normal(size=(10, 4))
        probs = empirical_conditional(x, (1 << 4) - 1, model, pool, 5, seed=0)
        direct = np.exp(model.evaluate_batch(x.values[None, :])[0])
        np.testing.assert_allclose(probs, direct, atol=1e-12)

    def test_degenerate_pool(self):
        x = make_instance()
        model = TokenSumModel()
        probs = empirical_conditional(x, 0, model, x.values[None, :], 1, seed=0)
        direct = np.exp(model.evaluate_batch(x.values[None, :])[0])
        np.testing.assert_allclose(probs, direct, atol=1e-12)

    def test_two_point_pool_converges_to_average(self):
        model = TokenSumModel()
        x = make_instance()
        a = np.zeros(4)
        b = np.ones(4)
        pool = np.stack([a, b])
        m = 10000
        probs = empirical_conditional(x, 0, model, pool, m, seed=42)
        target = (np.exp(model.evaluate_batch(a[None]))[0] + np.exp(model.evaluate_batch(b[None]))[0]) / 2
        assert np.abs(probs - target).max() <= 3 / np.sqrt(m)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_conditional(make_instance(), 0, TokenSumModel(), np.empty((0, 4)), 3, 0)


class TestImportanceScore:
    def test_deterministic_model_full_set_scores_zero(self):
        x = make_instance()
        for mode in ("expected_logprob", "predicted_class_logprob"):
            vf = ValueFunction(OneHotModel(), x, mode=mode)
            assert abs(vf((1 << 4) - 1)) < 1e-9

    def test_uniform_model_scores_log_c(self):
        x = make_instance()
        vf = ValueFunction(UniformModel(5), x)
        for s in (0, 3, 9, 15):
            assert abs(importance_score(vf, s) + np.log(5)) < 1e-12

    def test_predicted_mode_scores_nonpositive(self):
        rng = np.random.default_rng(2)
        x = Instance(rng.normal(size=5), np.zeros(5))
        vf = ValueFunction(TokenSumModel(), x)
        for s in range(1 << 5):
            assert vf(s) <= 1e-15

    def test_expected_mode_invariant_to_class_permutation(self):
        class Permuted:
            num_classes = 2

            def __init__(self, inner):
                self.inner = inner

            def evaluate_batch(self, values):
                return self.inner.evaluate_batch(values)[:, ::-1]

        x = make_instance()
        base = ValueFunction(TokenSumModel(), x, mode="expected_logprob")
        perm = ValueFunction(Permuted(TokenSumModel()), x, mode="expected_logprob")
        for s in range(1 << 4):
            assert abs(base(s) - perm(s)) < 1e-12

    def test_eval_count_is_distinct_subsets(self):
        x = make_instance()
        vf = ValueFunction(TokenSumModel(), x)
        vf.scores([3, 5, 3, 0, 5])
        # the full mask is always evaluated first to anchor the predicted class
        assert vf.eval_count == 4
        vf.scores([3, 0])
        assert vf.eval_count == 4

    def test_prepare_values_the_full_instance_once(self):
        vf = ValueFunction(TokenSumModel(), make_instance())
        assert 15 not in vf and vf.eval_count == 0
        vf.prepare()
        vf.prepare()
        assert 15 in vf and vf.eval_count == 1
        vf.scores([3, 15])
        assert vf.eval_count == 2 and 3 in vf

    def test_memoization_transparency(self):
        x = make_instance()
        cached = ValueFunction(TokenSumModel(), x)
        queries = [5, 1, 5, 0, 15, 7, 1]
        got = cached.scores(queries)
        fresh = [ValueFunction(TokenSumModel(), x)(q) for q in queries]
        np.testing.assert_allclose(got, fresh, atol=0)

    def test_batching_matches_unbatched(self):
        x = make_instance()
        small = ValueFunction(TokenSumModel(), x, batch_size=2)
        big = ValueFunction(TokenSumModel(), x, batch_size=512)
        masks = list(range(16))
        np.testing.assert_allclose(small.scores(masks), big.scores(masks), atol=0)

    def test_scores_bounded_by_log_floor_even_for_saturated_models(self):
        class Saturated:
            num_classes = 2

            def evaluate_batch(self, values):
                # drives the off-class probability to numerical zero
                keep = np.asarray(values).sum(axis=1) > 2
                logit = np.where(keep, 900.0, -900.0)
                scores = np.stack([np.zeros_like(logit), logit], axis=1)
                return scores - np.log(np.exp(scores - scores.max(1, keepdims=True)).sum(1, keepdims=True)) - scores.max(1, keepdims=True)

        x = Instance(np.ones(4), np.zeros(4))
        floor = np.log(1e-12)
        for mode in ("expected_logprob", "predicted_class_logprob"):
            vf = ValueFunction(Saturated(), x, mode=mode)
            for s in range(1 << 4):
                val = vf(s)
                assert floor - 1e-9 <= val <= 0.0

    def test_model_failure_carries_subset_context(self):
        class Broken:
            num_classes = 2

            def evaluate_batch(self, values):
                raise RuntimeError("boom")

        vf = ValueFunction(Broken(), make_instance())
        with pytest.raises(EvaluationError, match="subset"):
            vf(3)

    def test_nan_log_probs_raise_instead_of_nan_scores(self):
        class NaNModel:
            num_classes = 2

            def evaluate_batch(self, values):
                return np.full((len(values), 2), np.nan)

        g = chain_graph(6)
        vf = ValueFunction(NaNModel(), Instance(np.arange(1.0, 7.0), np.zeros(6)))
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 1, 2, 3, 4, 5\).*NaN"):
            l_shapley_all(vf, g, 1)

    def test_extra_class_column_raises_instead_of_zero_scores(self):
        class ThreeColumns:
            num_classes = 2

            def evaluate_batch(self, values):
                return np.full((len(values), 3), np.log(1 / 3))

        g = chain_graph(6)
        vf = ValueFunction(ThreeColumns(), Instance(np.arange(1.0, 7.0), np.zeros(6)))
        with pytest.raises(EvaluationError, match=r"subsets \[.*shape \(1, 2\), got \(1, 3\)"):
            l_shapley_all(vf, g, 1)

    def test_minus_inf_log_probs_are_floored(self):
        class Certain:
            num_classes = 2

            def evaluate_batch(self, values):
                out = np.zeros((len(values), 2))
                out[:, 1] = -np.inf
                return out

        vf = ValueFunction(Certain(), make_instance(), mode="expected_logprob")
        assert vf(0) == 0.0


class TestEmpiricalEstimator:
    def test_scores_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        pool = rng.normal(size=(20, 4))
        x = make_instance()
        a = ValueFunction(TokenSumModel(), x, estimator="empirical", pool=pool, seed=5)
        b = ValueFunction(TokenSumModel(), x, estimator="empirical", pool=pool, seed=5)
        masks = [0, 3, 9, 15]
        np.testing.assert_array_equal(a.scores(masks), b.scores(masks))
        c = ValueFunction(TokenSumModel(), x, estimator="empirical", pool=pool, seed=6)
        assert not np.array_equal(a.scores(masks), c.scores(masks))

    def test_one_sample_set_reused_across_subsets(self):
        calls = []

        class Recording:
            num_classes = 2

            def evaluate_batch(self, values):
                calls.append(np.asarray(values).copy())
                return np.full((len(values), 2), np.log(0.5))

        pool = np.arange(40.0).reshape(10, 4)
        x = make_instance()
        vf = ValueFunction(Recording(), x, estimator="empirical", pool=pool, m_samples=8, seed=0)
        vf.scores([0b0001, 0b0010])
        # calls[0] probes the full mask; calls[1] is one 16-row block holding
        # the 8 fixed hybrid rows of each of the two subsets, in subset order
        assert len(calls) == 2
        assert len(calls[1]) == 16
        first, second = calls[1][:8], calls[1][8:]
        np.testing.assert_array_equal(first[:, 0], np.full(8, x.values[0]))  # kept position
        np.testing.assert_array_equal(second[:, 1], np.full(8, x.values[1]))
        # positions outside both subsets come from the same fixed pool draw
        np.testing.assert_array_equal(first[:, 2:], second[:, 2:])

    def test_pool_width_must_match_instance(self):
        with pytest.raises(ConfigurationError, match="4 features"):
            ValueFunction(TokenSumModel(), make_instance(), estimator="empirical", pool=np.zeros((5, 3)))

    def test_full_mask_matches_plugin(self):
        pool = np.random.default_rng(7).normal(size=(6, 4))
        x = make_instance()
        emp = ValueFunction(TokenSumModel(), x, estimator="empirical", pool=pool, seed=1)
        plg = ValueFunction(TokenSumModel(), x)
        assert emp((1 << 4) - 1) == pytest.approx(plg((1 << 4) - 1), abs=1e-12)

    def test_empty_subset_estimates_prior(self):
        # with the empirical estimator, scoring the empty subset averages the
        # model over pool rows rather than evaluating a fully masked instance
        pool = np.stack([np.zeros(4), np.ones(4) * 3])
        x = make_instance()
        vf = ValueFunction(
            TokenSumModel(), x, estimator="empirical", pool=pool,
            m_samples=4000, seed=2, mode="expected_logprob",
        )
        model = TokenSumModel()
        p = (np.exp(model.evaluate_batch(pool[:1]))[0] + np.exp(model.evaluate_batch(pool[1:]))[0]) / 2
        base = vf.base_probs()
        expected = float(np.sum(base * np.log(p)))
        assert vf(0) == pytest.approx(expected, abs=0.05)


def per_mask_probs(vf, masks):
    """Class probabilities by the per-mask paths the block builders replaced:
    one plug-in row array per mask, stacked and scored in ``batch_size``
    blocks, and one model call per empirical subset."""
    x = vf.instance
    keep = member_matrix(masks, x.d)

    def run(rows):
        return np.concatenate(
            [vf.model.evaluate_batch(rows[i : i + vf.batch_size]) for i in range(0, len(rows), vf.batch_size)]
        )

    if vf.estimator == "plugin":
        return np.exp(run(np.stack([np.where(k, x.values, x.reference) for k in keep])))
    return np.stack([np.exp(run(np.where(k, x.values, vf._pool_rows))).mean(axis=0) for k in keep])


class TestBlockedRows:
    D = 10

    @pytest.fixture(scope="class")
    def model(self):
        from shapgraph.cli import build_demo_nb

        return build_demo_nb()

    @pytest.mark.parametrize("estimator", ["plugin", "empirical"])
    @pytest.mark.parametrize("batch_size", [7, 256])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_scores_equal_per_mask_paths(self, model, estimator, batch_size, n):
        rng = np.random.default_rng(n)
        x = Instance(rng.integers(1, 200, size=self.D), np.zeros(self.D, dtype=int))
        pool = rng.integers(1, 200, size=(12, self.D))
        # 10 samples per subset: with batch_size 7 every subset spans blocks
        kwargs = {"pool": pool, "m_samples": 10, "seed": 3} if estimator == "empirical" else {}
        masks = rng.permutation(1 << self.D)[:n].tolist()
        for mode in ("predicted_class_logprob", "expected_logprob"):
            vf = ValueFunction(model, x, estimator=estimator, mode=mode, batch_size=batch_size, **kwargs)
            got = vf.scores(masks)
            expected = vf._score_from_probs(per_mask_probs(vf, masks))
            assert (got == expected).all()

    def test_empirical_error_names_the_failing_block(self):
        calls = []

        class FailsThirdCall:
            num_classes = 2

            def evaluate_batch(self, values):
                calls.append(len(values))
                if len(calls) == 3:
                    raise RuntimeError("boom")
                return np.full((len(values), 2), np.log(0.5))

        pool = np.arange(8.0).reshape(2, 4)
        vf = ValueFunction(
            FailsThirdCall(), make_instance(), estimator="empirical", pool=pool, m_samples=2, batch_size=4
        )
        # call 1 probes the full mask, call 2 holds subsets 1 and 2, call 3 subsets 3 and 4
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 1\), \(2,\)\.\.\.\]: boom"):
            vf.scores([1, 2, 3, 4])
        assert calls == [2, 4, 4]


class TestConcurrency:
    def test_concurrent_queries_consistent_and_counted_once(self):
        import threading

        x = make_instance()
        vf = ValueFunction(TokenSumModel(), x)
        sequential = ValueFunction(TokenSumModel(), x).scores(range(16))
        results = {}

        def worker(offset):
            masks = [(offset + i) % 16 for i in range(16)]
            results[offset] = vf.scores(masks)

        threads = [threading.Thread(target=worker, args=(o,)) for o in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for offset, got in results.items():
            expected = [sequential[(offset + i) % 16] for i in range(16)]
            np.testing.assert_array_equal(got, expected)
        assert vf.eval_count == 16


class TestMarginalContribution:
    def test_additive_game_gives_coefficient(self):
        coeffs = [2.0, -1.0, 0.5]
        game = additive_game(coeffs)
        for s in range(1 << 3):
            for i in range(3):
                if (s >> i) & 1:
                    assert abs(marginal_contribution(game, s, i) - coeffs[i]) < 1e-12

    def test_singleton(self):
        game = synthetic_game(3, seed=1)
        got = marginal_contribution(game, 1 << 1, 1)
        assert abs(got - (game(2) - game(0))) < 1e-15

    def test_matches_two_evaluation_oracle(self):
        rng = np.random.default_rng(3)
        table = rng.normal(size=16)
        game = synthetic_game(4, table=table)
        for _ in range(20):
            s = int(rng.integers(1, 16))
            i = int(rng.choice([j for j in range(4) if (s >> j) & 1]))
            assert marginal_contribution(game, s, i) == pytest.approx(
                table[s] - table[s & ~(1 << i)], abs=1e-15
            )

    def test_member_precondition(self):
        game = synthetic_game(3, seed=0)
        with pytest.raises(ValueError):
            marginal_contribution(game, 0b011, 2)


class TestSyntheticGame:
    def test_constant_game_marginals_vanish(self):
        game = synthetic_game(4, table=np.full(16, 2.5))
        for s in range(1, 16):
            i = next(j for j in range(4) if (s >> j) & 1)
            assert marginal_contribution(game, s, i) == 0.0

    def test_seeded_game_reproducible(self):
        a = synthetic_game(5, seed=9)
        b = synthetic_game(5, seed=9)
        np.testing.assert_array_equal(a.table, b.table)

    def test_missing_table_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            synthetic_game(2, table={0: 1.0, 1: 2.0, 2: 3.0})

    def test_table_game_counts(self):
        game = TableGame(3, np.arange(8, dtype=float))
        game.prepare()  # a plain table depends on nothing
        assert game.eval_count == 0
        game.scores([1, 2, 1])
        assert game.eval_count == 2
        assert 1 in game and 2 in game and 0 not in game
