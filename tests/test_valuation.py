import sys

import numpy as np
import pytest

from shapgraph import (
    ConfigurationError,
    EvaluationError,
    Instance,
    ValueFunction,
    plugin_masked_instance,
    subset_of,
    chain_graph,
    l_shapley_all,
    synthetic_game,
)
from shapgraph.graphs import pack_masks, row_masks, unpack_rows
from shapgraph.models import UniformModel, train_naive_bayes, two_topic_corpus
from shapgraph.valuation import FunctionGame, SetFunction, SubsetTable, TableGame, additive_game, masked_rows

from reference_path import marginal_contribution


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


class Batched:
    """``model`` declaring a ``batch_size``; records the rows of each call."""

    def __init__(self, model, batch_size):
        self.model = model
        self.num_classes = model.num_classes
        self.batch_size = batch_size
        self.calls = []

    def evaluate_batch(self, values):
        self.calls.append(len(values))
        return self.model.evaluate_batch(values)


class MasksOnHost:
    """``model`` behind the masked entry point, as a wire host that speaks
    ``eval_masked`` serves it: rows are built on the model's side of the call.
    Records each call's subset count."""

    masks_on_host = True

    def __init__(self, model, batch_size=256):
        self.model = model
        self.num_classes = model.num_classes
        self.batch_size = batch_size
        self.calls = []

    def evaluate_batch(self, values):
        raise AssertionError("a model with masks_on_host gets no rows")

    def evaluate_masked(self, values, fill, rows):
        self.calls.append(len(rows))
        return self.model.evaluate_batch(masked_rows(values, fill, rows))


def _table(masks, d):
    """The subset table of ``masks``."""
    return SubsetTable.distinct(pack_masks(masks, d), d)[0]


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


def empirical_probs(x, s, model, pool, m_samples, seed):
    """Class probabilities of the empirical estimator given the features of
    ``x`` in the subset ``s``."""
    vf = ValueFunction(model, x, estimator="empirical", pool=pool, m_samples=m_samples, seed=seed)
    return vf._conditional_probs(pack_masks([s], x.d))[0]


class TestEmpiricalConditional:
    def test_full_subset_ignores_pool(self):
        x = make_instance()
        model = TokenSumModel()
        pool = np.random.default_rng(1).normal(size=(10, 4))
        probs = empirical_probs(x, (1 << 4) - 1, model, pool, 5, seed=0)
        direct = np.exp(model.evaluate_batch(x.values[None, :])[0])
        np.testing.assert_allclose(probs, direct, atol=1e-12)

    def test_degenerate_pool(self):
        x = make_instance()
        model = TokenSumModel()
        probs = empirical_probs(x, 0, model, x.values[None, :], 1, seed=0)
        direct = np.exp(model.evaluate_batch(x.values[None, :])[0])
        np.testing.assert_allclose(probs, direct, atol=1e-12)

    def test_two_point_pool_converges_to_average(self):
        model = TokenSumModel()
        x = make_instance()
        a = np.zeros(4)
        b = np.ones(4)
        pool = np.stack([a, b])
        m = 10000
        probs = empirical_probs(x, 0, model, pool, m, seed=42)
        target = (np.exp(model.evaluate_batch(a[None]))[0] + np.exp(model.evaluate_batch(b[None]))[0]) / 2
        assert np.abs(probs - target).max() <= 3 / np.sqrt(m)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_probs(make_instance(), 0, TokenSumModel(), np.empty((0, 4)), 3, 0)
        with pytest.raises(ConfigurationError, match="at least one sample"):
            empirical_probs(make_instance(), 0, TokenSumModel(), np.ones((2, 4)), 0, 0)


ESTIMATORS = {
    "plugin": {},
    "empirical": {"estimator": "empirical", "pool": np.arange(12).reshape(2, 6) % 15, "m_samples": 3},
}


class TestModelOutputCheck:
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_passes_well_formed_models(self, estimator):
        nb = train_naive_bayes(two_topic_corpus(0, 30, doc_len=6, vocab_size=15), 15)
        vf = ValueFunction(nb, Instance(np.array([1, 2, 0, 0, 3, 4]), np.zeros(6, dtype=int)), **ESTIMATORS[estimator])
        assert np.isfinite(vf.scores(range(64))).all()

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_catches_unnormalized_output(self, estimator):
        class Broken:
            num_classes = 2

            def evaluate_batch(self, values):
                return np.zeros((len(values), 2))  # exp sums to 2

        # the full instance is valued in the block of the first subsets, after them
        vf = ValueFunction(Broken(), Instance(np.arange(1, 7), np.zeros(6, dtype=int)), **ESTIMATORS[estimator])
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 1\), \(0, 1, 2, 3, 4, 5\)\.\.\.\]: probability rows .* do not sum to 1"):
            vf.scores([3])

    def test_float32_softmax_passes(self):
        class Float32:
            num_classes = 5

            def evaluate_batch(self, values):
                scores = np.asarray(values, dtype=np.float32)[:, :5] * np.float32(3.7)
                return scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))

        vf = ValueFunction(Float32(), Instance(np.arange(1.0, 7.0), np.zeros(6)))
        assert np.isfinite(vf.scores(range(64))).all()


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
            assert abs(vf(s) + np.log(5)) < 1e-12

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
        # the full mask is valued with the first subsets, to anchor the predicted class
        assert vf.eval_count == 4
        vf.scores([3, 0])
        assert vf.eval_count == 4

    def test_base_probs_values_the_full_instance_once(self):
        vf = ValueFunction(TokenSumModel(), make_instance())
        assert 15 not in vf and vf.eval_count == 0
        base = vf.base_probs()
        assert vf.base_probs() is base
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
        small = ValueFunction(Batched(TokenSumModel(), 2), x)
        big = ValueFunction(Batched(TokenSumModel(), 512), x)
        masks = list(range(16))
        np.testing.assert_allclose(small.scores(masks), big.scores(masks), atol=0)

    def test_batch_size_comes_from_the_model(self):
        class Declares(TokenSumModel):
            batch_size = 1000

        x = make_instance()
        assert ValueFunction(TokenSumModel(), x).batch_size == 256
        assert ValueFunction(Declares(), x).batch_size == 1000

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
        with pytest.raises(EvaluationError, match=r"subsets \[\(\), \(0,\), \(1,\), \(0, 1\)\.\.\.\]: .*NaN"):
            l_shapley_all(vf, g, 1)

    def test_extra_class_column_raises_instead_of_zero_scores(self):
        class ThreeColumns:
            num_classes = 2

            def evaluate_batch(self, values):
                return np.full((len(values), 3), np.log(1 / 3))

        g = chain_graph(6)
        vf = ValueFunction(ThreeColumns(), Instance(np.arange(1.0, 7.0), np.zeros(6)))
        # the plan's 20 subsets and the full set, in one block
        with pytest.raises(EvaluationError, match=r"subsets \[.*shape \(21, 2\), got \(21, 3\)"):
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


class TestFullInstanceWithFirstSubsets:
    """A fresh value function values the unmasked instance in the model call
    of the first subsets it is asked for, not in a call of its own."""

    @staticmethod
    def _counting(kind):
        if kind == "masks_on_host":
            return MasksOnHost(TokenSumModel()), {}
        pool = np.random.default_rng(3).normal(size=(5, 4))
        return Batched(TokenSumModel(), 256), ({"pool": pool, "m_samples": 3} if kind == "empirical" else {})

    @pytest.mark.parametrize("kind", ["plugin", "empirical", "masks_on_host"])
    def test_one_model_call_for_the_first_subsets_and_the_full_set(self, kind):
        estimator = "plugin" if kind == "masks_on_host" else kind
        model, kwargs = self._counting(kind)
        vf = ValueFunction(model, make_instance(), estimator, **kwargs)
        first = vf.scores([3, 5])
        assert len(model.calls) == 1 and vf.eval_count == 3 and 15 in vf
        assert vf.scores([3, 5, 15]).tolist() == [*first.tolist(), vf(15)] and len(model.calls) == 1

        model, kwargs = self._counting(kind)
        vf = ValueFunction(model, make_instance(), estimator, **kwargs)
        listed = vf.scores([5, 15])  # the table holds the full set: valued once, as its last row
        assert len(model.calls) == 1 and vf.eval_count == 2
        assert listed.tolist() == [first[1], vf(15)]

        model, kwargs = self._counting(kind)
        vf = ValueFunction(model, make_instance(), estimator, **kwargs)
        vf.base_probs()
        vf.base_probs()
        assert len(model.calls) == 1 and vf.eval_count == 1 and 15 in vf

    @pytest.mark.parametrize("kind", ["plugin", "masks_on_host"])
    def test_full_set_joins_the_last_block_or_makes_its_own(self, kind):
        for masks, calls in (([1, 2, 3, 4, 5], [4, 2]), (list(range(8)), [4, 4, 1])):
            model = MasksOnHost(TokenSumModel(), 4) if kind == "masks_on_host" else Batched(TokenSumModel(), 4)
            vf = ValueFunction(model, make_instance())
            values = vf.scores(masks)
            assert model.calls == calls and vf.eval_count == len(masks) + 1
            listed = ValueFunction(TokenSumModel(), make_instance()).scores(masks + [15])
            assert values.tolist() == listed[:-1].tolist() and vf(15) == listed[-1]

    def test_values_of_a_whole_table_are_read_only(self):
        vf = ValueFunction(TokenSumModel(), make_instance())
        values, new = vf.value_table(_table([1, 2, 3], 4))
        assert new.all()
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


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
        # one 24-row block holding the 8 fixed hybrid rows of each of the two
        # subsets, in subset order, then the 8 rows of the full mask
        assert len(calls) == 1
        assert len(calls[0]) == 24
        first, second = calls[0][:8], calls[0][8:16]
        np.testing.assert_array_equal(calls[0][16:], np.tile(x.values, (8, 1)))
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
    keep = unpack_rows(pack_masks(masks, x.d), x.d)
    fill = vf._fill

    def run(rows):
        return np.concatenate(
            [vf.model.evaluate_batch(rows[i : i + vf.batch_size]) for i in range(0, len(rows), vf.batch_size)]
        )

    if vf.estimator == "plugin":
        return np.exp(run(np.stack([np.where(k, x.values, fill[0]) for k in keep])))
    return np.stack([np.exp(run(np.where(k, x.values, fill))).mean(axis=0) for k in keep])


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
        # 10 samples per subset: with batch_size 7 each block holds one subset
        kwargs = {"pool": pool, "m_samples": 10, "seed": 3} if estimator == "empirical" else {}
        masks = rng.permutation(1 << self.D)[:n].tolist()
        for mode in ("predicted_class_logprob", "expected_logprob"):
            vf = ValueFunction(Batched(model, batch_size), x, estimator=estimator, mode=mode, **kwargs)
            got = vf.scores(masks)
            expected = vf._score_from_probs(per_mask_probs(vf, masks))
            assert (got == expected).all()

    @pytest.mark.parametrize("mode", ["predicted_class_logprob", "expected_logprob"])
    def test_plugin_is_the_empirical_estimate_over_the_reference(self, model, mode):
        rng = np.random.default_rng(5)
        x = Instance(rng.integers(1, 200, size=self.D), rng.integers(0, 200, size=self.D))
        masks = rng.permutation(1 << self.D)[:300].tolist()
        plugin = ValueFunction(model, x, mode=mode)
        empirical = ValueFunction(model, x, "empirical", mode, pool=x.reference[None], m_samples=1)
        assert (plugin.scores(masks) == empirical.scores(masks)).all()

    def test_blocks_hold_whole_subsets(self, model):
        rng = np.random.default_rng(6)
        x = Instance(rng.integers(1, 200, size=self.D), np.zeros(self.D, dtype=int))
        pool = rng.integers(1, 200, size=(12, self.D))
        batched = Batched(model, 7)
        vf = ValueFunction(batched, x, "empirical", pool=pool, m_samples=10)
        vf.scores([1, 2, 3])
        # one subset of 10 rows per call, the full instance last
        assert batched.calls == [10, 10, 10, 10]

    def test_empirical_error_names_the_failing_block(self):
        calls = []

        class FailsThirdCall:
            num_classes = 2
            batch_size = 4

            def evaluate_batch(self, values):
                calls.append(len(values))
                if len(calls) == 3:
                    raise RuntimeError("boom")
                return np.full((len(values), 2), np.log(0.5))

        pool = np.arange(8.0).reshape(2, 4)
        vf = ValueFunction(FailsThirdCall(), make_instance(), estimator="empirical", pool=pool, m_samples=2)
        # two subsets per call: 1 and 2, 3 and 4, then 5 and 6, and the full mask in a fourth
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 2\), \(1, 2\)\.\.\.\]: boom"):
            vf.scores([1, 2, 3, 4, 5, 6])
        assert calls == [4, 4, 4] and vf.eval_count == 0
        # a table's blocks are named from its packed rows
        calls.clear()
        vf = ValueFunction(FailsThirdCall(), make_instance(), estimator="empirical", pool=pool, m_samples=2)
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 2\), \(1, 2\)\.\.\.\]: boom"):
            vf.value_table(_table([1, 2, 3, 4, 5, 6, 1], 4))
        assert calls == [4, 4, 4] and vf.eval_count == 0


class TestMaskedRows:
    def test_rows_are_the_subset_kept_over_each_fill_row(self):
        rng = np.random.default_rng(7)
        values, fill = rng.integers(1, 50, size=9), rng.integers(0, 50, size=(3, 9))
        masks = [0, 5, 511, 256, 37]
        rows = masked_rows(values, fill, pack_masks(masks, 9))
        keep = unpack_rows(pack_masks(masks, 9), 9)
        expected = np.stack([np.where(k, values, f) for k in keep for f in fill])
        np.testing.assert_array_equal(rows, expected)
        assert rows.dtype == np.int64
        assert masked_rows(values.astype(float), fill, pack_masks(masks, 9)).dtype == np.float64

    def test_writes_into_the_buffer_given(self):
        values, fill = np.arange(1.0, 5.0), np.zeros((2, 4))
        out = np.full((6, 4), -1.0)
        got = masked_rows(values, fill, pack_masks([1, 2], 4), out=out[:4])
        assert np.shares_memory(got, out)
        np.testing.assert_array_equal(out[:4], [[1, 0, 0, 0]] * 2 + [[0, 2, 0, 0]] * 2)
        np.testing.assert_array_equal(out[4:], -1.0)

    @pytest.mark.parametrize(
        "values, fill",
        [(np.zeros(4), np.zeros((2, 5))), (np.zeros(4), np.zeros(4)), (np.zeros((1, 4)), np.zeros((2, 4)))],
    )
    def test_shape_mismatch_is_a_configuration_error(self, values, fill):
        with pytest.raises(ConfigurationError, match="masked rows need"):
            masked_rows(values, fill, pack_masks([1], 4))

    @pytest.mark.parametrize("mask", [1 << 10, 1 << 12, 1 << 70, -1])
    def test_out_of_range_mask_raises_and_values_nothing(self, mask):
        model = build_nb()
        x = Instance(np.arange(1, 11), np.zeros(10, dtype=int))
        for vf in (ValueFunction(model, x), ValueFunction(MasksOnHost(model), x)):
            vf.base_probs()
            with pytest.raises(ConfigurationError, match=f"subset mask {mask:#x}"):
                vf(mask)
            with pytest.raises(ConfigurationError, match=f"subset mask {mask:#x}"):
                vf.scores([3, mask, 5])
            assert vf.eval_count == 1


def build_nb():
    from shapgraph.cli import build_demo_nb

    return build_demo_nb()


class TestMasksOnHost:
    """A model that builds the masked rows itself gets the same calls'
    worth of subsets and gives the same bits as the row path."""

    D = 10

    @pytest.mark.parametrize("estimator", ["plugin", "empirical"])
    @pytest.mark.parametrize("batch_size", [7, 1024])
    def test_scores_equal_the_row_path(self, estimator, batch_size):
        model = build_nb()
        rng = np.random.default_rng(batch_size)
        x = Instance(rng.integers(1, 200, size=self.D), np.zeros(self.D, dtype=int))
        kwargs = {}
        if estimator == "empirical":
            kwargs = {"pool": rng.integers(1, 200, size=(12, self.D)), "m_samples": 32, "seed": 3}
        masks = rng.permutation(1 << self.D)[:600].tolist()
        for mode in ("predicted_class_logprob", "expected_logprob"):
            rows = ValueFunction(Batched(model, batch_size), x, estimator, mode, **kwargs)
            host = MasksOnHost(model, batch_size)
            masked = ValueFunction(host, x, estimator, mode, **kwargs)
            assert (masked.scores(masks) == rows.scores(masks)).all()
            # the same blocks of whole subsets
            m = 32 if estimator == "empirical" else 1
            assert rows.model.calls == [m * c for c in host.calls]
            assert masked._rows is None  # no row buffer on this path

    def test_bad_output_is_checked_and_names_the_subsets(self):
        class ShortReply(MasksOnHost):
            def evaluate_masked(self, values, fill, masks):
                return super().evaluate_masked(values, fill, masks)[:-1]

        vf = ValueFunction(ShortReply(UniformModel(2)), make_instance())
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 1\), \(0, 1, 2, 3\)\.\.\.\]: expected log-probs of shape \(2, 2\)"):
            vf(3)
        assert vf.eval_count == 0

        class ShortAfterFirst(MasksOnHost):
            def evaluate_masked(self, values, fill, masks):
                log_probs = super().evaluate_masked(values, fill, masks)
                return log_probs if len(self.calls) == 1 else log_probs[:-1]

        # a table's blocks are named from its packed rows, past the first byte too
        host = ShortAfterFirst(UniformModel(2), batch_size=2)
        vf = ValueFunction(host, make_instance(12))
        # byte order puts the empty set and (8,) first, then the two wide masks
        table = _table([0b11_0000, 0b1000_0000_0001, 0b110_0000, 0b10_0001_0000, 0, 1 << 8], 12)
        with pytest.raises(EvaluationError, match=r"subsets \[\(0, 11\), \(4, 9\)\.\.\.\]: expected log-probs of shape \(2, 2\)"):
            vf.value_table(table)
        assert host.calls == [2, 2] and vf.eval_count == 0


class TestSubsetTable:
    def test_distinct_rows_in_byte_order(self):
        masks = [6, 1 << 9, 6, 0, 1 << 9, 3, 0]
        table, first, inverse = SubsetTable.distinct(pack_masks(masks, 10), 10)
        assert row_masks(table.rows) == [0, 1 << 9, 3, 6]  # little-endian bytes: 1 << 9 is (0, 2)
        assert first.tolist() == [3, 1, 5, 0]
        assert inverse.tolist() == [3, 1, 3, 0, 1, 2, 0]
        at, hit = table.find(pack_masks([3, 7, 6, 1 << 9], 10))
        assert at.tolist() == [2, 3, 1] and hit.tolist() == [True, False, True, True]

    def test_value_table_finds_every_store_and_values_the_rest_once(self):
        game = synthetic_game(10, seed=4)
        calls = []
        evaluate = game._evaluate_packed
        game._evaluate_packed = lambda rows: calls.append(row_masks(rows)) or evaluate(rows)
        game.scores([3, 5])
        values, new = game.value_table(_table([5, 7, 3, 9, 7], 10))
        assert values.tolist() == game.table[[3, 5, 7, 9]].tolist()
        assert new.tolist() == [False, False, True, True] and game.eval_count == 4
        values, new = game.value_table(_table([9, 11, 3, 12, 13, 14], 10))  # 9 from a table, 3 from scores
        assert values.tolist() == game.table[[3, 9, 11, 12, 13, 14]].tolist()
        assert new.tolist() == [False, False, True, True, True, True]
        assert calls == [[3, 5], [7, 9], [11, 12, 13, 14]] and game.eval_count == 8
        values, new = game.value_table(_table([7, 12, 15], 10))
        assert values.tolist() == game.table[[7, 12, 15]].tolist() and new.tolist() == [False, False, True]
        assert calls[3:] == [[15]] and game.eval_count == 9
        # a membership test finds what scores and every table valued, and values nothing
        assert all(mask in game for mask in [3, 5, 7, 9, 11, 12, 13, 14, 15])
        assert 8 not in game and 1 << 10 not in game and -1 not in game
        assert len(calls) == 4 and game.eval_count == 9
        assert game.scores([11, 7, 9, 15]).tolist() == game.table[[11, 7, 9, 15]].tolist()
        assert len(calls) == 4 and game.eval_count == 9

    def test_store_keeps_rows_in_byte_order_through_mixed_calls(self):
        # small scores calls merge the runs into the store, a large table is
        # kept as a run of its own, and membership tests merge it in
        game = synthetic_game(12, seed=5)
        rng = np.random.default_rng(5)
        asked = set()

        def check():
            for table, values in [game._store, *game._pending]:
                keys = [bytes(row) for row in table.rows]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert values.tolist() == game.table[row_masks(table.rows)].tolist()
            assert game.eval_count == len(asked)

        for step in range(30):
            masks = rng.integers(0, 1 << 12, size=rng.integers(1, 6)).tolist()
            assert game.scores(masks).tolist() == game.table[masks].tolist()
            asked.update(masks)
            check()
            if step == 10:
                table = _table(rng.choice(1 << 12, size=1000, replace=False).tolist(), 12)
                assert game.value_table(table)[0].tolist() == game.table[row_masks(table.rows)].tolist()
                asked.update(row_masks(table.rows))
                check()
            if step % 5 == 4:
                probes = rng.integers(0, 1 << 12, size=3).tolist()
                assert [mask in game for mask in probes] == [mask in asked for mask in probes]
                check()

    @pytest.mark.parametrize("mask", [1 << 3, 1 << 40, -1])
    def test_plain_set_function_refuses_masks_out_of_range(self, mask):
        game = FunctionGame(3, float)
        for masks in ([2, mask], np.array([2, mask]), np.array([mask, 2], dtype=np.int64)):
            with pytest.raises(ConfigurationError, match=f"subset mask {mask:#x}"):
                game.scores(masks)
        assert game.eval_count == 0 and mask not in game
        # an integer array is valued bitwise as the same masks given as Python ints
        masks = [0, 7, 2, 7, 5]
        expected = synthetic_game(3, seed=1).scores(masks).tobytes()
        for dtype in (np.int64, np.uint8):
            assert synthetic_game(3, seed=1).scores(np.array(masks, dtype=dtype)).tobytes() == expected

    def test_a_game_of_no_features_is_refused(self):
        for make in (lambda: SetFunction(0), lambda: TableGame(0, np.zeros(1)), lambda: FunctionGame(0, float)):
            with pytest.raises(ConfigurationError, match="at least one feature, got 0"):
                make()

    def test_table_of_other_features_is_refused(self):
        with pytest.raises(ConfigurationError, match="subsets of 12 features"):
            synthetic_game(10, seed=4).value_table(_table([1, 2], 12))


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

    def test_count_holds_while_another_thread_reads_by_mask(self):
        import threading

        # a read by mask merges the runs of several tables into the store;
        # the count seen meanwhile is the number of distinct subsets throughout
        d = 14
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                game = synthetic_game(d, seed=2)
                for j in range(d):  # each table larger than all before it
                    game.value_table(_table(range((1 << j) - 1, (2 << j) - 1), d))
                reader = threading.Thread(target=game.scores, args=([0],))
                seen = set()
                reader.start()
                while reader.is_alive():
                    seen.add(game.eval_count)
                reader.join(timeout=30)
                assert not reader.is_alive()
                assert seen <= {(1 << d) - 1}
                # every subset the tables valued is in the store, and reading them again makes no call
                calls = []
                game._evaluate_packed = lambda rows: calls.append(rows)
                assert 0 in game and (1 << d) - 2 in game and (1 << d) - 1 not in game
                assert game.scores(range((1 << d) - 1)).tolist() == game.table[:-1].tolist()
                assert calls == [] and game.eval_count == (1 << d) - 1
        finally:
            sys.setswitchinterval(interval)


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
        assert game.eval_count == 0
        game.scores([1, 2, 1])
        assert game.eval_count == 2
        assert 1 in game and 2 in game and 0 not in game
