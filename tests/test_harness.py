import numpy as np
import pytest

from shapgraph import (
    BudgetExceededError,
    ConfigurationError,
    EvaluationError,
    Instance,
    chain_graph,
    general_graph,
)
from shapgraph.harness import (
    METHODS,
    EvaluationCurve,
    MethodSpec,
    attribution_scores,
    compare_methods,
    curves_to_csv,
    load_dataset,
    log_odds_curve,
    mask_top_features,
    method_plan,
    planned_evaluations,
    ranked_features,
    save_dataset,
)
from shapgraph.models import UniformModel, train_naive_bayes, two_topic_corpus
from shapgraph.valuation import ValueFunction


def nb_and_instances(n=8, doc_len=12, vocab=40):
    nb = train_naive_bayes(two_topic_corpus(0, 200, doc_len=doc_len, vocab_size=vocab), vocab)
    docs = two_topic_corpus(1, n, doc_len=doc_len, vocab_size=vocab)
    instances = [Instance(t, np.zeros(doc_len, dtype=int)) for t, _ in docs]
    labels = [l for _, l in docs]
    return nb, instances, labels


class TestMaskTopFeatures:
    def test_fraction_zero_is_identity(self):
        x = Instance(np.arange(1.0, 5.0), np.zeros(4))
        out = mask_top_features(x, np.array([3.0, 1.0, 2.0, 0.0]), 0.0)
        np.testing.assert_array_equal(out.values, x.values)

    def test_fraction_one_masks_everything(self):
        x = Instance(np.arange(1.0, 5.0), np.zeros(4))
        out = mask_top_features(x, np.array([3.0, 1.0, 2.0, 0.0]), 1.0)
        np.testing.assert_array_equal(out.values, x.reference)

    def test_tie_broken_by_lower_index(self):
        x = Instance(np.arange(1.0, 5.0), np.zeros(4))
        scores = np.array([0.9, 0.1, 0.5, 0.5])
        out = mask_top_features(x, scores, 0.5)  # masks top 2: features 0 and 2
        np.testing.assert_array_equal(out.values, [0.0, 2.0, 0.0, 4.0])

    def test_masked_sets_nest_monotonically(self):
        rng = np.random.default_rng(0)
        x = Instance(rng.normal(size=9) + 10, np.zeros(9))
        scores = rng.normal(size=9)
        masked_prev: set[int] = set()
        for f in np.linspace(0, 1, 11):
            out = mask_top_features(x, scores, float(f))
            masked = {j for j in range(9) if out.values[j] == 0.0}
            assert masked_prev <= masked
            masked_prev = masked

    def test_fraction_out_of_range(self):
        x = Instance(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            mask_top_features(x, np.ones(3), 1.5)

    def test_ranking_order(self):
        order = ranked_features(np.array([0.2, 0.9, 0.2, -1.0]))
        assert order.tolist() == [1, 0, 2, 3]


class TestLogOddsCurve:
    def test_constant_model_curve_is_zero(self):
        model = UniformModel(3)
        instances = [Instance(np.arange(6.0), np.zeros(6)) for _ in range(3)]
        curve = log_odds_curve(model, instances, MethodSpec("random"), chain_graph(6), seed=1)
        np.testing.assert_allclose(curve.mean_log_odds_change, 0.0, atol=1e-12)

    def test_change_at_zero_fraction_is_exactly_zero(self):
        nb, instances, _ = nb_and_instances()
        curve = log_odds_curve(
            nb, instances, MethodSpec("l-shapley"), chain_graph(12), budget=None, seed=0
        )
        assert curve.mean_log_odds_change[0] == 0.0

    def test_informed_method_beats_random(self):
        nb, instances, _ = nb_and_instances(n=12)
        g = chain_graph(12)
        fr = [0, 0.25, 0.5]
        informed = log_odds_curve(nb, instances, MethodSpec("l-shapley"), g, fr, seed=0)
        rand = log_odds_curve(nb, instances, MethodSpec("random"), g, fr, seed=0)
        assert informed.mean_log_odds_change[-1] < rand.mean_log_odds_change[-1]

    class NaNModel:
        num_classes = 2

        def evaluate_batch(self, values):
            return np.full((len(values), 2), np.nan)

    class LogitModel:
        """Returns raw scores in place of log-probabilities."""

        num_classes = 2

        def evaluate_batch(self, values):
            return np.stack([np.asarray(values, dtype=float).sum(axis=1) / 10, np.zeros(len(values))], axis=1)

    @pytest.mark.parametrize(
        "model,problem", [(NaNModel(), "NaN"), (LogitModel(), "do not sum to 1")], ids=["nan", "logits"]
    )
    def test_misbehaving_model_names_the_instance(self, model, problem):
        x = Instance(np.arange(1.0, 7.0), np.zeros(6))
        with pytest.raises(EvaluationError, match=f"instance 0: .*{problem}"):
            log_odds_curve(model, [x], MethodSpec("random"), chain_graph(6), (0.0, 0.5))

    def test_unsupported_graph_names_the_instance(self):
        nb, instances, _ = nb_and_instances(n=1, doc_len=4)
        triangle = general_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        with pytest.raises(EvaluationError, match="instance 0: .*chain and grid"):
            log_odds_curve(nb, instances, MethodSpec("c-shapley-reg"), triangle, (0.0, 0.5))

    def test_fraction_grid_validation(self):
        nb, instances, _ = nb_and_instances(n=1)
        with pytest.raises(ConfigurationError, match="start at 0"):
            log_odds_curve(nb, instances, MethodSpec("random"), chain_graph(12), [0.1, 0.2])

    def test_correct_only_filters(self):
        nb, instances, labels = nb_and_instances(n=10)
        curve = log_odds_curve(
            nb,
            instances,
            MethodSpec("random"),
            chain_graph(12),
            labels=labels,
            correct_only=True,
            seed=0,
        )
        assert curve.num_instances <= 10


class TestCompareMethods:
    def test_budget_enforced_loudly(self):
        nb, instances, _ = nb_and_instances(n=2)
        with pytest.raises(BudgetExceededError, match="l-shapley"):
            compare_methods(nb, instances, ["l-shapley"], budget=12, seed=0)

    def test_methods_within_default_budget(self):
        nb, instances, _ = nb_and_instances(n=3)
        d = 12
        curves, table = compare_methods(
            nb,
            instances,
            ["l-shapley", "c-shapley-reg:4", "kernelshap", "sample", "random"],
            budget=4 * d,
            seed=0,
            fractions=[0, 0.25, 0.5],
        )
        assert set(table) == {"l-shapley", "c-shapley-reg", "kernelshap", "sample", "random"}
        assert table["random"] == 0
        for name, total in table.items():
            if name != "random":
                assert 0 < total <= 3 * 4 * d

    def test_method_spec_parsing(self):
        spec = MethodSpec.parse("c-shapley-reg:3")
        assert spec.name == "c-shapley-reg" and spec.k == 3
        assert MethodSpec.parse("l-shapley").order == 1
        with pytest.raises(ConfigurationError):
            MethodSpec.parse("nonsense")

    def test_seeded_runs_are_byte_identical(self):
        nb, instances, _ = nb_and_instances(n=3)
        runs = []
        for _ in range(2):
            curves, _ = compare_methods(
                nb,
                instances,
                ["sample", "kernelshap", "random"],
                budget=48,
                seed=5,
                fractions=[0, 0.25, 0.5],
            )
            runs.append(curves_to_csv(curves))
        assert runs[0] == runs[1]


class TestAttributionScores:
    def test_random_scores_deterministic_per_seed(self):
        x = Instance(np.arange(5.0), np.zeros(5))
        a, _ = attribution_scores(MethodSpec("random"), UniformModel(2), x, chain_graph(5), None, 3)
        b, _ = attribution_scores(MethodSpec("random"), UniformModel(2), x, chain_graph(5), None, 3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, np.random.default_rng(3).standard_normal(5))

    def test_exact_within_reach(self):
        nb, instances, _ = nb_and_instances(n=1, doc_len=8)
        scores, used = attribution_scores(
            MethodSpec("exact"), nb, instances[0], chain_graph(8), None, 0
        )
        assert used == 1 << 8
        assert scores.shape == (8,)


class CountingModel:
    """A model that counts the calls made to it."""

    def __init__(self, model):
        self.model, self.calls = model, 0
        self.num_classes = model.num_classes

    def evaluate_batch(self, values):
        self.calls += 1
        return self.model.evaluate_batch(values)


class TestPlannedCost:
    @pytest.mark.parametrize("name", list(METHODS))
    def test_planned_cost_is_what_a_fresh_run_values(self, name):
        nb, instances, _ = nb_and_instances(n=1, doc_len=12)
        plan = MethodSpec(name).plan(12, chain_graph(12), 0, 3, 48)
        vf = ValueFunction(nb, instances[0])
        result = plan.run(vf)
        assert planned_evaluations(plan) == vf.eval_count == result.model_evaluations

    def test_over_budget_error_names_the_planned_cost(self):
        with pytest.raises(BudgetExceededError, match="'l-shapley' needs 593 evaluations, over its budget of 160") as info:
            method_plan(MethodSpec("l-shapley", 2), 40, chain_graph(40), 160, 0)
        assert info.value.count == 593

    @pytest.mark.parametrize(
        "method,error",
        [
            ("l-shapley:2", BudgetExceededError),
            ("c-shapley:3", BudgetExceededError),
            ("c-shapley-reg:6", BudgetExceededError),
            ("exact", ConfigurationError),
            ("myerson", ConfigurationError),
        ],
    )
    def test_refused_methods_make_no_model_call(self, method, error):
        nb, instances, _ = nb_and_instances(n=1, doc_len=40)
        model = CountingModel(nb)
        with pytest.raises(error):
            compare_methods(model, instances, [method], budget=160)
        assert model.calls == 0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        _, instances, labels = nb_and_instances(n=4)
        path = tmp_path / "data.jsonl"
        save_dataset(str(path), instances, labels)
        back, back_labels = load_dataset(str(path))
        assert back_labels == labels
        for a, b in zip(instances, back):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.reference, b.reference)

    def test_csv_header_and_shape(self):
        curve = EvaluationCurve("demo", (0.0, 0.5), np.array([0.0, -1.25]), 4, 7)
        text = curves_to_csv([curve])
        lines = text.strip().splitlines()
        assert lines[0] == "method,fraction,mean_log_odds_change,n,seed"
        assert lines[1] == "demo,0.0,0.0,4,7"
        assert lines[2] == "demo,0.5,-1.25,4,7"


class TestMethodSpecErrors:
    def test_non_integer_order_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="integer"):
            MethodSpec.parse("l-shapley:x")

    def test_repeated_method_name_rejected_before_any_model_call(self):
        class NoCalls(UniformModel):
            def evaluate_batch(self, values):
                raise AssertionError("the model was called")

        instances = [Instance(np.arange(12.0), np.zeros(12))]
        with pytest.raises(ConfigurationError, match="once"):
            compare_methods(NoCalls(2), instances, ["l-shapley:1", "l-shapley:2"], budget=400)
        with pytest.raises(ConfigurationError, match="once"):
            compare_methods(NoCalls(2), instances, ["random", MethodSpec("random")], budget=400)
