import math

import numpy as np
import pytest

from shapgraph import (
    BudgetExceededError,
    ConfigurationError,
    UnsupportedTopologyError,
    chain_graph,
    exact_shapley,
    general_graph,
    grid_graph,
    kernelshap,
    myerson_value,
    regression_c_shapley,
    shapley_kernel_weight,
    subset_of,
    synthetic_game,
)
from shapgraph import graphs, regression
from shapgraph.graphs import pack_masks, unpack_rows
from shapgraph.regression import connected_design_rows, kernelshap_plan, solve_weighted
from shapgraph.cli import build_demo_nb
from shapgraph.models import UniformModel, two_topic_corpus
from shapgraph.valuation import FunctionGame, Instance, TableGame, ValueFunction, additive_game

from oracles import wls_lstsq_oracle


class TestKernelWeight:
    def test_spot_values_d4(self):
        assert shapley_kernel_weight(4, 1) == pytest.approx(0.25)
        assert shapley_kernel_weight(4, 2) == pytest.approx(0.125)

    def test_symmetry_and_positivity_up_to_64(self):
        for d in (2, 5, 16, 31, 33, 64):
            for n in range(1, d):
                w = shapley_kernel_weight(d, n)
                assert w > 0
                assert w == pytest.approx(shapley_kernel_weight(d, d - n), rel=1e-12)

    def test_log_gamma_path_matches_direct_at_threshold(self):
        # d=30 uses direct binomials, d=31 the log-gamma route; compare on a
        # common formula evaluated both ways around the switch
        import math

        d = 31
        for n in (1, 7, 15):
            direct = (d - 1) / (math.comb(d, n) * n * (d - n))
            assert shapley_kernel_weight(d, n) == pytest.approx(direct, rel=1e-12)

    def test_undefined_sizes_rejected(self):
        for n in (0, 4):
            with pytest.raises(ConfigurationError):
                shapley_kernel_weight(4, n)


class TestWeightedLeastSquares:
    def test_exactly_linear_responses_recovered(self):
        rng = np.random.default_rng(0)
        d = 5
        coeffs = rng.normal(size=d)
        rows = [int(m) for m in rng.integers(1, 1 << d, size=30)]
        matrix = np.array([[(m >> j) & 1 for j in range(d)] for m in rows], dtype=float)
        responses = matrix @ coeffs
        weights = rng.uniform(0.1, 3.0, size=30)
        np.testing.assert_array_equal(unpack_rows(pack_masks(rows, d), d).astype(np.float64), matrix)
        coefficients = solve_weighted(matrix, responses, weights)
        np.testing.assert_allclose(coefficients, coeffs, atol=1e-9)

    def test_single_row_single_feature(self):
        coefficients = solve_weighted(np.ones((1, 1)), np.array([2.5]), np.array([1.0]))
        assert coefficients[0] == pytest.approx(2.5, abs=1e-9)

    def test_random_system_matches_lstsq_oracle(self):
        rng = np.random.default_rng(1)
        rows = [int(m) for m in rng.integers(1, 16, size=10)]
        matrix = np.array([[(m >> j) & 1 for j in range(4)] for m in rows], dtype=float)
        responses = rng.normal(size=10)
        weights = rng.uniform(0.5, 2.0, size=10)
        coefficients = solve_weighted(matrix, responses, weights)
        oracle = wls_lstsq_oracle(matrix, responses, weights)
        np.testing.assert_allclose(coefficients, oracle, atol=1e-8)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(20, 6))
        responses = rng.normal(size=20)
        weights = rng.uniform(0.1, 1.0, size=20)
        coefficients = solve_weighted(matrix, responses, weights)
        residual = responses - matrix @ coefficients
        gram = matrix.T @ (weights * residual)
        assert np.abs(gram).max() < 1e-8

    def test_singular_defaults_to_tiny_ridge(self):
        matrix = unpack_rows(pack_masks([subset_of([0]), subset_of([0, 1])], 3), 3).astype(np.float64)
        responses, weights = np.array([1.0, 3.0]), np.ones(2)
        coefficients = solve_weighted(matrix, responses, weights)
        # the ridge added is 1e-10 * trace / ncols, and it pins the one null
        # direction, feature 2, at 0
        normal, target = matrix.T @ matrix, matrix.T @ responses
        tiny = 1e-10 * np.trace(normal) / 3
        np.testing.assert_array_equal(coefficients, np.linalg.solve(normal + tiny * np.eye(3), target))
        np.testing.assert_allclose(coefficients, [1.0, 2.0, 0.0], atol=1e-6)

    def test_empty_design_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_weighted(np.empty((0, 3)), np.empty(0), np.empty(0))


class TestKernelShap:
    def test_exhaustive_constrained_reproduces_exact(self):
        for seed in range(6):
            d = 4 + (seed % 4)
            game = synthetic_game(d, seed=seed)
            ks = kernelshap(game, num_samples=0, exhaustive=True)
            ex = exact_shapley(synthetic_game(d, seed=seed))
            np.testing.assert_allclose(ks.scores, ex.scores, atol=1e-6)

    def test_additive_game_recovery_sampled(self):
        coeffs = np.array([1.0, -0.5, 2.0, 0.0, 0.25])
        res = kernelshap(additive_game(coeffs), num_samples=24, seed=4)
        np.testing.assert_allclose(res.scores, coeffs, atol=1e-7)

    def test_fixed_seed_reproducible(self):
        a = kernelshap(synthetic_game(6, seed=5), num_samples=30, seed=9)
        b = kernelshap(synthetic_game(6, seed=5), num_samples=30, seed=9)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.model_evaluations == b.model_evaluations

    def test_needs_at_least_d_samples(self):
        with pytest.raises(ConfigurationError):
            kernelshap(synthetic_game(5, seed=0), num_samples=3, seed=0)

    def test_eval_count_includes_anchors(self):
        game = synthetic_game(5, seed=6)
        res = kernelshap(game, num_samples=12, seed=0)
        # sampled rows + empty set (unconstrained mode has no full-set anchor,
        # unless sampling happened to draw it, which it cannot: sizes < d)
        assert res.model_evaluations == 12 + 1

    def test_exhaustive_design_is_refused_past_the_exact_limit(self):
        # as exact Shapley is: the design is 2^d - 2 subsets, refused before they are listed
        with pytest.raises(BudgetExceededError, match="design rows of exhaustive KernelSHAP on 21 features") as err:
            kernelshap_plan(21, 0, exhaustive=True)
        assert err.value.count == (1 << 21) - 2

    def test_large_sample_count_saturates_design(self):
        game = synthetic_game(4, seed=7)
        res = kernelshap(game, num_samples=10_000, seed=0)
        assert res.model_evaluations == (1 << 4) - 2 + 1  # all proper subsets + empty


class TestRegressionCShapley:
    def test_chain_row_count_example(self):
        rows = connected_design_rows(chain_graph(6), 3)
        assert len(rows) == 6 + 5 + 4

    def test_grid_row_count_example(self):
        rows = connected_design_rows(grid_graph(4, 4), 2)
        assert len(rows) == 16 + 9

    def test_grid_rows_are_refused_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", 16 + 9)
        assert len(connected_design_rows(grid_graph(4, 4), 2)) == 16 + 9
        monkeypatch.setattr(graphs, "ENUMERATION_LIMIT", 16 + 8)
        with pytest.raises(BudgetExceededError, match="regression C-Shapley at k=2 on 16 features: 25,") as err:
            connected_design_rows(grid_graph(4, 4), 2)
        assert err.value.count == 16 + 9

    def test_rows_never_include_full_set(self):
        rows = connected_design_rows(chain_graph(4), 10)
        assert subset_of(range(4)) not in rows
        rows = connected_design_rows(grid_graph(2, 2), 5)
        assert subset_of(range(4)) not in rows

    def test_additive_recovery_on_chains(self):
        rng = np.random.default_rng(8)
        for d, k in [(6, 1), (16, 2), (64, 4)]:
            coeffs = rng.normal(size=d)
            res = regression_c_shapley(additive_game(coeffs), chain_graph(d), k)
            assert np.abs(res.scores - coeffs).max() < 1e-8

    def test_additive_recovery_on_grid(self):
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=12)
        res = regression_c_shapley(additive_game(coeffs), grid_graph(3, 4), 2)
        assert np.abs(res.scores - coeffs).max() < 1e-6

    def test_eval_count_is_rows_plus_baseline(self):
        game = synthetic_game(6, seed=10)
        res = regression_c_shapley(game, chain_graph(6), 3)
        assert res.model_evaluations == 15 + 1

    def test_general_graph_rejected(self):
        g = general_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(UnsupportedTopologyError):
            regression_c_shapley(synthetic_game(3, seed=0), g, 1)

    @pytest.mark.parametrize(
        "graph",
        [chain_graph(d) for d in range(1, 14)] + [grid_graph(r, c) for r in range(1, 6) for c in range(1, 7)],
        ids=lambda g: f"{g.kind}{g.d}" if g.kind == "chain" else f"grid{g.rows}x{g.cols}",
    )
    def test_rows_match_a_cell_by_cell_listing(self, graph):
        # intervals or square patches by size, then top row, then left column
        for k in range(1, 7):
            expected = []
            if graph.kind == "chain":
                for n in range(1, min(k, graph.d - 1) + 1):
                    for start in range(graph.d - n + 1):
                        expected.append(subset_of(range(start, start + n)))
            else:
                R, C = graph.rows, graph.cols
                for n in range(1, min(k, R, C) + 1):
                    for r in range(R - n + 1):
                        for c in range(C - n + 1):
                            cells = [(r + dr) * C + c + dc for dr in range(n) for dc in range(n)]
                            if len(cells) < R * C:
                                expected.append(subset_of(cells))
            assert connected_design_rows(graph, k) == expected


def _wavy_game(d: int) -> FunctionGame:
    return FunctionGame(d, lambda m: math.sin(0.618 * m) * (1 + m.bit_count()))


class TestKernelWeightsPerRow:
    """Each design row weighs the Shapley kernel weight of its size, to the
    bit, as in a fit that calls ``shapley_kernel_weight`` row by row."""

    @staticmethod
    def reference_fit(game, rows, constrained):
        d = game.d
        v_empty = game(0)
        responses = game.scores(rows) - v_empty
        weights = np.array([shapley_kernel_weight(d, m.bit_count()) for m in rows])
        matrix = np.array([[(m >> j) & 1 for j in range(d)] for m in rows], dtype=np.float64)
        if not constrained:
            return solve_weighted(matrix, responses, weights)
        total = game((1 << d) - 1) - v_empty
        coef = solve_weighted(matrix[:, :-1] - matrix[:, -1:], responses - matrix[:, -1] * total, weights)
        return np.append(coef, total - coef.sum())

    @pytest.mark.parametrize(
        "d, run",
        [
            pytest.param(6, lambda game: kernelshap(game, num_samples=18, seed=1), id="kernelshap-d6"),
            pytest.param(40, lambda game: kernelshap(game, num_samples=130, seed=2), id="kernelshap-d40"),
            pytest.param(
                12, lambda game: kernelshap(game, num_samples=40, seed=3, constrained=True), id="kernelshap-constrained-d12"
            ),
            pytest.param(8, lambda game: kernelshap(game, num_samples=0, exhaustive=True), id="kernelshap-exhaustive-d8"),
            pytest.param(40, lambda game: regression_c_shapley(game, chain_graph(40), 4), id="c-shapley-reg-chain40"),
            pytest.param(
                12,
                lambda game: regression_c_shapley(game, chain_graph(12), 3, constrained=True),
                id="c-shapley-reg-constrained-chain12",
            ),
            pytest.param(20, lambda game: regression_c_shapley(game, grid_graph(4, 5), 3), id="c-shapley-reg-grid4x5"),
            pytest.param(
                20,
                lambda game: regression_c_shapley(game, grid_graph(4, 5), 2, constrained=True),
                id="c-shapley-reg-constrained-grid4x5",
            ),
        ],
    )
    def test_scores_equal_a_row_by_row_weighted_fit(self, d, run, monkeypatch):
        designs = []
        fit_plan = regression._fit_plan

        def spy(method, d, rows, constrained, **meta):
            designs.append((rows, constrained))
            return fit_plan(method, d, rows, constrained, **meta)

        monkeypatch.setattr(regression, "_fit_plan", spy)
        result = run(_wavy_game(d))
        (rows, constrained), = designs
        assert len(rows) > d
        np.testing.assert_array_equal(result.scores, self.reference_fit(_wavy_game(d), rows, constrained))


class CountingModel(UniformModel):
    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def evaluate_batch(self, values):
        self.calls += 1
        return super().evaluate_batch(values)


class TestOneFeatureDesign:
    """At d=1 an unconstrained fit has no design rows: it is refused before
    any model call, while the constrained fit gives v(full) - v(empty)."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda game: kernelshap(game, num_samples=1, seed=0),
            lambda game: regression_c_shapley(game, chain_graph(1), 2),
            lambda game: regression_c_shapley(game, grid_graph(1, 1), 1),
        ],
        ids=["kernelshap", "c-shapley-reg-chain", "c-shapley-reg-grid"],
    )
    def test_unconstrained_empty_design_calls_no_model(self, run):
        model = CountingModel()
        with pytest.raises(ConfigurationError, match="no design rows"):
            run(ValueFunction(model, Instance(np.array([1.0]), np.zeros(1))))
        assert model.calls == 0

    def test_constrained_fit_is_the_full_gain(self):
        for run in (
            lambda game: kernelshap(game, num_samples=0, exhaustive=True),
            lambda game: regression_c_shapley(game, chain_graph(1), 2, constrained=True),
            lambda game: regression_c_shapley(game, grid_graph(1, 1), 1, constrained=True),
        ):
            result = run(TableGame(1, np.array([0.25, -1.5])))
            assert result.scores.tolist() == [-1.75]
            assert result.model_evaluations == 2


class ValueTableCounter(TableGame):
    """A seeded table game that counts its ``value_table`` calls."""

    def __init__(self, d: int, seed: int):
        super().__init__(d, np.random.default_rng(seed).normal(size=1 << d))
        self.calls = 0

    def value_table(self, table):
        self.calls += 1
        return super().value_table(table)


class TestOneValuationCall:
    """v(empty), and v(full) where a fit needs it, are valued in the same
    call as the estimator's other subsets."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda game: myerson_value(game, chain_graph(6)),
            lambda game: kernelshap(game, num_samples=12, seed=0),
            lambda game: kernelshap(game, num_samples=12, seed=0, constrained=True),
            lambda game: regression_c_shapley(game, chain_graph(6), 3),
            lambda game: regression_c_shapley(game, grid_graph(2, 3), 2, constrained=True),
        ],
        ids=["myerson", "kernelshap", "kernelshap-constrained", "c-shapley-reg", "c-shapley-reg-constrained"],
    )
    def test_a_fresh_game_sees_one_value_table_call(self, run):
        game = ValueTableCounter(6, seed=21)
        run(game)
        assert game.calls == 1


class TestGraphOfAnotherSize:
    """A graph over more or fewer features than the game's is refused before
    anything is valued, not truncated or padded with zero scores."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda game: myerson_value(game, chain_graph(8)),
            lambda game: myerson_value(game, chain_graph(4)),
            lambda game: regression_c_shapley(game, chain_graph(4), 2),
        ],
        ids=["myerson-larger", "myerson-smaller", "c-shapley-reg-smaller"],
    )
    def test_refused_before_any_valuation(self, run):
        game = synthetic_game(6, seed=0)
        with pytest.raises(ConfigurationError, match="subsets of [48] features, valued by a set function of 6"):
            run(game)
        assert game.eval_count == 0


class TestPlanCache:
    """The connected-subset regression plan is kept on its graph, one per
    order and constraint; KernelSHAP plans afresh on every call."""

    def test_connected_plan_is_kept_on_the_graph(self):
        g = chain_graph(12)
        plan = regression.regression_c_shapley_plan(g, 4)
        assert regression.regression_c_shapley_plan(g, 4) is plan
        assert regression.regression_c_shapley_plan(g, 4, constrained=True) is not plan
        assert regression.regression_c_shapley_plan(g, 3) is not plan
        assert regression.regression_c_shapley_plan(chain_graph(12), 4) is not plan

    def test_kernelshap_plans_afresh(self):
        assert kernelshap_plan(8, 20, 0) is not kernelshap_plan(8, 20, 0)
        assert kernelshap_plan(6, 0, exhaustive=True) is not kernelshap_plan(6, 0, exhaustive=True)

    def test_a_bad_order_is_refused_with_a_kept_plan(self):
        g = chain_graph(12)
        regression.regression_c_shapley_plan(g, 1)
        with pytest.raises(ConfigurationError, match="order k must be positive"):
            regression.regression_c_shapley_plan(g, 0)

    @pytest.mark.parametrize("constrained", [False, True], ids=["unconstrained", "constrained"])
    @pytest.mark.parametrize("graph", ["chain40", "grid4x5"])
    def test_a_shared_plan_scores_as_a_fresh_one(self, graph, constrained):
        # instance b after instance a on one kept plan, and b alone on a cold cache
        def make_graph():
            return chain_graph(40) if graph == "chain40" else grid_graph(4, 5)

        d = make_graph().d
        nb = build_demo_nb()
        a, b = (Instance(doc, np.zeros(d, dtype=int)) for doc, _ in two_topic_corpus(12, 2, doc_len=d))
        cold = regression_c_shapley(ValueFunction(nb, b), make_graph(), 3, constrained)
        g = make_graph()
        regression_c_shapley(ValueFunction(nb, a), g, 3, constrained)
        warm = regression_c_shapley(ValueFunction(nb, b), g, 3, constrained)
        assert warm.scores.tobytes() == cold.scores.tobytes()
        assert warm.model_evaluations == cold.model_evaluations
