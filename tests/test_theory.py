import math
from fractions import Fraction

import numpy as np
import pytest

from shapgraph import (
    BudgetExceededError,
    ConfigurationError,
    DiscreteJoint,
    EvaluationError,
    ExactConditionalModel,
    ZeroMassError,
    absolute_mutual_information,
    chain_graph,
    epsilon_for_cshapley,
    epsilon_for_lshapley,
    grid_graph,
    k_neighborhood,
    lemma1_check,
    random_joint,
    subset_of,
    verify_theorem1,
    verify_theorem2,
)
from shapgraph.models import markov_label_model
from shapgraph import _kernels
from shapgraph.theory import _TINY, _marginal, _MarginalTable, value_matrix

from oracles import absolute_mi_oracle, conditional_oracle, shapley_subset_oracle
from reference_path import JointValueFunction, conditional


class TestLemma1:
    def test_n_zero_reduces_to_single_term(self):
        for s in range(6):
            for t in range(s + 1):
                result = lemma1_check(0, s, t)
                assert result.equal
                assert result.lhs == Fraction(1, math.comb(s, t))

    def test_hand_value(self):
        result = lemma1_check(1, 1, 0)
        assert result.lhs == result.rhs == Fraction(3, 2)

    def test_small_grid_exact(self):
        for n in range(8):
            for s in range(8):
                for t in range(s + 1):
                    assert lemma1_check(n, s, t).equal

    def test_precondition(self):
        with pytest.raises(ValueError):
            lemma1_check(2, 1, 2)
        with pytest.raises(ValueError):
            lemma1_check(-1, 1, 0)


class TestDiscreteJoint:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteJoint(2, 2, np.full((4, 2), 0.2))
        with pytest.raises(ValueError, match="nonnegative"):
            table = np.full((4, 2), 0.25)
            table[0, 0] = -0.25
            table[0, 1] = 0.5
            DiscreteJoint(2, 2, table)
        # refused before the table is read, so its shape is never checked
        with pytest.raises(BudgetExceededError, match="atoms of a dense joint on 21 features: 2097152, over the limit"):
            DiscreteJoint(21, 2, np.zeros((1, 2)))
        for classes in (0, -1):
            with pytest.raises(ConfigurationError, match=f"at least one class, got {classes}$"):
                DiscreteJoint(2, classes, np.zeros((4, 0)))
            with pytest.raises(ConfigurationError, match=f"at least one class, got {classes}$"):
                random_joint(2, classes, 0)
        for bad in (np.nan, np.inf):
            table = np.full((4, 2), 0.125)
            table[1, 0] = bad
            with pytest.raises(ConfigurationError, match="finite"):
                DiscreteJoint(2, 2, table)

    def test_random_joint_strictly_positive_and_reproducible(self):
        a = random_joint(5, 3, seed=4)
        b = random_joint(5, 3, seed=4)
        np.testing.assert_array_equal(a.table, b.table)
        assert a.table.min() > 0


class TestMarginals:
    @pytest.mark.parametrize("d", [1, 3, 6, 10])
    def test_atoms_equal_add_at_formula(self, d):
        joint = random_joint(d, 3, seed=d)
        m = _MarginalTable(joint)
        for mask in range(1 << d):
            idx = _kernels.restriction_indices(d, mask)
            size = 1 << bin(mask).count("1")
            with_label = np.zeros((size, 3))
            np.add.at(with_label, idx, joint.table)
            without = np.zeros(size)
            np.add.at(without, idx, joint.feature_marginal())
            for atoms in (lambda wl: _marginal(joint, mask, wl), lambda wl: m.table(wl)[m.codes(mask)]):
                assert (atoms(True) == with_label[idx]).all()
                assert atoms(False).shape == (1 << d, 1)
                assert (atoms(False) == without[idx][:, None]).all()


def mutual_information(joint, group_a, group_b, conditioning=0, condition_on_label=False):
    """Plain mutual information of two disjoint, nonempty feature groups:
    the expected signed log ratio whose absolute value
    ``absolute_mutual_information`` takes."""
    log_abz, log_z, log_az, log_bz = (
        np.log(np.maximum(_marginal(joint, mask, condition_on_label), _TINY))
        for mask in (group_a | group_b | conditioning, conditioning, group_a | conditioning, group_b | conditioning)
    )
    w = joint.table
    return float(np.sum(np.where(w > 0, w * (log_abz + log_z - log_az - log_bz), 0.0)))


class TestAbsoluteMutualInformation:
    def test_independent_product_is_zero(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        table = np.zeros((4, 1))
        for x in range(4):
            table[x, 0] = px[x & 1] * py[(x >> 1) & 1]
        joint = DiscreteJoint(2, 1, table)
        assert absolute_mutual_information(joint, 0b01, 0b10) == pytest.approx(0.0, abs=1e-14)

    def test_correlated_bits_log2(self):
        table = np.zeros((4, 1))
        table[0b00] = table[0b11] = 0.5
        joint = DiscreteJoint(2, 1, table)
        assert absolute_mutual_information(joint, 0b01, 0b10) == pytest.approx(np.log(2))

    def test_dominates_plain_mutual_information(self):
        for seed in range(10):
            joint = random_joint(4, 2, seed)
            a = subset_of([0, 2])
            b = subset_of([1])
            ia = absolute_mutual_information(joint, a, b)
            i = mutual_information(joint, a, b)
            assert ia >= abs(i) - 1e-12

    def test_symmetric_in_groups(self):
        joint = random_joint(4, 2, 11)
        a, b, z = 0b0001, 0b0110, 0b1000
        assert absolute_mutual_information(joint, a, b, z, True) == pytest.approx(
            absolute_mutual_information(joint, b, a, z, True), abs=1e-12
        )

    def test_matches_loop_oracle(self):
        joint = random_joint(4, 2, 12)
        for cond_label in (False, True):
            got = absolute_mutual_information(joint, 0b0001, 0b0100, 0b1010, cond_label)
            expected = absolute_mi_oracle(
                joint.table, 4, 2, 0b0001, 0b0100, 0b1010, cond_label
            )
            assert got == pytest.approx(expected, abs=1e-12)

    def test_overlap_rejected(self):
        joint = random_joint(3, 2, 0)
        with pytest.raises(ValueError, match="disjoint"):
            absolute_mutual_information(joint, 0b011, 0b001)
        with pytest.raises(ValueError, match="disjoint"):
            absolute_mutual_information(joint, 0b001, 0b010, conditioning=0b001)


class TestExactConditionalModel:
    def test_deterministic_joint_full_subset_one_hot(self):
        # y = x_0 exactly
        table = np.zeros((4, 2))
        for x in range(4):
            table[x, x & 1] = 0.25
        model = ExactConditionalModel(DiscreteJoint(2, 2, table))
        probs = conditional(model, np.array([1, 0]), 0b11)
        np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-15)

    def test_empty_subset_is_label_marginal(self):
        joint = random_joint(3, 3, 5)
        model = ExactConditionalModel(joint)
        probs = conditional(model, np.array([0, 1, 0]), 0)
        np.testing.assert_allclose(probs, joint.label_marginal(), atol=1e-14)

    def test_matches_bayes_oracle(self):
        joint = random_joint(4, 3, 6)
        model = ExactConditionalModel(joint)
        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.integers(0, 2, size=4)
            subset = int(rng.integers(0, 16))
            got = conditional(model, values, subset)
            expected = conditional_oracle(joint.table, 4, 3, values, subset)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_conditionals_are_proper(self):
        joint = random_joint(5, 2, 7)
        model = ExactConditionalModel(joint)
        rng = np.random.default_rng(1)
        for _ in range(30):
            values = rng.integers(0, 2, size=5)
            subset = int(rng.integers(0, 32))
            assert conditional(model, values, subset).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_event_raises(self):
        table = np.zeros((4, 2))
        table[0b00] = [0.5, 0.0]
        table[0b11] = [0.0, 0.5]
        model = ExactConditionalModel(DiscreteJoint(2, 2, table))
        with pytest.raises(ZeroMassError, match="zero probability"):
            conditional(model, np.array([1, 0]), 0b11)

    def test_value_vector_of_the_wrong_length_raises(self):
        model = ExactConditionalModel(random_joint(3, 2, 5))
        for values in (np.array([1, 0]), np.array([1, 0, 1, 1, 1])):
            with pytest.raises(EvaluationError, match=r"values must have shape \(n, 3\)"):
                conditional(model, values, 0b01)

    def test_value_function_counts_subsets(self):
        joint = random_joint(3, 2, 8)
        vf = JointValueFunction(joint, np.array([1, 0, 1]))
        vf.scores([0b101, 0b101, 0b011])
        assert vf.eval_count == 2


class TestValueMatrix:
    def test_columns_match_value_function(self):
        joint = random_joint(4, 2, 9)
        V = value_matrix(joint)
        for atom in (0, 5, 13):
            values = np.array([(atom >> j) & 1 for j in range(4)])
            vf = JointValueFunction(joint, values)
            for mask in range(16):
                assert V[mask, atom] == pytest.approx(vf(mask), abs=1e-12)


class TestEpsilon:
    def test_independent_features_zero(self):
        # product joint: every feature independent of everything incl. label
        probs = np.array([0.3, 0.8, 0.5, 0.6])
        table = np.zeros((16, 2))
        for x in range(16):
            p = 1.0
            for j in range(4):
                p *= probs[j] if (x >> j) & 1 else 1 - probs[j]
            table[x] = p * np.array([0.4, 0.6])
        joint = DiscreteJoint(4, 2, table)
        g = chain_graph(4)
        for i in range(4):
            s = subset_of([i])
            assert epsilon_for_lshapley(joint, g, i, s | (1 << i)).epsilon < 1e-12
            assert epsilon_for_cshapley(joint, g, i, s | (1 << i)).epsilon < 1e-12

    def test_hand_built_dependence_matches_direct_computation(self):
        # three features, X2 = X0 xor noise; conditioning on nothing
        joint = random_joint(3, 2, 10)
        g = chain_graph(3)
        cert = epsilon_for_lshapley(joint, g, 0, subset_of([0]))
        direct = max(
            absolute_mi_oracle(joint.table, 3, 2, 0b001, v, 0, wl)
            for v in (0b010, 0b100, 0b110)
            for wl in (True, False)
        )
        assert cert.epsilon == pytest.approx(direct, abs=1e-12)
        assert cert.witness[1] in (0b010, 0b100, 0b110)

    def test_markov_construction_has_zero_epsilon(self):
        _, joint = markov_label_model(seed=3, d=6, mixing=0.5)
        g = chain_graph(6)
        for i in range(6):
            from shapgraph import k_neighborhood

            cert = epsilon_for_lshapley(joint, g, i, k_neighborhood(g, i, 1))
            assert cert.epsilon < 1e-12

    def test_membership_precondition(self):
        joint = random_joint(3, 2, 0)
        with pytest.raises(ValueError):
            epsilon_for_lshapley(joint, chain_graph(3), 0, subset_of([1]))

    def test_budget_guard(self):
        joint = DiscreteJoint(13, 1, np.full((1 << 13, 1), 1.0 / (1 << 13)))
        with pytest.raises(BudgetExceededError):
            epsilon_for_lshapley(joint, chain_graph(13), 0, 1)


class TestTheorems:
    def test_random_joints_hold(self):
        g = chain_graph(5)
        for seed in range(25):
            joint = random_joint(5, 2, 100 + seed)
            r1 = verify_theorem1(joint, g, 2, 1)
            r2 = verify_theorem2(joint, g, 2, 1)
            assert r1.holds and r1.expected_error <= r1.bound + 1e-9
            assert r2.holds and r2.expected_error <= r2.bound + 1e-9
            assert r1.excluded_mass == 0.0

    def test_exact_shapley_side_matches_oracle(self):
        joint = random_joint(4, 2, 55)
        V = value_matrix(joint)
        atom = 9
        oracle = shapley_subset_oracle(lambda m: V[m, atom], 4)
        from shapgraph.attribution import exact_shapley_weights
        from shapgraph import _kernels

        mine = _kernels.shapley_scatter(V, 4, exact_shapley_weights(4))[:, atom]
        np.testing.assert_allclose(mine, oracle, atol=1e-10)

    def test_markov_equality_case(self):
        g = chain_graph(6)
        _, joint = markov_label_model(seed=21, d=6, mixing=0.7)
        for i in range(6):
            r1 = verify_theorem1(joint, g, i, 1)
            r2 = verify_theorem2(joint, g, i, 1)
            assert r1.expected_error <= 1e-9
            assert r2.expected_error <= 1e-9

    def test_mixing_zero_degenerates_to_iid(self):
        g = chain_graph(5)
        _, joint = markov_label_model(seed=2, d=5, mixing=0.0)
        for i in range(5):
            full = (1 << 5) - 1
            cert = epsilon_for_lshapley(joint, g, i, 1 << i)
            assert cert.epsilon < 1e-12

    def test_too_many_features_rejected(self):
        joint = DiscreteJoint(11, 1, np.full((1 << 11, 1), 1.0 / (1 << 11)))
        with pytest.raises(BudgetExceededError):
            verify_theorem1(joint, chain_graph(11), 0, 1)

    def test_holds_on_grid_graphs(self):
        from shapgraph import grid_graph

        g = grid_graph(2, 3)
        for seed in range(5):
            joint = random_joint(6, 2, 900 + seed)
            assert verify_theorem1(joint, g, 4, 1).holds
            assert verify_theorem2(joint, g, 4, 1).holds

    def test_holds_with_explicit_smaller_subset(self):
        # the bound may be looser with a poorer conditioning subset, but it
        # must still hold
        g = chain_graph(6)
        s = subset_of([2, 3])  # strictly inside the k=1 neighborhood of 3
        for seed in range(5):
            joint = random_joint(6, 2, 950 + seed)
            assert verify_theorem1(joint, g, 3, 1, s=s).holds
            assert verify_theorem2(joint, g, 3, 1, s=s).holds

    def test_holds_with_three_classes(self):
        g = chain_graph(5)
        for seed in range(5):
            joint = random_joint(5, 3, 970 + seed)
            assert verify_theorem1(joint, g, 2, 1).holds
            assert verify_theorem2(joint, g, 2, 1).holds


# ---------------------------------------------------------------------------
# Bitwise references: the per-mask code the ternary marginal table replaced.
# Every figure must equal (==) what these loops compute, not just approximate
# it, so that seeded theorem reports stay byte-identical.
# ---------------------------------------------------------------------------


class PerMaskMarginals:
    """One marginal per mask, from packed restriction indices and bincount."""

    def __init__(self, joint):
        self.joint = joint
        self._feature = joint.feature_marginal()
        self._cache = {}

    def atoms(self, mask, with_label):
        key = (mask, with_label)
        if key not in self._cache:
            idx = _kernels.restriction_indices(self.joint.d, mask)
            size = 1 << bin(mask).count("1")
            if with_label:
                table = self.joint.table
                marg = np.stack(
                    [np.bincount(idx, weights=table[:, c], minlength=size) for c in range(table.shape[1])],
                    axis=1,
                )
                self._cache[key] = marg[idx]
            else:
                marg = np.bincount(idx, weights=self._feature, minlength=size)
                self._cache[key] = marg[idx][:, None]
        return self._cache[key]


def per_mask_absolute_mi(joint, m, a, b, z, with_label):
    tiny = 1e-300
    log_ratio = (
        np.log(np.maximum(m.atoms(a | b | z, with_label), tiny))
        + np.log(np.maximum(m.atoms(z, with_label), tiny))
        - np.log(np.maximum(m.atoms(a | z, with_label), tiny))
        - np.log(np.maximum(m.atoms(b | z, with_label), tiny))
    )
    if log_ratio.shape[1] == 1:
        log_ratio = np.broadcast_to(log_ratio, joint.table.shape)
    w = joint.table
    return float(np.sum(np.where(w > 0, w * np.abs(log_ratio), 0.0)))


def per_probe_epsilon(joint, i, scans):
    """The (u, v, label) loop: scans yields (conditioning, probe space)."""
    from shapgraph.graphs import submasks
    from shapgraph.theory import EpsilonCertificate

    m = PerMaskMarginals(joint)
    best = EpsilonCertificate(0.0, (0, 0), False)
    for cond, space in scans:
        for v in submasks(space):
            if v == 0:
                continue
            for with_label in (True, False):
                val = per_mask_absolute_mi(joint, m, 1 << i, v, cond, with_label)
                if val > best.epsilon:
                    best = EpsilonCertificate(val, (cond, v), with_label)
    return best


def per_probe_epsilon_l(joint, g, i, s):
    from shapgraph.graphs import submasks

    outside = ((1 << joint.d) - 1) & ~s
    return per_probe_epsilon(joint, i, ((u, outside) for u in submasks(s & ~(1 << i))))


def per_probe_epsilon_c(joint, g, i, s):
    from shapgraph.graphs import connected_subsets_in

    full = (1 << joint.d) - 1
    scans = ((u & ~(1 << i), full & ~u & ~g.boundary(u)) for u in connected_subsets_in(g, i, s))
    return per_probe_epsilon(joint, i, scans)


def per_mask_value_matrix(joint):
    d = joint.d
    m = PerMaskMarginals(joint)
    p_full = m.atoms((1 << d) - 1, True)
    px = joint.feature_marginal()
    base = p_full / np.where(px[:, None] > 0, px[:, None], 1.0)
    V = np.empty((1 << d, 1 << d))
    for mask in range(1 << d):
        joint_rows = m.atoms(mask, True)
        mass = joint_rows.sum(axis=1, keepdims=True)
        cond = joint_rows / np.where(mass > 0, mass, 1.0)
        logp = np.log(np.maximum(cond, 1e-300))
        V[mask] = np.sum(np.where(base > 0, base * logp, 0.0), axis=1)
    return V


def per_row_evaluate_batch(joint, values):
    """One conditional per row, each from the full-mask marginal."""
    m = PerMaskMarginals(joint)
    full = (1 << joint.d) - 1
    out = np.empty((values.shape[0], joint.num_classes))
    for r in range(values.shape[0]):
        atom = sum(int(v) << j for j, v in enumerate(values[r]))
        joint_rows = m.atoms(full, True)[atom]
        out[r] = np.log(np.maximum(joint_rows / joint_rows.sum(), 1e-300))
    return out


def sparse_joint(d, num_classes, seed):
    """A joint with zero-mass atoms and cells, so every zero branch is taken."""
    rng = np.random.default_rng(seed)
    masses = rng.exponential(size=(1 << d, num_classes))
    masses[rng.random(masses.shape) < 0.3] = 0.0
    masses[rng.integers(1 << d)] = 0.0
    return DiscreteJoint(d, num_classes, masses / masses.sum())


JOINT_KINDS = {"positive": random_joint, "sparse": sparse_joint}


class TestBitwiseReferences:
    @pytest.mark.parametrize("kind", sorted(JOINT_KINDS))
    @pytest.mark.parametrize("C", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 5, 8, 10])
    def test_marginals_equal_per_mask_bincount(self, d, C, kind):
        joint = JOINT_KINDS[kind](d, C, 40 + d)
        ref = PerMaskMarginals(joint)
        table = _MarginalTable(joint)
        masks = range(1 << d) if d <= 8 else np.random.default_rng(d).integers(0, 1 << d, 64)
        for mask in masks:
            for with_label in (True, False):
                expected = ref.atoms(int(mask), with_label)
                for got in (_marginal(joint, int(mask), with_label), table.table(with_label)[table.codes(int(mask))]):
                    assert got.shape == expected.shape
                    assert (got == expected).all(), (mask, with_label)

    @pytest.mark.parametrize(
        "g, i, k",
        [(chain_graph(6), 3, 1), (chain_graph(8), 4, 1), (chain_graph(8), 0, 2), (grid_graph(2, 3), 4, 1)],
        ids=["chain6", "chain8", "chain8-k2", "grid2x3"],
    )
    @pytest.mark.parametrize("C", [1, 2, 3])
    def test_epsilon_certificates_equal_per_probe_loops(self, g, i, k, C):
        s = k_neighborhood(g, i, k)
        for seed in range(3):
            for joint in (random_joint(g.d, C, 60 + seed), sparse_joint(g.d, C, 60 + seed)):
                assert epsilon_for_lshapley(joint, g, i, s) == per_probe_epsilon_l(joint, g, i, s)
                assert epsilon_for_cshapley(joint, g, i, s) == per_probe_epsilon_c(joint, g, i, s)
                # a smaller s than the neighbourhood, so that U ranges differently
                assert epsilon_for_lshapley(joint, g, i, 1 << i) == per_probe_epsilon_l(joint, g, i, 1 << i)

    def test_epsilon_ties_keep_first_witness(self):
        # a product joint: every candidate is (numerically) zero or tied, so
        # the witness comes from the loop order alone
        _, joint = markov_label_model(seed=5, d=5, mixing=0.0)
        g = chain_graph(5)
        for i in range(5):
            assert epsilon_for_lshapley(joint, g, i, 1 << i) == per_probe_epsilon_l(joint, g, i, 1 << i)

    @pytest.mark.parametrize("mode", ["expected_logprob"])  # the one mode value_matrix computes
    @pytest.mark.parametrize("C", [1, 2, 3, 9])
    @pytest.mark.parametrize("d", [1, 3, 6, 8])
    def test_value_matrix_equals_per_mask_loop(self, d, C, mode):
        for joint in (random_joint(d, C, 80 + d), sparse_joint(d, C, 80 + d)):
            assert (value_matrix(joint) == per_mask_value_matrix(joint)).all()

    @pytest.mark.parametrize("C", [1, 2, 3, 9, 17])
    def test_evaluate_batch_equals_per_row_loop(self, C):
        joint = random_joint(6, C, 90 + C)
        values = np.random.default_rng(C).integers(0, 2, size=(200, 6))
        got = ExactConditionalModel(joint).evaluate_batch(values)
        assert (got == per_row_evaluate_batch(joint, values)).all()
        floats = ExactConditionalModel(joint).evaluate_batch(values.astype(float))
        assert (floats == got).all()

    def test_theorem_reports_equal_per_mask_pipeline(self):
        from shapgraph.attribution import c_shapley_terms, exact_shapley_weights, l_shapley_terms
        from shapgraph.theory import _expected_abs_error

        g = chain_graph(7)
        i = 3
        for seed in range(3):
            joint = random_joint(7, 2, 95 + seed)
            V = per_mask_value_matrix(joint)
            exact = _kernels.shapley_scatter(V, 7, exact_shapley_weights(7))[i]
            for theorem, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
                verify = verify_theorem1 if theorem == 1 else verify_theorem2
                s = k_neighborhood(g, i, k)
                report = verify(joint, g, i, k)
                cert = per_probe_epsilon_l(joint, g, i, s)
                terms = l_shapley_terms(g, i, k)
                if theorem == 2:  # the C certificate wins ties
                    cert = max(per_probe_epsilon_c(joint, g, i, s), cert, key=lambda c: c.epsilon)
                    terms = c_shapley_terms(g, i, k, "myerson")
                est = np.zeros(V.shape[1])
                for mask, weight in terms:
                    est += weight * (V[mask] - V[mask & ~(1 << i)])
                err, excluded = _expected_abs_error(joint, est, exact)
                bound = (4.0 if theorem == 1 else 6.0) * cert.epsilon
                assert report.certificate == cert
                assert (report.expected_error, report.bound, report.excluded_mass) == (err, bound, excluded)


class TestEvaluateBatchChecks:
    def test_zero_mass_row_named(self):
        table = np.zeros((4, 2))
        table[0b00] = [0.5, 0.0]
        table[0b11] = [0.0, 0.5]
        model = ExactConditionalModel(DiscreteJoint(2, 2, table))
        with pytest.raises(ZeroMassError, match=r"zero probability: row 2, values \[1, 0\]"):
            model.evaluate_batch(np.array([[0, 0], [1, 1], [1, 0]]))

    def test_non_binary_feature_rejected(self):
        model = ExactConditionalModel(random_joint(3, 2, 0))
        with pytest.raises(EvaluationError, match="binary.*position 2 of row 1"):
            model.evaluate_batch(np.array([[0, 1, 1], [1, 0, 2]]))
        with pytest.raises(EvaluationError, match="binary"):
            model.evaluate_batch(np.array([[0.0, np.nan, 1.0]]))
        with pytest.raises(EvaluationError, match="shape"):
            model.evaluate_batch(np.array([0, 1, 1]))
        with pytest.raises(EvaluationError, match=r"binary.*0\.5 at position 1 of row 0"):
            model.evaluate_batch(np.array([[0.0, 0.5, 1.0]]))


class TestWideJointsBuildNoTable:
    def test_d16_model_and_information_stay_linear_in_atoms(self):
        import tracemalloc

        d, C = 16, 2
        joint = random_joint(d, C, 16)
        # the largest array a per-mask marginal needs is (2**d, C); a 3**d
        # table would need 3**16 * C * 8 bytes, some 690 MB
        limit = 12 * (1 << d) * C * 8
        values = np.random.default_rng(0).integers(0, 2, size=(64, d))
        tracemalloc.start()
        try:
            model = ExactConditionalModel(joint)
            out = model.evaluate_batch(values)
            probs = conditional(model, values[0], 0b1010_0000_1111_0001)
            vf = JointValueFunction(joint, values[1])
            scores = vf.scores([0, 0b11, (1 << d) - 1])
            mi = mutual_information(joint, 0b1, 0b110, 0b1000, True)
            ami = absolute_mutual_information(joint, 0b1, 0b110, 0b1000, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, peak
        assert out.shape == (64, C) and np.isfinite(out).all()
        assert probs.sum() == pytest.approx(1.0)
        assert np.isfinite(scores).all() and ami >= abs(mi) - 1e-12
