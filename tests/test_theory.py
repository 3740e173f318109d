import math
from fractions import Fraction

import numpy as np
import pytest

from shapgraph import (
    BudgetExceededError,
    DiscreteJoint,
    ExactConditionalModel,
    ZeroMassError,
    absolute_mutual_information,
    chain_graph,
    epsilon_for_cshapley,
    epsilon_for_lshapley,
    lemma1_check,
    random_joint,
    subset_of,
    verify_theorem1,
    verify_theorem2,
)
from shapgraph.models import markov_label_model
from shapgraph import _kernels
from shapgraph.theory import JointValueFunction, _Marginals, mutual_information, value_matrix

from oracles import absolute_mi_oracle, conditional_oracle, shapley_subset_oracle


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
        with pytest.raises(ValueError, match="at most"):
            DiscreteJoint(17, 2, np.zeros((1 << 17, 2)))

    def test_random_joint_strictly_positive_and_reproducible(self):
        a = random_joint(5, 3, seed=4)
        b = random_joint(5, 3, seed=4)
        np.testing.assert_array_equal(a.table, b.table)
        assert a.table.min() > 0


class TestMarginals:
    @pytest.mark.parametrize("d", [1, 3, 6, 10])
    def test_atoms_equal_add_at_formula(self, d):
        joint = random_joint(d, 3, seed=d)
        m = _Marginals(joint)
        for mask in range(1 << d):
            idx = _kernels.restriction_indices(d, mask)
            size = 1 << bin(mask).count("1")
            with_label = np.zeros((size, 3))
            np.add.at(with_label, idx, joint.table)
            assert (m.atoms(mask, True) == with_label[idx]).all()
            without = np.zeros(size)
            np.add.at(without, idx, joint.feature_marginal())
            assert m.atoms(mask, False).shape == (1 << d, 1)
            assert (m.atoms(mask, False) == without[idx][:, None]).all()


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
        probs = model.conditional(np.array([1, 0]), 0b11)
        np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-15)

    def test_empty_subset_is_label_marginal(self):
        joint = random_joint(3, 3, 5)
        model = ExactConditionalModel(joint)
        probs = model.conditional(np.array([0, 1, 0]), 0)
        np.testing.assert_allclose(probs, joint.label_marginal(), atol=1e-14)

    def test_matches_bayes_oracle(self):
        joint = random_joint(4, 3, 6)
        model = ExactConditionalModel(joint)
        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.integers(0, 2, size=4)
            subset = int(rng.integers(0, 16))
            got = model.conditional(values, subset)
            expected = conditional_oracle(joint.table, 4, 3, values, subset)
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_conditionals_are_proper(self):
        joint = random_joint(5, 2, 7)
        model = ExactConditionalModel(joint)
        rng = np.random.default_rng(1)
        for _ in range(30):
            values = rng.integers(0, 2, size=5)
            subset = int(rng.integers(0, 32))
            assert model.conditional(values, subset).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_event_raises(self):
        table = np.zeros((4, 2))
        table[0b00] = [0.5, 0.0]
        table[0b11] = [0.0, 0.5]
        model = ExactConditionalModel(DiscreteJoint(2, 2, table))
        with pytest.raises(ZeroMassError, match="zero probability"):
            model.conditional(np.array([1, 0]), 0b11)

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


class TestValueMatrixPredictedMode:
    def test_columns_match_value_function(self):
        joint = random_joint(4, 3, 99)
        V = value_matrix(joint, mode="predicted_class_logprob")
        for atom in (0, 7, 11):
            values = np.array([(atom >> j) & 1 for j in range(4)])
            vf = JointValueFunction(joint, values, mode="predicted_class_logprob")
            for mask in range(16):
                assert V[mask, atom] == pytest.approx(vf(mask), abs=1e-12)
