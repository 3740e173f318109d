"""Machine checks of the mathematical claims behind the estimators.

Everything here works on dense joints over binary features and a finite
label, so conditionals, mutual informations and attribution scores are exact
summations rather than estimates.  Atom indexing convention: the row index of
the joint table encodes feature j's value as bit j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .attribution import c_shapley_terms, exact_shapley_weights, l_shapley_terms
from .errors import BudgetExceededError, ZeroMassError
from .graphs import FeatureGraph, connected_subsets_in, k_neighborhood, members_of
from .valuation import SetFunction

MAX_DENSE_FEATURES = 16
MAX_EXHAUSTIVE_FEATURES = 12
MAX_VERIFY_FEATURES = 10
BOUND_SLACK = 1e-9

# Only guards log(0) on zero-mass branches that are excluded from every sum;
# deliberately far below any probability a strictly positive joint can produce.
_TINY = 1e-300


# ---------------------------------------------------------------------------
# Combinatorial identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma1Result:
    lhs: Fraction
    rhs: Fraction
    equal: bool


def lemma1_check(n: int, s: int, t: int) -> Lemma1Result:
    """Exact-rational check of the binomial-sum identity

        sum_{j=0}^{n} C(n, j) / C(n+s, j+t)  ==  (s + 1 + n) / ((s+1) * C(s, t))

    for n >= 0 and s >= t >= 0.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not 0 <= t <= s:
        raise ValueError(f"need s >= t >= 0, got s={s}, t={t}")
    lhs = sum(
        (Fraction(math.comb(n, j), math.comb(n + s, j + t)) for j in range(n + 1)),
        Fraction(0),
    )
    rhs = Fraction(s + 1 + n, (s + 1) * math.comb(s, t))
    return Lemma1Result(lhs, rhs, lhs == rhs)


# ---------------------------------------------------------------------------
# Dense joints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteJoint:
    """Explicit joint distribution over d binary features and a finite label."""

    num_features: int
    num_classes: int
    table: np.ndarray  # (2**d, num_classes), sums to one

    def __post_init__(self):
        d, C = self.num_features, self.num_classes
        if d > MAX_DENSE_FEATURES:
            raise ValueError(f"dense joints support at most {MAX_DENSE_FEATURES} features, got {d}")
        table = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", table)
        if table.shape != (1 << d, C):
            raise ValueError(f"table must have shape {(1 << d, C)}, got {table.shape}")
        if np.any(table < 0):
            raise ValueError("joint masses must be nonnegative")
        if abs(table.sum() - 1.0) > 1e-12:
            raise ValueError(f"joint masses must sum to 1, got {table.sum()!r}")

    @property
    def d(self) -> int:
        return self.num_features

    def feature_marginal(self) -> np.ndarray:
        """P(x) for every atom."""
        return self.table.sum(axis=1)

    def label_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)


def random_joint(d: int, num_classes: int, seed: int) -> DiscreteJoint:
    """Strictly positive random joint: normalized exponential variates."""
    rng = np.random.default_rng(seed)
    masses = rng.exponential(size=(1 << d, num_classes))
    return DiscreteJoint(d, num_classes, masses / masses.sum())


class _Marginals:
    """Per-atom marginal probabilities of a joint, cached by coordinate mask.

    ``atoms(mask, with_label=True)`` returns an array of shape (2**d, C) whose
    (x, y) entry is P(x restricted to mask, y); without the label the shape is
    (2**d, 1) holding P(x restricted to mask), broadcastable against the
    labelled arrays.
    """

    def __init__(self, joint: DiscreteJoint):
        self.joint = joint
        self._feature = joint.feature_marginal()
        self._cache: dict[tuple[int, bool], np.ndarray] = {}

    def atoms(self, mask: int, with_label: bool) -> np.ndarray:
        key = (mask, with_label)
        if key not in self._cache:
            idx = _kernels.restriction_indices(self.joint.d, mask)
            size = 1 << bin(mask).count("1")
            # bincount adds each column in row order, as np.add.at would
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


def _pointwise_log_ratio(
    joint: DiscreteJoint,
    group_a: int,
    group_b: int,
    conditioning: int,
    condition_on_label: bool,
    marginals: _Marginals | None,
) -> np.ndarray:
    if group_a & group_b:
        raise ValueError("feature groups must be disjoint")
    if conditioning & (group_a | group_b):
        raise ValueError("conditioning set must be disjoint from both groups")
    m = marginals if marginals is not None else _Marginals(joint)
    wl = condition_on_label
    p_abz = m.atoms(group_a | group_b | conditioning, wl)
    p_az = m.atoms(group_a | conditioning, wl)
    p_bz = m.atoms(group_b | conditioning, wl)
    p_z = m.atoms(conditioning, wl)
    log_ratio = (
        np.log(np.maximum(p_abz, _TINY))
        + np.log(np.maximum(p_z, _TINY))
        - np.log(np.maximum(p_az, _TINY))
        - np.log(np.maximum(p_bz, _TINY))
    )
    if log_ratio.shape[1] == 1:
        log_ratio = np.broadcast_to(log_ratio, joint.table.shape)
    return log_ratio


def absolute_mutual_information(
    joint: DiscreteJoint,
    group_a: int,
    group_b: int,
    conditioning: int = 0,
    condition_on_label: bool = False,
    _marginals: _Marginals | None = None,
) -> float:
    """Expected absolute log density ratio between two feature groups.

    Exact summation of P(x, y) * |log P(a,b|z) - log P(a|z) - log P(b|z)| over
    the joint (optionally conditioning on the label as part of z); zero-mass
    atoms contribute nothing.  Zero if and only if the groups are independent
    given the conditioning, and never below the plain mutual information.
    """
    if group_a == 0 or group_b == 0:
        return 0.0
    log_ratio = _pointwise_log_ratio(
        joint, group_a, group_b, conditioning, condition_on_label, _marginals
    )
    w = joint.table
    return float(np.sum(np.where(w > 0, w * np.abs(log_ratio), 0.0)))


def mutual_information(
    joint: DiscreteJoint,
    group_a: int,
    group_b: int,
    conditioning: int = 0,
    condition_on_label: bool = False,
) -> float:
    """Plain (signed-log) mutual information; companion to the absolute form."""
    if group_a == 0 or group_b == 0:
        return 0.0
    log_ratio = _pointwise_log_ratio(
        joint, group_a, group_b, conditioning, condition_on_label, None
    )
    w = joint.table
    return float(np.sum(np.where(w > 0, w * log_ratio, 0.0)))


# ---------------------------------------------------------------------------
# Exact conditional models and value functions
# ---------------------------------------------------------------------------


class ExactConditionalModel:
    """Classifier backed by exact marginalization of a dense joint.

    ``conditional(values, subset)`` returns P(Y | X_S = x_S) by summing the
    table; the empty subset yields the label marginal.
    """

    def __init__(self, joint: DiscreteJoint):
        self.joint = joint
        self.num_classes = joint.num_classes
        self._marginals = _Marginals(joint)

    def _atom_of(self, values: np.ndarray) -> int:
        atom = 0
        for j, v in enumerate(values):
            if int(v) not in (0, 1):
                raise ValueError(f"features must be binary, got {v!r} at position {j}")
            atom |= int(v) << j
        return atom

    def conditional(self, values: np.ndarray, subset: int) -> np.ndarray:
        atom = self._atom_of(np.asarray(values))
        joint_rows = self._marginals.atoms(subset, True)[atom]
        mass = joint_rows.sum()
        if mass <= 0:
            raise ZeroMassError(
                f"conditioning event has zero probability: subset {members_of(subset)} "
                f"with values {[int((atom >> j) & 1) for j in members_of(subset)]}"
            )
        return joint_rows / mass

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        full = (1 << self.joint.d) - 1
        out = np.empty((values.shape[0], self.num_classes))
        for r in range(values.shape[0]):
            out[r] = np.log(np.maximum(self.conditional(values[r], full), _TINY))
        return out


class JointValueFunction(SetFunction):
    """Subset score for one atom, with exact conditionals as the estimator.

    ``expected_logprob`` weighs log P(y | x_S) by the true conditional
    P(y | x); ``predicted_class_logprob`` reads off the argmax class.
    """

    def __init__(self, joint: DiscreteJoint, values: np.ndarray, mode: str = "expected_logprob"):
        super().__init__(joint.d)
        self.model = ExactConditionalModel(joint)
        self.mode = mode
        self._values = np.asarray(values)
        base = self.model.conditional(self._values, (1 << joint.d) - 1)
        self._base = base
        self._pred = int(np.argmax(base))

    def _evaluate_many(self, masks):
        out = []
        for m in masks:
            cond = self.model.conditional(self._values, m)
            logp = np.log(np.maximum(cond, _TINY))
            if self.mode == "predicted_class_logprob":
                out.append(float(logp[self._pred]))
            else:
                out.append(float(np.sum(np.where(self._base > 0, self._base * logp, 0.0))))
        return out


def value_matrix(joint: DiscreteJoint, mode: str = "expected_logprob") -> np.ndarray:
    """V[mask, atom]: subset score at every atom under exact conditionals.

    Columns for zero-mass atoms are filled with zeros; every consumer weighs
    columns by atom mass, so those entries never contribute.
    """
    d, C = joint.d, joint.num_classes
    m = _Marginals(joint)
    p_full = m.atoms((1 << d) - 1, True)
    px = joint.feature_marginal()
    base = p_full / np.where(px[:, None] > 0, px[:, None], 1.0)
    V = np.empty((1 << d, 1 << d))
    for mask in range(1 << d):
        joint_rows = m.atoms(mask, True)
        mass = joint_rows.sum(axis=1, keepdims=True)
        cond = joint_rows / np.where(mass > 0, mass, 1.0)
        logp = np.log(np.maximum(cond, _TINY))
        if mode == "predicted_class_logprob":
            pred = np.argmax(base, axis=1)
            V[mask] = np.take_along_axis(logp, pred[:, None], axis=1)[:, 0]
        else:
            V[mask] = np.sum(np.where(base > 0, base * logp, 0.0), axis=1)
    return V


# ---------------------------------------------------------------------------
# Markov-style error bounds on the truncated estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonCertificate:
    """Supremum of the relevant absolute mutual informations, with witness."""

    epsilon: float
    witness: tuple[int, int]  # (conditioning subset U, probe subset V)
    conditioned_on_y: bool


def _check_exhaustion_budget(d: int) -> None:
    if d > MAX_EXHAUSTIVE_FEATURES:
        raise BudgetExceededError(
            f"exhaustive supremum over feature subsets is limited to "
            f"{MAX_EXHAUSTIVE_FEATURES} features, got {d}",
            count=1 << d,
        )


def _subsets_of(mask: int) -> list[int]:
    subs = [0]
    for j in members_of(mask):
        subs += [s | (1 << j) for s in subs]
    return subs


def epsilon_for_lshapley(
    joint: DiscreteJoint, g: FeatureGraph, i: int, s: int
) -> EpsilonCertificate:
    """Largest absolute (conditional) mutual information between feature i and
    any probe set outside s, conditioning on any subset of s minus i, with
    and without the label in the conditioning."""
    d = joint.d
    _check_exhaustion_budget(d)
    if not (s >> i) & 1:
        raise ValueError(f"feature {i} must belong to the subset {members_of(s)}")
    marginals = _Marginals(joint)
    outside = ((1 << d) - 1) & ~s
    best = EpsilonCertificate(0.0, (0, 0), False)
    for u in _subsets_of(s & ~(1 << i)):
        for v in _subsets_of(outside):
            if v == 0:
                continue
            for with_label in (True, False):
                val = absolute_mutual_information(
                    joint, 1 << i, v, u, with_label, _marginals=marginals
                )
                if val > best.epsilon:
                    best = EpsilonCertificate(val, (u, v), with_label)
    return best


def epsilon_for_cshapley(
    joint: DiscreteJoint, g: FeatureGraph, i: int, s: int
) -> EpsilonCertificate:
    """Supremum over connected subsets U of s containing i, probing sets drawn
    from the nodes neither in U nor adjacent to it."""
    d = joint.d
    _check_exhaustion_budget(d)
    if not (s >> i) & 1:
        raise ValueError(f"feature {i} must belong to the subset {members_of(s)}")
    marginals = _Marginals(joint)
    best = EpsilonCertificate(0.0, (0, 0), False)
    for u in connected_subsets_in(g, i, s):
        detached = ((1 << d) - 1) & ~u & ~g.boundary(u)
        cond = u & ~(1 << i)
        for v in _subsets_of(detached):
            if v == 0:
                continue
            for with_label in (True, False):
                val = absolute_mutual_information(
                    joint, 1 << i, v, cond, with_label, _marginals=marginals
                )
                if val > best.epsilon:
                    best = EpsilonCertificate(val, (cond, v), with_label)
    return best


@dataclass(frozen=True)
class TheoremReport:
    theorem: int
    feature: int
    order_k: int
    epsilon: float
    certificate: EpsilonCertificate
    expected_error: float
    bound: float
    holds: bool
    excluded_mass: float

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "i": self.feature,
            "k": self.order_k,
            "epsilon": self.epsilon,
            "expected_error": self.expected_error,
            "bound": self.bound,
            "holds": self.holds,
            "excluded_mass": self.excluded_mass,
        }


def _terms_estimate(V: np.ndarray, i: int, terms) -> np.ndarray:
    est = np.zeros(V.shape[1])
    for mask, weight in terms:
        est += weight * (V[mask] - V[mask & ~(1 << i)])
    return est


def _expected_abs_error(joint: DiscreteJoint, est: np.ndarray, exact: np.ndarray):
    px = joint.feature_marginal()
    live = px > 0
    err = float(np.sum(px[live] * np.abs(est - exact)[live]))
    return err, float(px[~live].sum())


def verify_theorem1(
    joint: DiscreteJoint,
    g: FeatureGraph,
    i: int,
    k: int,
    s: int | None = None,
) -> TheoremReport:
    """Check that the expected gap between the order-k local estimate and the
    exact Shapley score stays within four times the dependence supremum."""
    d = joint.d
    if d > MAX_VERIFY_FEATURES:
        raise BudgetExceededError(
            f"theorem verification is limited to {MAX_VERIFY_FEATURES} features, got {d}",
            count=1 << d,
        )
    if s is None:
        s = k_neighborhood(g, i, k)
    cert = epsilon_for_lshapley(joint, g, i, s)
    V = value_matrix(joint)
    exact = _kernels.shapley_scatter(V, d, exact_shapley_weights(d))[i]
    est = _terms_estimate(V, i, l_shapley_terms(g, i, k))
    err, excluded = _expected_abs_error(joint, est, exact)
    bound = 4.0 * cert.epsilon
    return TheoremReport(
        theorem=1,
        feature=i,
        order_k=k,
        epsilon=cert.epsilon,
        certificate=cert,
        expected_error=err,
        bound=bound,
        holds=err <= bound + BOUND_SLACK,
        excluded_mass=excluded,
    )


def verify_theorem2(
    joint: DiscreteJoint,
    g: FeatureGraph,
    i: int,
    k: int,
    s: int | None = None,
) -> TheoremReport:
    """Check that the expected gap between the order-k connected estimate and
    the exact Shapley score stays within six times the dependence supremum
    (which here also ranges over connected conditioning subsets)."""
    d = joint.d
    if d > MAX_VERIFY_FEATURES:
        raise BudgetExceededError(
            f"theorem verification is limited to {MAX_VERIFY_FEATURES} features, got {d}",
            count=1 << d,
        )
    if s is None:
        s = k_neighborhood(g, i, k)
    cert1 = epsilon_for_lshapley(joint, g, i, s)
    cert2 = epsilon_for_cshapley(joint, g, i, s)
    cert = cert2 if cert2.epsilon >= cert1.epsilon else cert1
    V = value_matrix(joint)
    exact = _kernels.shapley_scatter(V, d, exact_shapley_weights(d))[i]
    est = _terms_estimate(V, i, c_shapley_terms(g, i, k, weighting="myerson"))
    err, excluded = _expected_abs_error(joint, est, exact)
    bound = 6.0 * cert.epsilon
    return TheoremReport(
        theorem=2,
        feature=i,
        order_k=k,
        epsilon=cert.epsilon,
        certificate=cert,
        expected_error=err,
        bound=bound,
        holds=err <= bound + BOUND_SLACK,
        excluded_mass=excluded,
    )
