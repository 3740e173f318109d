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

from . import _kernels, graphs
from .attribution import exact_shapley_weights, local_plan
from .errors import ConfigurationError, ZeroMassError
from .graphs import (
    FeatureGraph,
    connected_subsets_in,
    k_neighborhood,
    members_of,
    row_masks,
    submasks,
)
from .valuation import checked_codes

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
        check_joint_size(d, C)
        table = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", table)
        if table.shape != (1 << d, C):
            raise ConfigurationError(f"table must have shape {(1 << d, C)}, got {table.shape}")
        if not np.isfinite(table).all():
            raise ConfigurationError("joint masses must be finite")
        if np.any(table < 0):
            raise ConfigurationError("joint masses must be nonnegative")
        if abs(table.sum() - 1.0) > 1e-12:
            raise ConfigurationError(f"joint masses must sum to 1, got {table.sum()!r}")

    @property
    def d(self) -> int:
        return self.num_features

    def feature_marginal(self) -> np.ndarray:
        """P(x) for every atom."""
        return _kernels.row_sums(self.table)

    def label_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)


def check_joint_size(d: int, num_classes: int) -> None:
    """Refuse a joint of no class, or of more atoms than
    :func:`~shapgraph.graphs.check_size` admits."""
    if num_classes < 1:
        raise ConfigurationError(f"a dense joint needs at least one class, got {num_classes}")
    graphs.check_size(1 << d, f"atoms of a dense joint on {d} features")


def check_value_matrix_size(d: int) -> None:
    """Refuse a value matrix, and so a theorem check, on d features: 4^d
    (mask, atom) entries."""
    graphs.check_size(4**d, f"value-matrix entries on {d} features")


def random_joint(d: int, num_classes: int, seed: int) -> DiscreteJoint:
    """Strictly positive random joint: normalized exponential variates."""
    check_joint_size(d, num_classes)
    rng = np.random.default_rng(seed)
    masses = rng.exponential(size=(1 << d, num_classes))
    return DiscreteJoint(d, num_classes, masses / masses.sum())


def _ternary_codes(d: int) -> np.ndarray:
    """``tern[b]``: the sum of 3**j over the bits j of b, for every b < 2**d."""
    tern = np.zeros(1 << d, dtype=np.int64)
    for j in range(d):
        tern[1 << j : 2 << j] = tern[: 1 << j] + 3**j
    return tern


def _marginal(joint: DiscreteJoint, mask: int, with_label: bool) -> np.ndarray:
    """P(x restricted to mask, y) at every atom x, of shape (2**d, C), or
    without the label P(x restricted to mask), of shape (2**d, 1).  Each
    cell adds its atoms in ascending order from 0.0, as the cells of
    :class:`_MarginalTable` do, so the two agree bitwise."""
    # x & mask indexes the restriction of x without packing its bits
    idx = np.arange(1 << joint.d, dtype=np.int64) & mask
    columns = joint.table.T if with_label else joint.feature_marginal()[None]
    marginals = [np.bincount(idx, weights=column, minlength=mask + 1) for column in columns]
    return np.take(np.stack(marginals, axis=1), idx, axis=0)


class _MarginalTable:
    """Every coordinate marginal of a joint, built once, for callers that
    need nearly all of them.

    There is one table per label setting, indexed by ternary code: digit j
    is x_j for a kept coordinate and 2 for a summed-out one.  ``table(True)``
    has shape (3**d, C) and ``table(False)`` (3**d, 1); ``codes(mask)`` are
    the rows of every atom's restriction, so ``table(wl)[codes(mask)]`` is
    :func:`_marginal` of ``mask``, bitwise.  ``log_table`` is the table's
    log, floored at ``_TINY`` and built on first use.
    """

    def __init__(self, joint: DiscreteJoint):
        d, C = joint.d, joint.num_classes
        self.joint = joint
        self._atoms = masks = np.arange(1 << d, dtype=np.int64)
        self._tern = tern = _ternary_codes(d)
        summed_out = 2 * tern[((1 << d) - 1) & ~masks]
        columns = np.concatenate([joint.table, joint.feature_marginal()[:, None]], axis=1).T
        tables = np.zeros((C + 1, 3**d))
        # atoms in ascending order, one code per mask for each: add.at applies
        # them in order, so every cell adds its atoms as a bincount would
        step = _kernels.chunk_rows(8 << d)
        for x0 in range(0, 1 << d, step):
            xs = masks[x0 : x0 + step]
            codes = (tern[xs[:, None] & masks] + summed_out).reshape(-1)
            for column, src in zip(tables, columns):
                np.add.at(column, codes, np.repeat(src[xs], 1 << d))
        self._tables = {True: np.ascontiguousarray(tables[:C].T), False: np.ascontiguousarray(tables[C:].T)}
        self._log_tables: dict[bool, np.ndarray] = {}

    def codes(self, masks) -> np.ndarray:
        """Table rows of every atom, for one mask (2**d,) or many (n, 2**d)."""
        full = (1 << self.joint.d) - 1
        masks = np.asarray(masks, dtype=np.int64)
        tern = self._tern
        return tern[self._atoms & masks[..., None]] + 2 * tern[full & ~masks][..., None]

    def table(self, with_label: bool) -> np.ndarray:
        return self._tables[with_label]

    def log_table(self, with_label: bool) -> np.ndarray:
        if with_label not in self._log_tables:
            self._log_tables[with_label] = np.log(np.maximum(self._tables[with_label], _TINY))
        return self._log_tables[with_label]


def absolute_mutual_information(
    joint: DiscreteJoint,
    group_a: int,
    group_b: int,
    conditioning: int = 0,
    condition_on_label: bool = False,
) -> float:
    """Expected absolute log density ratio between two feature groups.

    Exact summation of P(x, y) * |log P(a,b|z) - log P(a|z) - log P(b|z)| over
    the joint (optionally conditioning on the label as part of z); zero-mass
    atoms contribute nothing.  Zero if and only if the groups are independent
    given the conditioning, and never below the plain mutual information.
    """
    if group_a == 0 or group_b == 0:
        return 0.0
    if group_a & group_b:
        raise ValueError("feature groups must be disjoint")
    if conditioning & (group_a | group_b):
        raise ValueError("conditioning set must be disjoint from both groups")
    log_abz, log_z, log_az, log_bz = (
        np.log(np.maximum(_marginal(joint, mask, condition_on_label), _TINY))
        for mask in (group_a | group_b | conditioning, conditioning, group_a | conditioning, group_b | conditioning)
    )
    log_ratio = log_abz + log_z - log_az - log_bz
    w = joint.table
    return float(np.sum(np.where(w > 0, w * np.abs(log_ratio), 0.0)))


# ---------------------------------------------------------------------------
# Exact conditional models and the value matrix
# ---------------------------------------------------------------------------


class ExactConditionalModel:
    """Classifier backed by a dense joint: ``evaluate_batch`` returns
    log P(Y | X = x) of each row, read off the joint's table."""

    def __init__(self, joint: DiscreteJoint):
        self.joint = joint
        self.num_classes = joint.num_classes

    def _atoms(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (n, d) rows ``values`` as 0/1 codes, checked by
        :func:`~shapgraph.valuation.checked_codes`, and the atom of each row:
        its bits packed into one index of the joint table."""
        bits = checked_codes(values, 2, "binary features", self.joint.d)
        return bits, bits @ (1 << np.arange(self.joint.d, dtype=np.int64))

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        bits, atoms = self._atoms(values)
        # the full-mask marginal is the joint table itself
        joint_rows = self.joint.table[atoms]
        mass = joint_rows.sum(axis=1, keepdims=True)
        zero = np.flatnonzero(mass[:, 0] <= 0)
        if zero.size:
            r = zero[0]
            raise ZeroMassError(
                f"conditioning event has zero probability: row {r}, "
                f"values {[int(v) for v in bits[r]]}"
            )
        return np.log(np.maximum(joint_rows / mass, _TINY))


def value_matrix(joint: DiscreteJoint, _marginals: _MarginalTable | None = None) -> np.ndarray:
    """V[mask, atom]: the expected log-probability of the label given the
    subset, at every atom, under exact conditionals.

    Columns for zero-mass atoms are filled with zeros; every consumer weighs
    columns by atom mass, so those entries never contribute.
    """
    d, C = joint.d, joint.num_classes
    check_value_matrix_size(d)
    m = _marginals if _marginals is not None else _MarginalTable(joint)
    px = joint.feature_marginal()
    # the full-mask marginal is the joint table itself
    base = joint.table / np.where(px[:, None] > 0, px[:, None], 1.0)
    # log conditionals of every (mask, restriction) row of the table at once
    joint_rows = m.table(True)
    mass = _kernels.row_sums(joint_rows)[:, None]
    log_cond = np.log(np.maximum(joint_rows / np.where(mass > 0, mass, 1.0), _TINY))
    V = np.empty((1 << d, 1 << d))
    step = _kernels.chunk_rows(C << (d + 3))
    live = base > 0
    for lo in range(0, 1 << d, step):
        logp = np.take(log_cond, m.codes(np.arange(lo, min(lo + step, 1 << d))), axis=0)
        V[lo : lo + step] = _kernels.row_sums(np.where(live, base * logp, 0.0))
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


def _absolute_mi_of_probes(
    m: _MarginalTable, i: int, probes: list[int], cond: int, with_label: bool
) -> np.ndarray:
    """``absolute_mutual_information(joint, 1 << i, v, cond, with_label)`` for
    every probe set v, bitwise as that function computes it, from the log
    table of ``m``."""
    w = m.joint.table
    live = w > 0
    log_p = m.log_table(with_label)
    a = 1 << i
    # adding i to a mask moves digit i of every code from 2 to x_i
    gain = m.codes(a) - m.codes(0)
    z = m.codes(cond)
    log_z = np.take(log_p, z, axis=0)
    log_az = np.take(log_p, z + gain, axis=0)
    out = np.empty(len(probes))
    step = _kernels.chunk_rows(w.nbytes)
    for lo in range(0, len(probes), step):
        bz = m.codes(np.asarray(probes[lo : lo + step], dtype=np.int64) | cond)
        log_abz = np.take(log_p, bz + gain, axis=0)
        log_ratio = ((log_abz + log_z) - log_az) - np.take(log_p, bz, axis=0)
        terms = np.where(live, w * np.abs(log_ratio), 0.0)
        out[lo : lo + len(bz)] = terms.reshape(len(bz), -1).sum(axis=1)
    return out


def _epsilon_supremum(m: _MarginalTable, i: int, scans) -> EpsilonCertificate:
    """Largest absolute mutual information between feature i and a probe set,
    over ``scans`` of (conditioning set, mask whose nonempty subsets are the
    probe sets), each with and without the label.  Ties keep the first
    maximum in (scan, probe set, label first) order."""
    best = EpsilonCertificate(0.0, (0, 0), False)
    for cond, space in scans:
        probes = submasks(space)[1:]
        if not probes:
            continue
        vals = np.stack([_absolute_mi_of_probes(m, i, probes, cond, wl) for wl in (True, False)], axis=1)
        top = int(np.argmax(vals))
        if vals.flat[top] > best.epsilon:
            best = EpsilonCertificate(float(vals.flat[top]), (cond, probes[top // 2]), top % 2 == 0)
    return best


def _epsilon_marginals(joint: DiscreteJoint, i: int, s: int, marginals: _MarginalTable | None) -> _MarginalTable:
    graphs.check_size(3**joint.d, f"marginal rows of an epsilon scan on {joint.d} features")
    if not (s >> i) & 1:
        raise ValueError(f"feature {i} must belong to the subset {members_of(s)}")
    return marginals if marginals is not None else _MarginalTable(joint)


def epsilon_for_lshapley(
    joint: DiscreteJoint, g: FeatureGraph, i: int, s: int, _marginals: _MarginalTable | None = None
) -> EpsilonCertificate:
    """Largest absolute (conditional) mutual information between feature i and
    any probe set outside s, conditioning on any subset of s minus i, with
    and without the label in the conditioning."""
    m = _epsilon_marginals(joint, i, s, _marginals)
    outside = ((1 << joint.d) - 1) & ~s
    return _epsilon_supremum(m, i, ((u, outside) for u in submasks(s & ~(1 << i))))


def epsilon_for_cshapley(
    joint: DiscreteJoint, g: FeatureGraph, i: int, s: int, _marginals: _MarginalTable | None = None
) -> EpsilonCertificate:
    """Supremum over connected subsets U of s containing i, probing sets drawn
    from the nodes neither in U nor adjacent to it."""
    m = _epsilon_marginals(joint, i, s, _marginals)
    full = (1 << joint.d) - 1
    scans = ((u & ~(1 << i), full & ~u & ~g.boundary(u)) for u in connected_subsets_in(g, i, s))
    return _epsilon_supremum(m, i, scans)


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


def _expected_abs_error(joint: DiscreteJoint, est: np.ndarray, exact: np.ndarray):
    px = joint.feature_marginal()
    live = px > 0
    err = float(np.sum(px[live] * np.abs(est - exact)[live]))
    return err, float(px[~live].sum())


def _verify_theorem(
    theorem: int, joint: DiscreteJoint, g: FeatureGraph, i: int, k: int, s: int | None
) -> TheoremReport:
    d = joint.d
    check_value_matrix_size(d)
    if s is None:
        s = k_neighborhood(g, i, k)
    marginals = _MarginalTable(joint)
    cert = epsilon_for_lshapley(joint, g, i, s, _marginals=marginals)
    if theorem == 1:
        plan = local_plan("l_shapley", g, k, None, [i])
    else:
        cert2 = epsilon_for_cshapley(joint, g, i, s, _marginals=marginals)
        cert = cert2 if cert2.epsilon >= cert.epsilon else cert
        plan = local_plan("c_shapley", g, k, "myerson", [i])
    V = value_matrix(joint, _marginals=marginals)
    del marginals  # free the tables before the scatter's temporaries
    weights = np.asarray(exact_shapley_weights(d), dtype=np.float64)[_kernels.popcounts(d)]
    exact = _kernels.feature_score(V, weights, i)
    # the shipped estimator's reduction, run on every atom's game at once
    est = plan.reduce(V[row_masks(plan.subsets.rows)])[i]
    err, excluded = _expected_abs_error(joint, est, exact)
    bound = (4.0 if theorem == 1 else 6.0) * cert.epsilon
    return TheoremReport(
        theorem=theorem,
        feature=i,
        order_k=k,
        epsilon=cert.epsilon,
        certificate=cert,
        expected_error=err,
        bound=bound,
        holds=err <= bound + BOUND_SLACK,
        excluded_mass=excluded,
    )


def verify_theorem1(
    joint: DiscreteJoint,
    g: FeatureGraph,
    i: int,
    k: int,
    s: int | None = None,
) -> TheoremReport:
    """Check that the expected gap between the order-k local estimate and the
    exact Shapley score stays within four times the dependence supremum."""
    return _verify_theorem(1, joint, g, i, k, s)


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
    return _verify_theorem(2, joint, g, i, k, s)
