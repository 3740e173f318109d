"""Shapley-style attribution: exact, neighborhood-local, connected-subset,
permutation-sampled, and graph-restricted (Myerson) estimators.

All estimators consume a memoized :class:`~shapgraph.valuation.SetFunction`,
so their reported ``model_evaluations`` is the number of distinct subsets the
run actually forced, with caching shared across features and methods.

Every estimator is a planner and a reducer joined by one :class:`Plan`: the
planner lists the distinct subsets the run needs as a
:class:`~shapgraph.valuation.SubsetTable`, and ``Plan.run`` values them in
one ``value_table`` call and hands their values, in table order, to the
reducer.  So a run's cost is known before any model call.

L- and C-Shapley list each planned feature's terms from its own
neighbourhood; together they make the plan's table, with the two subset
indices, weight and feature of each term held by the reducer, and the plan
step that first holds each subset.  A one-feature run is a one-step plan,
reduced the same way.

A plan that depends only on the graph or on d is built once and shared by
every instance: the all-features L-/C-Shapley, Myerson and regression
C-Shapley plans are kept on the graph (:func:`kept_plan`), and the exact plan
of the last d planned is kept here.  The seeded planners build a fresh plan
on every call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable

import numpy as np

from . import _kernels, graphs
from .errors import ConfigurationError
from .graphs import (
    FeatureGraph,
    connected_subsets_containing,
    k_neighborhood,
    pack_masks,
    submasks,
)
from .valuation import SetFunction, SubsetTable

C_SHAPLEY_WEIGHTINGS = ("myerson", "interior")


@dataclass
class AttributionResult:
    """Per-feature scores with run metadata."""

    method: str
    scores: np.ndarray
    model_evaluations: int
    order_k: int | None = None
    seed: int | None = None
    per_feature_evaluations: list[int] | None = field(default=None, repr=False)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    @property
    def d(self) -> int:
        return len(self.scores)

    def to_json(self) -> dict:
        """JSON-serializable summary.  ``elapsed_ms`` is always null: results
        carry no wall-clock time, so seeded runs serialize byte-identically."""
        return {
            "method": self.method,
            "k": self.order_k,
            "scores": [float(s) for s in self.scores],
            "evals": self.model_evaluations,
            "seed": self.seed,
            "elapsed_ms": None,
        }


@dataclass(eq=False)
class Plan:
    """The distinct subsets an estimator run needs, and how their values
    become scores.

    ``reduce`` turns the values of ``subsets``, in table order, into the
    scores.  It holds no game and no values, so a plan may be kept and run
    on many games.  The L-/C-Shapley and exact reducers also take the
    (n, m) values of m games at once and return (d, m) scores; an
    L-/C-Shapley column has the bits of that game's own reduction.
    ``first_turn[r]``, where given, is the step, out of ``turns``, that
    first needs subset r; the run then reports evaluations per step.
    """

    method: str
    subsets: SubsetTable
    reduce: Callable[[np.ndarray], np.ndarray]
    order_k: int | None = None
    seed: int | None = None
    first_turn: np.ndarray | None = None
    turns: int = 0

    @classmethod
    def of_masks(cls, method: str, masks, d: int, reduce: Callable[[np.ndarray], np.ndarray], **meta) -> "Plan":
        """The plan that reduces the values of ``masks``, subsets of d
        features, in their order and repeats included."""
        subsets, _, inverse = SubsetTable.distinct(pack_masks(masks, d), d)
        inverse = inverse.astype(np.int32)  # rows of a table of at most ENUMERATION_LIMIT
        return cls(method, subsets, lambda values: reduce(values[inverse]), **meta)

    def run(self, game: SetFunction) -> AttributionResult:
        """Value the subsets in one ``value_table`` call and reduce them.

        ``model_evaluations`` is every subset the call valued, the full set
        that a fresh value function values with them included; per step, that
        one falls to the first.
        """
        before = game.eval_count
        values, new = game.value_table(self.subsets)
        used = game.eval_count - before
        per_step = None
        if self.first_turn is not None:
            counts = np.bincount(self.first_turn[new], minlength=self.turns)
            counts[0] += used - int(new.sum())
            per_step = counts.tolist()
        return AttributionResult(self.method, self.reduce(values), used, self.order_k, self.seed, per_step)


def shapley_coefficient(n: int, t: int) -> float:
    """1 / (n * C(n-1, t-1)): the Shapley weight, among n players, of a
    marginal contribution to a coalition of size t that holds the player."""
    return 1.0 / (n * math.comb(n - 1, t - 1))


def exact_shapley_weights(d: int) -> np.ndarray:
    """w[s]: weight of v(S) with |S| = s for a member."""
    w = np.zeros(d + 1)
    for s in range(1, d + 1):
        w[s] = shapley_coefficient(d, s)
    return w


def kept_plan(g: FeatureGraph, key: tuple, build: Callable[[], Plan]) -> Plan:
    """The plan kept on the graph under ``key``, (method, order, variant),
    built by ``build`` on first use and kept for as long as the graph lives.
    Myerson checks its limit before the lookup, so a lowered limit still
    refuses its kept plan; the others check theirs only when built."""
    plan = g._tables.get(key)
    if plan is None:
        plan = g._tables[key] = build()
    return plan


def exact_shapley_plan(d: int) -> Plan:
    """The plan of exact Shapley values on d features: all 2**d subsets.
    The plan of the last d planned is kept for the next call."""
    graphs.check_size(1 << d, f"subsets of exact Shapley on {d} features")
    return _exact_plan(d)


@functools.lru_cache(maxsize=1)
def _exact_plan(d: int) -> Plan:
    # one plan at the 2^20 limit holds about 11 MB, so only the last d is kept
    weights = exact_shapley_weights(d)
    return Plan.of_masks("exact", np.arange(1 << d), d, lambda values: _kernels.shapley_scatter(values, d, weights))


def exact_shapley(game: SetFunction) -> AttributionResult:
    """Exact Shapley values by one pass over all 2**d subsets.

    Each subset value is scattered to every feature (positively where the
    feature is a member, negatively where it completes a larger subset), so
    the memoized game is evaluated at most 2**d times in total.
    """
    return exact_shapley_plan(game.d).run(game)


def l_shapley_terms(g: FeatureGraph, i: int, k: int) -> list[tuple[int, float]]:
    """(subset, weight) pairs of the order-k local estimate for feature i.

    The weights are the exact-Shapley coefficients restricted to the
    k-neighborhood: ``shapley_coefficient(|N|, |T|)`` for each T containing i.
    The terms run in descending order of T, the whole neighbourhood first;
    they are refused by :func:`~shapgraph.graphs.check_size` before any is
    listed.
    """
    nbhd = k_neighborhood(g, i, k)
    n = nbhd.bit_count()
    graphs.check_size(1 << (n - 1), f"L-Shapley terms of node {i}, whose neighbourhood holds {n} of {g.d} features")
    rest = reversed(submasks(nbhd & ~(1 << i)))
    return [(sub | (1 << i), shapley_coefficient(n, sub.bit_count() + 1)) for sub in rest]


def local_plan(
    method: str, g: FeatureGraph, k: int, weighting: str | None, features: Iterable[int] | None = None
) -> Plan:
    """The plan of the order-k L-Shapley (``method`` "l_shapley") or
    C-Shapley ("c_shapley") estimates of ``features``, or of every feature
    when that is None: weighted marginals v(S) - v(S minus i) summed per
    feature.  The every-feature plan is kept on the graph (see
    :func:`kept_plan`) under (method, k, weighting).

    Each feature's terms are packed, S and S minus i interleaved, into one
    block of member rows, so the plan's masks are never all Python integers
    at once; the rows are counted as each block is appended, and the blocks
    are freed before one :meth:`SubsetTable.distinct` over their rows.  The
    all-features C-Shapley plan of a 10x10 grid at k=2 peaks at about 8 MB
    of traced allocations this way.
    """
    if features is None:
        return kept_plan(g, (method, k, weighting), lambda: local_plan(method, g, k, weighting, range(g.d)))
    d = g.d
    features = list(features)
    blocks, weight_blocks = [], []
    rows, what = 0, f"packed rows of the {method} plan at k={k} on {d} features"
    for i in features:
        # called through the module so that tracing sees the enumeration
        terms = c_shapley_terms(g, i, k, weighting) if method == "c_shapley" else l_shapley_terms(g, i, k)
        rows += 2 * len(terms)
        graphs.check_size(rows, what)
        bit = 1 << i
        masks: list[int] = []
        for mask, _ in terms:
            masks += (mask, mask & ~bit)
        blocks.append(pack_masks(masks, d))
        weight_blocks.append(np.array([weight for _, weight in terms], dtype=np.float64))
    packed = np.concatenate(blocks)
    del blocks  # freed before the table is built, which lowers the build's peak
    subsets, first, inverse = SubsetTable.distinct(packed, d)
    sizes = [len(w) for w in weight_blocks]
    # term t: feature on[t], weight weights[t], subsets with_i[t] and without_i[t]
    on, weights = np.repeat(features, sizes), np.concatenate(weight_blocks)
    with_i, without_i = inverse[0::2].astype(np.int32), inverse[1::2].astype(np.int32)

    def reduce(values: np.ndarray) -> np.ndarray:  # each feature's sum adds its terms to 0.0 in order
        scores = np.zeros((d,) + values.shape[1:])
        marginals = values[with_i]
        marginals -= values[without_i]
        np.multiply(weights, marginals.T, out=marginals.T)
        np.add.at(scores, on, marginals)
        return scores

    first_turn = np.repeat(np.arange(len(features), dtype=np.int32), 2 * np.array(sizes))[first]
    return Plan(method, subsets, reduce, order_k=k, first_turn=first_turn, turns=len(features))


def l_shapley(game: SetFunction, g: FeatureGraph, i: int, k: int) -> float:
    """Order-k local Shapley estimate for feature i.

    Averages marginal contributions over every subset of the k-neighborhood
    containing i, with neighborhood-restricted Shapley coefficients.  For k at
    least the graph diameter this is the exact Shapley value.
    """
    return float(local_plan("l_shapley", g, k, None, [i]).run(game).scores[i])


def l_shapley_all(game: SetFunction, g: FeatureGraph, k: int) -> AttributionResult:
    """Local Shapley estimates for every feature, sharing one evaluation cache
    and filling the model batch across features."""
    return local_plan("l_shapley", g, k, None).run(game)


def connected_subset_weight(size: int, boundary: int) -> float:
    """Myerson-partition weight of a connected subset.

    ``boundary`` is how many of the subset's graph neighbors lie inside the
    enumeration universe; the weight is the total exact-Shapley coefficient
    mass of all supersets whose component containing the feature is exactly
    this subset: the Shapley coefficient of the subset among its own nodes
    and its blocked neighbors.  With two blocked neighbors it is the
    interior form.
    """
    return shapley_coefficient(size + boundary, size)


def interior_subset_weight(size: int) -> float:
    """Fixed interior-form coefficient 2 / ((u+2)(u+1)u), as a subset with
    two blocked neighbors gets it."""
    return shapley_coefficient(size + 2, size)


def c_shapley_terms(g: FeatureGraph, i: int, k: int, weighting: str = "myerson") -> list[tuple[int, float]]:
    """(subset, weight) pairs of the order-k connected estimate for feature i.

    ``weighting="myerson"`` accounts for each subset's actual boundary inside
    the neighborhood, which makes the order-d estimate coincide with the
    Myerson value of the component-additive game.  ``weighting="interior"``
    applies the interior coefficient to every subset regardless of boundary.
    """
    if weighting not in C_SHAPLEY_WEIGHTINGS:
        raise ValueError(f"weighting must be one of {C_SHAPLEY_WEIGHTINGS}, got {weighting!r}")
    nbhd = k_neighborhood(g, i, k)
    terms = []
    for mask in connected_subsets_containing(g, i, k):
        size = mask.bit_count()
        if weighting == "myerson":
            blocked = (g.boundary(mask) & nbhd).bit_count()
            weight = connected_subset_weight(size, blocked)
        else:
            weight = interior_subset_weight(size)
        terms.append((mask, weight))
    return terms


def c_shapley(game: SetFunction, g: FeatureGraph, i: int, k: int, weighting: str = "myerson") -> float:
    """Order-k connected-subset Shapley estimate for feature i.

    Sums weighted marginal contributions over the connected subsets of the
    k-neighborhood that contain i.
    """
    return float(local_plan("c_shapley", g, k, weighting, [i]).run(game).scores[i])


def c_shapley_all(game: SetFunction, g: FeatureGraph, k: int, weighting: str = "myerson") -> AttributionResult:
    """Connected-subset estimates for every feature, sharing one cache and
    filling the model batch across features."""
    return local_plan("c_shapley", g, k, weighting).run(game)


def sample_shapley_plan(d: int, num_permutations: int, seed: int) -> Plan:
    """The plan of a permutation-sampled estimate on d features: the
    prefixes of ``num_permutations`` orderings drawn from the seed."""
    if num_permutations < 1:
        raise ConfigurationError("need at least one permutation")
    graphs.check_size(num_permutations * (d + 1), f"permutation prefixes on {d} features")
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(d) for _ in range(num_permutations)]
    prefixes = []
    for perm in perms:  # the empty set, then each longer prefix
        prefixes += accumulate((1 << j for j in perm.tolist()), or_, initial=0)

    def reduce(values: np.ndarray) -> np.ndarray:
        totals = np.zeros(d)
        for perm, row in zip(perms, np.diff(values.reshape(num_permutations, d + 1))):
            totals[perm] += row
        return totals / num_permutations

    return Plan.of_masks("sample_shapley", prefixes, d, reduce, seed=seed)


def sample_shapley(
    game: SetFunction, num_permutations: int, seed: int
) -> AttributionResult:
    """Monte Carlo Shapley estimate from randomly sampled feature orderings.

    For each sampled permutation, every feature receives its marginal
    contribution to the set of features preceding it; scores are averaged
    over permutations.  The permutation stream is drawn from the seed before
    any evaluation, so results are reproducible.
    """
    return sample_shapley_plan(game.d, num_permutations, seed).run(game)


def myerson_plan(g: FeatureGraph) -> Plan:
    """The plan of the Myerson value on the graph's d features: v(empty),
    then every connected subset.  It is kept on the graph (see
    :func:`kept_plan`)."""
    graphs.check_size(1 << g.d, f"subsets of the Myerson value on {g.d} features")
    return kept_plan(g, ("myerson", None, None), lambda: _myerson_plan(g))


def _myerson_plan(g: FeatureGraph) -> Plan:
    d = g.d
    comp = _kernels.lowbit_component_masks(np.asarray(g.adjacency, dtype=np.int64), d)
    connected = np.unique(comp[1:])
    weights = exact_shapley_weights(d)

    def reduce(values: np.ndarray) -> np.ndarray:
        raw = np.zeros(1 << d)
        raw[connected] = values[1:] - values[0]
        table = _kernels.component_sum_table(comp, raw)
        return _kernels.shapley_scatter(table, d, weights)

    return Plan.of_masks("myerson", np.concatenate(([0], connected)), d, reduce)


def myerson_value(game: SetFunction, g: FeatureGraph) -> AttributionResult:
    """Shapley value of the component-additive extension of the game.

    The extension sums v(T) - v(empty) over the connected components of each
    subset (zero at the empty set), so games with a nonzero baseline behave
    the same as their zero-anchored counterparts.  The base game is queried
    only on connected subsets; reported evaluations are the distinct
    base-game queries.
    """
    return myerson_plan(g).run(game)
