"""Shapley-style attribution: exact, neighborhood-local, connected-subset,
permutation-sampled, and graph-restricted (Myerson) estimators.

All estimators consume a memoized :class:`~shapgraph.valuation.SetFunction`,
so their reported ``model_evaluations`` is the number of distinct subsets the
run actually forced, with caching shared across features and methods.

L- and C-Shapley plan their terms before they value anything.  Features
whose neighbourhoods have the same shape share one term template, and the
templates of every feature make one :class:`PlanTable`: the plan's distinct
subsets as packed member rows, the two subset indices, weight and feature of
each term, and the plan step that first holds each subset.  The tables of
all-features runs live on the graph next to the templates, so explaining
many instances on one graph plans once; the game values a table in one
``value_table`` call, and the scores are one scatter over its terms.  A
one-feature run values its one template's masks with ``scores``, a
``value_table`` call too, which finds them in the game's one value store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import or_
from typing import Iterable, Iterator

import numpy as np

from . import _kernels
from .errors import BudgetExceededError, ConfigurationError
from .graphs import (
    DEFAULT_ENUMERATION_BUDGET,
    FeatureGraph,
    connected_subsets_containing,
    iter_bits,
    k_neighborhood,
    pack_masks,
    submasks,
)
from .valuation import SetFunction, SubsetTable

DEFAULT_EXACT_LIMIT = 20
DEFAULT_MYERSON_LIMIT = 15
DEFAULT_SUBSET_BUDGET = 1 << 20

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


def exact_shapley(game: SetFunction) -> AttributionResult:
    """Exact Shapley values by one pass over all 2**d subsets.

    Each subset value is scattered to every feature (positively where the
    feature is a member, negatively where it completes a larger subset), so
    the memoized game is evaluated at most 2**d times in total.
    """
    d = game.d
    if d > DEFAULT_EXACT_LIMIT:
        raise ConfigurationError(
            f"exact Shapley on {d} features needs 2^{d} evaluations "
            f"(limit {DEFAULT_EXACT_LIMIT}); use l_shapley / c_shapley / sample_shapley instead"
        )
    before = game.eval_count
    values = game.scores(np.arange(1 << d))
    phi = _kernels.shapley_scatter(values, d, exact_shapley_weights(d))
    return AttributionResult(
        method="exact",
        scores=phi,
        model_evaluations=game.eval_count - before,
    )


def l_shapley_terms(
    g: FeatureGraph, i: int, k: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> list[tuple[int, float]]:
    """(subset, weight) pairs of the order-k local estimate for feature i.

    The weights are the exact-Shapley coefficients restricted to the
    k-neighborhood: ``shapley_coefficient(|N|, |T|)`` for each T containing i.
    The terms run in descending order of T, the whole neighbourhood first.
    """
    nbhd = k_neighborhood(g, i, k)
    n = nbhd.bit_count()
    _check_local_budget(i, n, budget)
    rest = reversed(submasks(nbhd & ~(1 << i)))
    return [(sub | (1 << i), shapley_coefficient(n, sub.bit_count() + 1)) for sub in rest]


def _check_local_budget(i: int, n: int, budget: int) -> None:
    if 1 << (n - 1) > budget:
        raise BudgetExceededError(
            f"local estimate at node {i} would enumerate 2^{n - 1} subsets of its "
            f"{n}-node neighborhood, beyond the budget of {budget}",
            count=budget,
        )


# A template is the terms of one feature with S and S minus i interleaved,
# shifted right by the lowest bit of the feature's neighbourhood.
Template = tuple[list[int], list[float]]
PlanStep = tuple[int, int, Template]  # (feature, shift, template)


def _plan(
    method: str,
    g: FeatureGraph,
    features: Iterable[int],
    k: int,
    weighting: str | None,
    budget: int,
) -> Iterator[PlanStep]:
    """The terms of each feature as a template shared by every feature whose
    neighbourhood has the same shape, with the shift that places it.

    A feature's terms depend only on its neighbourhood ``nbhd`` and its
    position in it, and for C-Shapley on the subgraph induced on ``nbhd``.
    With ``lo`` the lowest bit of ``nbhd``, the key is ``(i - lo, nbhd >> lo)``
    plus, for C-Shapley, each member's neighbours in ``nbhd`` shifted by
    ``lo``; shifting the template's masks left by ``lo`` gives the terms
    ``l_shapley_terms`` / ``c_shapley_terms`` would give, in the same order.
    Templates live as long as the graph, keyed also by method, k, weighting
    and budget, so a smaller budget enumerates afresh and raises.
    """
    templates = g._templates
    adjacency = g.adjacency
    for i in features:
        nbhd = k_neighborhood(g, i, k)
        lo = (nbhd & -nbhd).bit_length() - 1
        key = (method, k, weighting, budget, i - lo, nbhd >> lo)
        if method == "c_shapley":
            key += (tuple((adjacency[j] & nbhd) >> lo for j in iter_bits(nbhd)),)
        template = templates.get(key)
        if template is None:
            # called through the module so that tracing sees the enumeration
            if method == "c_shapley":
                terms = c_shapley_terms(g, i, k, weighting, budget)
            else:
                terms = l_shapley_terms(g, i, k, budget)
            template = templates[key] = _template(i, terms, lo)
        yield i, lo, template


def _template(i: int, terms: list[tuple[int, float]], lo: int) -> Template:
    bit = 1 << i
    masks: list[int] = []
    for mask, _ in terms:
        masks += (mask >> lo, (mask & ~bit) >> lo)
    return masks, [weight for _, weight in terms]


@dataclass(eq=False)
class PlanTable:
    """The terms of a plan over its distinct subsets.

    ``subsets`` holds every S and S minus i of the plan once, in the order
    they first occur; term t is feature ``features[t]`` with weight
    ``weights[t]`` and the subsets at ``with_i[t]`` and ``without_i[t]``.
    ``first_turn[r]`` is the plan step that first holds subset r.
    """

    subsets: SubsetTable
    with_i: np.ndarray
    without_i: np.ndarray
    weights: np.ndarray
    features: np.ndarray
    first_turn: np.ndarray
    turns: int


def _plan_table(steps: list[PlanStep], d: int) -> PlanTable:
    """The plan table of the plan ``steps`` over d features.

    Each template's masks are packed once per bit offset and placed at
    their byte shift, so the plan's masks are never Python integers; the
    distinct rows come from one :meth:`SubsetTable.distinct` over them.
    """
    width = (d + 7) // 8
    placed: dict[tuple[int, int], np.ndarray] = {}  # (template id, bit offset) -> packed rows
    sizes = [len(masks) for _, _, (masks, _) in steps]
    packed = np.zeros((sum(sizes), width), dtype=np.uint8)
    at = 0
    for (_, lo, template), size in zip(steps, sizes):
        byte, bit = divmod(lo, 8)
        rows = placed.get((id(template), bit))
        if rows is None:
            masks = template[0]
            span = max(masks).bit_length() + bit
            rows = placed[id(template), bit] = pack_masks([m << bit for m in masks], span)
        packed[at : at + size, byte : byte + rows.shape[1]] = rows
        at += size
    subsets, first, inverse = SubsetTable.distinct(packed, d)
    return PlanTable(
        subsets,
        inverse[0::2].astype(np.int32),
        inverse[1::2].astype(np.int32),
        np.array([w for _, _, (_, weights) in steps for w in weights], dtype=np.float64),
        np.repeat([i for i, _, _ in steps], np.array(sizes) // 2),
        np.repeat(np.arange(len(steps), dtype=np.int32), sizes)[first],
        len(steps),
    )


def _table(method: str, g: FeatureGraph, k: int, weighting: str | None, budget: int) -> PlanTable:
    """The plan table of every feature, kept on the graph next to the
    templates and keyed as they are."""
    key = (method, k, weighting, budget)
    table = g._tables.get(key)
    if table is None:
        table = g._tables[key] = _plan_table(list(_plan(method, g, range(g.d), k, weighting, budget)), g.d)
    return table


def _marginal_sums(game: SetFunction, table: PlanTable) -> tuple[np.ndarray, list[int]]:
    """Sum weighted marginals v(S) - v(S minus i) per feature over a plan
    table, with all of its subsets valued in one ``value_table`` call.

    Each feature's sum starts from 0.0 and adds its terms in order.  Returns
    the scores and, per plan step, the distinct subsets first valued during
    its turn; what ``prepare`` values falls to the first step.
    """
    before = game.eval_count
    values, new = game.value_table(table.subsets)
    per_feature = np.bincount(table.first_turn[new], minlength=table.turns)
    per_feature[0] += game.eval_count - before - int(new.sum())
    scores = np.zeros(game.d)
    np.add.at(scores, table.features, table.weights * (values[table.with_i] - values[table.without_i]))
    return scores, per_feature.tolist()


def _one_feature(game: SetFunction, method: str, g: FeatureGraph, i: int, k: int, weighting: str | None, budget: int) -> float:
    """The weighted marginals of feature i, valued by ``scores`` and summed
    from 0.0 in term order, as an all-features run sums them."""
    ((_, lo, (masks, weights)),) = _plan(method, g, [i], k, weighting, budget)
    values = game.scores([m << lo for m in masks])
    total = np.zeros(1)
    np.add.at(total, np.zeros(len(weights), dtype=np.intp), np.asarray(weights) * (values[0::2] - values[1::2]))
    return float(total[0])


def _all_features(game: SetFunction, method: str, k: int, table: PlanTable) -> AttributionResult:
    before = game.eval_count
    scores, per_feature = _marginal_sums(game, table)
    return AttributionResult(
        method=method,
        scores=scores,
        model_evaluations=game.eval_count - before,
        order_k=k,
        per_feature_evaluations=per_feature,
    )


def l_shapley(
    game: SetFunction,
    g: FeatureGraph,
    i: int,
    k: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> float:
    """Order-k local Shapley estimate for feature i.

    Averages marginal contributions over every subset of the k-neighborhood
    containing i, with neighborhood-restricted Shapley coefficients.  For k at
    least the graph diameter this is the exact Shapley value.
    """
    return _one_feature(game, "l_shapley", g, i, k, None, budget)


def l_shapley_all(
    game: SetFunction,
    g: FeatureGraph,
    k: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> AttributionResult:
    """Local Shapley estimates for every feature, sharing one evaluation cache
    and filling the model batch across features."""
    return _all_features(game, "l_shapley", k, _table("l_shapley", g, k, None, budget))


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


def c_shapley_terms(
    g: FeatureGraph,
    i: int,
    k: int,
    weighting: str = "myerson",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[tuple[int, float]]:
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
    for mask in connected_subsets_containing(g, i, k, budget=budget):
        size = mask.bit_count()
        if weighting == "myerson":
            blocked = (g.boundary(mask) & nbhd).bit_count()
            weight = connected_subset_weight(size, blocked)
        else:
            weight = interior_subset_weight(size)
        terms.append((mask, weight))
    return terms


def c_shapley(
    game: SetFunction,
    g: FeatureGraph,
    i: int,
    k: int,
    weighting: str = "myerson",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> float:
    """Order-k connected-subset Shapley estimate for feature i.

    Sums weighted marginal contributions over the connected subsets of the
    k-neighborhood that contain i.
    """
    return _one_feature(game, "c_shapley", g, i, k, weighting, budget)


def c_shapley_all(
    game: SetFunction,
    g: FeatureGraph,
    k: int,
    weighting: str = "myerson",
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> AttributionResult:
    """Connected-subset estimates for every feature, sharing one cache and
    filling the model batch across features."""
    return _all_features(game, "c_shapley", k, _table("c_shapley", g, k, weighting, budget))


def sample_shapley(
    game: SetFunction, num_permutations: int, seed: int
) -> AttributionResult:
    """Monte Carlo Shapley estimate from randomly sampled feature orderings.

    For each sampled permutation, every feature receives its marginal
    contribution to the set of features preceding it; scores are averaged
    over permutations.  The permutation stream is drawn from the seed before
    any evaluation, so results are reproducible.
    """
    if num_permutations < 1:
        raise ConfigurationError("need at least one permutation")
    d = game.d
    before = game.eval_count
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(d) for _ in range(num_permutations)]
    prefixes = []
    for perm in perms:  # the empty set, then each longer prefix
        prefixes += accumulate((1 << j for j in perm.tolist()), or_, initial=0)
    marginals = np.diff(game.scores(prefixes).reshape(num_permutations, d + 1))
    totals = np.zeros(d)
    for perm, row in zip(perms, marginals):
        totals[perm] += row
    return AttributionResult(
        method="sample_shapley",
        scores=totals / num_permutations,
        model_evaluations=game.eval_count - before,
        seed=seed,
    )


def myerson_value(game: SetFunction, g: FeatureGraph) -> AttributionResult:
    """Shapley value of the component-additive extension of the game.

    The extension sums v(T) - v(empty) over the connected components of each
    subset (zero at the empty set), so games with a nonzero baseline behave
    the same as their zero-anchored counterparts.  The base game is queried
    only on connected subsets; reported evaluations are the distinct
    base-game queries.
    """
    d = game.d
    if d > DEFAULT_MYERSON_LIMIT:
        raise ConfigurationError(
            f"Myerson value on {d} features decomposes all 2^{d} subsets "
            f"(limit {DEFAULT_MYERSON_LIMIT}); use c_shapley for an approximation"
        )
    before = game.eval_count
    comp = _kernels.lowbit_component_masks(np.asarray(g.adjacency, dtype=np.int64), d)
    connected = np.unique(comp[1:])
    vals = game.scores(np.concatenate(([0], connected)))  # v(empty), then the connected subsets
    raw = np.zeros(1 << d)
    raw[connected] = vals[1:] - vals[0]
    table = _kernels.component_sum_table(comp, raw)
    phi = _kernels.shapley_scatter(table, d, exact_shapley_weights(d))
    return AttributionResult(
        method="myerson",
        scores=phi,
        model_evaluations=game.eval_count - before,
    )
