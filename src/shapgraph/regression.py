"""Kernel-weighted least-squares attribution: sampled-subset regression and
its connected-subset variant for chain and grid graphs."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import graphs
from .attribution import AttributionResult, Plan, kept_plan
from .errors import ConfigurationError, UnsupportedTopologyError
from .graphs import FeatureGraph, pack_masks, subset_of, unpack_rows
from .valuation import SetFunction

LOG_GAMMA_THRESHOLD = 30


def shapley_kernel_weight(d: int, subset_size: int) -> float:
    """Regression weight (d-1) / (C(d,n) * n * (d-n)) for a size-n subset.

    Undefined (infinite) at n = 0 and n = d; uses log-gamma beyond d = 30 to
    avoid binomial overflow.
    """
    n = subset_size
    if n <= 0 or n >= d:
        raise ConfigurationError(
            f"kernel weight is undefined for subset size {n} of {d} features"
        )
    if d <= LOG_GAMMA_THRESHOLD:
        return (d - 1) / (math.comb(d, n) * n * (d - n))
    log_binom = math.lgamma(d + 1) - math.lgamma(n + 1) - math.lgamma(d - n + 1)
    return math.exp(math.log(d - 1) - log_binom - math.log(n) - math.log(d - n))


def solve_weighted(matrix: np.ndarray, responses: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The coefficients beta minimizing sum_r w_r (F_r - x_r beta)^2, from the
    weighted normal equations.

    When the normal matrix is rank deficient, a ridge of
    ``1e-10 * trace / ncols`` is added, which pins each null direction at 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        raise ConfigurationError("design must be nonempty")
    normal = matrix.T @ (weights[:, None] * matrix)
    target = matrix.T @ (weights * responses)
    if np.linalg.matrix_rank(normal) < matrix.shape[1]:
        ridge = 1e-10 * np.trace(normal) / matrix.shape[1]
        normal = normal + ridge * np.eye(matrix.shape[1])
    return np.linalg.solve(normal, target)


def _fit_plan(method: str, d: int, rows: list[int], constrained: bool, **meta) -> Plan:
    """The plan that values v(empty), the design rows and, when
    ``constrained``, v(full), and fits per-feature coefficients with v(empty)
    as the fixed intercept; ``constrained`` enforces sum(beta) = v(full) -
    v(empty).  Each row carries the Shapley kernel weight of its size.  An
    unconstrained fit of no design rows is refused before any model call.
    The design matrix and its weights are built here, once per plan."""
    if not rows and not constrained:
        raise ConfigurationError(
            f"{method} on {d} feature(s) has no design rows to fit; only the constrained fit, "
            f"v(full) - v(empty), is defined"
        )
    # weight_of_size[n] for n = 0..d; sizes 0 and d are never design rows
    weight_of_size = np.array([0.0, *(shapley_kernel_weight(d, n) for n in range(1, d)), 0.0])
    members = unpack_rows(pack_masks(rows, d), d)
    weights = weight_of_size[members.sum(axis=1)]
    matrix = members.astype(np.float64)
    if constrained:  # eliminate the last coefficient with sum(beta) = total, then back-solve
        matrix, last = matrix[:, :-1] - matrix[:, -1:], matrix[:, -1]

    def fit(values: np.ndarray) -> np.ndarray:
        v_empty = values[0]
        responses = values[1 : len(rows) + 1] - v_empty
        if not constrained:
            return solve_weighted(matrix, responses, weights)
        total = values[-1] - v_empty
        if d == 1:
            return np.array([total])
        coef = solve_weighted(matrix, responses - last * total, weights)
        return np.append(coef, total - coef.sum())

    return Plan.of_masks(method, [0, *rows, (1 << d) - 1] if constrained else [0, *rows], d, fit, **meta)


def _stratified_sizes(d: int, num_samples: int) -> list[int]:
    """Allocate samples to subset sizes 1..d-1 proportionally to the total
    kernel mass per size, capped at each stratum's capacity (deterministic)."""
    sizes = list(range(1, d))
    mass = [(d - 1) / (n * (d - n)) for n in sizes]
    capacity = [math.comb(d, n) for n in sizes]
    counts = [0] * len(sizes)
    remaining = num_samples
    while remaining > 0:
        open_idx = [i for i in range(len(sizes)) if counts[i] < capacity[i]]
        if not open_idx:
            break
        total_mass = sum(mass[i] for i in open_idx)
        quotas = {i: mass[i] / total_mass * remaining for i in open_idx}
        progress = 0
        for i in open_idx:
            take = min(int(quotas[i]), capacity[i] - counts[i])
            counts[i] += take
            progress += take
        remaining -= progress
        if progress == 0:
            # only fractional quotas left: hand out singletons, largest
            # remainder first, ties to the smaller size
            for i in sorted(open_idx, key=lambda j: (-(quotas[j] % 1.0), j)):
                if remaining == 0:
                    break
                if counts[i] < capacity[i]:
                    counts[i] += 1
                    remaining -= 1
    return counts


def _sample_masks_of_size(d: int, size: int, count: int, rng: np.random.Generator) -> list[int]:
    total = math.comb(d, size)
    if count >= total or total <= 1 << 14:
        all_masks = [subset_of(c) for c in itertools.combinations(range(d), size)]
        if count >= total:
            return all_masks
        picked = rng.choice(total, size=count, replace=False)
        return [all_masks[p] for p in sorted(picked)]
    seen: set[int] = set()
    while len(seen) < count:
        mask = subset_of(rng.choice(d, size=size, replace=False).tolist())
        seen.add(mask)
    return sorted(seen)


def kernelshap_plan(d: int, num_samples: int, seed: int = 0, exhaustive: bool = False, constrained: bool | None = None) -> Plan:
    """The plan of the kernel-weighted regression on d features (see
    :func:`kernelshap`)."""
    if constrained is None:
        constrained = exhaustive
    if exhaustive:
        graphs.check_size((1 << d) - 2, f"design rows of exhaustive KernelSHAP on {d} features")
        rows = [m for m in range(1, (1 << d) - 1)]
    else:
        if num_samples < d:
            raise ConfigurationError(
                f"kernelshap needs at least d={d} samples, got {num_samples}"
            )
        counts = _stratified_sizes(d, num_samples)
        graphs.check_size(sum(counts), f"design rows of sampled KernelSHAP on {d} features")
        rng = np.random.default_rng(seed)
        rows = []
        for size, count in zip(range(1, d), counts):
            if count:
                rows.extend(_sample_masks_of_size(d, size, count, rng))
    return _fit_plan("kernelshap", d, rows, constrained, seed=None if exhaustive else seed)


def kernelshap(
    game: SetFunction,
    num_samples: int,
    seed: int = 0,
    exhaustive: bool = False,
    constrained: bool | None = None,
) -> AttributionResult:
    """Kernel-weighted regression estimate of the Shapley values.

    Samples subset sizes proportionally to their aggregate kernel mass and
    subsets uniformly without replacement within each size (or enumerates all
    proper subsets when ``exhaustive``).  ``constrained`` enforces
    sum(beta) = v(full) - v(empty); it defaults to on for the exhaustive
    design, where the constrained fit reproduces the exact Shapley values,
    and off otherwise.
    """
    return kernelshap_plan(game.d, num_samples, seed, exhaustive, constrained).run(game)


def connected_design_rows(g: FeatureGraph, k: int) -> list[int]:
    """Design rows for the connected-subset regression, by size, then row,
    then column.

    Chains contribute every interval of length at most k; grids contribute
    every axis-aligned n-by-n patch with n at most k, the patch at the
    corner shifted to each place.  The full feature set is never a row (its
    kernel weight is undefined).  The rows are counted before each size's
    are listed, and refused by :func:`~shapgraph.graphs.check_size`.
    """
    d = g.d
    rows: list[int] = []
    what = f"design rows of regression C-Shapley at k={k} on {d} features"
    if g.kind == "chain":
        for n in range(1, min(k, d - 1) + 1):
            graphs.check_size(len(rows) + d - n + 1, what)
            rows.extend(((1 << n) - 1) << start for start in range(d - n + 1))
        return rows
    if g.kind != "grid":
        raise UnsupportedTopologyError(
            f"connected-subset regression supports chain and grid graphs, got {g.kind!r}"
        )
    R, C = g.rows, g.cols
    for n in range(1, min(k, R, C) + 1):
        if n == R and n == C:
            continue  # the full grid is not a usable row
        graphs.check_size(len(rows) + (R - n + 1) * (C - n + 1), what)
        # n ones in each of the first n rows: ((1 << n) - 1) times the sum of 1 << (r * C) for r < n
        patch = ((1 << n) - 1) * (((1 << (n * C)) - 1) // ((1 << C) - 1))
        rows.extend(patch << (r * C + c) for r in range(R - n + 1) for c in range(C - n + 1))
    return rows


def regression_c_shapley_plan(g: FeatureGraph, k: int, constrained: bool = False) -> Plan:
    """The plan of the connected-subset regression on the graph's d features
    (see :func:`regression_c_shapley`), kept on the graph (see
    :func:`~shapgraph.attribution.kept_plan`)."""
    if k < 1:
        raise ConfigurationError(f"order k must be positive, got {k}")
    method = "c_shapley_regression"
    return kept_plan(
        g, (method, k, constrained), lambda: _fit_plan(method, g.d, connected_design_rows(g, k), constrained, order_k=k)
    )


def regression_c_shapley(game: SetFunction, g: FeatureGraph, k: int, constrained: bool = False) -> AttributionResult:
    """Regression estimate over connected subsets only.

    Evaluates the game on every interval (chain) or square patch (grid) of
    order at most k (at most k*d rows) and solves the weighted least-squares
    system for per-feature scores.
    """
    return regression_c_shapley_plan(g, k, constrained).run(game)
