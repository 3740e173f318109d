"""Set functions over feature subsets, built from black-box classifiers.

The central object is :class:`ValueFunction`: given a model and an instance it
maps a feature subset (bitmask) to a real score, estimating the conditional
class distribution either by plug-in masking against a reference vector or by
empirical averaging over a background pool.  Every set function in the package
shares the :class:`SetFunction` base, which memoizes values and counts
distinct subsets evaluated; distinct-subset counts are the package-wide
currency for "model evaluations".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .graphs import FeatureGraph, connected_components, member_matrix, members_of

LOG_PROB_FLOOR = 1e-12
DEFAULT_BATCH_SIZE = 256
DEFAULT_EMPIRICAL_SAMPLES = 32


class ModelContract(Protocol):
    """Duck-typed classifier interface.

    ``evaluate_batch`` takes a float/int array of shape (n, d) of full feature
    vectors and returns an (n, num_classes) array of class log-probabilities
    (each row's exponentials summing to one).
    """

    num_classes: int

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class Instance:
    """A feature vector together with the reference used for masking."""

    values: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values))
        object.__setattr__(self, "reference", np.asarray(self.reference))
        if self.values.shape != self.reference.shape or self.values.ndim != 1:
            raise ValueError(
                f"values and reference must be equal-length vectors, got "
                f"{self.values.shape} and {self.reference.shape}"
            )

    @property
    def d(self) -> int:
        return self.values.shape[0]


def plugin_masked_instance(x: Instance, s: int) -> Instance:
    """Keep positions in the subset ``s``, replace the rest with the reference."""
    keep = member_matrix([s], x.d)[0]
    return Instance(np.where(keep, x.values, x.reference), x.reference)


def empirical_conditional(
    x: Instance,
    s: int,
    model: ModelContract,
    pool: Sequence[np.ndarray] | np.ndarray,
    m_samples: int,
    seed: int,
) -> np.ndarray:
    """Estimated class probabilities given the features of ``x`` in ``s``.

    Draws ``m_samples`` pool rows with replacement (seeded), keeps ``x`` on the
    subset and the sampled row elsewhere, and averages the model's class
    probability vectors.
    """
    pool = np.asarray(pool)
    if pool.size == 0:
        raise ConfigurationError("empirical estimation needs a nonempty pool")
    rng = np.random.default_rng(seed)
    rows = pool[rng.integers(0, pool.shape[0], size=m_samples)]
    hybrids = np.where(member_matrix([s], x.d), x.values, rows)
    log_probs = model.evaluate_batch(hybrids)
    return np.exp(log_probs).mean(axis=0)


class SetFunction:
    """Memoized real-valued function of feature subsets.

    Subclasses implement ``_evaluate_many``; callers use ``__call__`` or the
    batched ``scores``.  ``eval_count`` is the number of distinct subsets ever
    evaluated, which repeated queries never increase.
    """

    def __init__(self, d: int):
        self.d = d
        self._cache: dict[int, float] = {}
        self._lock = threading.Lock()

    def _evaluate_many(self, masks: list[int]) -> list[float]:
        raise NotImplementedError

    @property
    def eval_count(self) -> int:
        return len(self._cache)

    def prepare(self) -> None:
        """Value whatever every other subset's value depends on; the first
        ``scores`` call that values anything does this too.  Plain set
        functions depend on nothing."""

    def __contains__(self, mask: int) -> bool:
        """Whether the subset has been valued already."""
        return mask in self._cache

    def __call__(self, mask: int) -> float:
        return float(self.scores([mask])[0])

    def scores(self, masks: Sequence[int]) -> np.ndarray:
        with self._lock:
            missing = []
            seen = set()
            for m in masks:
                if m not in self._cache and m not in seen:
                    seen.add(m)
                    missing.append(m)
            if missing:
                for m, val in zip(missing, self._evaluate_many(missing)):
                    self._cache[m] = float(val)
            return np.array([self._cache[m] for m in masks], dtype=np.float64)


class ValueFunction(SetFunction):
    """Importance score of a feature subset for one instance of one model.

    ``mode`` selects the score: ``"expected_logprob"`` averages the log of the
    estimated conditional over the model's own class distribution at the full
    instance, while ``"predicted_class_logprob"`` returns the log-probability
    of the class predicted at the full instance (argmax ties resolve to the
    smallest class index).  ``estimator`` is ``"plugin"`` (mask with the
    instance's reference vector) or ``"empirical"`` (average over a seeded
    background-pool sample, drawn once and reused for every subset).
    Probabilities are floored at 1e-12 before logs so fully masked inputs
    cannot produce infinities.
    """

    def __init__(
        self,
        model: ModelContract,
        instance: Instance,
        estimator: str = "plugin",
        mode: str = "predicted_class_logprob",
        pool: np.ndarray | None = None,
        m_samples: int = DEFAULT_EMPIRICAL_SAMPLES,
        seed: int = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        super().__init__(instance.d)
        if estimator not in ("plugin", "empirical"):
            raise ConfigurationError(f"unknown estimator {estimator!r}")
        if mode not in ("expected_logprob", "predicted_class_logprob"):
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.model = model
        self.instance = instance
        self.estimator = estimator
        self.mode = mode
        self.batch_size = batch_size
        self._base_probs: np.ndarray | None = None
        if estimator == "empirical":
            pool = np.asarray(pool) if pool is not None else None
            if pool is None or pool.size == 0:
                raise ConfigurationError("empirical estimator needs a nonempty pool")
            if pool.ndim != 2 or pool.shape[1] != instance.d:
                raise ConfigurationError(
                    f"pool rows must have the instance's {instance.d} features, got shape {pool.shape}"
                )
            rng = np.random.default_rng(seed)
            self._pool_rows = pool[rng.integers(0, pool.shape[0], size=m_samples)]
        else:
            self._pool_rows = None

    @property
    def full_mask(self) -> int:
        return (1 << self.d) - 1

    def base_probs(self) -> np.ndarray:
        """Model class probabilities at the unmasked instance."""
        if self._base_probs is None:
            self(self.full_mask)  # populates via the cache path
        return self._base_probs

    def predicted_class(self) -> int:
        return int(np.argmax(self.base_probs()))

    def _conditional_probs(self, masks: list[int]) -> np.ndarray:
        """Estimated class probabilities for each subset, one row per mask.

        Model rows are built and scored one block of at most ``batch_size``
        rows at a time.  Plug-in masking makes one row per subset; the
        empirical estimator makes one row per subset and fixed pool sample,
        so a block may hold several subsets and a subset may span blocks.
        """
        x = self.instance
        if self.estimator == "plugin":
            # Per block, not per batch: one np.where over a whole batch left
            # heap holes that pinned the d-float results callers keep (the
            # benchmark's wire peak RSS rose about 10%).  Per block it read
            # 40.93 MB against 41.07 MB for one row array per mask (medians
            # of 5 run pairs, 2-vCPU Xeon).
            blocks = []
            for start in range(0, len(masks), self.batch_size):
                block = masks[start : start + self.batch_size]
                rows = np.where(member_matrix(block, x.d), x.values, x.reference)
                blocks.append(np.exp(self._run_block(rows, block)))
            return np.concatenate(blocks, axis=0)
        # empirical: row r is subset r // m hybridised with pool sample r % m
        pool = self._pool_rows
        m = pool.shape[0]
        blocks = []
        for start in range(0, len(masks) * m, self.batch_size):
            stop = min(start + self.batch_size, len(masks) * m)
            first, last = start // m, (stop - 1) // m + 1
            r = np.arange(start, stop)
            keep = member_matrix(masks[first:last], x.d)[r // m - first]
            rows = np.where(keep, x.values, pool[r % m])
            blocks.append(np.exp(self._run_block(rows, masks[first:last])))
        probs = np.concatenate(blocks, axis=0)
        return probs.reshape(len(masks), m, -1).mean(axis=1)

    def _run_block(self, rows: np.ndarray, masks: list[int]) -> np.ndarray:
        """Model log-probs for one block of rows, checked before use.

        The block must come back with shape (rows, num_classes) and hold no
        NaN or +inf; -inf is allowed, since the probability floor absorbs it.
        Failures name the subsets ``masks`` the block was built from.
        """
        try:
            out = np.asarray(self.model.evaluate_batch(rows))
        except Exception as exc:
            raise _evaluation_error(masks, exc) from exc
        expected = (rows.shape[0], self.model.num_classes)
        if out.shape != expected:
            raise _evaluation_error(masks, f"expected log-probs of shape {expected}, got {out.shape}")
        if np.isnan(out).any() or np.isposinf(out).any():
            raise _evaluation_error(masks, "model returned NaN or +inf log-probs")
        return out

    def prepare(self) -> None:
        with self._lock:
            self._ensure_base()

    def _ensure_base(self) -> None:
        # The score of any subset needs the model's distribution at the full
        # instance (argmax class or expectation weights), so it is evaluated
        # first and cached like any other subset.
        if self._base_probs is None:
            full = self.full_mask
            probs = self._conditional_probs([full])
            self._base_probs = probs[0] / probs[0].sum()
            self._cache[full] = float(self._score_from_probs(probs)[0])

    def _evaluate_many(self, masks: list[int]) -> list[float]:
        self._ensure_base()
        todo = [m for m in masks if m not in self._cache]
        fresh: dict[int, float] = {}
        if todo:
            fresh = dict(zip(todo, self._score_from_probs(self._conditional_probs(todo)).tolist()))
        return [fresh[m] if m in fresh else self._cache[m] for m in masks]

    def _score_from_probs(self, probs: np.ndarray) -> np.ndarray:
        """Scores of an (n, num_classes) array of class probabilities, one per row."""
        logp = np.log(np.maximum(probs, LOG_PROB_FLOOR))
        base = self._base_probs
        if self.mode == "predicted_class_logprob":
            return logp[:, int(np.argmax(base))]
        return np.where(base > 0, base * logp, 0.0).sum(axis=1)


def _evaluation_error(masks: list[int], cause) -> EvaluationError:
    subsets = ", ".join(str(members_of(m)) for m in masks[:4])
    return EvaluationError(f"model evaluation failed while scoring subsets [{subsets}...]: {cause}")


def importance_score(vf: SetFunction, s: int) -> float:
    """Score of the feature subset ``s`` under the (memoized) value function."""
    return vf(s)


def marginal_contribution(vf: SetFunction, s: int, i: int) -> float:
    """v(s) - v(s minus {i}); the change from removing feature i."""
    if not (s >> i) & 1:
        raise ValueError(f"feature {i} is not a member of subset {members_of(s)}")
    vals = vf.scores([s, s & ~(1 << i)])
    return float(vals[0] - vals[1])


class TableGame(SetFunction):
    """Set function backed by an explicit table over all 2**d subsets."""

    def __init__(self, d: int, table: np.ndarray):
        super().__init__(d)
        table = np.asarray(table, dtype=np.float64)
        if table.shape != (1 << d,):
            raise ConfigurationError(
                f"table must cover all {1 << d} subsets, got shape {table.shape}"
            )
        self.table = table

    def _evaluate_many(self, masks):
        return [self.table[m] for m in masks]


class FunctionGame(SetFunction):
    """Set function backed by a plain callable on bitmasks (lazily evaluated)."""

    def __init__(self, d: int, fn: Callable[[int], float]):
        super().__init__(d)
        self._fn = fn

    def _evaluate_many(self, masks):
        return [self._fn(m) for m in masks]


def synthetic_game(
    d: int, table: dict[int, float] | np.ndarray | None = None, seed: int | None = None
) -> TableGame:
    """Pure lookup game for tests and benchmarks.

    Provide either a full table (array of length 2**d, or a dict covering
    every mask) or a seed from which standard-normal values are drawn.
    """
    if table is None:
        if seed is None:
            raise ConfigurationError("synthetic_game needs a table or a seed")
        values = np.random.default_rng(seed).normal(size=1 << d)
        return TableGame(d, values)
    if isinstance(table, dict):
        values = np.empty(1 << d)
        for m in range(1 << d):
            if m not in table:
                raise ConfigurationError(f"table is missing subset {members_of(m)}")
            values[m] = table[m]
        return TableGame(d, values)
    return TableGame(d, table)


def additive_game(coeffs: Sequence[float]) -> FunctionGame:
    """Game whose value is the sum of per-feature coefficients (v(empty)=0)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)

    def value(mask: int) -> float:
        return float(sum(coeffs[j] for j in members_of(mask)))

    return FunctionGame(len(coeffs), value)


class GraphRestrictedGame(SetFunction):
    """Component-additive extension of a base game over a graph.

    The value of a subset is the sum of the base game over the subset's
    connected components; the empty set scores zero.  With
    ``normalize_empty`` each component contributes v(T) - v(empty) instead,
    which keeps the extension faithful to games whose empty-set value is not
    zero (splitting a subset into more components then cannot multiply the
    baseline).  Base-game queries go through the wrapped game's cache, so
    ``inner.eval_count`` still reports distinct base evaluations.
    """

    def __init__(self, inner: SetFunction, graph: FeatureGraph, normalize_empty: bool = False):
        if inner.d != graph.d:
            raise ConfigurationError(
                f"game has {inner.d} features but graph has {graph.d} nodes"
            )
        super().__init__(inner.d)
        self.inner = inner
        self.graph = graph
        self.normalize_empty = normalize_empty

    def _evaluate_many(self, masks):
        comps_per_mask = [connected_components(self.graph, m) for m in masks]
        all_comps = sorted({c for comps in comps_per_mask for c in comps})
        vals = dict(zip(all_comps, self.inner.scores(all_comps))) if all_comps else {}
        baseline = self.inner(0) if self.normalize_empty else 0.0
        return [
            float(sum(vals[c] - baseline for c in comps)) for comps in comps_per_mask
        ]


def decomposable_chain_game(d: int, graph: FeatureGraph, seed: int) -> GraphRestrictedGame:
    """Random game that is additive over connected components of the graph."""
    base = synthetic_game(d, seed=seed)
    return GraphRestrictedGame(base, graph)
