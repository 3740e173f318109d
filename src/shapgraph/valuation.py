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
from .graphs import members_of, pack_masks, row_masks, unpack_rows

LOG_PROB_FLOOR = 1e-12
DEFAULT_BATCH_SIZE = 256
DEFAULT_EMPIRICAL_SAMPLES = 32
# How far a model's probability rows may miss 1.  Not tighter: a float32
# softmax over C classes is off by up to about C * 2**-24 per row.
ROW_SUM_TOLERANCE = 1e-4
# The subset scores a value function or a dense value matrix may take.
VALUE_MODES = ("expected_logprob", "predicted_class_logprob")


class ModelContract(Protocol):
    """Duck-typed classifier interface.

    ``evaluate_batch`` takes a float/int array of shape (n, d) of full feature
    vectors and returns an (n, num_classes) array of class log-probabilities
    (each row's exponentials summing to one, which :func:`model_probs`
    checks).  The input rows are valid only during the call:
    :class:`ValueFunction` refills the same buffer for its next block, so a
    model that keeps them must copy them.  The built-in models that read
    their rows decode them with :func:`checked_codes`, so a row of the wrong
    width or with a value outside their codes raises ``EvaluationError``.

    A model may also declare ``batch_size``, the number of rows it would
    rather get per call.  A :class:`ValueFunction` then sends blocks of as
    many whole subsets as fit in that many rows (at least one); the blocks
    of one ``value_table`` call, which is what ``scores`` makes, run on over
    all the subsets it values, so every block but the last is full.
    Models without it get ``DEFAULT_BATCH_SIZE`` (256);
    :class:`~shapgraph.models.ExternalModel` declares four wire requests'
    worth, so that it can keep two in flight.

    A model whose ``masks_on_host`` is true builds the masked rows itself:
    :class:`ValueFunction` then calls ``evaluate_masked(values, fill,
    rows)`` in place of ``evaluate_batch``, with the instance's (d,)
    values, the (m, d) fill rows and a block of subsets as packed member
    rows (see :func:`~shapgraph.graphs.pack_masks`), and expects the
    log-probs of the ``len(rows) * m`` rows that :func:`masked_rows` builds
    from the same three arguments, in its order, checked as
    ``evaluate_batch``'s are.
    ``ExternalModel`` sets it when its host lists ``eval_masked`` in the
    ``hello`` reply; any other model gets rows.  Masks out of range for d features raise
    ``ConfigurationError`` before any model call, on either path.
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
            raise ConfigurationError(
                f"values and reference must be equal-length vectors, got "
                f"{self.values.shape} and {self.reference.shape}"
            )

    @property
    def d(self) -> int:
        return self.values.shape[0]


def plugin_masked_instance(x: Instance, s: int) -> Instance:
    """Keep positions in the subset ``s``, replace the rest with the reference."""
    return Instance(masked_rows(x.values, x.reference[None, :], pack_masks([s], x.d))[0], x.reference)


class SubsetTable:
    """Distinct subsets as packed member rows (see :func:`~shapgraph.graphs.pack_masks`),
    in ascending order of their bytes, so that :meth:`find` looks rows up
    by binary search.  :meth:`distinct` builds one from any rows; the
    constructor takes rows already distinct and in that order.

    :meth:`SetFunction.value_table` values a table in one call, and a set
    function keeps what it valued as tables too: it searches them in a
    larger table, or a smaller table in them.
    """

    def __init__(self, rows: np.ndarray, d: int):
        self.rows = rows
        self.d = d

    @classmethod
    def distinct(cls, packed: np.ndarray, d: int) -> tuple["SubsetTable", np.ndarray, np.ndarray]:
        """The table of the distinct rows of ``packed``, subsets of d
        features; the position in ``packed`` where each table row first
        occurs; and the table row of each row of ``packed``."""
        keys = _byte_keys(packed)
        perm = keys.argsort(kind="stable")  # as np.unique sorts, without its overhead on small calls
        keys = keys[perm]
        head = np.ones(len(keys), dtype=bool)  # the first of each run of equal keys
        head[1:] = keys[1:] != keys[:-1]
        first = perm[head]
        inverse = np.empty_like(perm)
        inverse[perm] = head.cumsum() - 1
        return cls(packed[first], d), first, inverse

    def __len__(self) -> int:
        return len(self.rows)

    def find(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of the packed ``rows`` are in the table: the table positions
        of those that are, and a boolean mask over ``rows`` saying which."""
        if not len(self) or not len(rows):
            return np.empty(0, dtype=np.intp), np.zeros(len(rows), dtype=bool)
        mine, theirs = _byte_keys(self.rows), _byte_keys(rows)
        at = np.minimum(mine.searchsorted(theirs), len(self) - 1)
        hit = mine[at] == theirs
        return at[hit], hit


def _byte_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per packed row, compared and sorted by its bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


class SetFunction:
    """Memoized real-valued function of feature subsets.

    Subclasses implement ``_evaluate_many``, which values distinct subsets
    not valued before, and may implement ``_evaluate_packed`` (the same for
    packed member rows) and ``_prepare``.  Callers use ``__call__`` or the
    batched ``scores`` for masks, and ``value_table`` for a
    :class:`SubsetTable`.  ``eval_count`` is the number of distinct subsets
    ever evaluated, which repeated queries never increase.

    Each value is kept once: in the store, one table and its values, or in
    a run, a table valued since the last merge.  ``value_table`` looks a
    table up from the smaller side: the store and runs in a table larger
    than all of them, so a fresh plan is never merged; else the table in the
    store, once each run is inserted into it, one insert per run.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ConfigurationError(f"a set function needs at least one feature, got {d}")
        self.d = d
        self._store = SubsetTable(np.empty((0, (d + 7) // 8), dtype=np.uint8), d), np.empty(0)
        self._pending: list[tuple[SubsetTable, np.ndarray]] = []  # runs valued since the last merge
        self._count = 0  # subsets in the store and the runs
        self._lock = threading.Lock()

    def _evaluate_many(self, masks: list[int]) -> list[float]:
        raise NotImplementedError

    def _evaluate_packed(self, rows: np.ndarray) -> np.ndarray:
        """Values of the distinct subsets of packed member ``rows``."""
        return np.asarray(self._evaluate_many(row_masks(rows)), dtype=np.float64)

    @property
    def eval_count(self) -> int:
        return self._count

    def prepare(self) -> None:
        """Value whatever every other subset's value depends on; the first
        ``scores`` or ``value_table`` call that values anything does this
        too.  Plain set functions depend on nothing."""
        with self._lock:
            self._prepare()

    def _prepare(self) -> None:
        """``prepare`` under the lock."""

    def _keep(self, run: SubsetTable, values: np.ndarray) -> None:
        """Keep the values of the newly valued subsets of ``run``, under the
        lock.  A strided view, such as one class's column of log-probs, is
        copied so that it does not keep its whole base array alive."""
        self._pending.append((run, np.ascontiguousarray(values)))
        self._count += len(run)

    def _merge(self) -> None:
        """Merge the pending runs into the store, under the lock."""
        for run, values in self._pending:
            store, known = self._store
            keys, run_keys = _byte_keys(store.rows), _byte_keys(run.rows)
            at = keys.searchsorted(run_keys)  # the run is in byte order and apart from the store
            rows = np.insert(keys, at, run_keys).view(np.uint8).reshape(-1, store.rows.shape[1])
            self._store = SubsetTable(rows, self.d), np.insert(known, at, values)
        self._pending.clear()

    def __contains__(self, mask: int) -> bool:
        """Whether the subset has been valued already."""
        with self._lock:
            self._merge()
            return 0 <= int(mask) < 1 << self.d and bool(self._store[0].find(pack_masks([mask], self.d))[1][0])

    def __call__(self, mask: int) -> float:
        return float(self.scores([mask])[0])

    def scores(self, masks: Sequence[int] | np.ndarray) -> np.ndarray:
        """Values of the subsets ``masks``, integers or an integer array, in one
        ``value_table`` call; a mask out of range for d features raises
        ``ConfigurationError`` (see :func:`~shapgraph.graphs.pack_masks`)."""
        table, _, inverse = SubsetTable.distinct(pack_masks(masks, self.d), self.d)
        return self.value_table(table)[0][inverse]

    def value_table(self, table: SubsetTable) -> tuple[np.ndarray, np.ndarray]:
        """Values of the table's subsets, in its row order, and a boolean mask
        of those this call valued: the subsets not kept yet, valued in one
        call, in table order, and kept as one run.  ``prepare`` runs first,
        so what it values counts as valued before."""
        if table.d != self.d:
            raise ConfigurationError(f"a table of subsets of {table.d} features, valued by a set function of {self.d}")
        with self._lock:
            if len(table):
                self._prepare()
            values = np.empty(len(table))
            if self._count < len(table):
                new = np.ones(len(table), dtype=bool)
                for known, known_values in [self._store, *self._pending]:
                    at, hit = table.find(known.rows)
                    values[at] = known_values[hit]
                    new[at] = False
            else:
                self._merge()
                at, hit = self._store[0].find(table.rows)
                values[hit] = self._store[1][at]
                new = ~hit
            missing = new.nonzero()[0]
            if len(missing):
                run = table if len(missing) == len(table) else SubsetTable(table.rows[missing], self.d)
                values[missing] = fresh = self._evaluate_packed(run.rows)
                self._keep(run, fresh)
            return values, new


class ValueFunction(SetFunction):
    """Importance score of a feature subset for one instance of one model.

    ``mode`` selects the score: ``"expected_logprob"`` averages the log of the
    estimated conditional over the model's own class distribution at the full
    instance, while ``"predicted_class_logprob"`` returns the log-probability
    of the class predicted at the full instance (argmax ties resolve to the
    smallest class index).  ``estimator`` is ``"empirical"`` (average over a
    seeded background-pool sample, drawn once and reused for every subset)
    or ``"plugin"`` (mask with the instance's reference vector, which is the
    same average over a sample of one row: the reference).
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
    ):
        super().__init__(instance.d)
        if estimator not in ("plugin", "empirical"):
            raise ConfigurationError(f"unknown estimator {estimator!r}")
        if mode not in VALUE_MODES:
            raise ConfigurationError(f"unknown mode {mode!r}")
        self.model = model
        self.instance = instance
        self.estimator = estimator
        self.mode = mode
        self.batch_size = getattr(model, "batch_size", DEFAULT_BATCH_SIZE)
        self._base_probs: np.ndarray | None = None
        self._rows: np.ndarray | None = None  # model input buffer, see _conditional_probs
        if estimator == "empirical":
            pool = np.asarray(pool) if pool is not None else None
            if pool is None or pool.size == 0:
                raise ConfigurationError("empirical estimator needs a nonempty pool")
            if pool.ndim != 2 or pool.shape[1] != instance.d:
                raise ConfigurationError(
                    f"pool rows must have the instance's {instance.d} features, got shape {pool.shape}"
                )
            if m_samples < 1:
                raise ConfigurationError(f"empirical estimator needs at least one sample, got {m_samples}")
            rng = np.random.default_rng(seed)
            self._fill = pool[rng.integers(0, pool.shape[0], size=m_samples)]
        else:
            # plug-in masking is the empirical estimate over a one-row sample
            self._fill = instance.reference[None, :]

    def base_probs(self) -> np.ndarray:
        """Model class probabilities at the unmasked instance."""
        if self._base_probs is None:
            self.prepare()
        return self._base_probs

    def _conditional_probs(self, rows: np.ndarray) -> np.ndarray:
        """Estimated class probabilities for each subset, one row per packed
        member row of ``rows``.

        Each subset makes one model row per fill row (see
        :func:`masked_rows`), and its estimate is the mean over them.  Rows
        are scored one block of whole subsets at a time: ``batch_size // m``
        of them, and at least one.  A model whose ``masks_on_host`` is true
        gets each block as the instance, the fill and the block's packed
        rows, and builds the model rows itself.  For any other model every block
        is written into one buffer kept for the next: a fresh array per
        block, far larger than ``_kernels.CHUNK_BYTES``, would be mapped and
        faulted in anew each time.
        """
        values, fill = self.instance.values, self._fill
        m, d = fill.shape
        step = max(1, self.batch_size // m)
        on_host = getattr(self.model, "masks_on_host", False)
        if self._rows is None and not on_host:
            self._rows = np.empty((step * m, d), dtype=np.result_type(values, fill))
        probs = np.empty((len(rows), self.model.num_classes))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            n = len(block) * m
            if on_host:
                block_probs = self._run_block(block, n, self.model.evaluate_masked, values, fill, block)
            else:
                out = masked_rows(values, fill, block, self._rows[:n])
                block_probs = self._run_block(block, n, self.model.evaluate_batch, out)
            np.add.reduce(block_probs.reshape(len(block), m, -1), axis=1, out=probs[start : start + len(block)])
        probs /= m  # a sum over the samples divided by m is bitwise their mean
        return probs

    def _run_block(self, rows: np.ndarray, n: int, evaluate, *args) -> np.ndarray:
        """Class probabilities for the ``n`` model rows of one block, from
        ``evaluate(*args)`` and checked by :func:`checked_probs`; a failure
        names the subsets of the packed member ``rows`` the block was built
        from."""
        try:
            return checked_probs(evaluate(*args), n, self.model.num_classes)[1]
        except Exception as exc:
            subsets = ", ".join(str(tuple(np.flatnonzero(keep).tolist())) for keep in unpack_rows(rows[:4], self.d))
            raise EvaluationError(f"model evaluation failed while scoring subsets [{subsets}...]: {exc}") from exc

    def _prepare(self) -> None:
        # Every score needs the model's distribution at the full instance (argmax
        # class or expectation weights), so it is valued first and kept as usual.
        if self._base_probs is None:
            rows = pack_masks([(1 << self.d) - 1], self.d)
            probs = self._conditional_probs(rows)
            self._base_probs = probs[0] / probs[0].sum()
            self._keep(SubsetTable(rows, self.d), self._score_from_probs(probs))

    def _evaluate_packed(self, rows: np.ndarray) -> np.ndarray:
        return self._score_from_probs(self._conditional_probs(rows))

    def _score_from_probs(self, probs: np.ndarray) -> np.ndarray:
        """Scores of an (n, num_classes) array of class probabilities, one per row."""
        logp = np.log(np.maximum(probs, LOG_PROB_FLOOR))
        base = self._base_probs
        if self.mode == "predicted_class_logprob":
            return logp[:, int(np.argmax(base))]
        return np.where(base > 0, base * logp, 0.0).sum(axis=1)


def masked_rows(values: np.ndarray, fill: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Model input rows for the subsets of the packed member ``rows`` (see
    :func:`~shapgraph.graphs.pack_masks`): row ``r * m + j`` holds ``values``
    (d,) where subset r keeps a feature and fill row ``j`` of the (m, d)
    ``fill`` elsewhere.

    The rows go into ``out`` when it is given, else into a new array of the
    two inputs' common dtype.  The wire host builds ``eval_masked`` rows with
    this too, so they are the rows a value function would have sent.
    """
    if values.ndim != 1 or fill.ndim != 2 or fill.shape[1] != values.shape[0]:
        raise ConfigurationError(
            f"masked rows need a vector of d values and (m, d) fill rows, got shapes {values.shape} and {fill.shape}"
        )
    m, d = fill.shape
    if out is None:
        out = np.empty((len(rows) * m, d), dtype=np.result_type(values, fill))
    grid = out.reshape(len(rows), m, d)
    grid[:] = fill
    np.copyto(grid, values, where=unpack_rows(rows, d)[:, None, :])
    return out


def model_probs(model: ModelContract, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model's class log-probabilities for ``rows`` and their
    exponentials, checked by :func:`checked_probs`."""
    return checked_probs(model.evaluate_batch(rows), rows.shape[0], model.num_classes)


def checked_probs(log_probs, n: int, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """``log_probs`` as an array and their exponentials, checked before use.

    The log-probs must have shape (n, num_classes), and every row of
    probabilities must sum to 1 within ``ROW_SUM_TOLERANCE``; that one test
    also refuses NaN and +inf log-probs.  -inf is allowed, since the
    probability floor absorbs it.  A failure raises ``EvaluationError``.
    """
    log_probs = np.asarray(log_probs)
    expected = (n, num_classes)
    if log_probs.shape != expected:
        raise EvaluationError(f"expected log-probs of shape {expected}, got {log_probs.shape}")
    probs = np.exp(log_probs)
    # a product with ones sums short rows faster than sum(axis=1); a NaN or
    # +inf anywhere makes the largest miss NaN or inf, which fails the test
    miss = np.abs(probs @ np.ones(expected[1]) - 1.0)
    if not miss.max(initial=0.0) <= ROW_SUM_TOLERANCE:
        if np.isnan(log_probs).any() or np.isposinf(log_probs).any():
            raise EvaluationError("model returned NaN or +inf log-probs")
        bad = np.flatnonzero(miss > ROW_SUM_TOLERANCE)
        sums = probs.sum(axis=1)
        raise EvaluationError(
            f"probability rows {bad[:8].tolist()} do not sum to 1 within "
            f"{ROW_SUM_TOLERANCE} (sums {sums[bad[:4]].tolist()})"
        )
    return log_probs, probs


def checked_codes(values, n: int, what: str, d: int | None = None) -> np.ndarray:
    """Model input rows as int64 codes, checked before use: the input-side
    partner of :func:`checked_probs`.

    ``values`` must be an (rows, d) array, ``d`` wide when that is given, of
    integers in [0, n); ``what`` names them.  Rows of floats, such as the
    model server builds, must hold whole numbers, which also refuses NaN.  A
    failure raises ``EvaluationError`` naming the shape, or the range, the
    first bad value and where it is.
    """
    values = np.asarray(values)
    if values.ndim != 2 or d not in (None, values.shape[1]):
        raise EvaluationError(f"values must have shape (n, {'d' if d is None else d}), got {values.shape}")
    whole = values.dtype.kind in "biu"
    if whole:
        codes = values.astype(np.int64, copy=False)
    else:
        with np.errstate(invalid="ignore"):  # NaN and inf cast to codes that differ from them
            codes = values.astype(np.int64)
    # negative codes read as huge unsigned ones, so one pass checks both ends
    if codes.size and (codes.view(np.uint64).max() >= n or not (whole or np.array_equal(codes, values))):
        r, j = np.argwhere((codes.view(np.uint64) >= n) | (codes != values))[0]
        raise EvaluationError(
            f"{what} must lie in [0, {n}), got range [{values.min()}, {values.max()}]: "
            f"{values[r, j].item()!r} at position {j} of row {r}"
        )
    return codes


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
