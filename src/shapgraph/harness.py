"""Masking-based evaluation: rank features, mask the top fraction, and track
how the predicted class's log-probability drops.

Attribution cost is accounted in distinct value-function subsets per
instance; the curve's own bookkeeping (the unmasked prediction and the masked
re-evaluations) is direct model access and does not count against budgets.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attribution import DEFAULT_SUBSET_BUDGET, Plan, exact_shapley_plan, local_plan, myerson_plan, sample_shapley_plan
from .errors import BudgetExceededError, ConfigurationError, EvaluationError
from .graphs import DEFAULT_ENUMERATION_BUDGET, FeatureGraph, pack_masks, subset_of
from .regression import kernelshap_plan, regression_c_shapley_plan
from .valuation import Instance, ValueFunction, model_probs, plugin_masked_instance

DEFAULT_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(11))  # 0, 0.05, ..., 0.5

# CLI name -> (default order k, planner).  A planner is called with the
# keywords d, graph, k, seed, permutations and samples, and returns the
# estimator's Plan for an instance of d features, which the harness checks
# against the budget before it runs it.
METHODS = {
    "exact": (None, lambda d, **_: exact_shapley_plan(d)),
    "l-shapley": (1, lambda graph, k, **_: local_plan("l_shapley", graph, k, None, DEFAULT_SUBSET_BUDGET)),
    "c-shapley": (1, lambda graph, k, **_: local_plan("c_shapley", graph, k, "myerson", DEFAULT_ENUMERATION_BUDGET)),
    "c-shapley-reg": (4, lambda graph, k, **_: regression_c_shapley_plan(graph, k)),
    "sample": (None, lambda d, seed, permutations, **_: sample_shapley_plan(d, permutations, seed)),
    "kernelshap": (None, lambda d, seed, samples, **_: kernelshap_plan(d, samples, seed)),
    "myerson": (None, lambda graph, **_: myerson_plan(graph)),
    "random": (None, lambda d, seed, **_: random_plan(d, seed)),
}


@dataclass(frozen=True)
class MethodSpec:
    """A harness method by CLI name, with its locality order where relevant."""

    name: str
    k: int | None = None

    def __post_init__(self):
        if self.name not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.name!r}; expected one of {tuple(METHODS)}"
            )

    @property
    def order(self) -> int | None:
        if self.k is not None:
            return self.k
        return METHODS[self.name][0]

    def plan(self, d: int, graph: FeatureGraph, seed: int, permutations: int, samples: int) -> Plan:
        """The estimator's plan for an instance of d features; ``permutations``
        and ``samples`` size the two sampling estimators."""
        planner = METHODS[self.name][1]
        return planner(d=d, graph=graph, k=self.order, seed=seed, permutations=permutations, samples=samples)

    @staticmethod
    def parse(text: str) -> "MethodSpec":
        name, _, k = text.partition(":")
        try:
            order = int(k) if k else None
        except ValueError:
            raise ConfigurationError(f"method {text!r}: order k must be an integer") from None
        return MethodSpec(name.strip(), order)


def ranked_features(scores: np.ndarray) -> np.ndarray:
    """Feature indices by descending score; ties go to the lower index."""
    scores = np.asarray(scores)
    return np.argsort(-scores, kind="stable")


def mask_top_features(x: Instance, scores: np.ndarray, fraction: float) -> Instance:
    """Replace the top ceil(fraction * d) ranked features with the reference."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    scores = np.asarray(scores)
    if len(scores) != x.d:
        raise ValueError(f"got {len(scores)} scores for {x.d} features")
    n_masked = math.ceil(fraction * x.d)
    masked = subset_of(ranked_features(scores)[:n_masked].tolist())
    return plugin_masked_instance(x, ((1 << x.d) - 1) & ~masked)


def random_plan(d: int, seed: int) -> Plan:
    """The harness's baseline: standard-normal scores drawn from ``seed``,
    which value no subset."""
    return Plan.of_masks("random", [], d, lambda _: np.random.default_rng(seed).standard_normal(d), seed=seed)


def planned_evaluations(plan: Plan) -> int:
    """The evaluations ``plan.run`` makes on a fresh :class:`ValueFunction`:
    its subsets, plus the full set, which ``prepare`` values first, when
    there are any and it is not among them."""
    subsets = plan.subsets
    full = pack_masks([(1 << subsets.d) - 1], subsets.d)
    return len(subsets) + int(len(subsets) > 0 and not subsets.find(full)[1][0])


def method_plan(spec: MethodSpec, d: int, graph: FeatureGraph, budget: int | None, seed: int) -> Plan:
    """The plan of ``spec`` for an instance of d features.  A plan that needs
    more evaluations than ``budget`` raises :class:`BudgetExceededError`
    naming the method, before any model call."""
    permutations = max(1, (budget or 4 * d) // (d + 1))
    samples = max(d, budget - 2 if budget is not None else 4 * d)
    plan = spec.plan(d, graph, seed, permutations, samples)
    needed = planned_evaluations(plan)
    if budget is not None and needed > budget:
        raise BudgetExceededError(
            f"method {spec.name!r} needs {needed} evaluations, over its budget of {budget}",
            count=needed,
        )
    return plan


def attribution_scores(
    spec: MethodSpec,
    model,
    instance: Instance,
    graph: FeatureGraph,
    budget: int | None,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Scores plus the number of distinct subsets the method evaluated.

    Methods that cannot respect a given budget raise
    :class:`BudgetExceededError` naming the method, before any model call.
    """
    result = method_plan(spec, instance.d, graph, budget, seed).run(ValueFunction(model, instance, seed=seed))
    return result.scores, result.model_evaluations


@dataclass
class EvaluationCurve:
    """Mean change of the predicted class's log-probability per masked fraction."""

    method: str
    fractions: tuple[float, ...]
    mean_log_odds_change: np.ndarray
    num_instances: int
    seed: int
    model_evaluations: int = 0
    order_k: int | None = field(default=None, repr=False)

    def area(self) -> float:
        """Trapezoidal area under the curve over the fraction grid."""
        return float(np.trapezoid(self.mean_log_odds_change, self.fractions))


def _validate_fractions(fractions: Sequence[float]) -> tuple[float, ...]:
    fr = tuple(float(f) for f in fractions)
    if not fr or fr[0] != 0.0:
        raise ConfigurationError("fraction grid must start at 0")
    if any(b <= a for a, b in zip(fr, fr[1:])) or fr[-1] > 1.0:
        raise ConfigurationError("fractions must increase within [0, 1]")
    return fr


def _instance_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (1 << 31)


def log_odds_curve(
    model,
    dataset: Sequence[Instance],
    spec: MethodSpec,
    graph: FeatureGraph,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    budget: int | None = None,
    seed: int = 0,
    labels: Sequence[int] | None = None,
    correct_only: bool = False,
) -> EvaluationCurve:
    """Average masking curve of one method over a dataset.

    Per instance the predicted class is frozen at the unmasked prediction;
    the curve records log P(class | masked) - log P(class | unmasked),
    averaged over instances, for each fraction of top-ranked features masked.
    """
    if not dataset:
        raise ConfigurationError("dataset is empty")
    if correct_only:
        for idx in range(len(dataset)):
            label = labels[idx] if labels is not None and idx < len(labels) else None
            if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
                raise ConfigurationError(
                    f"correct_only needs an integer label on every instance; instance {idx} has {label!r}"
                )
    fr = _validate_fractions(fractions)
    totals = np.zeros(len(fr))
    used_instances = 0
    total_evals = 0
    for idx, x in enumerate(dataset):
        try:
            inst_seed = _instance_seed(seed, idx)
            plan = method_plan(spec, x.d, graph, budget, inst_seed)
            base = model_probs(model, x.values[None, :])[0][0]
            predicted = int(np.argmax(base))
            if correct_only and predicted != labels[idx]:
                continue
            result = plan.run(ValueFunction(model, x, seed=inst_seed))
            total_evals += result.model_evaluations
            masked_rows = np.stack(
                [mask_top_features(x, result.scores, f).values for f in fr]
            )
            after = model_probs(model, masked_rows)[0][:, predicted]
            totals += after - base[predicted]
            used_instances += 1
        except (BudgetExceededError, ConfigurationError):
            raise
        except Exception as exc:
            raise EvaluationError(f"instance {idx}: {exc}") from exc
    if used_instances == 0:
        raise ConfigurationError("no instances left to evaluate")
    return EvaluationCurve(
        method=spec.name,
        fractions=fr,
        mean_log_odds_change=totals / used_instances,
        num_instances=used_instances,
        seed=seed,
        model_evaluations=total_evals,
        order_k=spec.order,
    )


def compare_methods(
    model,
    dataset: Sequence[Instance],
    methods: Sequence[MethodSpec | str],
    budget: int,
    seed: int = 0,
    graph: FeatureGraph | None = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    labels: Sequence[int] | None = None,
    correct_only: bool = False,
) -> tuple[list[EvaluationCurve], dict[str, int]]:
    """Run every method under one shared per-instance evaluation budget.

    Returns the curves plus a table of exact evaluation counts (distinct
    subsets summed over instances).  Methods that cannot respect the budget
    fail loudly rather than being silently truncated.
    """
    if not dataset:
        raise ConfigurationError("dataset is empty")
    d = dataset[0].d
    if budget < d:
        raise ConfigurationError(f"budget {budget} is below the feature count {d}")
    if graph is None:
        from .graphs import chain_graph

        graph = chain_graph(d)
    specs = [MethodSpec.parse(m) if isinstance(m, str) else m for m in methods]
    names = [spec.name for spec in specs]
    if len(set(names)) < len(names):  # the count table and the CSV rows are keyed by name
        raise ConfigurationError(f"each method may be listed once, got {names}")
    curves = []
    eval_table: dict[str, int] = {}
    for spec in specs:
        curve = log_odds_curve(
            model, dataset, spec, graph, fractions, budget, seed, labels, correct_only
        )
        curves.append(curve)
        eval_table[spec.name] = curve.model_evaluations
    return curves, eval_table


def curves_to_csv(curves: Sequence[EvaluationCurve]) -> str:
    """Serialize curves as ``method,fraction,mean_log_odds_change,n,seed`` rows."""
    buf = io.StringIO()
    buf.write("method,fraction,mean_log_odds_change,n,seed\n")
    for curve in curves:
        for f, change in zip(curve.fractions, curve.mean_log_odds_change):
            buf.write(
                f"{curve.method},{float(f)!r},{float(change)!r},"
                f"{curve.num_instances},{curve.seed}\n"
            )
    return buf.getvalue()


_BLANK = re.compile(r"\s*")


def _dataset_rows(path: str, fields: tuple[str, ...]):
    """The JSON objects of a file, each with the line it starts on; a file
    that cannot be read, text that is not JSON and an object without all of
    ``fields`` raise ``ConfigurationError``.

    Objects may be separated by any whitespace, so a file of JSON lines and
    a file holding one pretty-printed object read alike.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path!r}: {exc}") from None
    decode = json.JSONDecoder().raw_decode
    pos, number = 0, 1  # number is the line that text[pos] is on
    while (start := _BLANK.match(text, pos).end()) < len(text):
        number += text.count("\n", pos, start)
        try:
            row, pos = decode(text, start)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"line {exc.lineno}: not JSON ({exc.msg}) in {path!r}") from None
        missing = [name for name in fields if not isinstance(row, dict) or name not in row]
        if missing:
            raise ConfigurationError(f"line {number}: no {missing[0]!r} field in {path!r}")
        yield number, row
        number += text.count("\n", start, pos)


def load_dataset(path: str) -> tuple[list[Instance], list[int | None]]:
    """Read a JSON-lines dataset of instances with optional labels."""
    instances = []
    labels: list[int | None] = []
    for number, row in _dataset_rows(path, ("values", "reference")):
        try:
            instances.append(Instance(np.array(row["values"]), np.array(row["reference"])))
        except ValueError as exc:
            raise ConfigurationError(f"line {number}: {exc} in {path!r}") from None
        labels.append(row.get("label"))
    return instances, labels


def load_pool(path: str) -> list[np.ndarray]:
    """The ``values`` of every row of a JSON-lines dataset; ``reference`` and
    ``label`` are neither read nor required."""
    return [np.array(row["values"]) for _, row in _dataset_rows(path, ("values",))]


def save_dataset(path: str, instances: Sequence[Instance], labels: Sequence[int] | None = None) -> None:
    with open(path, "w") as fh:
        for idx, inst in enumerate(instances):
            row = {
                "values": [v.item() if hasattr(v, "item") else v for v in inst.values],
                "reference": [v.item() if hasattr(v, "item") else v for v in inst.reference],
            }
            if labels is not None:
                row["label"] = int(labels[idx])
            fh.write(json.dumps(row) + "\n")
