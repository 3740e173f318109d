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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attribution import (
    c_shapley_all,
    exact_shapley,
    l_shapley_all,
    myerson_value,
    sample_shapley,
)
from .errors import BudgetExceededError, ConfigurationError, EvaluationError
from .graphs import FeatureGraph, subset_of
from .regression import kernelshap, regression_c_shapley
from .valuation import Instance, ValueFunction, plugin_masked_instance

DEFAULT_FRACTIONS = tuple(round(0.05 * i, 2) for i in range(11))  # 0, 0.05, ..., 0.5

METHOD_DEFAULT_K = {"l-shapley": 1, "c-shapley": 1, "c-shapley-reg": 4}
KNOWN_METHODS = (
    "exact",
    "l-shapley",
    "c-shapley",
    "c-shapley-reg",
    "sample",
    "kernelshap",
    "myerson",
    "random",
)


@dataclass(frozen=True)
class MethodSpec:
    """A harness method by CLI name, with its locality order where relevant."""

    name: str
    k: int | None = None

    def __post_init__(self):
        if self.name not in KNOWN_METHODS:
            raise ConfigurationError(
                f"unknown method {self.name!r}; expected one of {KNOWN_METHODS}"
            )

    @property
    def order(self) -> int | None:
        if self.k is not None:
            return self.k
        return METHOD_DEFAULT_K.get(self.name)

    @staticmethod
    def parse(text: str) -> "MethodSpec":
        name, _, k = text.partition(":")
        return MethodSpec(name.strip(), int(k) if k else None)


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
    :class:`BudgetExceededError` naming the method.
    """
    d = instance.d
    if spec.name == "random":
        rng = np.random.default_rng(seed)
        return rng.standard_normal(d), 0
    vf = ValueFunction(model, instance, seed=seed)
    before = vf.eval_count
    if spec.name == "exact":
        scores = exact_shapley(vf).scores
    elif spec.name == "l-shapley":
        scores = l_shapley_all(vf, graph, spec.order).scores
    elif spec.name == "c-shapley":
        scores = c_shapley_all(vf, graph, spec.order).scores
    elif spec.name == "c-shapley-reg":
        scores = regression_c_shapley(vf, graph, spec.order).scores
    elif spec.name == "kernelshap":
        num = budget - 2 if budget is not None else 4 * d
        scores = kernelshap(vf, num_samples=max(d, num), seed=seed).scores
    elif spec.name == "sample":
        permutations = max(1, (budget or 4 * d) // (d + 1))
        scores = sample_shapley(vf, permutations, seed=seed).scores
    elif spec.name == "myerson":
        scores = myerson_value(vf, graph).scores
    else:  # unreachable; MethodSpec validates
        raise ConfigurationError(f"unknown method {spec.name!r}")
    used = vf.eval_count - before
    if budget is not None and used > budget:
        raise BudgetExceededError(
            f"method {spec.name!r} used {used} evaluations, over its budget of {budget}",
            count=used,
        )
    return scores, used


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
    if correct_only and labels is None:
        raise ConfigurationError("correct_only needs labels")
    fr = _validate_fractions(fractions)
    totals = np.zeros(len(fr))
    used_instances = 0
    total_evals = 0
    for idx, x in enumerate(dataset):
        try:
            base = model.evaluate_batch(x.values[None, :])[0]
            predicted = int(np.argmax(base))
            if correct_only and predicted != labels[idx]:
                continue
            inst_seed = _instance_seed(seed, idx)
            scores, used = attribution_scores(spec, model, x, graph, budget, inst_seed)
            total_evals += used
            masked_rows = np.stack(
                [mask_top_features(x, scores, f).values for f in fr]
            )
            after = model.evaluate_batch(masked_rows)[:, predicted]
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


def load_dataset(path: str) -> tuple[list[Instance], list[int | None]]:
    """Read a JSON-lines dataset of instances with optional labels."""
    instances = []
    labels: list[int | None] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            instances.append(Instance(np.array(row["values"]), np.array(row["reference"])))
            labels.append(row.get("label"))
    return instances, labels


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
