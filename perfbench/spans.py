"""Span tracing installed from outside the package.

``Tracer.install`` replaces public functions and methods of the shapgraph
layers with timing wrappers, and ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited: a function is replaced in every
``shapgraph`` module namespace that binds it, so calls made through
``from .x import f`` bindings are traced too.  Spans are recorded only while
an op is open, kept in memory, and written out when the run ends.

A span is (id, parent, op, name, start, end, count).  ``name`` is
``<layer>.<function>``; ``count`` is the unit of work the call did (rows,
subsets, bytes) or None.  A layer's self time is the span's duration minus
the durations of its child spans, which nest strictly in a single thread.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

from shapgraph import _kernels, attribution, graphs, harness, models, regression, theory
from shapgraph.valuation import SetFunction

WIRE_BATCH_LIMIT = models.WIRE_BATCH_LIMIT


def _length(args, kwargs, out):
    return len(out)


def _design_rows(args, kwargs, out):
    return int(np.shape(args[0])[0])


def _array_bytes(args, kwargs, out):
    # Bytes of the dense tables the kernel reads and writes, from array
    # sizes; this is not a measurement of memory traffic.
    arrays = [a for a in args if isinstance(a, np.ndarray)] + [out]
    return int(sum(a.nbytes for a in arrays))


def _dense_terms(args, kwargs, out):
    d = args[0].d
    return d << (d - 1)  # one marginal per (feature, subset containing it)


def _sample_terms(args, kwargs, out):
    return int(args[1]) * args[0].d  # permutations x features


# (layer, owner, attribute, count extractor).  The graph layer includes the
# two term builders in ``attribution``: they are the plan enumeration.
FUNCTIONS = [
    ("graphs", graphs, "k_neighborhood", None),
    ("graphs", graphs, "connected_subsets_containing", _length),
    ("graphs", attribution, "l_shapley_terms", _length),
    ("graphs", attribution, "c_shapley_terms", _length),
    ("attribution", attribution, "exact_shapley", _dense_terms),
    ("attribution", attribution, "myerson_value", _dense_terms),
    ("attribution", attribution, "sample_shapley", _sample_terms),
    ("attribution", attribution, "l_shapley", None),
    ("attribution", attribution, "c_shapley", None),
    ("attribution", attribution, "l_shapley_all", None),
    ("attribution", attribution, "c_shapley_all", None),
    ("kernels", _kernels, "shapley_scatter", _array_bytes),
    ("kernels", _kernels, "lowbit_component_masks", _array_bytes),
    ("kernels", _kernels, "component_sum_table", _array_bytes),
    ("kernels", _kernels, "restriction_indices", _array_bytes),
    ("regression", regression, "kernelshap", None),
    ("regression", regression, "regression_c_shapley", None),
    ("regression", regression, "solve_weighted", _design_rows),
    ("harness", harness, "log_odds_curve", None),
    ("harness", harness, "mask_top_features", None),
    ("theory", theory, "verify_theorem1", None),
    ("theory", theory, "verify_theorem2", None),
    ("theory", theory, "value_matrix", None),
    ("theory", theory, "epsilon_for_lshapley", None),
    ("theory", theory, "epsilon_for_cshapley", None),
]

MODEL_CLASSES = [models.NaiveBayesModel, models.ExternalModel]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(math.nan)
        self.counts.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, count) -> None:
        self.ends[sid] = time.perf_counter()
        self.counts[sid] = count
        self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = op_id
        self._open("op." + kind)

    def end_op(self) -> None:
        self._close(self._stack[-1], None)
        self._op = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._close(sid, count(args, kwargs, out) if count and out is not None else None)

        return traced

    def _wrap_scores(self, fn):
        tracer = self

        def scores(game, masks):
            if tracer._op is None:
                return fn(game, masks)
            sid = tracer._open("valuation.scores")
            before = game.eval_count
            try:
                return fn(game, masks)
            finally:
                tracer._close(sid, (len(masks), game.eval_count - before))

        return scores

    def _wrap_model(self, fn, external):
        tracer = self
        name = "models.evaluate_batch_wire" if external else "models.evaluate_batch"

        def evaluate_batch(model, values):
            if tracer._op is None:
                return fn(model, values)
            sid = tracer._open(name)
            try:
                return fn(model, values)
            finally:
                tracer._close(sid, int(np.shape(values)[0]))

        return evaluate_batch

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "shapgraph" or n.startswith("shapgraph.")]
        for layer, owner, attr, count in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, f"{layer}.{attr}", count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        cls_patches = [(SetFunction, "scores", self._wrap_scores(SetFunction.scores))]
        for cls in MODEL_CLASSES:
            cls_patches.append(
                (cls, "evaluate_batch", self._wrap_model(cls.evaluate_batch, cls is models.ExternalModel))
            )
        for cls, attr, wrapper in cls_patches:
            self._restore.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            rows = zip(self.parents, self.ops, self.names, self.starts, self.ends, self.counts)
            for sid, (parent, op, name, start, end, count) in enumerate(rows):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, "count": count}) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


COUNTS = (
    "graphs.subsets_enumerated", "attribution.terms", "attribution.scores_calls",
    "valuation.masks_requested", "valuation.subsets_new", "models.calls", "models.rows",
    "models.wire_round_trips", "kernels.calls", "kernels.table_bytes",
    "regression.design_rows", "harness.masked_rows", "theory.checks",
)
# layer whose summed self time is reported under each name
SELF_TIMES = {
    "graphs.enum_s": "graphs", "attribution.self_s": "attribution",
    "valuation.self_s": "valuation", "models.busy_s": "models", "kernels.busy_s": "kernels",
    "regression.self_s": "regression", "harness.self_s": "harness", "theory.self_s": "theory",
}
# span names whose summed full duration is reported under each name
SPAN_TIMES = {
    "regression.solve_s": ("regression.solve_weighted",),
    "theory.value_matrix_s": ("theory.value_matrix",),
    "theory.epsilon_s": ("theory.epsilon_for_lshapley", "theory.epsilon_for_cshapley"),
}


def op_totals(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Summed per-layer counts and times for every traced op, in one pass."""
    names, parents, counts = tracer.names, tracer.parents, tracer.counts
    duration = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(duration)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += duration[i]
    span_metric = {span: metric for metric, spans in SPAN_TIMES.items() for span in spans}
    layer_metric = {layer: metric for metric, layer in SELF_TIMES.items()}
    totals: dict[int, dict[str, float]] = {}
    for i, name in enumerate(names):
        m = totals.setdefault(tracer.ops[i], dict.fromkeys((*COUNTS, *SELF_TIMES, *SPAN_TIMES), 0))
        layer = layer_of(name)
        if layer in layer_metric:
            m[layer_metric[layer]] += duration[i] - child_time[i]
        if name in span_metric:
            m[span_metric[name]] += duration[i]
        count = counts[i]
        p = parents[i]
        parent_layer = layer_of(names[p]) if p >= 0 else None
        if layer == "graphs":
            if parent_layer != "graphs" and count is not None:
                m["graphs.subsets_enumerated"] += count
                if parent_layer == "attribution":
                    m["attribution.terms"] += count
        elif layer == "attribution":
            m["attribution.terms"] += count or 0
        elif layer == "valuation":
            requested, new = count
            m["valuation.masks_requested"] += requested
            m["valuation.subsets_new"] += new
            if parent_layer == "attribution":
                m["attribution.scores_calls"] += 1
        elif layer == "models":
            m["models.calls"] += 1
            m["models.rows"] += count
            if name.endswith("_wire"):
                m["models.wire_round_trips"] += -(-count // WIRE_BATCH_LIMIT)
        elif layer == "kernels":
            m["kernels.calls"] += 1
            m["kernels.table_bytes"] += count or 0
        elif name == "regression.solve_weighted":
            m["regression.design_rows"] += count or 0
        elif name == "harness.mask_top_features":
            m["harness.masked_rows"] += 1
        elif name.startswith("theory.verify_"):
            m["theory.checks"] += 1
    return totals


def combine(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Sum op totals and add the two derived ratios."""
    m = {key: sum(op[key] for op in per_op) for key in per_op[0]}
    requested = m["valuation.masks_requested"]
    m["valuation.cache_hit_ratio"] = 1.0 - m["valuation.subsets_new"] / requested if requested else 0.0
    m["models.rows_per_call"] = m["models.rows"] / m["models.calls"] if m["models.calls"] else 0.0
    return m
