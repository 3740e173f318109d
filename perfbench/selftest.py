#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Usage, from the repository root: ``python3 perfbench/selftest.py``

A wrong score, a wrong evaluation count, a raised exception, a theorem report
that does not hold, or a masking curve that fails criterion 10 must each be
counted as a failed op, and a fast failed op must never raise ``ops_per_s``.  The faults are injected by patching package functions
in this process only.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import shapgraph as sg  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(HERE, "refs.json")) as fh:
    REFS = json.load(fh)

failures = []


def expect(label: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {label}")
    if not condition:
        failures.append(label)


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def shifted_score(fn):
    def estimator(game, graph, k, *args, **kwargs):
        result = fn(game, graph, k, *args, **kwargs)
        result.scores[7] += 1e-3
        return result
    return estimator


def swapped_scores(fn):
    def estimator(game, graph, k, *args, **kwargs):
        result = fn(game, graph, k, *args, **kwargs)
        result.scores[[3, 4]] = result.scores[[4, 3]]
        return result
    return estimator


def extra_subset(fn):
    def estimator(game, graph, k, *args, **kwargs):
        game((1 << game.d) - 1 - 1)  # one subset no estimator needs
        return fn(game, graph, k, *args, **kwargs)
    return estimator


def nan_score(fn):
    def estimator(game, graph, k, *args, **kwargs):
        result = fn(game, graph, k, *args, **kwargs)
        result.scores[0] = np.nan
        return result
    return estimator


def raises(fn):
    def estimator(*args, **kwargs):
        raise sg.EvaluationError("injected model failure")
    return estimator


def does_not_hold(fn):
    def verify(*args, **kwargs):
        report = fn(*args, **kwargs)
        return type(report)(**{**report.__dict__, "holds": False})
    return verify


def op_error(workload, ctx, kind, item=0):
    return run.run_op(workload, ctx, kind, item, REFS).error


def test_local_checks():
    local = wl.WORKLOADS["local"]
    ctx = local.setup(HERE)
    expect("a correct op passes its checks", op_error(local, ctx, "l_chain") is None)
    for label, fault in (("one score off by 1e-3", shifted_score), ("two scores swapped", swapped_scores),
                         ("one extra subset valued", extra_subset), ("a NaN score", nan_score),
                         ("an exception", raises)):
        with patched(sg, "l_shapley_all", fault):
            expect(f"{label} fails the op", op_error(local, ctx, "l_chain") is not None)


def test_dense_checks():
    dense = wl.WORKLOADS["dense"]
    ctx = dense.setup(HERE)
    expect("a correct theorem check passes", op_error(dense, ctx, "theorem1") is None)
    with patched(sg, "verify_theorem1", does_not_hold):
        expect("a report without holds fails the op", op_error(dense, ctx, "theorem1") is not None)


def test_masking_cycle_check():
    masking = wl.WORKLOADS["masking"]
    drop = -np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    curves = {"random": 0.5 * drop, "sample": -drop}
    results = [wl.OpResult(kind, 0, 0.01, wl.Output(curves.get(kind, drop), 0), None)
               for kind in wl.MASKING_METHODS]
    masking.check_cycle(results)
    failed = [r.kind for r in results if r.error is not None]
    expect("a curve above random fails criterion 10 for that method only", failed == ["sample"])


def test_failed_ops_are_not_fast():
    slow_ok = wl.OpResult("l_chain", 0, 1.0, wl.Output(np.zeros(1), 5), None, ref_seconds=1.0)
    fast_bad = wl.OpResult("l_chain", 0, 0.001, wl.Output(np.zeros(1), 5), "wrong", ref_seconds=0.001)
    local = wl.WORKLOADS["local"]
    alone = run.rates(local, [slow_ok])["ops_per_ref_s"]
    with_bad = run.rates(local, [slow_ok, fast_bad])["ops_per_ref_s"]
    expect("a fast failed op does not raise ops_per_s", with_bad <= alone)


def test_end_to_end_failure_count():
    """A short masking run with two faulty methods reports them as failed."""

    def wrong_outputs(fn):
        def compare(model, dataset, methods, *args, **kwargs):
            curves, table = fn(model, dataset, methods, *args, **kwargs)
            if methods == ["kernelshap"]:
                curves[0].mean_log_odds_change = curves[0].mean_log_odds_change + 1e-3
            if methods == ["sample"]:
                table = {"sample": table["sample"] + 1}
            return curves, table
        return compare

    stdout = io.StringIO()
    with patched(wl.harness, "compare_methods", wrong_outputs), contextlib.redirect_stdout(stdout):
        run.main(["--workload", "masking", "--seed", "0", "--seconds", "0.5", "--trace", "0"])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    docs = wl.MASKING_DOCS_PER_CYCLE
    cycles = (result["attempted"] - run.SETUP_REPEATS) // (docs * len(wl.MASKING_METHODS))
    expected = run.SETUP_REPEATS + 2 * docs * cycles  # warm-ups are kernelshap ops
    expect(f"a run with faulty methods counts {expected} failed ops", result["failed"] == expected)
    expect("the result is marked incorrect", result["correct"] is False)
    rate = result["metrics"]["success_rate"]["value"]
    expect("success_rate drops by the failed share",
           abs(rate - (1 - expected / result["attempted"])) < 1e-12)


def test_tracer_restores_originals():
    before = (sg.l_shapley_all, sg.SetFunction.scores, sg.NaiveBayesModel.evaluate_batch)
    tracer = spans.Tracer()
    tracer.install()
    installed = sg.l_shapley_all is not before[0] and sg.SetFunction.scores is not before[1]
    tracer.uninstall()
    after = (sg.l_shapley_all, sg.SetFunction.scores, sg.NaiveBayesModel.evaluate_batch)
    expect("the tracer installs wrappers and removes them all", installed and after == before)


def test_probe_scale():
    host = probe.Probe()
    host.starts, host.ends = [0.0, 1.0, 3.0], [0.002, 1.004, 3.004]
    # an op from 1.5 to 2.5 s sits between the 4 ms probes at 1.0 and 3.0 s
    expect("an op is scaled by the probes just before and after it",
           abs(host.scale(1.5, 2.5) - probe.REF_S / 0.004) < 1e-9)
    expect("an op after the last probe is scaled by that probe alone",
           abs(host.scale(3.5, 4.0) - probe.REF_S / 0.004) < 1e-9)


def main() -> int:
    test_local_checks()
    test_dense_checks()
    test_masking_cycle_check()
    test_failed_ops_are_not_fast()
    test_end_to_end_failure_count()
    test_tracer_restores_originals()
    test_probe_scale()
    print(f"{len(failures)} failing cases" if failures else "all self-test cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
