"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are pinned here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from shapgraph import (
    chain_graph,
    c_shapley,
    c_shapley_all,
    diameter,
    exact_shapley,
    kernelshap,
    l_shapley,
    l_shapley_all,
    lemma1_check,
    myerson_value,
    random_joint,
    regression_c_shapley,
    shapley_kernel_weight,
    synthetic_game,
    verify_theorem1,
    verify_theorem2,
)
from shapgraph.harness import compare_methods
from shapgraph.models import markov_label_model, train_naive_bayes, two_topic_corpus
from shapgraph.valuation import Instance, additive_game

from reference_path import decomposable_chain_game


class Stopwatch:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"{self.label} took {self.elapsed:.2f}s, over the {self.limit}s limit"
            )
            print(f"[{self.label}] PASS ({self.elapsed:.2f}s)")
        return False


def test_criterion_01_shapley_axioms():
    with Stopwatch(5.0, "criterion 1: shapley axioms"):
        rng = np.random.default_rng(101)
        for trial in range(100):
            d = 3 + trial % 6
            game = synthetic_game(d, seed=int(rng.integers(1 << 31)))
            scores = exact_shapley(game).scores
            total = game((1 << d) - 1) - game(0)
            assert abs(scores.sum() - total) <= 1e-9

        # equal contributions: features 0 and 1 are exchangeable by construction
        base = np.random.default_rng(7).normal(size=(3, 1 << 4))
        table = np.empty(1 << 6)
        for m in range(1 << 6):
            table[m] = base[bin(m & 0b11).count("1"), m >> 2]
        game = synthetic_game(6, table=table)
        scores = exact_shapley(game).scores
        assert abs(scores[0] - scores[1]) <= 1e-12

        # monotonicity: adding a nonnegative bump to every subset containing
        # feature 2 can only raise its score
        rng = np.random.default_rng(8)
        t1 = rng.normal(size=1 << 5)
        bump = np.where((np.arange(1 << 5) >> 2) & 1, rng.uniform(0, 1, 1 << 5), 0.0)
        low = exact_shapley(synthetic_game(5, table=t1)).scores[2]
        high = exact_shapley(synthetic_game(5, table=t1 + bump)).scores[2]
        assert high >= low


def test_criterion_02_local_estimate_exactness():
    with Stopwatch(10.0, "criterion 2: order >= diameter recovers exact Shapley"):
        rng = np.random.default_rng(202)
        for trial in range(50):
            d = 3 + trial % 6
            g = chain_graph(d)
            game = synthetic_game(d, seed=int(rng.integers(1 << 31)))
            exact = exact_shapley(game).scores
            k = diameter(g) + trial % 2
            for i in range(d):
                assert abs(l_shapley(game, g, i, k) - exact[i]) <= 1e-9


def test_criterion_03_connected_estimate_equals_myerson():
    with Stopwatch(30.0, "criterion 3: order-d connected estimate is the Myerson value"):
        rng = np.random.default_rng(303)
        for trial in range(50):
            d = 3 + trial % 6
            g = chain_graph(d)
            game = decomposable_chain_game(d, g, int(rng.integers(1 << 31)))
            myerson = myerson_value(game, g).scores
            for i in range(d):
                assert abs(c_shapley(game, g, i, d) - myerson[i]) <= 1e-9


def test_criterion_04_combinatorial_identity():
    with Stopwatch(1.0, "criterion 4: combinatorial identity exact on the full grid"):
        for n in range(13):
            for s in range(13):
                for t in range(s + 1):
                    assert lemma1_check(n, s, t).equal


def test_criterion_05_local_estimate_error_bound():
    with Stopwatch(300.0, "criterion 5: local-estimate error bound (4 epsilon)"):
        d, k = 6, 1
        g = chain_graph(d)
        for trial in range(200):
            joint = random_joint(d, 2, 500 + trial)
            report = verify_theorem1(joint, g, trial % d, k)
            assert report.expected_error <= report.bound + 1e-9

        for seed in (0, 1, 2):
            _, joint = markov_label_model(seed=seed, d=d, mixing=0.6)
            for i in range(d):
                report = verify_theorem1(joint, g, i, k)
                assert report.expected_error <= 1e-9


def test_criterion_06_connected_estimate_error_bound():
    with Stopwatch(300.0, "criterion 6: connected-estimate error bound (6 epsilon)"):
        d, k = 6, 1
        g = chain_graph(d)
        for trial in range(200):
            joint = random_joint(d, 2, 500 + trial)
            report = verify_theorem2(joint, g, trial % d, k)
            assert report.expected_error <= report.bound + 1e-9

        for seed in (0, 1, 2):
            _, joint = markov_label_model(seed=seed, d=d, mixing=0.6)
            for i in range(d):
                report = verify_theorem2(joint, g, i, k)
                assert report.expected_error <= 1e-9


def test_criterion_07_evaluation_count_claims():
    with Stopwatch(10.0, "criterion 7: evaluation-count accounting"):
        # per-feature cost of the local estimate on interior chain nodes
        for k in (1, 2):
            game = additive_game(np.zeros(24))
            res = l_shapley_all(game, chain_graph(24), k)
            assert max(res.per_feature_evaluations[1:-1]) <= 1 << (2 * k + 1)

        # total cost of the connected estimate scales as k^2 d.  The distinct
        # count is about (k+1)^2 d, so the constant-2 form of the bound is
        # satisfiable only from k = 3 up; k in {3, 4} is checked here.
        for d in (16, 64, 256):
            for k in (3, 4):
                game = additive_game(np.zeros(d))
                res = c_shapley_all(game, chain_graph(d), k)
                assert res.model_evaluations <= 2 * k * k * d


def test_criterion_08_kernel_regression_recovery():
    with Stopwatch(30.0, "criterion 8: exhaustive kernel regression recovers exact Shapley"):
        assert abs(shapley_kernel_weight(4, 1) - 0.25) < 1e-15
        assert abs(shapley_kernel_weight(4, 2) - 0.125) < 1e-15
        rng = np.random.default_rng(808)
        for trial in range(20):
            d = 3 + trial % 6
            seed = int(rng.integers(1 << 31))
            estimate = kernelshap(synthetic_game(d, seed=seed), 0, exhaustive=True).scores
            exact = exact_shapley(synthetic_game(d, seed=seed)).scores
            assert np.abs(estimate - exact).max() <= 1e-6


def test_criterion_09_connected_regression_recovery():
    with Stopwatch(5.0, "criterion 9: connected regression recovers additive games"):
        rng = np.random.default_rng(909)
        for d in (8, 16, 32, 64):
            for k in (1, 2, 4):
                coeffs = rng.normal(size=d)
                res = regression_c_shapley(additive_game(coeffs), chain_graph(d), k)
                assert np.abs(res.scores - coeffs).max() < 1e-8


def test_criterion_10_masking_experiment():
    with Stopwatch(300.0, "criterion 10: masking experiment beats the random baseline"):
        vocab, doc_len = 200, 40
        train = two_topic_corpus(0, 500, doc_len=doc_len, vocab_size=vocab)
        test = two_topic_corpus(1, 200, doc_len=doc_len, vocab_size=vocab)
        model = train_naive_bayes(train, vocab_size=vocab)
        instances = [Instance(t, np.zeros(doc_len, dtype=int)) for t, _ in test]
        budget = 4 * doc_len
        fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        curves, _ = compare_methods(
            model,
            instances,
            ["l-shapley:1", "c-shapley-reg:4", "kernelshap", "sample", "random"],
            budget=budget,
            seed=0,
            fractions=fractions,
        )
        by_name = {c.method: c for c in curves}
        baseline = by_name["random"]
        for name in ("l-shapley", "c-shapley-reg", "kernelshap", "sample"):
            curve = by_name[name]
            for pos in range(1, len(fractions)):
                assert (
                    curve.mean_log_odds_change[pos] < baseline.mean_log_odds_change[pos]
                ), f"{name} not strictly below the baseline at fraction {fractions[pos]}"
        for name in ("l-shapley", "c-shapley-reg"):
            assert abs(by_name[name].area()) >= 2 * abs(baseline.area())


def _run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "shapgraph.cli", *args],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_11_cli_determinism(tmp_path):
    with Stopwatch(120.0, "criterion 11: seeded CLI runs are byte-identical"):
        doc = two_topic_corpus(4, 1, doc_len=16, vocab_size=200)[0][0]
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"values": [int(v) for v in doc], "reference": [0] * 16}))
        binary_inst = tmp_path / "binary.json"
        bits = np.random.default_rng(6).integers(0, 2, size=16)
        binary_inst.write_text(
            json.dumps({"values": [int(v) for v in bits], "reference": [0] * 16})
        )
        dataset = tmp_path / "ds.jsonl"
        rows = []
        for tokens, label in two_topic_corpus(5, 3, doc_len=16, vocab_size=200):
            rows.append(json.dumps({
                "values": [int(v) for v in tokens],
                "reference": [0] * 16,
                "label": int(label),
            }))
        dataset.write_text("\n".join(rows) + "\n")

        commands = [
            ("explain", "--model", "builtin:nb", "--method", "kernelshap",
             "--input", str(inst), "--seed", "13", "--out", "OUT"),
            ("explain", "--model", "builtin:markov", "--method", "sample",
             "--permutations", "8", "--input", str(binary_inst), "--seed", "5", "--out", "OUT"),
            ("evaluate", "--dataset", str(dataset), "--methods", "l-shapley,sample,random",
             "--budget", "64", "--fractions", "0,0.25,0.5", "--seed", "17", "--out", "OUT"),
            ("theorem-check", "--trials", "3", "--d", "4", "--k", "1",
             "--seed", "23", "--out", "OUT"),
        ]
        for ordinal, command in enumerate(commands):
            blobs = []
            for attempt in ("x", "y"):
                out = tmp_path / f"cmd{ordinal}-{attempt}.out"
                args = [a if a != "OUT" else str(out) for a in command]
                _run_cli(*args)
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"command {command[0]} (#{ordinal}) not byte-stable"

        # stdout-only commands
        for command in (
            ("lemma-check", "--max-n", "8", "--max-s", "8"),
            ("bench", "--method", "c-shapley", "--d", "64", "--k", "3"),
        ):
            assert _run_cli(*command) == _run_cli(*command)
