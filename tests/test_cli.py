import json
import subprocess
import sys

import numpy as np
import pytest

from shapgraph.harness import save_dataset
from shapgraph.models import two_topic_corpus
from shapgraph.valuation import Instance


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "shapgraph.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture()
def instance_file(tmp_path):
    doc = two_topic_corpus(2, 1, doc_len=12, vocab_size=200)[0][0]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"values": [int(v) for v in doc], "reference": [0] * 12}))
    return path


@pytest.fixture()
def dataset_file(tmp_path):
    docs = two_topic_corpus(3, 4, doc_len=12, vocab_size=200)
    instances = [Instance(t, np.zeros(12, dtype=int)) for t, _ in docs]
    path = tmp_path / "ds.jsonl"
    save_dataset(str(path), instances, [l for _, l in docs])
    return path


class TestExplain:
    def test_writes_result_json(self, tmp_path, instance_file):
        out = tmp_path / "out.json"
        proc = run_cli(
            "explain", "--model", "builtin:nb", "--method", "c-shapley", "--k", "1",
            "--input", str(instance_file), "--seed", "3", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["method"] == "c_shapley"
        assert len(data["scores"]) == 12
        assert data["elapsed_ms"] is None
        assert data["evals"] > 0

    def test_markov_builtin(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"values": [0, 1, 1, 0, 1], "reference": [0] * 5}))
        out = tmp_path / "out.json"
        proc = run_cli(
            "explain", "--model", "builtin:markov", "--method", "exact",
            "--input", str(path), "--seed", "1", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(out.read_text())["scores"]) == 5

    def test_external_subprocess_model(self, tmp_path, instance_file):
        model_file = tmp_path / "uniform.json"
        model_file.write_text(json.dumps({"type": "uniform", "num_classes": 3}))
        out = tmp_path / "out.json"
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {model_file}"
        proc = run_cli(
            "explain", "--model", f"external:cmd {cmd}", "--method", "l-shapley",
            "--k", "1", "--input", str(instance_file), "--seed", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        scores = json.loads(out.read_text())["scores"]
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)  # uniform model: no signal

    def test_bad_model_spec_errors(self, instance_file):
        proc = run_cli(
            "explain", "--model", "builtin:nope", "--method", "exact",
            "--input", str(instance_file),
        )
        assert proc.returncode == 2
        assert "unknown model" in proc.stderr


class TestEmpiricalPool:
    def test_pool_values_are_the_background(self, tmp_path, instance_file, dataset_file):
        from shapgraph import cli, l_shapley_all
        from shapgraph.graphs import chain_graph
        from shapgraph.harness import load_dataset
        from shapgraph.valuation import ValueFunction

        out = tmp_path / "out.json"
        code = cli.main([
            "explain", "--model", "builtin:nb", "--method", "l-shapley", "--k", "1",
            "--estimator", "empirical", "--pool", str(dataset_file),
            "--input", str(instance_file), "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        row = json.loads(instance_file.read_text())
        pool = np.stack([inst.values for inst in load_dataset(str(dataset_file))[0]])
        vf = ValueFunction(
            cli.build_demo_nb(), Instance(np.array(row["values"]), np.array(row["reference"])),
            estimator="empirical", pool=pool, seed=4,
        )
        expected = l_shapley_all(vf, chain_graph(12), 1)
        assert data["scores"] == expected.scores.tolist()
        assert data["evals"] == expected.model_evaluations

    def test_empirical_without_pool_rejected_before_model(self, instance_file, monkeypatch, capsys):
        from shapgraph import cli

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(cli, "resolve_model", no_model)
        code = cli.main([
            "explain", "--model", "builtin:nb", "--method", "exact",
            "--estimator", "empirical", "--input", str(instance_file),
        ])
        assert code == 2
        assert "--pool" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_csv_and_eval_table(self, tmp_path, dataset_file):
        out = tmp_path / "curves.csv"
        proc = run_cli(
            "evaluate", "--dataset", str(dataset_file), "--methods", "l-shapley,random",
            "--budget", "48", "--fractions", "0,0.25,0.5", "--out", str(out), "--seed", "2",
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,fraction,mean_log_odds_change,n,seed"
        assert len(lines) == 1 + 2 * 3
        assert "evals[l-shapley]" in proc.stdout


class TestLemmaCheck:
    def test_small_sweep_passes(self):
        proc = run_cli("lemma-check", "--max-n", "5", "--max-s", "5")
        assert proc.returncode == 0
        assert "all exact" in proc.stdout


class TestTheoremCheck:
    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "theorem-check", "--trials", "3", "--d", "4", "--k", "1",
            "--seed", "11", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["all_hold"] is True
        assert len(report["records"]) == 6  # both theorems per trial
        rec = report["records"][0]
        assert {"epsilon", "expected_error", "bound", "holds", "i", "k"} <= set(rec)


class TestBench:
    def test_counts_against_cost_model(self):
        proc = run_cli("bench", "--method", "l-shapley", "--d", "32", "--k", "1")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["per_feature_interior_max"] <= report["reference"]["per_feature_bound"]


class TestDeterminism:
    def test_explain_byte_identical(self, tmp_path, instance_file):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli(
                "explain", "--model", "builtin:nb", "--method", "kernelshap",
                "--input", str(instance_file), "--seed", "4", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_byte_identical(self, tmp_path, dataset_file):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = run_cli(
                "evaluate", "--dataset", str(dataset_file), "--methods", "sample,random",
                "--budget", "48", "--fractions", "0,0.5", "--seed", "9", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
