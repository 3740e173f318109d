import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapgraph.harness import save_dataset
from shapgraph.models import two_topic_corpus
from shapgraph.valuation import Instance


with open(Path(__file__).with_name("bench_reports.json")) as fh:
    BENCH_REPORTS = json.load(fh)


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

    def test_pool_lines_need_only_values(self, tmp_path, instance_file, dataset_file):
        from shapgraph import cli

        bare = tmp_path / "bare.jsonl"
        rows = [json.loads(line) for line in dataset_file.read_text().splitlines()]
        bare.write_text("".join(json.dumps({"values": row["values"]}) + "\n" for row in rows))
        outputs = []
        for pool in (dataset_file, bare):
            out = tmp_path / f"out-{pool.stem}.json"
            code = cli.main([
                "explain", "--model", "builtin:nb", "--method", "c-shapley", "--k", "1",
                "--estimator", "empirical", "--pool", str(pool),
                "--input", str(instance_file), "--seed", "4", "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("labels, named", [
        ([0, None, 1, None], "instance 1 has None"),  # None: no label field
        ([0, 1, "1", 1], "instance 2 has '1'"),
        ([0, 1, 1, 1.0], "instance 3 has 1.0"),
        ([True, 1, 1, 1], "instance 0 has True"),
    ])
    def test_correct_only_refuses_a_row_without_an_integer_label(self, tmp_path, dataset_file, capsys, labels, named):
        from shapgraph import cli

        dataset = tmp_path / "labels.jsonl"
        rows = [json.loads(line) for line in dataset_file.read_text().splitlines()]
        assert len(rows) == len(labels)
        for row, label in zip(rows, labels):
            del row["label"]
            if label is not None:
                row["label"] = label
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = ["evaluate", "--dataset", str(dataset), "--methods", "random", "--budget", "48", "--correct-only"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


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


def _direct_estimators(k, permutations, samples, seed):
    """Each method's estimator called by hand, independently of the method table."""
    from shapgraph import (
        c_shapley_all, exact_shapley, l_shapley_all, myerson_value, sample_shapley,
    )
    from shapgraph.attribution import AttributionResult
    from shapgraph.regression import kernelshap, regression_c_shapley

    return {
        "exact": lambda vf, g: exact_shapley(vf),
        "l-shapley": lambda vf, g: l_shapley_all(vf, g, k),
        "c-shapley": lambda vf, g: c_shapley_all(vf, g, k),
        "c-shapley-reg": lambda vf, g: regression_c_shapley(vf, g, k),
        "sample": lambda vf, g: sample_shapley(vf, num_permutations=permutations, seed=seed),
        "kernelshap": lambda vf, g: kernelshap(vf, num_samples=samples, seed=seed),
        "myerson": lambda vf, g: myerson_value(vf, g),
        "random": lambda vf, g: AttributionResult("random", np.random.default_rng(seed).standard_normal(vf.d), 0),
    }


class TestMethodTable:
    FLAGS = {
        # flags -> (k, permutations, samples) the estimator should receive at d=12
        "defaults": ([], (1, 10, 48)),
        "explicit": (["--k", "2", "--permutations", "3", "--samples", "30"], (2, 3, 30)),
    }

    def test_every_method_has_a_direct_estimator(self):
        from shapgraph.harness import METHODS

        assert set(_direct_estimators(1, 1, 1, 0)) == set(METHODS)

    @pytest.mark.parametrize("flags", sorted(FLAGS))
    @pytest.mark.parametrize("method", ["exact", "l-shapley", "c-shapley", "c-shapley-reg",
                                        "sample", "kernelshap", "myerson", "random"])
    def test_explain_matches_direct_call(self, tmp_path, instance_file, method, flags):
        from shapgraph import cli
        from shapgraph.graphs import chain_graph
        from shapgraph.valuation import ValueFunction

        argv, (k, permutations, samples) = self.FLAGS[flags]
        out = tmp_path / "out.json"
        code = cli.main([
            "explain", "--model", "builtin:nb", "--method", method, *argv,
            "--input", str(instance_file), "--seed", "6", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        row = json.loads(instance_file.read_text())
        vf = ValueFunction(
            cli.build_demo_nb(), Instance(np.array(row["values"]), np.array(row["reference"])), seed=6
        )
        expected = _direct_estimators(k, permutations, samples, 6)[method](vf, chain_graph(12))
        assert data["scores"] == expected.scores.tolist()
        assert data["evals"] == expected.model_evaluations
        assert data["elapsed_ms"] is None

    @pytest.mark.parametrize("method", ["exact", "l-shapley", "c-shapley", "c-shapley-reg",
                                        "sample", "kernelshap", "myerson", "random"])
    def test_bench_covers_every_method(self, method, capsys):
        from shapgraph import cli

        assert cli.main(["bench", "--method", method, "--d", "8", "--k", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == method
        totals = {"exact": 256, "l-shapley": 28, "c-shapley": 28, "c-shapley-reg": 9, "sample": 9,
                  "kernelshap": 33, "myerson": 37, "random": 0}
        assert report["total_evaluations"] == totals[method]
        if method in ("l-shapley", "c-shapley"):
            assert report["per_feature_max"] == 4

    @pytest.mark.parametrize("entry", BENCH_REPORTS, ids=[" ".join(e["argv"][2::2]) for e in BENCH_REPORTS])
    def test_bench_prints_the_pinned_report(self, entry, capsys):
        # every estimator's counts on chains (d 10, 16, 64; k 1, 2, 3) and on
        # two grids, byte for byte; the configurations that exit 2 are left out
        from shapgraph import cli

        assert cli.main(entry["argv"]) == 0
        assert capsys.readouterr().out == entry["stdout"]

    def test_bench_grid_has_no_chain_references(self, capsys):
        from shapgraph import cli

        assert cli.main(["bench", "--method", "l-shapley", "--d", "25", "--graph", "grid 5x5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reference"] == {}
        assert report["per_feature_max"] == 23

    def test_unknown_method_rejected_before_model(self, instance_file, monkeypatch, capsys):
        from shapgraph import cli

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(cli, "resolve_model", no_model)
        for command in (["explain", "--model", "builtin:nb", "--input", str(instance_file)],
                        ["bench", "--d", "8"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*command, "--method", "nonsense"])
            assert exc.value.code == 2
            assert "invalid choice: 'nonsense'" in capsys.readouterr().err


class TestBadInputExitsTwo:
    @pytest.fixture()
    def files(self, tmp_path, instance_file):
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"values": [1] * 17, "reference": [0] * 17}))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        one_row = tmp_path / "one.jsonl"
        save_dataset(str(one_row), [Instance(np.ones(12, dtype=int), np.zeros(12, dtype=int))])
        not_json = tmp_path / "not.json"
        not_json.write_text("{values: [1]}")
        no_reference = tmp_path / "noref.json"
        no_reference.write_text(json.dumps({"values": [1] * 12}))
        unequal = tmp_path / "unequal.json"
        unequal.write_text(json.dumps({"values": [1] * 12, "reference": [0] * 11}))
        return {"inst": str(instance_file), "wide": str(wide), "empty": str(empty), "one": str(one_row),
                "missing": str(tmp_path / "missing.json"), "not_json": str(not_json),
                "noref": str(no_reference), "unequal": str(unequal)}

    CASES = {
        "reg-k0-explain": ["explain", "--model", "builtin:nb", "--method", "c-shapley-reg",
                           "--k", "0", "--input", "{inst}"],
        "reg-k0-bench": ["bench", "--method", "c-shapley-reg", "--d", "8", "--k", "0"],
        "sample-k0-bench": ["bench", "--method", "sample", "--d", "8", "--k", "0"],
        "exact-too-wide-bench": ["bench", "--method", "exact", "--d", "64"],
        "myerson-d17": ["explain", "--model", "builtin:nb", "--method", "myerson", "--input", "{wide}"],
        "grid-no-dims": ["explain", "--model", "builtin:nb", "--method", "l-shapley",
                         "--graph", "grid", "--input", "{inst}"],
        "empty-dataset": ["evaluate", "--dataset", "{empty}", "--methods", "random", "--budget", "48"],
        "bad-order": ["evaluate", "--dataset", "{one}", "--methods", "l-shapley:x", "--budget", "48"],
        "input-missing": ["explain", "--model", "builtin:nb", "--method", "exact", "--input", "{missing}"],
        "input-not-json": ["explain", "--model", "builtin:nb", "--method", "exact", "--input", "{not_json}"],
        "input-no-reference": ["explain", "--model", "builtin:nb", "--method", "exact", "--input", "{noref}"],
        "input-unequal-lengths": ["explain", "--model", "builtin:nb", "--method", "exact", "--input", "{unequal}"],
        "k-negative-explain": ["explain", "--model", "builtin:nb", "--method", "l-shapley",
                               "--k", "-1", "--input", "{inst}"],
        "k-negative-bench": ["bench", "--method", "c-shapley", "--d", "8", "--k", "-1"],
        "k-negative-theorem": ["theorem-check", "--trials", "1", "--k", "-1"],
        "theorem-d20": ["theorem-check", "--trials", "1", "--d", "20"],
        "theorem-no-trials": ["theorem-check", "--trials", "0"],
        "theorem-negative-trials": ["theorem-check", "--trials", "-3"],
        "bench-d0": ["bench", "--method", "exact", "--d", "0"],
        "fractions-not-numbers": ["evaluate", "--dataset", "{one}", "--methods", "random", "--budget", "48",
                                  "--fractions", "0,x"],
        "dataset-missing": ["evaluate", "--dataset", "{missing}", "--methods", "random", "--budget", "48"],
        "lemma-negative": ["lemma-check", "--max-n", "-1"],
        "tcp-no-port": ["explain", "--model", "external:tcp localhost", "--method", "exact", "--input", "{inst}"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_message_not_traceback(self, files, case, capsys):
        from shapgraph import cli

        argv = [arg.format(**files) for arg in self.CASES[case]]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("line,problem", [
        ({"values": [1] * 12}, "no 'reference' field"),
        ({"reference": [0] * 12}, "no 'values' field"),
        ([1, 2], "no 'values' field"),
        ({"values": [1] * 12, "reference": [0] * 11}, "equal-length"),
    ])
    def test_dataset_line_without_a_field_is_named(self, tmp_path, dataset_file, capsys, line, problem):
        from shapgraph import cli

        dataset = tmp_path / "holed.jsonl"
        first, *_ = dataset_file.read_text().splitlines()
        dataset.write_text(f"{first}\n\n{json.dumps(line)}\n")
        assert cli.main(["evaluate", "--dataset", str(dataset), "--methods", "random", "--budget", "48"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and problem in err

    def test_pool_line_that_is_not_json_is_named(self, tmp_path, instance_file, capsys):
        from shapgraph import cli

        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"values": [1] * 12}) + "\n{values: [1]}\n")
        argv = ["explain", "--model", "builtin:nb", "--method", "exact", "--estimator", "empirical",
                "--pool", str(pool), "--input", str(instance_file)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: line 2: not JSON")

    def test_pool_rows_of_different_lengths(self, tmp_path, instance_file, capsys):
        from shapgraph import cli

        pool = tmp_path / "pool.jsonl"
        pool.write_text(json.dumps({"values": [1] * 12}) + "\n" + json.dumps({"values": [1] * 11}) + "\n")
        argv = ["explain", "--model", "builtin:nb", "--method", "exact", "--estimator", "empirical",
                "--pool", str(pool), "--input", str(instance_file)]
        assert cli.main(argv) == 2
        assert "different lengths" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--samples", "--permutations"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_rejected_before_model(self, instance_file, monkeypatch, capsys, flag, value):
        from shapgraph import cli

        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(cli, "resolve_model", no_model)
        argv = ["explain", "--model", "builtin:nb", "--method", "kernelshap",
                "--input", str(instance_file), flag, value]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
