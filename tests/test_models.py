import io
import json
import sys
import threading
import time

import numpy as np
import pytest

from shapgraph import (
    ConfigurationError,
    EvaluationError,
    Instance,
    ProtocolError,
    ValueFunction,
    chain_graph,
    epsilon_for_lshapley,
    importance_score,
    k_neighborhood,
)
from shapgraph.models import (
    ExternalModelEndpoint,
    UniformModel,
    ValidatedModel,
    external_model,
    load_model_json,
    markov_label_model,
    train_naive_bayes,
    two_topic_corpus,
)
from shapgraph.model_server import serve_stream, serve_tcp


class TestNaiveBayes:
    def test_single_class_corpus(self):
        corpus = [(np.array([1, 2, 3]), 0), (np.array([2, 2]), 0)]
        nb = train_naive_bayes(corpus, vocab_size=5)
        probs = np.exp(nb.evaluate_batch(np.array([[1, 4, 0]])))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_disjoint_vocabularies(self):
        corpus = [(np.array([1, 2, 1]), 0), (np.array([3, 4, 4]), 1)] * 5
        nb = train_naive_bayes(corpus, vocab_size=5)
        pred = np.argmax(nb.evaluate_batch(np.array([[1, 1, 2], [4, 3, 3]])), axis=1)
        assert pred.tolist() == [0, 1]

    def test_synthetic_corpus_heldout_accuracy(self):
        train = two_topic_corpus(0, 500)
        test = two_topic_corpus(1, 200)
        nb = train_naive_bayes(train, vocab_size=200)
        vals = np.stack([t for t, _ in test])
        labels = np.array([l for _, l in test])
        acc = (np.argmax(nb.evaluate_batch(vals), axis=1) == labels).mean()
        assert acc >= 0.9

    def test_padding_equals_dropping(self):
        # masking a token to id 0 must equal scoring the document without it
        corpus = two_topic_corpus(3, 100, doc_len=10, vocab_size=30)
        nb = train_naive_bayes(corpus, vocab_size=30)
        doc = corpus[0][0]
        masked = doc.copy()
        masked[4] = 0
        shorter = np.concatenate([doc[:4], doc[5:], [0]])  # same tokens, padded tail
        a = nb.evaluate_batch(masked[None, :])
        b = nb.evaluate_batch(shorter[None, :])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            train_naive_bayes([], vocab_size=10)

    def test_json_round_trip(self):
        nb = train_naive_bayes(two_topic_corpus(0, 50, doc_len=8, vocab_size=20), 20)
        back = load_model_json(json.loads(json.dumps(nb.to_json())))
        vals = np.array([[1, 5, 0, 3, 0, 0, 0, 2]])
        np.testing.assert_allclose(nb.evaluate_batch(vals), back.evaluate_batch(vals))


class TestMarkovLabelModel:
    def test_joint_is_valid_and_reproducible(self):
        m1, j1 = markov_label_model(seed=1, d=6, mixing=0.5)
        m2, j2 = markov_label_model(seed=1, d=6, mixing=0.5)
        np.testing.assert_array_equal(j1.table, j2.table)
        np.testing.assert_array_equal(m1.transitions, m2.transitions)
        assert j1.table.min() > 0

    def test_local_independence_certificate(self):
        _, joint = markov_label_model(seed=4, d=6, mixing=0.6)
        g = chain_graph(6)
        for i in range(6):
            cert = epsilon_for_lshapley(joint, g, i, k_neighborhood(g, i, 1))
            assert cert.epsilon < 1e-12

    def test_mixing_zero_is_fully_independent(self):
        _, joint = markov_label_model(seed=5, d=5, mixing=0.0)
        g = chain_graph(5)
        for i in range(5):
            cert = epsilon_for_lshapley(joint, g, i, 1 << i)  # any s, here the singleton
            assert cert.epsilon < 1e-12

    def test_samples_match_joint_frequencies(self):
        model, joint = markov_label_model(seed=6, d=4, mixing=0.8)
        values, labels = model.sample(40_000, seed=0)
        atoms = (values * (1 << np.arange(4))).sum(axis=1)
        empirical = np.zeros((16, model.num_classes))
        for a, y in zip(atoms, labels):
            empirical[a, y] += 1
        empirical /= empirical.sum()
        assert np.abs(empirical - joint.table).max() < 0.01

    def test_evaluate_batch_matches_exact_conditional(self):
        from shapgraph import ExactConditionalModel

        model, joint = markov_label_model(seed=7, d=5, mixing=0.5)
        exact = ExactConditionalModel(joint)
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2, size=(20, 5))
        got = np.exp(model.evaluate_batch(values))
        for r in range(20):
            expected = exact.conditional(values[r], (1 << 5) - 1)
            np.testing.assert_allclose(got[r], expected, atol=1e-10)

    def test_json_round_trip(self):
        model, _ = markov_label_model(seed=8, d=4, mixing=0.3)
        back = load_model_json(model.to_json())
        values = np.array([[0, 1, 1, 0]])
        np.testing.assert_allclose(
            model.evaluate_batch(values), back.evaluate_batch(values)
        )


class TestValidatedModel:
    def test_passes_well_formed_models(self):
        nb = train_naive_bayes(two_topic_corpus(0, 30, doc_len=6, vocab_size=15), 15)
        wrapped = ValidatedModel(nb)
        out = wrapped.evaluate_batch(np.array([[1, 2, 0, 0, 3, 4]]))
        assert out.shape == (1, 2)

    def test_catches_unnormalized_output(self):
        class Broken:
            num_classes = 2

            def evaluate_batch(self, values):
                return np.zeros((len(values), 2))  # exp sums to 2

        with pytest.raises(EvaluationError, match="normalize"):
            ValidatedModel(Broken()).evaluate_batch(np.zeros((3, 2)))


def _nb_fixture(tmp_path):
    nb = train_naive_bayes(two_topic_corpus(0, 80, doc_len=10, vocab_size=30), 30)
    path = tmp_path / "nb.json"
    path.write_text(json.dumps(nb.to_json()))
    return nb, path


class TestExternalModel:
    def test_uniform_echo_scores_log_c(self, tmp_path):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(UniformModel(4).to_json()))
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd))
        try:
            x = Instance(np.arange(5.0), np.zeros(5))
            vf = ValueFunction(ext, x)
            for s in (0, 3, 31):
                assert importance_score(vf, s) == pytest.approx(-np.log(4), abs=1e-9)
        finally:
            ext.close()

    def test_subprocess_round_trip_matches_in_process(self, tmp_path):
        nb, path = _nb_fixture(tmp_path)
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd))
        try:
            rng = np.random.default_rng(1)
            vals = rng.integers(0, 30, size=(1000, 10))
            direct = nb.evaluate_batch(vals)
            wired = ext.evaluate_batch(vals.astype(float))
            np.testing.assert_allclose(wired, direct, atol=1e-9)
        finally:
            ext.close()

    def test_value_function_scores_identical_through_wire(self, tmp_path):
        nb, path = _nb_fixture(tmp_path)
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd))
        try:
            doc = two_topic_corpus(9, 1, doc_len=10, vocab_size=30)[0][0]
            x = Instance(doc, np.zeros(10, dtype=int))
            local = ValueFunction(nb, x)
            remote = ValueFunction(ext, x)
            masks = list(range(0, 1 << 10, 37))
            np.testing.assert_allclose(remote.scores(masks), local.scores(masks), atol=1e-9)
        finally:
            ext.close()

    def test_tcp_round_trip(self, tmp_path):
        nb, _ = _nb_fixture(tmp_path)
        port = 49532
        thread = threading.Thread(
            target=serve_tcp, args=(nb, "127.0.0.1", port), daemon=True
        )
        thread.start()
        time.sleep(0.2)
        ext = external_model(ExternalModelEndpoint("tcp", f"127.0.0.1:{port}", timeout=5))
        try:
            vals = np.random.default_rng(2).integers(0, 30, size=(40, 10))
            np.testing.assert_allclose(
                ext.evaluate_batch(vals.astype(float)), nb.evaluate_batch(vals), atol=1e-9
            )
        finally:
            ext.close()

    def test_dead_tcp_endpoint_fails_after_retries(self):
        start = time.perf_counter()
        with pytest.raises(EvaluationError, match="3 attempts"):
            external_model(ExternalModelEndpoint("tcp", "127.0.0.1:49998", timeout=0.2))
        # three attempts with 0.1 + 0.2 + 0.4 backoff
        assert time.perf_counter() - start >= 0.6

    def test_unresponsive_subprocess_times_out(self):
        cmd = f'{sys.executable} -c "import time; time.sleep(30)"'
        with pytest.raises(EvaluationError, match="3 attempts"):
            external_model(ExternalModelEndpoint("subprocess", cmd, timeout=0.2))

    def test_class_count_mismatch_is_protocol_error(self, tmp_path):
        _, path = _nb_fixture(tmp_path)
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        with pytest.raises(ProtocolError, match="classes"):
            external_model(ExternalModelEndpoint("subprocess", cmd, num_classes=7))

    def test_malformed_reply_is_protocol_error(self):
        cmd = f"{sys.executable} -c \"print('not json', flush=True); import time; time.sleep(5)\""
        with pytest.raises(ProtocolError, match="malformed"):
            external_model(ExternalModelEndpoint("subprocess", cmd, timeout=2.0))

    def test_host_error_message_reaches_the_caller(self, tmp_path):
        _, path = _nb_fixture(tmp_path)
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd))
        try:
            with pytest.raises(EvaluationError, match="token ids must lie in"):
                ext.evaluate_batch(np.full((2, 10), 99.0))
            # the host survived the failure and the channel is still in sync
            assert ext.evaluate_batch(np.ones((1, 10))).shape == (1, 2)
        finally:
            ext.close()

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            ExternalModelEndpoint("carrier-pigeon", "nowhere")


class TestModelServer:
    def test_bad_requests_get_error_replies_and_serving_continues(self):
        nb = train_naive_bayes(two_topic_corpus(0, 30, doc_len=4, vocab_size=15), 15)
        requests = [
            "not json",
            json.dumps({"op": "eval", "id": 0}),
            json.dumps({"op": "eval", "id": 1, "instances": [[99, 0, 0, 0]]}),
            json.dumps({"op": "hello", "version": 1}),
        ]
        writer = io.StringIO()
        serve_stream(nb, io.StringIO("\n".join(requests) + "\n"), writer)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert [r["op"] for r in replies] == ["error", "error", "error", "hello"]
        assert "JSONDecodeError" in replies[0]["message"]
        assert "instances" in replies[1]["message"]
        assert "token ids" in replies[2]["message"]
        assert replies[3] == {"op": "hello", "num_classes": 2}
