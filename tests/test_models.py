import io
import json
import socket
import sys
import threading
import time
import warnings

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
    k_neighborhood,
)
from shapgraph._kernels import chunk_rows
from shapgraph.graphs import pack_masks
from shapgraph.models import (
    PADDING_TOKEN,
    ExternalModel,
    ExternalModelEndpoint,
    NaiveBayesModel,
    UniformModel,
    external_model,
    load_model_json,
    markov_label_model,
    train_naive_bayes,
    two_topic_corpus,
)
from shapgraph.model_server import serve_stream, serve_tcp
from shapgraph.valuation import masked_rows

from reference_path import conditional, gather_log_probs, markov_joint_table


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


    @pytest.mark.parametrize("d", [16, 40, 100, 400])
    def test_evaluate_batch_bitwise_equals_masked_gather(self, d):
        # reference: gather every token's log-likelihood, zero the padding
        # positions with np.where, sum, then log-softmax; column 0 holds
        # junk so only the masking can make it count for nothing
        rng = np.random.default_rng(d)
        vocab = 50
        ll = rng.normal(size=(3, vocab))
        nb = NaiveBayesModel(np.log([0.2, 0.3, 0.5]), ll)
        for n in (1, 8, 33, 256):
            tokens = rng.integers(0, vocab, size=(n, d))
            tokens[rng.random((n, d)) < 0.3] = 0
            present = tokens > 0
            scores = nb.log_priors[:, None] + np.where(present[None], ll[:, tokens], 0.0).sum(axis=2)
            shifted = scores.T - scores.T.max(axis=1, keepdims=True)
            expected = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            np.testing.assert_array_equal(nb.evaluate_batch(tokens), expected)


class TestNaiveBayesGather:
    """``evaluate_batch`` against the full (C, n, d) gather, bit for bit."""

    @staticmethod
    def _model(num_classes, seed=0):
        rng = np.random.default_rng(seed)
        priors = rng.dirichlet(np.ones(num_classes))
        return NaiveBayesModel(np.log(priors), np.log(rng.dirichlet(np.ones(200), size=num_classes)))

    @staticmethod
    def _assert_same_bits(nb, tokens):
        got = nb.evaluate_batch(tokens)
        expected = gather_log_probs(nb, tokens)
        np.testing.assert_array_equal(got, expected)
        # downstream sums (the empirical estimator's mean) follow the layout
        assert got.strides == expected.strides

    @pytest.mark.parametrize("d", [1, 2, 8, 9, 16, 40, 100, 400, 1000])
    def test_equals_the_full_gather(self, d):
        rng = np.random.default_rng(d)
        step = chunk_rows(d)
        sizes = {1, 2, 3, 255, 256, 257}
        sizes |= {m * step + e for m in (1, 2) for e in (-1, 0, 1)}
        for num_classes in (2, 3):
            nb = self._model(num_classes, seed=d)
            for n in sorted(sizes):
                for padding in (0.0, 0.5, 0.95):
                    tokens = rng.integers(1, nb.vocab_size, size=(n, d))
                    tokens[rng.random((n, d)) < padding] = PADDING_TOKEN
                    self._assert_same_bits(nb, tokens)

    def test_one_row_keeps_the_full_gather(self):
        nb = self._model(3)
        tokens = np.random.default_rng(1).integers(0, nb.vocab_size, size=(1, 300))
        self._assert_same_bits(nb, tokens)

    @pytest.mark.parametrize("bad", [-1, 200])
    def test_out_of_range_token_is_rejected(self, bad):
        nb = self._model(2)
        tokens = np.ones((3, 5), dtype=np.int64)
        tokens[1, 2] = bad
        lo, hi = min(bad, 1), max(bad, 1)
        with pytest.raises(EvaluationError, match=rf"\[0, 200\), got range \[{lo}, {hi}\]"):
            nb.evaluate_batch(tokens)
        with pytest.raises(EvaluationError):
            nb.evaluate_batch(tokens[1:2])

    def test_fractional_nan_and_one_dimensional_tokens_are_rejected(self):
        nb = self._model(2)
        tokens = np.ones((3, 5))
        tokens[2, 1] = 5.9
        with pytest.raises(EvaluationError, match=r"token ids must lie in \[0, 200\), got range \[1.0, 5.9\]: 5.9 at position 1 of row 2"):
            nb.evaluate_batch(tokens)
        tokens[2, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from casting NaN
            with pytest.raises(EvaluationError, match="nan at position 1 of row 2"):
                nb.evaluate_batch(tokens)
        with pytest.raises(EvaluationError, match=r"values must have shape \(n, d\), got \(5,\)"):
            nb.evaluate_batch(np.ones(5, dtype=np.int64))

    @pytest.mark.parametrize("shape", [(0, 5), (0, 0), (4, 0)])
    def test_empty_input(self, shape):
        nb = self._model(2)
        tokens = np.zeros(shape, dtype=np.int64)
        out = nb.evaluate_batch(tokens)
        assert out.shape == (shape[0], 2)
        np.testing.assert_array_equal(out, gather_log_probs(nb, tokens))


class TestMarkovLabelModel:
    def test_joint_is_valid_and_reproducible(self):
        m1, j1 = markov_label_model(seed=1, d=6, mixing=0.5)
        m2, j2 = markov_label_model(seed=1, d=6, mixing=0.5)
        np.testing.assert_array_equal(j1.table, j2.table)
        np.testing.assert_array_equal(m1.transitions, m2.transitions)
        assert j1.table.min() > 0

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_joint_equals_the_per_atom_loop(self, num_classes):
        for d in range(1, 13):
            for seed in range(3):
                model, joint = markov_label_model(seed=seed, d=d, mixing=0.6, num_classes=num_classes)
                np.testing.assert_array_equal(joint.table, markov_joint_table(model))
                assert joint.table.flags.c_contiguous

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
            expected = conditional(exact, values[r], (1 << 5) - 1)
            np.testing.assert_allclose(got[r], expected, atol=1e-10)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ([0, 1, 0, -1], r"binary features must lie in \[0, 2\), got range \[-1, 1\]: -1 at position 3 of row 1"),
            ([0, 1, 0, 1.7], r"binary features must lie in \[0, 2\), .*: 1.7 at position 3 of row 1"),
            ([0, 1, 0, 2], r"binary features must lie in \[0, 2\), got range \[0, 2\]: 2 at position 3 of row 1"),
            ([0, 1, 0], r"values must have shape \(n, 4\), got \(2, 3\)"),
        ],
        ids=["negative", "fractional", "two", "three-wide"],
    )
    def test_rows_outside_the_binary_codes_are_rejected(self, bad_row, message):
        model, _ = markov_label_model(seed=8, d=4, mixing=0.3)
        with pytest.raises(EvaluationError, match=message):
            model.evaluate_batch(np.array([[0, 1, 0, 1][: len(bad_row)], bad_row]))

    def test_json_round_trip(self):
        model, _ = markov_label_model(seed=8, d=4, mixing=0.3)
        back = load_model_json(model.to_json())
        values = np.array([[0, 1, 1, 0]])
        np.testing.assert_allclose(
            model.evaluate_batch(values), back.evaluate_batch(values)
        )


def _nb_fixture(tmp_path):
    nb = train_naive_bayes(two_topic_corpus(0, 80, doc_len=10, vocab_size=30), 30)
    path = tmp_path / "nb.json"
    path.write_text(json.dumps(nb.to_json()))
    return nb, path


def _record_channels(monkeypatch):
    """Keep every channel an ExternalModel opens, to check it was closed."""
    channels = []
    open_channel = ExternalModel._open_channel

    def recording(self):
        channels.append(open_channel(self))
        return channels[-1]

    monkeypatch.setattr(ExternalModel, "_open_channel", recording)
    return channels


class _InOrderChannel:
    """A fake host channel: records every line sent and answers the requests
    in the order they were sent, as a host does, in bytes as
    ``_LineChannel.recv_line`` returns them.  Its hello lists ``ops`` unless
    that is None."""

    def __init__(self, sent, ops=None):
        self.sent = sent
        self.ops = ops
        self.answered = 0

    def send(self, line):
        self.sent.append(line)

    def recv_line(self):
        request = json.loads(self.sent[self.answered])
        self.answered += 1
        if request["op"] == "hello":
            hello = {"op": "hello", "num_classes": 2}
            if self.ops is not None:
                hello["ops"] = self.ops
            return json.dumps(hello).encode()
        if request["op"] == "eval":
            n = len(request["instances"])
        else:
            n = len(request["masks"]) * len(request["fill"])
        return json.dumps({"op": "eval", "id": request["id"], "log_probs": [[np.log(0.5)] * 2] * n}).encode()

    def close(self):
        pass


def _in_order_host(monkeypatch, ops=None):
    """Route ExternalModel to an _InOrderChannel; returns the lines it is sent."""
    sent = []
    monkeypatch.setattr(ExternalModel, "_open_channel", lambda self: _InOrderChannel(sent, ops))
    return sent


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


_STRAY_REPLY_HOST = """
import json, math, os, sys

marker = sys.argv[1]
for line in sys.stdin:
    request = json.loads(line)
    if request["op"] == "hello":
        replies = [{"op": "hello", "num_classes": 2, "ops": ["eval", "eval_masked"]}]
    elif request["op"] in ("eval", "eval_masked"):
        if request["op"] == "eval":
            n = len(request["instances"])
        else:
            n = len(request["masks"]) * len(request["fill"])
        reply = {"op": "eval", "id": request["id"], "log_probs": [[math.log(0.25), math.log(0.75)]] * n}
        replies = [reply]
        if not os.path.exists(marker):
            open(marker, "w").close()
            replies.insert(0, dict(reply, id=request["id"] + 1000))
    else:
        break
    for reply in replies:
        print(json.dumps(reply), flush=True)
"""


_DROPPING_HOST = """
import json, os, sys
from shapgraph.model_server import serve_stream
from shapgraph.models import load_model_json

model_file, marker, log = sys.argv[1:]
with open(model_file) as fh:
    model = load_model_json(json.load(fh))
first = not os.path.exists(marker)
open(marker, "a").close()


def requests():
    evals = 0
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] in ("eval", "eval_masked"):
            with open(log, "a") as fh:
                fh.write(f"{int(first)} {request['id']}\\n")
            if first and evals == 1:
                return  # the first host exits after its first eval reply
            evals += 1
        yield line


serve_stream(model, requests(), sys.stdout)
"""


_ONE_SHOT_HOST = """
import json, os, sys

marker = sys.argv[1]
if os.path.exists(marker):
    sys.exit(0)  # a relaunched host dies before its hello
open(marker, "w").close()
for line in sys.stdin:
    if json.loads(line)["op"] != "hello":
        sys.exit(1)  # the first host dies on its first eval
    print(json.dumps({"op": "hello", "num_classes": 2}), flush=True)
"""


_BAD_BYTE_HOST = """
import json, math, os, sys

marker, encoding = sys.argv[1:]
for line in sys.stdin:
    request = json.loads(line)
    if request["op"] == "hello":
        reply = {"op": "hello", "num_classes": 2}
    elif request["op"] == "eval":
        n = len(request["instances"])
        reply = {"op": "eval", "id": request["id"], "log_probs": [[math.log(0.25), math.log(0.75)]] * n}
    else:
        break
    text = json.dumps(reply).encode()
    if reply["op"] == "eval" and not os.path.exists(marker):
        open(marker, "w").close()
        if encoding == "utf-16":  # valid JSON text, but not in UTF-8
            text = json.dumps(reply).encode("utf-16")
        else:
            text = text.replace(b'"eval"', b'"ev\\xffal"')
    sys.stdout.buffer.write(text + b"\\n")
    sys.stdout.flush()
"""


_FIXED_LOG_PROBS_HOST = """
import json, sys

row = sys.argv[1]  # the JSON text of one reply row; "missing" leaves log_probs out
for line in sys.stdin:
    request = json.loads(line)
    if request["op"] == "hello":
        print(json.dumps({"op": "hello", "num_classes": 2}), flush=True)
    elif request["op"] == "eval":
        rows = ", ".join([row] * len(request["instances"]))
        body = "" if row == "missing" else f', "log_probs": [{rows}]'
        print(f'{{"op": "eval", "id": {request["id"]}{body}}}', flush=True)
    else:
        break
"""


_HELLO_HOST = """
import sys, time

sys.stdin.readline()
print(sys.argv[1], flush=True)
time.sleep(30)
"""


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
                assert vf(s) == pytest.approx(-np.log(4), abs=1e-9)
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
        # three attempts with 0.1 + 0.2 backoff between them, and no sleep after the last
        assert time.perf_counter() - start >= 0.3

    @pytest.mark.parametrize("address", ["localhost", "localhost:", ":8080", "localhost:http"])
    def test_tcp_address_without_host_and_port_rejected(self, address):
        with pytest.raises(ConfigurationError, match="host:port"):
            ExternalModelEndpoint("tcp", address)

    def test_unresponsive_subprocess_times_out(self, monkeypatch):
        channels = _record_channels(monkeypatch)
        cmd = f'{sys.executable} -c "import time; time.sleep(30)"'
        with pytest.raises(EvaluationError, match="3 attempts"):
            external_model(ExternalModelEndpoint("subprocess", cmd, timeout=0.2))
        # every timed-out host was stopped, none left running
        assert len(channels) == 3
        assert all(c.proc.poll() is not None for c in channels)

    def test_class_count_mismatch_is_protocol_error(self, tmp_path, monkeypatch):
        channels = _record_channels(monkeypatch)
        _, path = _nb_fixture(tmp_path)
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        with pytest.raises(ProtocolError, match="classes"):
            external_model(ExternalModelEndpoint("subprocess", cmd, num_classes=7))
        assert len(channels) == 1 and channels[0].proc.poll() is not None

    def test_mismatched_reply_id_reconnects_on_the_next_call(self, tmp_path):
        # the scripted host answers its first eval with a stray reply before
        # the real one, so a client that kept the channel would stay one
        # reply behind; the marker file makes only the first host do this
        host = tmp_path / "host.py"
        host.write_text(_STRAY_REPLY_HOST)
        cmd = f"{sys.executable} {host} {tmp_path / 'marker'}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        first = ext._channel
        try:
            with pytest.raises(ProtocolError, match="does not match request"):
                ext.evaluate_batch(np.zeros((2, 3)))
            assert ext._channel is None and first.proc.wait(timeout=5) is not None
            for n in (1, 3):
                out = ext.evaluate_batch(np.zeros((n, 3)))
                np.testing.assert_array_equal(out, np.log([[0.25, 0.75]] * n))
        finally:
            ext.close()

    def test_eval_request_bytes_equal_json_dumps_of_the_request(self, monkeypatch):
        sent = _in_order_host(monkeypatch)
        ext = external_model(ExternalModelEndpoint("subprocess", "unused"))
        rng = np.random.default_rng(4)
        values = np.concatenate(
            [
                rng.integers(0, 300, size=(300, 5)).astype(float),
                rng.normal(scale=1e6, size=(3, 5)),
                np.array([[0.1, -0.0, 1e-300, 2.0**60, -7.25]]),
            ]
        )
        assert ext.evaluate_batch(values).shape == (values.shape[0], 2)
        blocks = [values[:256], values[256:]]
        for request_id, (line, block) in enumerate(zip(sent[1:], blocks)):
            assert line == json.dumps({"op": "eval", "id": request_id, "instances": block.tolist()})

    def test_integer_and_bool_payloads_are_json_integers(self, monkeypatch):
        sent = _in_order_host(monkeypatch)
        ext = external_model(ExternalModelEndpoint("subprocess", "unused"))
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 300, size=(300, 7))
        blocks = [
            tokens,  # 300 rows: two requests of 256 and 44
            tokens.astype(np.uint8),
            tokens.astype(np.int32)[:5],
            rng.integers(-(2**62), 2**62, size=(4, 3)),  # negative and wide: json formats them
            np.array([[0, 65535], [65536, 1]]),  # integers past 16 bits
            rng.random((3, 4)) < 0.5,  # bool goes out as 0/1
            rng.integers(0, 9, size=(20, 3000)),  # long rows
            np.zeros((0, 4), dtype=np.int64),
        ]
        for block in blocks:
            before = len(sent)
            assert ext.evaluate_batch(block).shape == (block.shape[0], 2)
            rows = block.astype(np.int64).tolist()
            chunks = [rows[a : a + 256] for a in range(0, len(rows), 256)]
            assert sent[before:] == [
                json.dumps({"op": "eval", "id": json.loads(line)["id"], "instances": chunk})
                for line, chunk in zip(sent[before:], chunks)
            ]
            assert len(sent) - before == len(chunks)

    def test_non_finite_values_fail_before_anything_is_sent(self, monkeypatch):
        sent = _in_order_host(monkeypatch)
        ext = external_model(ExternalModelEndpoint("subprocess", "unused"))
        values = np.ones((300, 4))
        values[3, 1] = np.nan
        values[299, 0] = -np.inf
        values[280, 2] = np.inf
        with pytest.raises(EvaluationError, match=r"rows \[3, 280, 299\] hold NaN or infinite") as exc:
            ext.evaluate_batch(values)
        assert exc.value.batch_indices == [3, 280, 299]
        assert [json.loads(line)["op"] for line in sent] == ["hello"]

    def test_long_replies_do_not_block_the_next_request(self, tmp_path):
        # each reply (256 x 4000 log-probs, about 20 MB) is far larger than a
        # pipe's buffer, and so is the next request; a client that only
        # writes while it sends would wait on a host that waits on it
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(UniformModel(4000).to_json()))
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=30.0))
        try:
            start = time.perf_counter()
            out = ext.evaluate_batch(np.zeros((320, 400), dtype=np.int64))
            assert time.perf_counter() - start < 15.0
            np.testing.assert_array_equal(out, np.full((320, 4000), -np.log(4000)))
        finally:
            ext.close()

    def test_error_reply_mid_stream_keeps_the_connection(self, tmp_path):
        nb, _ = _nb_fixture(tmp_path)
        port = _free_port()
        # one connection only: a client that reconnected could not go on
        thread = threading.Thread(target=serve_tcp, args=(nb, "127.0.0.1", port, 1), daemon=True)
        thread.start()
        time.sleep(0.2)
        ext = external_model(ExternalModelEndpoint("tcp", f"127.0.0.1:{port}", timeout=5))
        try:
            channel = ext._channel
            values = np.random.default_rng(3).integers(0, 30, size=(700, 10))
            bad = values.copy()
            bad[300, 4] = 99  # request 1 of 3 fails while request 2 is in flight
            with pytest.raises(EvaluationError, match="token ids must lie in") as exc:
                ext.evaluate_batch(bad)
            assert exc.value.batch_indices == list(range(256, 512))
            assert ext._channel is channel
            np.testing.assert_array_equal(ext.evaluate_batch(values), nb.evaluate_batch(values))
        finally:
            ext.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_dropped_connection_resends_unanswered_requests(self, tmp_path):
        nb, path = _nb_fixture(tmp_path)
        host = tmp_path / "host.py"
        host.write_text(_DROPPING_HOST)
        log = tmp_path / "ids.log"
        cmd = f"{sys.executable} {host} {path} {tmp_path / 'marker'} {log}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        try:
            values = np.random.default_rng(6).integers(0, 30, size=(700, 10))
            np.testing.assert_array_equal(ext.evaluate_batch(values), nb.evaluate_batch(values))
        finally:
            ext.close()
        seen = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        # the first host answered request 0 and dropped request 1; the second
        # got the two unanswered requests again under fresh ids
        assert seen == [(1, 0), (1, 1), (0, 3), (0, 4)]

    def test_mismatched_reply_id_with_requests_in_flight_reconnects(self, tmp_path):
        host = tmp_path / "host.py"
        host.write_text(_STRAY_REPLY_HOST)
        cmd = f"{sys.executable} {host} {tmp_path / 'marker'}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        first = ext._channel
        try:
            with pytest.raises(ProtocolError, match="does not match request 0"):
                ext.evaluate_batch(np.zeros((600, 3)))
            assert ext._channel is None and first.proc.wait(timeout=5) is not None
            out = ext.evaluate_batch(np.zeros((600, 3), dtype=np.int64))
            np.testing.assert_array_equal(out, np.log([[0.25, 0.75]] * 600))
        finally:
            ext.close()

    @pytest.mark.parametrize("ops", [None, ["eval"], "eval_masked", {"eval_masked": 1}])
    @pytest.mark.parametrize("estimator", ["plugin", "empirical"])
    def test_host_without_eval_masked_gets_only_eval_lines(self, monkeypatch, ops, estimator):
        sent = _in_order_host(monkeypatch, ops)
        ext = external_model(ExternalModelEndpoint("subprocess", "unused"))
        assert not ext.masks_on_host
        rng = np.random.default_rng(8)
        x = Instance(rng.integers(1, 30, size=10), np.zeros(10, dtype=int))
        vf = ValueFunction(ext, x, estimator, pool=rng.integers(1, 30, size=(4, 10)))
        vf.scores(list(range(300)))
        assert [json.loads(line)["op"] for line in sent] == ["hello"] + ["eval"] * (len(sent) - 1)
        assert len(sent) > 2

    @pytest.mark.parametrize("m, sizes", [(1, [256, 256, 88]), (3, [85] * 6 + [5]), (32, [8] * 75), (300, [1] * 5)])
    def test_masked_requests_carry_whole_subsets(self, monkeypatch, m, sizes):
        sent = _in_order_host(monkeypatch, ["eval", "eval_masked"])
        ext = external_model(ExternalModelEndpoint("subprocess", "unused"))
        assert ext.masks_on_host
        rng = np.random.default_rng(m)
        values, fill = rng.integers(0, 300, size=70), rng.integers(0, 300, size=(m, 70))
        masks = [int.from_bytes(rng.bytes(9), "little") >> 2 for _ in range(sum(sizes))]
        assert ext.evaluate_masked(values, fill, pack_masks(masks, 70)).shape == (len(masks) * m, 2)
        starts = np.cumsum([0] + sizes)
        assert sent[1:] == [
            json.dumps(
                {"op": "eval_masked", "id": k, "values": values.tolist(), "fill": fill.tolist(),
                 "masks": [f"{mask:x}" for mask in masks[a:b]]}
            )
            for k, (a, b) in enumerate(zip(starts, starts[1:]))
        ]

    @pytest.mark.parametrize("estimator", ["plugin", "empirical"])
    def test_masked_value_function_is_bitwise_the_in_process_one(self, tmp_path, estimator):
        nb, path = _nb_fixture(tmp_path)
        cmd = f"{sys.executable} -m shapgraph.model_server --model-file {path}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd))
        try:
            assert ext.masks_on_host
            rng = np.random.default_rng(9)
            x = Instance(rng.integers(1, 30, size=10), np.zeros(10, dtype=int))
            pool = rng.integers(0, 30, size=(6, 10))
            local = ValueFunction(nb, x, estimator, pool=pool)
            remote = ValueFunction(ext, x, estimator, pool=pool)
            masks = rng.permutation(1 << 10)[:700].tolist()
            np.testing.assert_array_equal(remote.scores(masks), local.scores(masks))
            assert remote._rows is None
            with pytest.raises(ConfigurationError, match="subset mask 0x1000 has bit 12"):
                remote(1 << 12)
            assert remote.eval_count == local.eval_count
        finally:
            ext.close()

    def test_dropped_connection_resends_unanswered_masked_requests(self, tmp_path):
        nb, path = _nb_fixture(tmp_path)
        host = tmp_path / "host.py"
        host.write_text(_DROPPING_HOST)
        log = tmp_path / "ids.log"
        cmd = f"{sys.executable} {host} {path} {tmp_path / 'marker'} {log}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        try:
            rng = np.random.default_rng(6)
            values, fill = rng.integers(0, 30, size=10), np.zeros((1, 10), dtype=int)
            masks = rng.integers(0, 1 << 10, size=700).tolist()
            expected = nb.evaluate_batch(masked_rows(values, fill, pack_masks(masks, 10)))
            np.testing.assert_array_equal(ext.evaluate_masked(values, fill, pack_masks(masks, 10)), expected)
        finally:
            ext.close()
        seen = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert seen == [(1, 0), (1, 1), (0, 3), (0, 4)]

    def test_error_reply_to_a_masked_request_drains_the_one_in_flight(self, tmp_path):
        nb, _ = _nb_fixture(tmp_path)
        port = _free_port()
        thread = threading.Thread(target=serve_tcp, args=(nb, "127.0.0.1", port, 1), daemon=True)
        thread.start()
        time.sleep(0.2)
        ext = external_model(ExternalModelEndpoint("tcp", f"127.0.0.1:{port}", timeout=5))
        try:
            channel = ext._channel
            rng = np.random.default_rng(3)
            values, fill = rng.integers(1, 30, size=10), np.zeros((1, 10), dtype=int)
            values[4] = 99  # out of the vocabulary: only subsets that keep feature 4 fail
            masks = (rng.integers(0, 1 << 10, size=700) & ~(1 << 4)).tolist()
            bad = masks[:256] + [mask | 1 << 4 for mask in masks[256:512]] + masks[512:]
            with pytest.raises(EvaluationError, match="token ids must lie in") as exc:
                ext.evaluate_masked(values, fill, pack_masks(bad, 10))  # request 1 of 3, request 2 in flight
            assert exc.value.batch_indices == list(range(256, 512))
            assert ext._channel is channel
            expected = nb.evaluate_batch(masked_rows(values, fill, pack_masks(masks, 10)))
            np.testing.assert_array_equal(ext.evaluate_masked(values, fill, pack_masks(masks, 10)), expected)
        finally:
            ext.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_mismatched_reply_id_to_a_masked_request_is_protocol_error(self, tmp_path):
        host = tmp_path / "host.py"
        host.write_text(_STRAY_REPLY_HOST)
        cmd = f"{sys.executable} {host} {tmp_path / 'marker'}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        first = ext._channel
        try:
            assert ext.masks_on_host
            fill = np.zeros((2, 3))
            with pytest.raises(ProtocolError, match="does not match request 0"):
                ext.evaluate_masked(np.ones(3), fill, pack_masks(list(range(8)) * 100, 3))
            assert ext._channel is None and first.proc.wait(timeout=5) is not None
            out = ext.evaluate_masked(np.ones(3), fill, pack_masks(list(range(8)) * 100, 3))
            np.testing.assert_array_equal(out, np.log([[0.25, 0.75]] * 1600))
        finally:
            ext.close()

    def test_long_wire_lines_are_quoted_in_part(self, monkeypatch):
        for line in ["[" * 100_000, json.dumps(list(range(30_000)))]:
            with pytest.raises(ProtocolError, match="malformed wire line") as exc:
                ExternalModel._parse(line.encode())
            assert f"... ({len(line)} characters)" in str(exc.value) and len(str(exc.value)) < 300

        class StrayIds(_InOrderChannel):
            def recv_line(self):
                reply = json.loads(super().recv_line())
                if reply["op"] == "eval":
                    reply["id"] += 1
                return json.dumps(reply).encode()

        sent = []
        monkeypatch.setattr(ExternalModel, "_open_channel", lambda self: StrayIds(sent))
        ext = external_model(ExternalModelEndpoint("subprocess", "unused"))
        with pytest.raises(ProtocolError, match="does not match request 0") as exc:
            ext.evaluate_batch(np.zeros((256, 3)))
        assert "characters)" in str(exc.value) and len(str(exc.value)) < 300

    def test_malformed_reply_is_protocol_error(self):
        cmd = f"{sys.executable} -c \"print('not json', flush=True); import time; time.sleep(5)\""
        with pytest.raises(ProtocolError, match="malformed"):
            external_model(ExternalModelEndpoint("subprocess", cmd, timeout=2.0))

    def test_host_that_cannot_be_relaunched_gets_one_channel_per_attempt(self, tmp_path, monkeypatch):
        channels = _record_channels(monkeypatch)
        host = tmp_path / "host.py"
        host.write_text(_ONE_SHOT_HOST)
        cmd = f"{sys.executable} {host} {tmp_path / 'marker'}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        with pytest.raises(EvaluationError, match="3 attempts") as exc:
            ext.evaluate_batch(np.zeros((2, 3)))
        assert exc.value.batch_indices == [0, 1]
        # the failed eval and two failed relaunches count toward one limit:
        # three channels in all, none left running
        assert len(channels) == 3
        assert all(c.proc.poll() is not None for c in channels)

    @pytest.mark.parametrize("encoding", ["0xff", "utf-16"])
    def test_reply_that_is_not_utf8_is_protocol_error_and_reconnects(self, tmp_path, encoding):
        host = tmp_path / "host.py"
        host.write_text(_BAD_BYTE_HOST)
        cmd = f"{sys.executable} {host} {tmp_path / 'marker'} {encoding}"
        ext = external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        first = ext._channel
        try:
            with pytest.raises(ProtocolError, match="malformed wire line"):
                ext.evaluate_batch(np.zeros((2, 3)))
            assert ext._channel is None and first.proc.wait(timeout=5) is not None
            out = ext.evaluate_batch(np.zeros((2, 3)))
            np.testing.assert_array_equal(out, np.log([[0.25, 0.75]] * 2))
        finally:
            ext.close()

    @pytest.mark.parametrize("served", ['"abc"', "0", "2.5", "true"])
    def test_hello_without_a_positive_integer_class_count_is_protocol_error(self, tmp_path, monkeypatch, served):
        channels = _record_channels(monkeypatch)
        host = tmp_path / "host.py"
        host.write_text(_HELLO_HOST)
        cmd = f"""{sys.executable} {host} '{{"op": "hello", "num_classes": {served}}}'"""
        with pytest.raises(ProtocolError, match="bad handshake reply"):
            external_model(ExternalModelEndpoint("subprocess", cmd, timeout=5.0))
        assert len(channels) == 1 and channels[0].proc.poll() is not None

    @pytest.mark.parametrize(
        "row",
        ['["-0.6931471805599453", "-0.6931471805599453"]', "[true, false]", "[true, -0.5]", "[-1, false]",
         "[null, null]", "[-0.69, null]", "missing"],
        ids=["strings", "booleans", "a-boolean-among-floats", "a-boolean-among-ints", "nulls", "a-null", "missing"],
    )
    def test_log_probs_that_are_not_numbers_are_protocol_error(self, tmp_path, monkeypatch, row):
        channels = _record_channels(monkeypatch)
        host = tmp_path / "host.py"
        host.write_text(_FIXED_LOG_PROBS_HOST)
        ext = external_model(ExternalModelEndpoint("subprocess", f"{sys.executable} {host} '{row}'", timeout=5.0))
        try:
            with pytest.raises(ProtocolError, match=r"unreadable log-probs \((ValueError: log_probs|KeyError: 'log_probs')"):
                ext.evaluate_batch(np.zeros((2, 3)))
        finally:
            ext.close()
        assert len(channels) == 1 and channels[0].proc.wait(timeout=5) is not None

    def test_minus_infinity_log_probs_are_read(self, tmp_path, monkeypatch):
        channels = _record_channels(monkeypatch)
        host = tmp_path / "host.py"
        host.write_text(_FIXED_LOG_PROBS_HOST)
        ext = external_model(ExternalModelEndpoint("subprocess", f"{sys.executable} {host} '[-Infinity, 0]'", timeout=5.0))
        try:
            out = ext.evaluate_batch(np.zeros((2, 3)))
        finally:
            ext.close()
        assert out.dtype == np.float64 and out.tolist() == [[-np.inf, 0.0]] * 2
        assert len(channels) == 1 and channels[0].proc.wait(timeout=5) is not None

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
            json.dumps({"op": "eval", "id": 2, "instances": [[3, 1, 4, 1], [1, 2.5, 0, 0]]}),
            json.dumps({"op": "hello", "version": 1}),
        ]
        writer = io.StringIO()
        serve_stream(nb, io.StringIO("\n".join(requests) + "\n"), writer)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert [r["op"] for r in replies] == ["error", "error", "error", "error", "hello"]
        assert "JSONDecodeError" in replies[0]["message"]
        assert "instances" in replies[1]["message"]
        assert "token ids" in replies[2]["message"]
        assert "2.5 at position 1 of row 1" in replies[3]["message"]
        assert replies[4] == {"op": "hello", "num_classes": 2, "ops": ["eval", "eval_masked"]}

    def test_bad_masked_requests_get_error_replies_and_serving_continues(self):
        nb = train_naive_bayes(two_topic_corpus(0, 30, doc_len=4, vocab_size=15), 15)
        good = {"op": "eval_masked", "id": 9, "values": [3, 1, 4, 1], "fill": [[0, 0, 0, 0], [2, 7, 1, 8]],
                "masks": ["0", "f", "5", "A"]}
        bad = [
            (dict(good, masks=["1g"]), "hex strings, got '1g'"),
            (dict(good, masks=[""]), "hex strings"),
            (dict(good, masks=["-5"]), "hex strings"),
            (dict(good, masks=[5]), "hex strings, got 5"),
            (dict(good, masks=["0x5"]), "hex strings, got '0x5'"),
            (dict(good, masks="f"), "masks must be a list"),
            (dict(good, masks=["10"]), "subset mask 0x10 has bit 4"),
            (dict(good, fill=[[0, 0, 0]]), "masked rows need"),
            (dict(good, fill=[[0, 0, 0, 0], [0, 0]]), "ValueError"),
            ({k: v for k, v in good.items() if k != "fill"}, "fill"),
            ({k: v for k, v in good.items() if k != "masks"}, "masks"),
            (dict(good, values=[99, 0, 0, 0]), "token ids"),
        ]
        lines = [json.dumps(request) for request, _ in bad] + [json.dumps(good)]
        writer = io.StringIO()
        serve_stream(nb, io.StringIO("\n".join(lines) + "\n"), writer)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert [r["op"] for r in replies] == ["error"] * len(bad) + ["eval"]
        for reply, (_, message) in zip(replies, bad):
            assert message in reply["message"]
        rows = masked_rows(np.array(good["values"]), np.array(good["fill"]), pack_masks([0, 15, 5, 10], 4))
        assert replies[-1] == {"op": "eval", "id": 9, "log_probs": nb.evaluate_batch(rows).tolist()}

    def test_integer_rows_reach_the_model_as_int64(self):
        nb = train_naive_bayes(two_topic_corpus(0, 30, doc_len=4, vocab_size=15), 15)
        seen = []

        class Spy:
            num_classes = nb.num_classes

            def evaluate_batch(self, values):
                seen.append(values)
                return nb.evaluate_batch(values)

        requests = [
            {"op": "eval", "id": 0, "instances": [[3, 1, 4, 1], [1, 2, 0, 0]]},
            {"op": "eval_masked", "id": 1, "values": [3, 1, 4, 1], "fill": [[0, 0, 0, 0], [2, 7, 1, 8]], "masks": ["0", "5"]},
            {"op": "eval", "id": 2, "instances": [[3.0, 1, 4, 1]]},
        ]
        writer = io.StringIO()
        serve_stream(Spy(), io.StringIO("".join(json.dumps(r) + "\n" for r in requests)), writer)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert [r["op"] for r in replies] == ["eval"] * 3
        assert [rows.dtype for rows in seen] == [np.int64, np.int64, np.float64]
        assert seen[0].tolist() == [[3, 1, 4, 1], [1, 2, 0, 0]]
        assert seen[1].tolist() == [[0, 0, 0, 0], [2, 7, 1, 8], [3, 0, 4, 0], [3, 7, 4, 8]]
        assert replies[2]["log_probs"] == nb.evaluate_batch(np.array([[3, 1, 4, 1]])).tolist()

    def test_strings_nulls_and_booleans_are_not_rows(self):
        nb = train_naive_bayes(two_topic_corpus(0, 30, doc_len=4, vocab_size=15), 15)
        masked = {"op": "eval_masked", "id": 1, "values": [3, 1, 4, 1], "fill": [[0, 0, 0, 0]], "masks": ["5"]}
        bad = [
            ({"op": "eval", "id": 0, "instances": [["3", "4", "1", "1"]]}, "instances"),
            ({"op": "eval", "id": 0, "instances": [[3, None, 1, 1]]}, "instances"),
            ({"op": "eval", "id": 0, "instances": [[True, False, True, True]]}, "instances"),
            # numpy would read these booleans among numbers as 1 and 0
            ({"op": "eval", "id": 0, "instances": [[3, True, 4, 1]]}, "instances"),
            ({"op": "eval", "id": 0, "instances": [[3, 1, 4, 1], [1.5, 0, 0, False]]}, "instances"),
            (dict(masked, values=["3", "1", "4", "1"]), "values"),
            (dict(masked, values=[3, 1, None, 1]), "values"),
            (dict(masked, values=[3, 1, False, 1]), "values"),
            (dict(masked, fill=[["0", "0", "0", "0"]]), "fill"),
            (dict(masked, fill=[[0, None, 0, 0]]), "fill"),
            (dict(masked, fill=[[0, 0, 0, 0], [0, True, 0, 0]]), "fill"),
        ]
        writer = io.StringIO()
        serve_stream(nb, io.StringIO("".join(json.dumps(r) + "\n" for r, _ in bad)), writer)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()]
        assert [r["op"] for r in replies] == ["error"] * len(bad)
        for reply, (_, field) in zip(replies, bad):
            assert reply["message"].startswith(f"ValueError: {field} must hold numbers only"), reply
