"""Built-in desk-scale classifiers and the external-model wire bridge.

Built-ins are immutable after construction and safe to evaluate concurrently.
The wire protocol (newline-delimited JSON over stdio or TCP) lets any-language
model hosts plug in; see :class:`ExternalModel` and
:mod:`shapgraph.model_server`.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import socket
import subprocess
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError, ProtocolError
from .theory import DiscreteJoint

WIRE_VERSION = 1
WIRE_BATCH_LIMIT = 256
PADDING_TOKEN = 0


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class NaiveBayesModel:
    """Multinomial naive Bayes over token sequences.

    Token id 0 is reserved for padding and contributes nothing to the
    likelihood, so plug-in masking with a zero reference is exactly
    conditioning on the remaining tokens.
    """

    log_priors: np.ndarray  # (C,)
    log_likelihoods: np.ndarray  # (C, vocab_size); column 0 is padding

    def __post_init__(self):
        object.__setattr__(self, "log_priors", np.asarray(self.log_priors, dtype=np.float64))
        object.__setattr__(
            self, "log_likelihoods", np.asarray(self.log_likelihoods, dtype=np.float64)
        )

    @property
    def num_classes(self) -> int:
        return len(self.log_priors)

    @property
    def vocab_size(self) -> int:
        return self.log_likelihoods.shape[1]

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        tokens = np.asarray(values, dtype=np.int64)
        if np.any(tokens < 0) or np.any(tokens >= self.vocab_size):
            raise EvaluationError(
                f"token ids must lie in [0, {self.vocab_size}), got range "
                f"[{tokens.min()}, {tokens.max()}]"
            )
        present = tokens > PADDING_TOKEN
        # (C, n, d) gather, padding masked out
        ll = self.log_likelihoods[:, tokens]
        scores = self.log_priors[:, None] + np.where(present[None], ll, 0.0).sum(axis=2)
        return _log_softmax(scores.T)

    def to_json(self) -> dict:
        return {
            "type": "naive_bayes",
            "log_priors": self.log_priors.tolist(),
            "log_likelihoods": self.log_likelihoods.tolist(),
        }

    @staticmethod
    def from_json(data: dict) -> "NaiveBayesModel":
        return NaiveBayesModel(
            np.array(data["log_priors"]), np.array(data["log_likelihoods"])
        )


def train_naive_bayes(
    corpus: Sequence[tuple[Sequence[int], int]],
    vocab_size: int,
    smoothing: float = 1.0,
) -> NaiveBayesModel:
    """Fit a multinomial naive Bayes classifier with additive smoothing.

    Padding tokens (id 0) never enter the counts; likelihoods are normalized
    over the remaining vocab of size ``vocab_size - 1``.
    """
    if not corpus:
        raise ConfigurationError("training corpus is empty")
    if smoothing <= 0:
        raise ConfigurationError(f"smoothing must be positive, got {smoothing}")
    num_classes = max(label for _, label in corpus) + 1
    counts = np.zeros((num_classes, vocab_size))
    doc_counts = np.zeros(num_classes)
    for tokens, label in corpus:
        if not 0 <= label < num_classes:
            raise ConfigurationError(f"label {label} out of range")
        doc_counts[label] += 1
        for t in tokens:
            if t == PADDING_TOKEN:
                continue
            if not 0 < t < vocab_size:
                raise ConfigurationError(f"token {t} outside vocab of size {vocab_size}")
            counts[label, t] += 1
    priors = doc_counts / doc_counts.sum()
    smoothed = counts[:, 1:] + smoothing
    likelihood = smoothed / smoothed.sum(axis=1, keepdims=True)
    log_lik = np.full((num_classes, vocab_size), 0.0)
    log_lik[:, 1:] = np.log(likelihood)
    return NaiveBayesModel(np.log(priors), log_lik)


def two_topic_corpus(
    seed: int,
    num_docs: int,
    doc_len: int = 40,
    vocab_size: int = 200,
    signal_tokens: int = 10,
    boost: float = 6.0,
) -> list[tuple[np.ndarray, int]]:
    """Synthetic two-class token corpus.

    Class 0 over-samples tokens 1..signal_tokens, class 1 the next block;
    everything else is shared background vocabulary.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    real_vocab = vocab_size - 1
    base = np.ones(real_vocab)
    probs = []
    for cls in range(2):
        p = base.copy()
        start = cls * signal_tokens
        p[start : start + signal_tokens] *= boost
        probs.append(p / p.sum())
    docs = []
    for _ in range(num_docs):
        label = int(rng.integers(0, 2))
        tokens = rng.choice(np.arange(1, vocab_size), size=doc_len, p=probs[label])
        docs.append((tokens.astype(np.int64), label))
    return docs


@dataclass(frozen=True)
class UniformModel:
    """Degenerate classifier returning the uniform distribution."""

    num_classes: int

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        n = np.asarray(values).shape[0]
        return np.full((n, self.num_classes), -np.log(self.num_classes))

    def to_json(self) -> dict:
        return {"type": "uniform", "num_classes": self.num_classes}


@dataclass(frozen=True)
class MarkovLabelModel:
    """Chain Bayes net over binary features given the label.

    The chain is built so that an adjacent "signal" pair of positions carries
    all the dependence on the label (and on each other), while every other
    position is independent noise.  That makes each feature independent of
    everything beyond its immediate neighbors given any subset of them, both
    marginally and given the label: exactly the regime where the truncated
    estimators are error-free.

    ``initial[y, v]`` is P(x_0 = v | y); ``transitions[j-1, y, prev, v]`` is
    P(x_j = v | x_{j-1} = prev, y).
    """

    class_prior: np.ndarray  # (C,)
    initial: np.ndarray  # (C, 2)
    transitions: np.ndarray  # (d-1, C, 2, 2)
    signal_position: int

    def __post_init__(self):
        for name in ("class_prior", "initial", "transitions"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def d(self) -> int:
        return self.transitions.shape[0] + 1

    @property
    def num_classes(self) -> int:
        return len(self.class_prior)

    def dense_joint(self) -> DiscreteJoint:
        d, C = self.d, self.num_classes
        table = np.empty((1 << d, C))
        for y in range(C):
            # extend one position at a time; feature j's value is bit j
            dist = self.class_prior[y] * self.initial[y]
            for j in range(1, d):
                width = 1 << j
                nxt = np.zeros(width * 2)
                for atom in range(width):
                    prev_bit = (atom >> (j - 1)) & 1
                    for v in range(2):
                        nxt[atom | (v << j)] = dist[atom] * self.transitions[j - 1, y, prev_bit, v]
                dist = nxt
            table[:, y] = dist
        return DiscreteJoint(d, C, table)

    def sample(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        d, C = self.d, self.num_classes
        labels = rng.choice(C, size=n, p=self.class_prior)
        values = np.zeros((n, d), dtype=np.int64)
        u = rng.random((n, d))
        values[:, 0] = (u[:, 0] < self.initial[labels, 1]).astype(np.int64)
        for j in range(1, d):
            p_one = self.transitions[j - 1, labels, values[:, j - 1], 1]
            values[:, j] = (u[:, j] < p_one).astype(np.int64)
        return values, labels

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        tokens = np.asarray(values, dtype=np.int64)
        n, d = tokens.shape
        logp = np.empty((n, self.num_classes))
        for y in range(self.num_classes):
            p = np.full(n, np.log(self.class_prior[y]))
            p += np.log(self.initial[y, tokens[:, 0]])
            for j in range(1, d):
                p += np.log(self.transitions[j - 1, y, tokens[:, j - 1], tokens[:, j]])
            logp[:, y] = p
        return _log_softmax(logp)

    def to_json(self) -> dict:
        return {
            "type": "markov_label",
            "class_prior": self.class_prior.tolist(),
            "initial": self.initial.tolist(),
            "transitions": self.transitions.tolist(),
            "signal_position": self.signal_position,
        }

    @staticmethod
    def from_json(data: dict) -> "MarkovLabelModel":
        return MarkovLabelModel(
            np.array(data["class_prior"]),
            np.array(data["initial"]),
            np.array(data["transitions"]),
            int(data["signal_position"]),
        )


def build_markov_model(
    seed: int, d: int, mixing: float, num_classes: int = 2
) -> MarkovLabelModel:
    """Construct the chain model alone (any length; no dense joint)."""
    if not 0 <= mixing < 1:
        raise ConfigurationError(f"mixing must lie in [0, 1), got {mixing}")
    rng = np.random.default_rng(seed)
    prior = rng.uniform(0.35, 0.65, size=num_classes)
    prior = prior / prior.sum()
    noise = rng.uniform(0.25, 0.75, size=d)  # P(x_j = 1) for noise positions
    c = (d - 1) // 2 if d >= 2 else 0
    signal_emit = rng.uniform(0.15, 0.85, size=num_classes)
    signal_trans = rng.uniform(0.15, 0.85, size=(num_classes, 2))

    def p_signal(y: int) -> float:
        return (1 - mixing) * noise[c] + mixing * signal_emit[y]

    initial = np.empty((num_classes, 2))
    for y in range(num_classes):
        p1 = p_signal(y) if c == 0 else noise[0]
        initial[y] = [1 - p1, p1]
    transitions = np.zeros((max(d - 1, 0), num_classes, 2, 2))
    for j in range(1, d):
        for y in range(num_classes):
            for prev in range(2):
                if j == c:
                    p1 = p_signal(y)
                elif j == c + 1 and d >= 2:
                    p1 = (1 - mixing) * noise[j] + mixing * signal_trans[y, prev]
                else:
                    p1 = noise[j]
                transitions[j - 1, y, prev] = [1 - p1, p1]
    return MarkovLabelModel(prior, initial, transitions, signal_position=c)


def markov_label_model(
    seed: int, d: int, mixing: float, num_classes: int = 2
) -> tuple[MarkovLabelModel, DiscreteJoint]:
    """Chain model plus its exact dense joint.

    ``mixing`` in (0,1) scales how strongly the signal pair depends on the
    label and on each other; at 0 it degenerates to fully independent
    features.  All probabilities stay strictly inside (0, 1), so the joint is
    strictly positive.
    """
    if d > 12:
        raise ConfigurationError(f"dense joints cap the chain length at 12, got {d}")
    model = build_markov_model(seed, d, mixing, num_classes)
    return model, model.dense_joint()


class ValidatedModel:
    """Wrapper asserting that every output row is a log-probability vector."""

    def __init__(self, inner, atol: float = 1e-6):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.atol = atol

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        out = np.asarray(self.inner.evaluate_batch(values))
        if out.shape[1] != self.num_classes:
            raise EvaluationError(
                f"model returned {out.shape[1]} classes, declared {self.num_classes}"
            )
        sums = np.exp(out).sum(axis=1)
        bad = np.abs(sums - 1.0) > self.atol
        if bad.any():
            raise EvaluationError(
                f"log-probability rows {np.nonzero(bad)[0].tolist()} do not normalize "
                f"(sums {sums[bad][:4].tolist()})"
            )
        return out


# ---------------------------------------------------------------------------
# External models over the wire protocol
# ---------------------------------------------------------------------------


@dataclass
class ExternalModelEndpoint:
    """Address of an external model host.

    ``transport`` is ``"subprocess"`` (command line, stdio protocol) or
    ``"tcp"`` (``host:port``).  ``num_classes`` may be declared for
    validation against the handshake; None accepts whatever the host reports.
    """

    transport: str
    address: str
    num_classes: int | None = None
    timeout: float = 10.0

    def __post_init__(self):
        if self.transport not in ("subprocess", "tcp"):
            raise ConfigurationError(f"unknown transport {self.transport!r}")


class _SubprocessChannel:
    def __init__(self, command: str, timeout: float):
        self.timeout = timeout
        self.proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._buf = b""

    def send(self, obj: dict) -> None:
        payload = (json.dumps(obj) + "\n").encode()
        self.proc.stdin.write(payload)
        self.proc.stdin.flush()

    def recv_line(self) -> str:
        deadline = time.monotonic() + self.timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("timed out waiting for model response")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise TimeoutError("timed out waiting for model response")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise OSError("model process closed its output")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def close(self) -> None:
        try:
            self.send({"op": "bye"})
        except Exception:
            pass
        self.proc.terminate()
        try:
            self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()


class _TcpChannel:
    def __init__(self, address: str, timeout: float):
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=timeout)
        self.sock.settimeout(timeout)
        self._buf = b""

    def send(self, obj: dict) -> None:
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def recv_line(self) -> str:
        while b"\n" not in self._buf:
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout as exc:
                raise TimeoutError("timed out waiting for model response") from exc
            if not chunk:
                raise OSError("model host closed the connection")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def close(self) -> None:
        try:
            self.send({"op": "bye"})
        except Exception:
            pass
        self.sock.close()


class ExternalModel:
    """ModelContract over the line-delimited JSON wire protocol.

    Transient transport failures (timeouts, closed pipes, refused
    connections) are retried up to three times with exponential backoff and a
    fresh connection; protocol violations are not retried.
    """

    MAX_ATTEMPTS = 3
    BACKOFF = 0.1

    def __init__(self, endpoint: ExternalModelEndpoint):
        self.endpoint = endpoint
        self._channel = None
        self._next_id = 0
        self.num_classes = endpoint.num_classes or 0
        self._connect_with_retry([])  # num_classes is known after the handshake

    def _open_channel(self):
        if self.endpoint.transport == "subprocess":
            return _SubprocessChannel(self.endpoint.address, self.endpoint.timeout)
        return _TcpChannel(self.endpoint.address, self.endpoint.timeout)

    def _handshake(self, channel) -> int:
        channel.send({"op": "hello", "version": WIRE_VERSION})
        reply = self._parse(channel.recv_line())
        if reply.get("op") != "hello" or "num_classes" not in reply:
            raise ProtocolError(f"bad handshake reply: {reply!r}")
        served = int(reply["num_classes"])
        if self.endpoint.num_classes is not None and served != self.endpoint.num_classes:
            raise ProtocolError(
                f"endpoint declared {self.endpoint.num_classes} classes "
                f"but host serves {served}"
            )
        return served

    @staticmethod
    def _parse(line: str) -> dict:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed wire line: {line!r}") from exc
        if not isinstance(obj, dict):
            raise ProtocolError(f"malformed wire line: {line!r}")
        return obj

    def _connect_with_retry(self, batch_indices: list[int]) -> None:
        last = None
        for attempt in range(self.MAX_ATTEMPTS):
            try:
                channel = self._open_channel()
                self.num_classes = self._handshake(channel)
                self._channel = channel
                return
            except (OSError, TimeoutError, ConnectionError) as exc:
                last = exc
                time.sleep(self.BACKOFF * (2**attempt))
        raise EvaluationError(
            f"could not reach external model after {self.MAX_ATTEMPTS} attempts: {last}",
            batch_indices=batch_indices,
        )

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        chunks = []
        for start in range(0, values.shape[0], WIRE_BATCH_LIMIT):
            block = values[start : start + WIRE_BATCH_LIMIT]
            indices = list(range(start, start + block.shape[0]))
            chunks.append(self._evaluate_chunk(block, indices))
        return np.concatenate(chunks, axis=0)

    def _evaluate_chunk(self, block: np.ndarray, indices: list[int]) -> np.ndarray:
        payload_rows = [[float(v) for v in row] for row in block]
        last = None
        for attempt in range(self.MAX_ATTEMPTS):
            if self._channel is None:
                self._connect_with_retry(indices)
            request_id = self._next_id
            self._next_id += 1
            try:
                self._channel.send({"op": "eval", "id": request_id, "instances": payload_rows})
                reply = self._parse(self._channel.recv_line())
                if reply.get("op") == "error":
                    raise EvaluationError(
                        f"model host failed on request {request_id}: {reply.get('message')}",
                        batch_indices=indices,
                    )
                if reply.get("op") != "eval" or reply.get("id") != request_id:
                    raise ProtocolError(f"response does not match request {request_id}: {reply!r}")
                log_probs = np.asarray(reply["log_probs"], dtype=np.float64)
                if log_probs.shape != (block.shape[0], self.num_classes):
                    raise ProtocolError(
                        f"expected {(block.shape[0], self.num_classes)} log-probs, "
                        f"got {log_probs.shape}"
                    )
                return log_probs
            except (OSError, TimeoutError, ConnectionError) as exc:
                last = exc
                if self._channel is not None:
                    self._channel.close()
                    self._channel = None
                time.sleep(self.BACKOFF * (2**attempt))
        raise EvaluationError(
            f"external model evaluation failed after {self.MAX_ATTEMPTS} attempts: {last}",
            batch_indices=indices,
        )

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None


def external_model(endpoint: ExternalModelEndpoint) -> ExternalModel:
    """Connect, handshake, and return the wire-backed model."""
    return ExternalModel(endpoint)


def load_model_json(data: dict):
    """Instantiate a built-in model from its JSON dump."""
    kind = data.get("type")
    if kind == "naive_bayes":
        return NaiveBayesModel.from_json(data)
    if kind == "uniform":
        return UniformModel(int(data["num_classes"]))
    if kind == "markov_label":
        return MarkovLabelModel.from_json(data)
    raise ConfigurationError(f"unknown model type {kind!r}")
