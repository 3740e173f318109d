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
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ._kernels import chunk_rows
from .errors import ConfigurationError, EvaluationError, ProtocolError
from .theory import DiscreteJoint, check_joint_size
from .valuation import checked_codes

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
        # the likelihood table with padding scoring exactly 0.0, so a batch is
        # a gather and a sum, with no padding mask
        padded = self.log_likelihoods.copy()
        padded[:, PADDING_TOKEN] = 0.0
        object.__setattr__(self, "_padded_log_likelihoods", padded)

    @property
    def num_classes(self) -> int:
        return len(self.log_priors)

    @property
    def vocab_size(self) -> int:
        return self.log_likelihoods.shape[1]

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        tokens = checked_codes(values, self.vocab_size, "token ids")
        padded = self._padded_log_likelihoods
        # numpy sums the full (C, n, d) gather position by position, 0..d-1,
        # for any number of rows n, one included.  Padding adds exactly +0.0,
        # which leaves a running sum unchanged, so adding only the other
        # tokens in the same order gives the same bits; bincount adds its
        # weights in input order.  Rows are taken a few at a time, so the
        # padding mask, a byte per token, stays within one chunk; the gathered
        # arrays hold 8 bytes per non-padding token, a few per row for the
        # masked rows of L- and C-Shapley.
        n, d = tokens.shape
        step = chunk_rows(d)
        scores = np.empty((n, self.num_classes))
        for a in range(0, n, step):
            chunk = tokens[a : a + step].ravel()
            at = np.flatnonzero(chunk != PADDING_TOKEN)
            kept = chunk[at]
            row = at // d
            for c in range(self.num_classes):
                scores[a : a + step, c] = np.bincount(row, padded[c].take(kept), min(step, n - a))
        scores += self.log_priors
        return _log_softmax(scores)

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
        # dist[y, atom]: P(y, atom) over the positions so far, feature j's value being bit j
        dist = self.class_prior[:, None] * self.initial
        for j in range(1, d):
            # x_{j-1} is 1 on the upper half of the atoms so far; x_j = v puts
            # an atom in half v of the next
            step = np.repeat(self.transitions[j - 1], 1 << (j - 1), axis=1)  # [y, atom, v]
            dist = (dist[:, None, :] * step.transpose(0, 2, 1)).reshape(C, 2 << j)
        return DiscreteJoint(d, C, np.ascontiguousarray(dist.T))

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
        tokens = checked_codes(values, 2, "binary features", self.d)
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
    check_joint_size(d, num_classes)
    model = build_markov_model(seed, d, mixing, num_classes)
    return model, model.dense_joint()


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
        if self.transport == "tcp":
            host, _, port = self.address.rpartition(":")
            if not host or not port.isdecimal():
                raise ConfigurationError(f"tcp address must be host:port, got {self.address!r}")


class _LineChannel:
    """One JSON line per message to and from a model host, over two file
    descriptors: a spawned host's stdout and stdin, or one socket for both.

    Both ends are non-blocking and every wait is a ``select`` under the
    endpoint timeout.  ``send`` moves whatever the host writes into the
    receive buffer while it waits to write, so a host blocked on writing a
    long reply never stalls the next request, and two requests can be in
    flight.  ``close`` says goodbye and then calls ``stop``, which ends the
    host process or closes the socket.  ``proc`` is the spawned host, if any.
    """

    def __init__(self, read_fd: int, write_fd: int, timeout: float, stop: Callable[[], None], proc=None):
        self._read_fd = read_fd
        self._write_fd = write_fd
        os.set_blocking(read_fd, False)
        os.set_blocking(write_fd, False)
        self.timeout = timeout
        self._stop = stop
        self.proc = proc
        self._buf = bytearray()
        self._scanned = 0  # bytes of _buf known to hold no newline

    def send(self, line: str) -> None:
        data = memoryview((line + "\n").encode())
        deadline = time.monotonic() + self.timeout
        while data:
            readable, writable = self._wait(deadline, write=True)
            if readable:
                self._receive()
            if writable:
                try:
                    data = data[os.write(self._write_fd, data) :]
                except BlockingIOError:
                    pass

    def recv_line(self) -> bytes:
        """The next line the host wrote, without its newline, undecoded."""
        deadline = time.monotonic() + self.timeout
        while (end := self._buf.find(b"\n", self._scanned)) < 0:
            self._scanned = len(self._buf)
            self._wait(deadline, write=False)
            self._receive()
        line = bytes(self._buf[:end])
        del self._buf[: end + 1]
        self._scanned = 0
        return line

    def _wait(self, deadline: float, write: bool) -> tuple[bool, bool]:
        remaining = deadline - time.monotonic()
        if remaining > 0:
            readable, writable, _ = select.select(
                [self._read_fd], [self._write_fd] if write else [], [], remaining
            )
            if readable or writable:
                return bool(readable), bool(writable)
        raise TimeoutError("timed out waiting for the model host")

    def _receive(self) -> None:
        try:
            chunk = os.read(self._read_fd, 65536)
        except BlockingIOError:
            return
        if not chunk:
            raise OSError("model host closed the connection")
        self._buf += chunk

    def close(self) -> None:
        # the goodbye is best effort, and brief: a host that stopped reading
        # must not hold up closing
        self.timeout = min(self.timeout, 1.0)
        try:
            self.send('{"op": "bye"}')
        except Exception:
            pass
        self._stop()


def _stop_process(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=1.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdin.close()
    proc.stdout.close()


class ExternalModel:
    """ModelContract over the line-delimited JSON wire protocol.

    ``evaluate_batch`` splits its rows into ``eval`` requests of at most
    ``WIRE_BATCH_LIMIT``; ``evaluate_masked`` sends subset masks in
    ``eval_masked`` requests of as many rows' worth, and the host builds the
    rows.  ``masks_on_host`` says whether the host listed ``eval_masked`` in
    its ``hello`` reply, and so whether value functions call
    ``evaluate_masked``.  Either way one loop keeps up to ``IN_FLIGHT``
    requests in flight, so the client encodes request k+1 while the host
    evaluates request k; replies are read in request order.  ``batch_size``
    asks value functions for blocks of several requests, which is what lets
    the two overlap.

    One retry policy covers the whole connection.  A transport failure
    (refused connection, timeout, closed pipe) while connecting, during the
    handshake or mid-exchange closes the channel, and the next attempt opens
    a fresh one, handshakes and resends every unanswered request under a
    fresh id.  The client sleeps only between attempts: after the n-th
    failure in a row without a reply it sleeps ``BACKOFF * 2**(n-1)``, and
    the ``MAX_ATTEMPTS``-th raises ``EvaluationError`` at once.  Bytes or
    fields that break the protocol (a line that is not UTF-8 JSON of an
    object, a mismatched id or shape, a ``hello`` without a positive integer
    ``num_classes``) raise ``ProtocolError`` at once and close the channel,
    stopping a spawned host; the next call reconnects.
    """

    MAX_ATTEMPTS = 3
    BACKOFF = 0.1
    IN_FLIGHT = 2
    batch_size = 4 * WIRE_BATCH_LIMIT

    def __init__(self, endpoint: ExternalModelEndpoint):
        self.endpoint = endpoint
        self._channel = None
        self._next_id = 0
        self.num_classes = endpoint.num_classes or 0
        self.masks_on_host = False  # whether the host speaks eval_masked, from its hello
        self._exchange(0, None)  # connects; num_classes is known after the handshake

    def _open_channel(self) -> _LineChannel:
        address, timeout = self.endpoint.address, self.endpoint.timeout
        if self.endpoint.transport == "subprocess":
            proc = subprocess.Popen(
                shlex.split(address), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
            )
            return _LineChannel(
                proc.stdout.fileno(), proc.stdin.fileno(), timeout, lambda: _stop_process(proc), proc
            )
        host, _, port = address.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=timeout)
        return _LineChannel(sock.fileno(), sock.fileno(), timeout, sock.close)

    def _handshake(self) -> None:
        self._channel.send(json.dumps({"op": "hello", "version": WIRE_VERSION}))
        line = self._channel.recv_line()
        reply = self._parse(line)
        served = reply.get("num_classes")
        if reply.get("op") != "hello" or type(served) is not int or served < 1:
            raise ProtocolError(f"bad handshake reply: {_excerpt(line)}")
        if self.endpoint.num_classes is not None and served != self.endpoint.num_classes:
            raise ProtocolError(
                f"endpoint declared {self.endpoint.num_classes} classes "
                f"but host serves {served}"
            )
        ops = reply.get("ops")
        self.num_classes = served
        self.masks_on_host = isinstance(ops, list) and "eval_masked" in ops

    @staticmethod
    def _parse(line: bytes) -> dict:
        """The JSON object one line from the host holds; a line that is not
        UTF-8 JSON of an object is a ``ProtocolError``."""
        try:
            obj = json.loads(line.decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 is a ValueError; too deep a nest recurses
            raise ProtocolError(f"malformed wire line: {_excerpt(line)}") from exc
        if not isinstance(obj, dict):
            raise ProtocolError(f"malformed wire line: {_excerpt(line)}")
        return obj

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        values = _wire_values(values)

        def request(k: int) -> _Request:
            start = k * WIRE_BATCH_LIMIT
            block = values[start : start + WIRE_BATCH_LIMIT]
            indices = range(start, start + block.shape[0])
            return _Request("eval", indices, len(indices), f'"instances": [{_rows_text(block)}]')

        return self._exchange(-(-values.shape[0] // WIRE_BATCH_LIMIT), request)

    def evaluate_masked(self, values: np.ndarray, fill: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Log-probs of the rows :func:`~shapgraph.valuation.masked_rows`
        builds, row ``r * m + j`` for mask r and fill row j, with the rows
        built by the host: each ``eval_masked`` request carries the instance,
        the (m, d) fill and ``max(1, 256 // m)`` whole subsets as hex masks.
        The subsets come as packed member rows (see
        :func:`~shapgraph.graphs.pack_masks`).  Only a host that listed
        ``eval_masked`` in its ``hello`` reply, as ``masks_on_host`` says, can
        answer it.  The ``batch_indices`` of an ``EvaluationError`` are
        positions in ``rows``.
        """
        fill = _wire_values(fill)
        m = fill.shape[0]
        values = _rows_text(_wire_values(np.asarray(values)[None, :]))
        head = f'"values": {values}, "fill": [{_rows_text(fill)}], "masks": '
        per_request = max(1, WIRE_BATCH_LIMIT // m)
        masks = _rows_hex(rows)

        def request(k: int) -> _Request:
            indices = range(k * per_request, min((k + 1) * per_request, len(masks)))
            texts = '", "'.join(masks[indices.start : indices.stop])
            return _Request("eval_masked", indices, len(indices) * m, f'{head}["{texts}"]')

        return self._exchange(-(-len(masks) // per_request), request)

    def _exchange(self, count: int, request: Callable[[int], _Request] | None) -> np.ndarray:
        """Send the requests ``request(0), ..., request(count - 1)``, up to
        ``IN_FLIGHT`` at a time, and return their replies' log-probs stacked
        in request order.  Each request is built just before it is first sent
        and kept until it is answered, for a resend.

        This is the one retry loop of the class docstring: without a channel
        it connects, handshakes and resends what is in flight, so with
        ``count=0`` it only connects.
        """
        replies: list[np.ndarray] = []
        in_flight: deque[_Request] = deque()  # sent and unanswered, oldest first
        failures = 0  # transport failures since the last reply
        while self._channel is None or len(replies) < count:
            try:
                if self._channel is None:
                    self._channel = self._open_channel()
                    self._handshake()
                    for pending in in_flight:
                        self._send(pending)
                    continue
                while len(in_flight) < self.IN_FLIGHT and len(replies) + len(in_flight) < count:
                    in_flight.append(request(len(replies) + len(in_flight)))
                    self._send(in_flight[-1])
                replies.append(self._receive(in_flight))
                failures = 0
            except ProtocolError:
                # the channel may be out of step with the host; the next call
                # starts over on a fresh connection
                self.close()
                raise
            except OSError as exc:  # timeouts and refused or closed connections alike
                self.close()
                failures += 1
                if failures == self.MAX_ATTEMPTS:
                    raise EvaluationError(
                        f"external model failed after {self.MAX_ATTEMPTS} attempts: {exc}",
                        batch_indices=[i for r in in_flight for i in r.indices],
                    ) from exc
                time.sleep(self.BACKOFF * (2 ** (failures - 1)))
        return np.concatenate(replies) if replies else np.empty((0, self.num_classes))

    def _send(self, request: _Request) -> None:
        request.id = self._next_id
        self._next_id += 1
        self._channel.send(f'{{"op": "{request.op}", "id": {request.id}, {request.body}}}')

    def _receive(self, in_flight: deque[_Request]) -> np.ndarray:
        """The reply to the oldest request in flight, checked.

        An error reply raises ``EvaluationError`` once the replies to the
        later requests are read too, so the channel stays in step.
        """
        line = self._channel.recv_line()
        reply = self._parse(line)
        request = in_flight.popleft()
        if reply.get("op") == "error":
            self._drain(in_flight)
            raise EvaluationError(
                f"model host failed on request {request.id}: {reply.get('message')}",
                batch_indices=list(request.indices),
            )
        if reply.get("op") != "eval" or reply.get("id") != request.id:
            raise ProtocolError(f"response does not match request {request.id}: {_excerpt(line)}")
        try:
            log_probs = wire_numbers(reply, "log_probs").astype(np.float64, copy=False)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(
                f"unreadable log-probs ({type(exc).__name__}: {exc}) in reply {request.id}: {_excerpt(line)}"
            ) from exc
        expected = (request.rows, self.num_classes)
        if log_probs.shape != expected:
            raise ProtocolError(f"expected {expected} log-probs, got {log_probs.shape}")
        return log_probs

    def _drain(self, in_flight: deque[_Request]) -> None:
        """Read and drop the replies still owed; close the channel if that fails."""
        try:
            while in_flight:
                request = in_flight.popleft()
                reply = self._parse(self._channel.recv_line())
                if reply.get("op") != "error" and reply.get("id") != request.id:
                    raise ProtocolError(f"response does not match request {request.id}")
        except (OSError, ProtocolError):
            self.close()

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None


_encode = json.JSONEncoder(allow_nan=False).encode


def _rows_hex(rows: np.ndarray) -> list[str]:
    """The masks of packed member rows as the wire's hex texts, ``f"{mask:x}"``
    of each."""
    digits = 2 * rows.shape[1]
    text = rows[:, ::-1].tobytes().hex()
    return [text[at : at + digits].lstrip("0") or "0" for at in range(0, len(text), digits)]


def _rows_text(block: np.ndarray) -> str:
    """The JSON text of a block's rows, without the outer brackets: the
    bytes of ``json.dumps(block.tolist())[1:-1]``, formatted one row at a
    time, so a block's Python numbers are never all held at once."""
    return ", ".join([_encode(row.tolist()) for row in block])


def _wire_values(values: np.ndarray) -> np.ndarray:
    """Instance rows as they go on the wire: integer rows as they are, bool
    rows as 0/1 and anything else as float64, which must be finite."""
    values = np.asarray(values)
    if values.dtype.kind == "b":
        return values.view(np.uint8)
    if values.dtype.kind in "iu":
        return values
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise EvaluationError(
            f"instance rows {bad[:8].tolist()} hold NaN or infinite values, which JSON cannot carry",
            batch_indices=bad.tolist(),
        )
    return values


def wire_numbers(message: dict, field: str) -> np.ndarray:
    """The array of a wire message's field: int64 when the JSON holds only
    integers, float64 when it holds other numbers (``-Infinity`` and ``NaN``
    included).  Strings, nulls and booleans, at any position, raise
    ``ValueError`` naming the field; a missing field raises ``KeyError``."""
    data = message[field]
    try:
        values = np.asarray(data)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"{field}: {exc}") from None
    if values.dtype.kind not in "if":
        raise ValueError(f"{field} must hold numbers only, got an array of {values.dtype}")
    # numpy reads true and false among numbers as 1 and 0, so where it read
    # a 0 or a 1 the JSON is searched for a boolean
    if ((values == 0) | (values == 1)).any():
        items = [data]
        for _ in range(values.ndim):
            items = chain.from_iterable(items)
        if bool in set(map(type, items)):
            raise ValueError(f"{field} must hold numbers only, got a boolean")
    return values.astype(np.int64 if values.dtype.kind == "i" else np.float64, copy=False)


class _Request:
    """One request: its op, the body text after its id, kept for a resend,
    the id it was last sent under, the number of reply rows it is owed and
    the indices an error names."""

    def __init__(self, op: str, indices: range, rows: int, body: str):
        self.op = op
        self.indices = indices
        self.rows = rows
        self.body = body
        self.id = -1


def _excerpt(line: bytes) -> str:
    """A wire line as an error quotes it: at most its first 200 characters."""
    if len(line) <= 200:
        return repr(line)
    return f"{line[:200]!r}... ({len(line)} characters)"


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
