"""The L-/C-Shapley explanation path as it was written before packed plans,
the reused row buffer and the sparse naive-Bayes gather.

Every step here is the earlier code, kept so that tests can require the
current path to give the same bits: per-feature term lists, one
``np.where`` array of rows per block, the naive-Bayes ``(C, n, d)`` gather,
and the per-mask loops of the memoized value and of the batched plan.

It also holds what only tests use: the connected components of a subset,
a marginal contribution, the exact conditional of a dense joint, the
component-additive extension of a game over a graph, and the score of a
subset at one atom of a dense joint under exact conditionals; and the
per-atom loop that built a Markov label model's dense joint table.
"""

import numpy as np

from shapgraph.attribution import c_shapley_terms, l_shapley_terms
from shapgraph.errors import ConfigurationError, ZeroMassError
from shapgraph.graphs import members_of, reach, row_masks
from shapgraph.theory import _TINY, ExactConditionalModel, _marginal
from shapgraph.valuation import DEFAULT_BATCH_SIZE, LOG_PROB_FLOOR, SetFunction, synthetic_game


def connected_components(g, s):
    """Maximal connected pieces of the subset ``s`` under the induced subgraph.

    Returned in increasing order of their smallest member; the pieces are
    disjoint and their union is ``s``.
    """
    comps = []
    while s:
        *_, comp = reach(g, s & -s, s)
        comps.append(comp)
        s &= ~comp
    return comps


def marginal_contribution(vf, s, i):
    """v(s) - v(s minus {i}); the change from removing feature i."""
    if not (s >> i) & 1:
        raise ValueError(f"feature {i} is not a member of subset {members_of(s)}")
    vals = vf.scores([s, s & ~(1 << i)])
    return float(vals[0] - vals[1])


def conditional(model, values, subset):
    """P(Y | X_S = x_S) under an :class:`ExactConditionalModel`, by summing
    its joint's table; the empty subset yields the label marginal."""
    bits, atoms = model._atoms(np.asarray(values)[None])
    joint_rows = _marginal(model.joint, subset, True)[atoms[0]]
    mass = joint_rows.sum()
    if mass <= 0:
        raise ZeroMassError(
            f"conditioning event has zero probability: subset {members_of(subset)} "
            f"with values {[int(bits[0, j]) for j in members_of(subset)]}"
        )
    return joint_rows / mass


def markov_joint_table(model):
    """The (2**d, C) joint table of a :class:`MarkovLabelModel`, extended one
    atom and one value at a time; feature j's value is bit j."""
    d, C = model.d, model.num_classes
    table = np.empty((1 << d, C))
    for y in range(C):
        dist = model.class_prior[y] * model.initial[y]
        for j in range(1, d):
            width = 1 << j
            nxt = np.zeros(width * 2)
            for atom in range(width):
                prev_bit = (atom >> (j - 1)) & 1
                for v in range(2):
                    nxt[atom | (v << j)] = dist[atom] * model.transitions[j - 1, y, prev_bit, v]
            dist = nxt
        table[:, y] = dist
    return table


def gather_log_probs(nb, tokens):
    """Naive-Bayes log-probabilities through the full (C, n, d) gather."""
    tokens = np.asarray(tokens, dtype=np.int64)
    scores = (nb.log_priors[:, None] + nb._padded_log_likelihoods[:, tokens].sum(axis=2)).T
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class GatherModel:
    """The naive-Bayes model evaluated by :func:`gather_log_probs`."""

    def __init__(self, nb):
        self.nb = nb
        self.num_classes = nb.num_classes

    def evaluate_batch(self, values):
        return gather_log_probs(self.nb, values)


class RecordingModel:
    """Passes rows on to a model and keeps a copy of every block it was given."""

    def __init__(self, inner):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.blocks = []

    def evaluate_batch(self, values):
        self.blocks.append(np.array(values, copy=True))
        return self.inner.evaluate_batch(values)


def _member_matrix(masks, d):
    width = (d + 7) // 8
    packed = b"".join(int(m).to_bytes(width, "little") for m in masks)
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=d, bitorder="little").view(bool)


class PluginValue:
    """Predicted-class log-probability under plug-in masking, memoized per
    subset; the full instance is valued first, on its own."""

    def __init__(self, model, instance, batch_size=DEFAULT_BATCH_SIZE):
        self.model = model
        self.instance = instance
        self.d = instance.d
        self.batch_size = batch_size
        self.cache = {}
        self.predicted = None

    @property
    def eval_count(self):
        return len(self.cache)

    def __contains__(self, mask):
        return mask in self.cache

    def _probs(self, masks):
        x = self.instance
        blocks = []
        for start in range(0, len(masks), self.batch_size):
            block = masks[start : start + self.batch_size]
            rows = np.where(_member_matrix(block, x.d), x.values, x.reference)
            blocks.append(np.exp(np.asarray(self.model.evaluate_batch(rows))))
        return np.concatenate(blocks, axis=0)

    def _logp(self, probs):
        return np.log(np.maximum(probs, LOG_PROB_FLOOR))[:, self.predicted]

    def prepare(self):
        if self.predicted is None:
            full = (1 << self.d) - 1
            probs = self._probs([full])
            self.predicted = int(np.argmax(probs[0] / probs[0].sum()))
            self.cache[full] = float(self._logp(probs)[0])

    def scores(self, masks):
        missing = []
        seen = set()
        for m in masks:
            if m not in self.cache and m not in seen:
                seen.add(m)
                missing.append(m)
        if missing:
            self.prepare()
            todo = [m for m in missing if m not in self.cache]
            if todo:
                for m, val in zip(todo, self._logp(self._probs(todo)).tolist()):
                    self.cache[m] = float(val)
        return np.array([self.cache[m] for m in masks], dtype=np.float64)


def marginal_sums(game, plan):
    """Scores and per-feature new-subset counts over (feature, terms) pairs,
    flushed once at least a batch of masks is pending."""
    scores = np.zeros(game.d)
    per_feature = []
    features, masks, weights, turns = [], [], [], []

    def flush():
        before = game.eval_count
        game.prepare()
        new = set()
        counts = []
        start = 0
        for end in turns:
            seen = len(new)
            new.update(m for m in masks[start:end] if m not in game)
            counts.append(len(new) - seen)
            start = end
        counts[0] += game.eval_count - before
        per_feature.extend(counts)
        values = game.scores(masks)
        np.add.at(scores, features, np.asarray(weights) * (values[0::2] - values[1::2]))
        for pending in (features, masks, weights, turns):
            pending.clear()

    for i, terms in plan:
        bit = 1 << i
        for mask, weight in terms:
            features.append(i)
            masks += (mask, mask & ~bit)
            weights.append(weight)
        turns.append(len(masks))
        if len(masks) >= DEFAULT_BATCH_SIZE:
            flush()
    if turns:
        flush()
    return scores, per_feature


def l_shapley_all(game, g, k):
    return marginal_sums(game, ((i, l_shapley_terms(g, i, k)) for i in range(g.d)))


def c_shapley_all(game, g, k, weighting="myerson"):
    return marginal_sums(game, ((i, c_shapley_terms(g, i, k, weighting)) for i in range(g.d)))


def weighted_marginal(values, i, terms):
    """One feature's estimate from a value map, adding terms in order from 0.0."""
    total = 0.0
    for mask, weight in terms:
        total += weight * (values(mask) - values(mask & ~(1 << i)))
    return total


class GraphRestrictedGame(SetFunction):
    """Component-additive extension of a base game over a graph.

    The value of a subset is the sum of the base game over the subset's
    connected components; the empty set scores zero.  With
    ``normalize_empty`` each component contributes v(T) - v(empty) instead,
    which keeps the extension faithful to games whose empty-set value is not
    zero (splitting a subset into more components then cannot multiply the
    baseline).  Base-game queries go through the wrapped game's cache, so
    ``inner.eval_count`` still reports distinct base evaluations.
    """

    def __init__(self, inner, graph, normalize_empty=False):
        if inner.d != graph.d:
            raise ConfigurationError(f"game has {inner.d} features but graph has {graph.d} nodes")
        super().__init__(inner.d)
        self.inner = inner
        self.graph = graph
        self.normalize_empty = normalize_empty

    def _evaluate_packed(self, rows):
        comps_per_mask = [connected_components(self.graph, m) for m in row_masks(rows)]
        all_comps = sorted({c for comps in comps_per_mask for c in comps})
        vals = dict(zip(all_comps, self.inner.scores(all_comps))) if all_comps else {}
        baseline = self.inner(0) if self.normalize_empty else 0.0
        return np.array([float(sum(vals[c] - baseline for c in comps)) for comps in comps_per_mask])


def decomposable_chain_game(d, graph, seed):
    """Random game that is additive over connected components of the graph."""
    return GraphRestrictedGame(synthetic_game(d, seed=seed), graph)


class JointValueFunction(SetFunction):
    """Subset score for one atom, with exact conditionals as the estimator.

    ``expected_logprob`` weighs log P(y | x_S) by the true conditional
    P(y | x); ``predicted_class_logprob`` reads off the argmax class.
    """

    def __init__(self, joint, values, mode="expected_logprob"):
        super().__init__(joint.d)
        self.model = ExactConditionalModel(joint)
        self.mode = mode
        self._values = np.asarray(values)
        base = conditional(self.model, self._values, (1 << joint.d) - 1)
        self._base = base
        self._pred = int(np.argmax(base))

    def _evaluate_packed(self, rows):
        out = []
        for m in row_masks(rows):
            cond = conditional(self.model, self._values, m)
            logp = np.log(np.maximum(cond, _TINY))
            if self.mode == "predicted_class_logprob":
                out.append(float(logp[self._pred]))
            else:
                out.append(float(np.sum(np.where(self._base > 0, self._base * logp, 0.0))))
        return np.array(out)
