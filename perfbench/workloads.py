"""The four benchmark workloads and the checks on their outputs.

Every op draws its input from a fixed pool of seeded inputs whose reference
outputs are recorded in ``refs.json`` (regenerate with ``make_refs.py``).  The
workload seed only chooses which pool inputs each cycle uses, so every seed
can be checked against the same references, and evaluation counts, which
depend on graph structure and method seeds but not on token values, repeat
exactly across seeds.

An op builds a fresh ``ValueFunction``, so no op reuses an earlier op's cache.
Calls go through module attributes (``sg.l_shapley_all``) so that the traced
run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from dataclasses import dataclass, field

import numpy as np

import shapgraph as sg
from shapgraph import cli, harness

POOL_SIZE = 16
CHAIN_D = 400
# wire documents are shorter: at d=400 an explanation takes about 1.8 s over
# the wire, so a 25 s run holds some 14 ops and its tail percentile falls
# below its median; at d=100 a run holds about 50
WIRE_CHAIN_D = 100
GRID_ROWS = GRID_COLS = 10
EXACT_D = 16
MYERSON_D = 15
THEORY_D = 10
# pool corpus seeds, fixed so that refs.json stays valid for every workload seed
CHAIN_POOL_SEED = 101
GRID_POOL_SEED = 102
EXACT_POOL_SEED = 201
MYERSON_POOL_SEED = 202
THEORY_POOL_SEED = 300

# criterion 10 of the acceptance suite: test corpus seed 1, budget 4d, seed 0
MASKING_POOL_SEED = 1
MASKING_POOL_SIZE = 200
MASKING_D = 40
MASKING_METHODS = ("l-shapley:1", "c-shapley-reg:4", "kernelshap", "sample", "random")
MASKING_BUDGET = 4 * MASKING_D
MASKING_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
MASKING_METHOD_SEED = 0
# documents per masking cycle; the criterion-10 check runs on their mean curves
MASKING_DOCS_PER_CYCLE = 16

RTOL = 1e-6
ATOL = 1e-9
DIGEST_FULL_LIMIT = 16
_PROJECTIONS = np.random.default_rng(1808_02610).standard_normal((3, 1024))


def digest(values: np.ndarray) -> list[float]:
    """Short vectors in full; longer ones as their sum and three fixed Gaussian
    projections, which move when any single entry moves."""
    values = np.asarray(values, dtype=np.float64)
    if values.size <= DIGEST_FULL_LIMIT:
        return values.tolist()
    return [float(values.sum())] + (_PROJECTIONS[:, : values.size] @ values).tolist()


@dataclass
class Output:
    values: np.ndarray  # scores, curve or theorem figures
    evals: int  # distinct subsets valued by the op
    game: object = None  # exact only: the value function, dropped after the check
    holds: bool | None = None  # theorem reports only


@dataclass
class OpResult:
    kind: str
    item: int
    seconds: float
    output: Output | None
    error: str | None
    op_id: int = -1
    start: float = 0.0  # perf_counter at the start of the op
    ref_seconds: float = 0.0  # latency in reference seconds (probe.py)


def _pool(seed: int, d: int, size: int = POOL_SIZE) -> list[sg.Instance]:
    """Seeded documents, masked against the all-padding reference."""
    return [sg.Instance(tokens, np.zeros(d, dtype=int)) for tokens, _ in sg.two_topic_corpus(seed, size, doc_len=d)]


def _explain(model, x, estimator, graph, k) -> Output:
    vf = sg.ValueFunction(model, x)
    result = estimator(vf, graph, k)
    return Output(result.scores, vf.eval_count)


@dataclass
class Context:
    model: object
    pools: dict = field(default_factory=dict)
    graphs: dict = field(default_factory=dict)
    channel: object = None  # wire only: the model server's stdio channel
    model_file: str | None = None


class Workload:
    name = ""
    refs_group = ""
    kinds: tuple[str, ...] = ()
    mix: tuple[str, ...] = ()  # op kinds of one cycle, when not one of each kind
    warmup = ("", 0)
    subset_free: tuple[str, ...] = ()  # kinds that value no subsets
    # Collect garbage after each op, untimed.  Where one op's tables take
    # megabytes, the collector otherwise frees them during the next op or
    # after it, depending on timing, and peak RSS takes one of two values.
    collect_after_op = False

    def setup(self, work_dir: str) -> Context:
        raise NotImplementedError

    def run(self, ctx: Context, kind: str, item: int) -> Output:
        raise NotImplementedError

    def cycle(self, rng: np.random.Generator) -> list[tuple[str, int]]:
        return [(kind, int(rng.integers(POOL_SIZE))) for kind in self.mix or self.kinds]

    def check(self, kind: str, item: int, out: Output, refs: dict) -> str | None:
        ref = refs[self.refs_group][kind][item]
        if not np.all(np.isfinite(out.values)):
            return "non-finite output"
        if out.evals != ref["evals"]:
            return f"valued {out.evals} subsets, reference {ref['evals']}"
        if not np.allclose(digest(out.values), ref["digest"], rtol=RTOL, atol=ATOL):
            return "output differs from the reference"
        return None

    def check_cycle(self, results: list[OpResult]) -> None:
        pass

    def close(self, ctx: Context) -> None:
        pass


class Local(Workload):
    """The paper's linear-cost estimators with the in-process demo model."""

    name = "local"
    refs_group = "local"
    kinds = ("l_chain", "c_chain", "c_grid")
    # c_grid takes about 7x as long as c_chain; with 2/3/1 ops per cycle the
    # chain explanations get about half of the time, not a quarter.
    mix = ("l_chain", "c_chain", "c_chain", "c_grid", "l_chain", "c_chain")
    warmup = ("l_chain", 0)
    chain_d = CHAIN_D

    def setup(self, work_dir):
        ctx = Context(cli.build_demo_nb())
        ctx.pools = {"chain": _pool(CHAIN_POOL_SEED, self.chain_d), "grid": _pool(GRID_POOL_SEED, GRID_ROWS * GRID_COLS)}
        ctx.graphs = {"chain": sg.chain_graph(self.chain_d), "grid": sg.grid_graph(GRID_ROWS, GRID_COLS)}
        return ctx

    def run(self, ctx, kind, item):
        if kind == "l_chain":
            return _explain(ctx.model, ctx.pools["chain"][item], sg.l_shapley_all, ctx.graphs["chain"], 2)
        if kind == "c_chain":
            return _explain(ctx.model, ctx.pools["chain"][item], sg.c_shapley_all, ctx.graphs["chain"], 3)
        return _explain(ctx.model, ctx.pools["grid"][item], sg.c_shapley_all, ctx.graphs["grid"], 2)


class Wire(Local):
    """The chain explanations of ``local``, on shorter documents, against the
    same model served over stdio by ``python -m shapgraph.model_server``."""

    name = "wire"
    refs_group = "wire"
    kinds = ("l_chain", "c_chain")
    mix = kinds
    chain_d = WIRE_CHAIN_D

    def setup(self, work_dir):
        nb = cli.build_demo_nb()
        model_file = os.path.join(work_dir, f"wire-model-{os.getpid()}.json")
        with open(model_file, "w") as fh:
            json.dump(nb.to_json(), fh)
        command = f"{shlex.quote(sys.executable)} -m shapgraph.model_server --model-file {shlex.quote(model_file)}"
        model = sg.external_model(sg.ExternalModelEndpoint("subprocess", command))
        ctx = Context(model, model_file=model_file)
        # kept so that close() can wait for the server process to end
        ctx.channel = model._channel
        ctx.pools = {"chain": _pool(CHAIN_POOL_SEED, self.chain_d)}
        ctx.graphs = {"chain": sg.chain_graph(self.chain_d)}
        return ctx

    def close(self, ctx):
        ctx.model.close()
        ctx.channel.proc.wait(timeout=30)
        os.remove(ctx.model_file)


class Dense(Workload):
    """Computations over every subset: exact Shapley, Myerson, theorem checks."""

    name = "dense"
    refs_group = "dense"
    kinds = ("exact", "myerson_chain", "myerson_grid", "theorem1", "theorem2")
    # Latencies rise in the order myerson_chain, myerson_grid, theorem1,
    # theorem2, exact.  With four ops on either side of the myerson_grid ops,
    # the median over all ops falls in the middle of those, which are 3 of
    # the 11 ops of a cycle, so it rests on enough ops to repeat.
    mix = ("exact", "myerson_chain", "myerson_grid", "theorem1", "myerson_chain", "myerson_grid",
           "exact", "myerson_chain", "myerson_grid", "theorem2", "myerson_chain")
    warmup = ("myerson_chain", 0)
    subset_free = ("theorem1", "theorem2")
    collect_after_op = True

    def setup(self, work_dir):
        ctx = Context(cli.build_demo_nb())
        ctx.pools = {
            "exact": _pool(EXACT_POOL_SEED, EXACT_D),
            "myerson": _pool(MYERSON_POOL_SEED, MYERSON_D),
            "joints": [sg.random_joint(THEORY_D, 2, THEORY_POOL_SEED + j) for j in range(POOL_SIZE)],
        }
        ctx.graphs = {
            "chain": sg.chain_graph(MYERSON_D),
            "grid": sg.grid_graph(3, 5),
            "theory": sg.chain_graph(THEORY_D),
        }
        return ctx

    def run(self, ctx, kind, item):
        if kind == "exact":
            vf = sg.ValueFunction(ctx.model, ctx.pools["exact"][item])
            return Output(sg.exact_shapley(vf).scores, vf.eval_count, vf)
        if kind.startswith("myerson"):
            vf = sg.ValueFunction(ctx.model, ctx.pools["myerson"][item])
            graph = ctx.graphs["chain" if kind == "myerson_chain" else "grid"]
            return Output(sg.myerson_value(vf, graph).scores, vf.eval_count)
        verify = sg.verify_theorem1 if kind == "theorem1" else sg.verify_theorem2
        report = verify(ctx.pools["joints"][item], ctx.graphs["theory"], THEORY_D // 2, 1)
        figures = np.array([report.epsilon, report.expected_error, report.bound])
        return Output(figures, 0, holds=report.holds)

    def check(self, kind, item, out, refs):
        error = super().check(kind, item, out, refs)
        if error:
            return error
        if out.holds is False:
            return "theorem report does not hold"
        if kind == "exact":
            game = out.game
            v_full, v_empty = game.scores([(1 << game.d) - 1, 0])
            gap = abs(out.values.sum() - (v_full - v_empty))
            if gap > 1e-9 * (1.0 + abs(v_full - v_empty)):
                return f"exact scores break efficiency by {gap:.3g}"
        return None


class Masking(Workload):
    """Criterion-10 masking protocol, one document under one method per op."""

    name = "masking"
    refs_group = "masking"
    kinds = MASKING_METHODS
    warmup = ("kernelshap", 0)
    subset_free = ("random",)

    def setup(self, work_dir):
        ctx = Context(cli.build_demo_nb())
        ctx.pools = {"docs": _pool(MASKING_POOL_SEED, MASKING_D, MASKING_POOL_SIZE)}
        return ctx

    def cycle(self, rng):
        docs = rng.choice(MASKING_POOL_SIZE, size=MASKING_DOCS_PER_CYCLE, replace=False)
        return [(method, int(j)) for method in MASKING_METHODS for j in docs]

    def run(self, ctx, kind, item):
        curves, table = harness.compare_methods(
            ctx.model,
            [ctx.pools["docs"][item]],
            [kind],
            budget=MASKING_BUDGET,
            seed=MASKING_METHOD_SEED,
            fractions=MASKING_FRACTIONS,
        )
        name = harness.MethodSpec.parse(kind).name
        return Output(curves[0].mean_log_odds_change, table[name])

    def check_cycle(self, results):
        """Every method's mean curve lies strictly below ``random`` at every
        nonzero fraction; a method that fails marks its ops in the cycle."""
        if any(r.output is None for r in results):
            return
        mean = {
            kind: np.mean([r.output.values for r in results if r.kind == kind], axis=0)
            for kind in MASKING_METHODS
        }
        baseline = mean["random"]
        for kind in MASKING_METHODS[:-1]:
            if not np.all(mean[kind][1:] < baseline[1:]):
                for r in results:
                    if r.kind == kind and r.error is None:
                        r.error = "mean masking curve not strictly below random"


WORKLOADS = {w.name: w for w in (Local(), Dense(), Masking(), Wire())}
