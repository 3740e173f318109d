"""Command-line interface.

Subcommands: ``explain`` (score one instance), ``evaluate`` (masking curves
over a dataset), ``lemma-check`` (exact combinatorial identity sweep),
``theorem-check`` (error-bound verification on random joints), and ``bench``
(evaluation-count accounting against the cost model).  All commands are
deterministic for a fixed seed; output files never embed wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigurationError, ShapgraphError
from .graphs import FeatureGraph, chain_graph, grid_graph
from .harness import (
    DEFAULT_FRACTIONS,
    METHODS,
    MethodSpec,
    compare_methods,
    curves_to_csv,
    load_dataset,
    load_pool,
)
from .models import (
    ExternalModelEndpoint,
    build_markov_model,
    external_model,
    train_naive_bayes,
    two_topic_corpus,
)
from .theory import check_value_matrix_size, lemma1_check, random_joint, verify_theorem1, verify_theorem2
from .valuation import ValueFunction

DEMO_CORPUS_SEED = 0
DEMO_VOCAB = 200
DEMO_DOC_LEN = 40


def build_demo_nb():
    """The deterministic two-topic naive Bayes used by ``--model builtin:nb``."""
    corpus = two_topic_corpus(DEMO_CORPUS_SEED, 500, doc_len=DEMO_DOC_LEN, vocab_size=DEMO_VOCAB)
    return train_naive_bayes(corpus, vocab_size=DEMO_VOCAB)


def parse_graph(text: str, d: int) -> FeatureGraph:
    token = text.strip().replace(":", " ")
    if token == "chain":
        return chain_graph(d)
    if token.startswith("grid"):
        dims = token[len("grid") :].strip()
        rows, _, cols = dims.partition("x")
        try:
            g = grid_graph(int(rows), int(cols))
        except ValueError:
            raise ConfigurationError(f"graph {text!r} needs positive dimensions, e.g. 'grid 5x5'") from None
        if g.d != d:
            raise ConfigurationError(f"grid {rows}x{cols} has {g.d} nodes but the instance has {d}")
        return g
    raise ConfigurationError(f"unknown graph spec {text!r}; use 'chain' or 'grid RxC'")


def resolve_model(spec: str, instance_d: int | None, seed: int):
    if spec == "builtin:nb":
        return build_demo_nb()
    if spec == "builtin:markov":
        if instance_d is None:
            raise ShapgraphError("builtin:markov needs an instance to infer d")
        return build_markov_model(seed, instance_d, mixing=0.5)
    if spec.startswith("external:cmd"):
        command = spec[len("external:cmd") :].strip()
        if not command:
            raise ShapgraphError("external:cmd needs a command line, e.g. 'external:cmd python host.py'")
        return external_model(ExternalModelEndpoint("subprocess", command))
    if spec.startswith("external:tcp"):
        address = spec[len("external:tcp") :].strip()
        return external_model(ExternalModelEndpoint("tcp", address))
    raise ShapgraphError(f"unknown model spec {spec!r}")


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_pool(path: str | None, estimator: str) -> np.ndarray | None:
    """The background pool of ``--pool``: the ``values`` of a JSON-lines dataset."""
    if estimator != "empirical":
        if path:
            raise ShapgraphError("--pool is only used by --estimator empirical")
        return None
    if not path:
        raise ShapgraphError("--estimator empirical needs --pool FILE (JSON lines, as for evaluate --dataset)")
    rows = load_pool(path)
    if not rows:
        raise ShapgraphError(f"pool file {path!r} holds no rows")
    if len({row.shape for row in rows}) > 1:
        raise ShapgraphError(f"pool file {path!r} holds rows of different lengths")
    return np.stack(rows)


def cmd_explain(args) -> int:
    for flag, value in (("--samples", args.samples), ("--permutations", args.permutations)):
        if value is not None and value < 1:
            raise ConfigurationError(f"{flag} must be at least 1, got {value}")
    instances, _ = load_dataset(args.input)
    if len(instances) != 1:
        raise ConfigurationError(f"input {args.input!r} must hold one instance, got {len(instances)}")
    instance = instances[0]
    pool = _load_pool(args.pool, args.estimator)
    model = resolve_model(args.model, instance.d, args.seed)
    graph = parse_graph(args.graph, instance.d)
    vf = ValueFunction(model, instance, estimator=args.estimator, mode=args.mode, pool=pool, seed=args.seed)
    samples = 4 * instance.d if args.samples is None else args.samples
    result = MethodSpec(args.method, args.k).plan(instance.d, graph, args.seed, args.permutations, samples).run(vf)
    result.seed = args.seed
    payload = result.to_json()
    if args.out:
        _write_json(args.out, payload)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    print(f"method={args.method} evals={result.model_evaluations}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    methods = [MethodSpec.parse(m) for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigurationError(f"--methods names no method, got {args.methods!r}")
    instances, labels = load_dataset(args.dataset)
    if not instances:
        raise ConfigurationError(f"dataset {args.dataset!r} holds no rows")
    model = resolve_model(args.model, instances[0].d, args.seed)
    graph = parse_graph(args.graph, instances[0].d)
    try:
        fractions = [float(f) for f in args.fractions.split(",")] if args.fractions else DEFAULT_FRACTIONS
    except ValueError:
        raise ConfigurationError(f"--fractions must be a comma list of numbers, got {args.fractions!r}") from None
    curves, eval_table = compare_methods(
        model,
        instances,
        methods,
        budget=args.budget,
        seed=args.seed,
        graph=graph,
        fractions=fractions,
        labels=labels,
        correct_only=args.correct_only,
    )
    csv_text = curves_to_csv(curves)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    for name in sorted(eval_table):
        print(f"evals[{name}] = {eval_table[name]}")
    return 0


def cmd_lemma_check(args) -> int:
    if min(args.max_n, args.max_s) < 0:
        raise ConfigurationError(f"--max-n and --max-s must be nonnegative, got {args.max_n} and {args.max_s}")
    failures = 0
    checked = 0
    for n in range(args.max_n + 1):
        for s in range(args.max_s + 1):
            for t in range(s + 1):
                result = lemma1_check(n, s, t)
                checked += 1
                if not result.equal:
                    failures += 1
                    print(f"MISMATCH at n={n} s={s} t={t}: {result.lhs} != {result.rhs}")
    print(f"checked {checked} identities up to n={args.max_n}, s={args.max_s}: "
          f"{'all exact' if failures == 0 else f'{failures} failures'}")
    return 0 if failures == 0 else 1


def cmd_theorem_check(args) -> int:
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")
    check_value_matrix_size(args.d)  # before any joint is drawn
    records = []
    all_hold = True
    for trial in range(args.trials):
        joint = random_joint(args.d, args.classes, args.seed + trial)
        graph = chain_graph(args.d)
        i = args.d // 2
        for theorem, verify in ((1, verify_theorem1), (2, verify_theorem2)):
            if args.theorem not in ("both", str(theorem)):
                continue
            report = verify(joint, graph, i, args.k)
            rec = {"trial": trial, "seed": args.seed + trial, "d": args.d}
            rec.update(report.to_json())
            records.append(rec)
            all_hold = all_hold and report.holds
    payload = {
        "config": {
            "trials": args.trials,
            "d": args.d,
            "k": args.k,
            "seed": args.seed,
            "classes": args.classes,
            "theorem": args.theorem,
        },
        "all_hold": all_hold,
        "records": records,
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"{len(records)} checks, all_hold={all_hold}")
    return 0 if all_hold else 1


def _bench_game(d: int):
    from .valuation import FunctionGame

    def value(mask: int) -> float:
        # content is irrelevant for counting; any cheap deterministic map works
        return float((mask % 997) - (mask % 31))

    return FunctionGame(d, value)


def cmd_bench(args) -> int:
    d = args.d
    k = args.k
    graph = parse_graph(args.graph, d)
    # k also serves as the permutation count of "sample"
    result = MethodSpec(args.method, k).plan(d, graph, 0, k, 4 * d).run(_bench_game(d))
    chain = graph.kind == "chain"
    # cost-model counts; the L- and C-Shapley ones are line-graph statements
    reference = {
        "l-shapley": (
            {"per_feature_bound": 2 ** (2 * k + 1), "total_model": 4**k * d} if chain else {}
        ),
        "c-shapley": {"total_model": 2 * k * k * d} if chain else {},
        "c-shapley-reg": {"row_bound": k * d},
        "sample": {"total_model": k * (d - 1) + d + 1},
        "kernelshap": {"total_model": 4 * d + 2},
    }.get(args.method, {})
    report = {
        "method": args.method,
        "d": d,
        "k": k,
        "graph": args.graph,
        "total_evaluations": result.model_evaluations,
        "reference": reference,
    }
    if result.per_feature_evaluations:
        report["per_feature_max"] = max(result.per_feature_evaluations)
        report["per_feature_interior_max"] = (
            max(result.per_feature_evaluations[1:-1]) if d > 2 else None
        )
    print(json.dumps(report, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shapgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="attribution scores for one instance")
    p.add_argument("--model", required=True,
                   help="builtin:nb | builtin:markov | external:cmd CMD | external:tcp HOST:PORT")
    p.add_argument("--graph", default="chain", help="chain | grid RxC")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--k", type=int, default=None, help="locality order (default: the method's own)")
    p.add_argument("--input", required=True, help="JSON file with values and reference")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--estimator", default="plugin", choices=["plugin", "empirical"])
    p.add_argument("--pool", default=None,
                   help="JSON-lines background pool for --estimator empirical (format of evaluate --dataset)")
    p.add_argument("--mode", default="predicted_class_logprob",
                   choices=["predicted_class_logprob", "expected_logprob"])
    p.add_argument("--permutations", type=int, default=10)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="masking curves for methods over a dataset")
    p.add_argument("--dataset", required=True, help="JSON-lines instances")
    p.add_argument("--methods", required=True, help="comma list, e.g. l-shapley,kernelshap,random")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--fractions", default=None, help="comma list starting at 0")
    p.add_argument("--out", default=None)
    p.add_argument("--model", default="builtin:nb")
    p.add_argument("--graph", default="chain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--correct-only", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("lemma-check", help="exact combinatorial identity sweep")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--max-s", type=int, default=12)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("theorem-check", help="error bounds on random joints")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--theorem", default="both", choices=["1", "2", "both"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_theorem_check)

    p = sub.add_parser("bench", help="evaluation counts vs the cost model")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--graph", default="chain")
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
