#!/usr/bin/env python3
"""shapgraph benchmark: one seeded workload per process, closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload local --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Workloads are ``local``, ``dense``, ``masking`` and ``wire`` (see
``workloads.py`` and ``BENCHMARK.json``); ``all`` runs each in a fresh
process, one after another.  One client runs one op at a time.
Ops run in cycles, one cycle being the workload's fixed mix of op kinds; new
cycles start while the next one is expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  Op times are reported in
reference seconds: wall seconds scaled by the host speed that ``probe.py``
measures around each op, because on a shared host wall seconds of the same
code drift by up to 1.5x between runs.  The wall-clock figures are printed on
a comment line.  ``--trace 1`` installs the span
wrappers of ``spans.py`` on every other cycle and prints the per-layer
metrics, the median over traced cycles of each cycle's total, plus the
tracing overhead measured against the untraced cycles of the same run.  The
last line of standard output is the JSON result; the lines before it are the
same figures for people, with the run environment.  Files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
BLAS_THREADS = 1
MMAP_THRESHOLD = 128 * 1024
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h
WORKLOADS = ("local", "dense", "masking", "wire")
SETUP_REPEATS = 5
MIN_CYCLES = 4
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another in fresh processes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    # BLAS threads are pinned before numpy loads; the loop is single-client,
    # so one thread keeps runs comparable on any core count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the wire workload's model server imports shapgraph from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))


def pin_allocator() -> int | None:
    """Fix glibc's mmap threshold; returns it, or None where there is no mallopt.

    glibc raises the threshold as large blocks are freed, after which large
    arrays come from the heap, and where they land there depends on the order
    of earlier frees: peak RSS of the same code on ``dense`` read 83.6 or 91.3
    MB from run to run.  With a fixed threshold every block of at least
    MMAP_THRESHOLD bytes is mapped on its own and unmapped when freed.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None or mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return None
    return MMAP_THRESHOLD


def environment(mmap_threshold: int | None) -> dict:
    import numpy as np

    from shapgraph import _kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "use_numba": bool(_kernels.USE_NUMBA),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "malloc_mmap_threshold": mmap_threshold,
        "machine": platform.machine(),
    }


def fresh_import_seconds() -> float:
    """Start-up and import time of a fresh interpreter, the first part of a set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import shapgraph"], check=True)
    return time.perf_counter() - start


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(command).returncode or status
    return status


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def rates(workload, results) -> dict[str, float]:
    """Throughput of ``results`` in reference seconds (``probe.py``).

    ``ops_per_ref_s`` divides the successful ops by the time of all ops, so a
    failed op lowers it however fast it was.  ``subsets_per_ref_s`` counts the
    successful ops that value subsets.
    """
    ok = [r for r in results if r.error is None]
    valued = [r for r in ok if r.kind not in workload.subset_free]
    return {
        "ops_per_ref_s": len(ok) / sum(r.ref_seconds for r in results),
        "subsets_per_ref_s": (sum(r.output.evals for r in valued) / sum(r.ref_seconds for r in valued)
                              if valued else 0.0),
    }


def run_op(workload, ctx, kind, item, refs, tracer=None, op_id=-1):
    from workloads import OpResult

    if tracer is not None:
        tracer.begin_op(op_id, kind)
    start = time.perf_counter()
    try:
        out, error = workload.run(ctx, kind, item), None
    except Exception as exc:  # a failing op is counted, never fatal
        out, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    if error is None:
        error = workload.check(kind, item, out, refs)
        out.game = None  # a kept cache would grow the heap that later ops traverse
    return OpResult(kind, item, seconds, out, error, op_id, start)


def kernel_timings() -> dict[str, float]:
    """The numpy-path kernel timings of benchmarks/kernel_bench.py (best of 3,
    ms), through the public kernel entry points."""
    import numpy as np

    import shapgraph as sg
    from shapgraph import _kernels
    from shapgraph.attribution import exact_shapley_weights

    def best(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1e3 * min(times)

    rng = np.random.default_rng(0)
    out = {}
    for d in (12, 15, 18):
        values = rng.normal(size=(1 << d, 1))
        w = exact_shapley_weights(d)
        out[f"kernels.bench_shapley_scatter_d{d}_ms"] = best(lambda: _kernels.shapley_scatter(values, d, w))
    for label, graph in (("chain12", sg.chain_graph(12)), ("grid3x5", sg.grid_graph(3, 5))):
        adj = np.asarray(graph.adjacency, dtype=np.int64)
        out[f"kernels.bench_components_{label}_ms"] = best(lambda: _kernels.lowbit_component_masks(adj, graph.d))
        comp = _kernels.lowbit_component_masks(adj, graph.d)
        raw = rng.normal(size=1 << graph.d)
        out[f"kernels.bench_component_table_{label}_ms"] = best(lambda: _kernels.component_sum_table(comp, raw))
    for d in (14, 16):
        mask = (1 << (d // 2)) - 1
        out[f"kernels.bench_restriction_d{d}_ms"] = best(lambda: _kernels.restriction_indices(d, mask))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "shapgraph" / "__init__.py").is_file():
        print(f"error: no shapgraph sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    mmap_threshold = pin_allocator()
    import numpy as np

    import probe
    import spans
    import workloads

    env = environment(mmap_threshold)
    with open(HERE / "refs.json") as fh:
        refs = json.load(fh)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]

    results = []
    setup_runs = []
    ctx = None
    try:
        for rep in range(SETUP_REPEATS):
            if ctx is not None:
                workload.close(ctx)
                ctx = None
            imports = fresh_import_seconds()
            t = time.perf_counter()
            ctx = workload.setup(str(OUT_DIR))
            results.append(run_op(workload, ctx, *workload.warmup, refs))
            setup_runs.append(imports + time.perf_counter() - t)

        rng = np.random.default_rng(args.seed)
        tracer = spans.Tracer() if args.trace else None
        host = probe.Probe()
        cycles = []  # (results, traced)
        op_id = 0
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(cycles) % 2 == 1
            if traced:
                tracer.install()
            batch = []
            for kind, item in workload.cycle(rng):
                op_id += 1
                host.due()
                batch.append(run_op(workload, ctx, kind, item, refs, tracer if traced else None, op_id))
                if workload.collect_after_op:
                    gc.collect()
            if tracer is not None:
                tracer.uninstall()
            workload.check_cycle(batch)
            cycles.append((batch, traced))
            elapsed = time.perf_counter() - begin
            if len(cycles) >= MIN_CYCLES and elapsed * (len(cycles) + 1) / len(cycles) > args.seconds:
                break
        host.run()
    finally:
        if ctx is not None:
            workload.close(ctx)
    measured = time.perf_counter() - begin

    timed = [r for batch, _ in cycles for r in batch]
    for r in timed:
        r.ref_seconds = r.seconds * host.scale(r.start, r.start + r.seconds)
    results.extend(timed)
    attempted = len(results)
    failed = sum(r.error is not None for r in results)
    ok = [r for r in timed if r.error is None]
    probe_s = host.seconds()
    notes = {}
    metrics = {}
    if not args.trace:
        tail_ref, tail_pct, tail_n = tail([r.ref_seconds for r in ok]) if ok else (0.0, 0.0, 0)
        metrics = {
            "setup_s": statistics.median(setup_runs),
            **rates(workload, timed),
            "op_p50_ref_s": statistics.median(r.ref_seconds for r in ok) if ok else 0.0,
            "op_tail_ref_s": tail_ref,
            "evals_total": statistics.median(
                sum(r.output.evals for r in batch if r.output is not None) for batch, _ in cycles
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (attempted - failed) / attempted,
        }
        notes["op_tail_ref_s"] = f"p{tail_pct:.1f} of {tail_n} ops, {TAIL_BEYOND} beyond"
        notes["setup_s"] = f"median of {SETUP_REPEATS} set-ups {[round(s, 3) for s in setup_runs]}"
        notes["evals_total"] = "distinct subsets valued per cycle"
        if ok:
            wall_tail, _, _ = tail([r.seconds for r in ok])
            notes["wall"] = (f"wall clock, not reported: {len(ok) / sum(r.seconds for r in timed):.4g} ops/s, "
                             f"p50 {statistics.median(r.seconds for r in ok):.4g} s, "
                             f"p{tail_pct:.1f} {wall_tail:.4g} s")
    else:
        totals = spans.op_totals(tracer)
        per_cycle = [spans.combine([totals[r.op_id] for r in batch]) for batch, traced in cycles if traced]
        metrics = {key: statistics.median(c[key] for c in per_cycle) for key in per_cycle[0]}
        traced_rate = rates(workload, [r for b, t in cycles if t for r in b])["ops_per_ref_s"]
        plain_rate = rates(workload, [r for b, t in cycles if not t for r in b])["ops_per_ref_s"]
        metrics["trace.ops_per_ref_s_traced"] = traced_rate
        metrics["trace.ops_per_ref_s_untraced"] = plain_rate
        metrics["trace.overhead"] = plain_rate / traced_rate - 1.0
        if workload.name == "dense":
            metrics.update(kernel_timings())
        notes["per_layer"] = f"median over {len(per_cycle)} traced cycles of per-cycle totals; 0 where the workload does not reach the layer"
        notes["kernels.table_bytes"] = "computed from array sizes, not measured traffic"
        tracer.write(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"),
                     {"workload": args.workload, "seed": args.seed, "env": env})
    notes["probe"] = (f"host probe: {len(probe_s)} runs, median {1e3 * statistics.median(probe_s):.4g} ms, "
                      f"reference {1e3 * probe.REF_S:g} ms")

    section = bench["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in section}

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {len(cycles)} cycles, "
          f"{attempted} ops ({failed} failed) in {measured:.1f} s")
    for name, m in reported.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    for key in ("per_layer", "probe", "wall"):
        if key in notes:
            print(f"# {notes[key]}")
    for kind in workload.kinds:
        mine = [r for r in ok if r.kind == kind]
        if mine:
            print(f"# {kind}: median {statistics.median(r.ref_seconds for r in mine):.4g} ref_s, "
                  f"{statistics.median(r.seconds for r in mine):.4g} s over {len(mine)} ops")
    for r in [r for r in results if r.error is not None][:5]:
        print(f"# failed op {r.kind}[{r.item}]: {r.error}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "notes": notes, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
