#!/usr/bin/env python3
"""Regenerate ``refs.json``: the evaluation counts and output digests that the
benchmark checks every op against.

Usage, from the repository root: ``python3 perfbench/make_refs.py``

Every pool input of every op kind is run once in process.  ``wire``'s
references are made with its model in process, because the served model is
the same naive Bayes.  For
``masking`` it also reports how often the criterion-10 check would fail on a
random cycle of documents, which must be never.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

REFS_PATH = os.path.join(HERE, "refs.json")
CHECKED_CYCLES = 50000


def record(workload: wl.Workload) -> dict:
    ctx = workload.setup(HERE)
    pool = wl.MASKING_POOL_SIZE if workload.name == "masking" else wl.POOL_SIZE
    group = {}
    try:
        for kind in workload.kinds:
            rows = []
            for item in range(pool):
                out = workload.run(ctx, kind, item)
                if out.holds is False:
                    raise SystemExit(f"{workload.name}/{kind}/{item}: theorem does not hold")
                rows.append({"evals": out.evals, "digest": wl.digest(out.values)})
            group[kind] = rows
            print(f"{workload.name}/{kind}: {pool} inputs, evals {sorted({r['evals'] for r in rows})}")
    finally:
        workload.close(ctx)
    return group


class InProcessWire(wl.Local):
    """The wire workload's ops with the model in process, so that the
    references also catch errors of the transport."""

    name = "wire"
    kinds = wl.WORKLOADS["wire"].kinds
    chain_d = wl.WIRE_CHAIN_D


def masking_margin(group: dict) -> None:
    curves = {kind: np.array([r["digest"] for r in group[kind]]) for kind in wl.MASKING_METHODS}
    rng = np.random.default_rng(0)
    failures = 0
    worst = -np.inf
    for _ in range(CHECKED_CYCLES):
        docs = rng.choice(wl.MASKING_POOL_SIZE, size=wl.MASKING_DOCS_PER_CYCLE, replace=False)
        baseline = curves["random"][docs].mean(axis=0)[1:]
        for kind in wl.MASKING_METHODS[:-1]:
            gap = (curves[kind][docs].mean(axis=0)[1:] - baseline).max()
            worst = max(worst, gap)
            failures += gap >= 0
    print(f"masking: {failures} criterion-10 failures in {CHECKED_CYCLES} random cycles "
          f"of {wl.MASKING_DOCS_PER_CYCLE} documents (closest gap to random {worst:.2e})")
    if failures:
        raise SystemExit("masking cycles are too small for the criterion-10 check")


def main() -> int:
    refs = {}
    for name in ("local", "dense", "masking"):
        refs[name] = record(wl.WORKLOADS[name])
    refs["wire"] = record(InProcessWire())
    masking_margin(refs["masking"])
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
