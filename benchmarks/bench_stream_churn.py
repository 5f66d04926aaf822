#!/usr/bin/env python
"""Repair-vs-recompute harness for the dynamic-graph layer.

For insert batches of increasing size (0.1%, 0.5%, 1% of |E|), prices
bringing a cached depth matrix up to date after the batch lands, two
ways:

* **repair** — fold the batch with :func:`repro.stream.apply_batch`
  and patch the cached matrix via
  :func:`repro.stream.repair_depth_matrix`;
* **recompute** — fold the batch and re-run the engine from scratch on
  the post-mutation graph.

Both paths are asserted bit-identical to a from-scratch traversal
before any number is trusted.  A second section runs closed-loop
serving with churn (:func:`repro.service.run_closed_loop`) and reports
how the epoch machinery behaved end to end — rows repaired
versus dropped (staleness that would have been served without
invalidation-by-keying) and cache hit rate under churn.

Results land in ``BENCH_stream.json`` at the repo root (or
``--output``; ``BENCH_stream.quick.json`` in ``--quick`` mode).
``--check`` gates:

* every repair must be bit-identical to scratch (always enforced);
* repair must beat full recomputation on every batch at or below 1%
  of |E| by at least ``--min-speedup`` (default 1.0x — repair must
  simply win);
* the churn loop must drop zero rows on insert-only churn (every
  cached row survives every epoch swap via repair).

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_churn.py          # full
    PYTHONPATH=src python benchmarks/bench_stream_churn.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_stream_churn.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import IBFS, IBFSConfig
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import rmat
from repro.service import (
    ChurnConfig,
    ServingConfig,
    WorkloadConfig,
    run_closed_loop,
)
from repro.stream import (
    DynamicBFSServer,
    MutationBatch,
    apply_batch,
    plan_repair,
    repair_depth_matrix,
)

BATCH_FRACTIONS = (0.001, 0.005, 0.01)

#: (scale, edge_factor, num_sources)
FULL_SHAPE = (13, 8, 32)
QUICK_SHAPE = (11, 8, 16)


def time_run(run, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graph and fewer sources (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per batch size")
    parser.add_argument("--output", type=Path, default=None,
                        help="result JSON path (default: BENCH_stream.json "
                             "at repo root; BENCH_stream.quick.json with "
                             "--quick)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless repair is bit-identical AND "
                             "beats recomputation on every <=1%% insert "
                             "batch AND insert-only churn drops no rows")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required recompute/repair wall ratio under "
                             "--check")
    args = parser.parse_args(argv)

    scale, edge_factor, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )
    repeats = args.repeats or (2 if args.quick else 3)
    root = Path(__file__).resolve().parent.parent
    output = args.output or (
        root / ("BENCH_stream.quick.json" if args.quick
                else "BENCH_stream.json")
    )

    graph = rmat(scale, edge_factor=edge_factor, seed=7)
    n, m = graph.num_vertices, graph.num_edges
    rng = np.random.default_rng(23)
    sources = sorted(
        rng.choice(n, size=num_sources, replace=False).tolist()
    )
    engine = IBFS(graph, IBFSConfig(group_size=num_sources))
    cached = engine.run_group(sources).depths

    print(
        f"graph rmat scale={scale} ef={edge_factor}: {n} vertices, "
        f"{m} edges; {num_sources} cached depth rows", flush=True,
    )

    results = []
    failures = []
    for fraction in BATCH_FRACTIONS:
        count = max(1, int(round(fraction * m)))
        batch = MutationBatch.make(
            n,
            inserts=(rng.integers(0, n, count, dtype=VERTEX_DTYPE),
                     rng.integers(0, n, count, dtype=VERTEX_DTYPE)),
        )
        new_graph = apply_batch(graph, batch)
        plan = plan_repair(batch, new_graph)

        scratch = IBFS(
            new_graph, IBFSConfig(group_size=num_sources)
        ).run_group(sources).depths

        repair_seconds, repaired = time_run(
            lambda: repair_depth_matrix(new_graph, batch, cached)[0],
            repeats,
        )
        if not np.array_equal(repaired, scratch):
            raise AssertionError(
                f"repair diverged from scratch at {fraction:.1%}"
            )

        recompute_seconds, _ = time_run(
            lambda: IBFS(
                new_graph, IBFSConfig(group_size=num_sources)
            ).run_group(sources).depths,
            repeats,
        )
        speedup = (
            recompute_seconds / repair_seconds
            if repair_seconds > 0 else float("inf")
        )
        entry = {
            "insert_fraction": fraction,
            "insert_edges": count,
            "plan_decision": plan.decision,
            "repair_seconds": repair_seconds,
            "recompute_seconds": recompute_seconds,
            "speedup": speedup,
            "bit_identical": True,
        }
        results.append(entry)
        print(
            f"[{fraction:.1%} = {count} edges] repair {repair_seconds:.4f}s"
            f"  recompute {recompute_seconds:.4f}s  "
            f"speedup {speedup:.2f}x  plan={plan.decision}",
            flush=True,
        )
        if speedup < args.min_speedup:
            failures.append(
                f"{fraction:.1%} batch: repair speedup {speedup:.2f}x "
                f"below required {args.min_speedup:.2f}x"
            )

    # End-to-end churn serving: insert-only churn must keep every
    # cached row hot (zero drops — the staleness-vs-repair-cost gate).
    churn_requests = 128 if args.quick else 512
    server = DynamicBFSServer(
        graph.copy(),  # the module-level graph stays frozen-free here
        ServingConfig(batch_size=8, cache_capacity=1024),
    )
    try:
        load = run_closed_loop(
            server,
            WorkloadConfig(num_requests=churn_requests, num_clients=16,
                           seed=5),
            ChurnConfig(mutate_every=max(16, churn_requests // 8),
                        inserts_per_batch=8, seed=11),
        )
        epochs = load.metrics["epochs"]
    finally:
        server.close()
    print(
        f"[churn] {load.completed} completed, "
        f"{epochs['published']} epochs, "
        f"{epochs['rows_repaired']} rows repaired, "
        f"{epochs['rows_dropped']} dropped, "
        f"hit rate {load.metrics['cache']['hit_rate']:.2f}",
        flush=True,
    )
    if epochs["rows_dropped"] != 0:
        failures.append(
            f"insert-only churn dropped {epochs['rows_dropped']} cached "
            "rows; repair should have kept them"
        )

    check = {
        "enforced": bool(args.check),
        "min_speedup": args.min_speedup,
        "failures": failures,
        "passed": not failures,
    }
    payload = {
        "benchmark": "stream_churn",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "metric": "host wall-clock seconds per cache refresh "
                  "(best of repeats)",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=7",
        "num_sources": num_sources,
        "results": results,
        "churn": {
            "requests": churn_requests,
            "completed": load.completed,
            "throughput": load.throughput,
            "cache_hit_rate": load.metrics["cache"]["hit_rate"],
            "epochs": {
                k: v for k, v in epochs.items() if k != "history"
            },
        },
        "check": check,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}", flush=True)

    if args.check and failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
