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
``--output``; ``BENCH_stream.quick.json`` in ``--quick`` mode) as a
``repro.bench-ledger/v1`` ledger: one ``inserts-<fraction>`` entry per
batch size whose metric is the recompute/repair wall ratio (host
seconds are attrs), and a ``churn`` entry with the serving loop's
simulated throughput, cache hit rate and rows repaired and dropped.
``--check`` gates:

* every repair must be bit-identical to scratch (always enforced);
* repair must beat full recomputation on every batch at or below 1%
  of |E| by at least 1.0x — repair must simply win;
* the churn loop must drop zero rows on insert-only churn (every
  cached row survives every epoch swap via repair).

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_churn.py          # full
    PYTHONPATH=src python benchmarks/bench_stream_churn.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_stream_churn.py --quick --check
"""

from __future__ import annotations

import sys

import numpy as np

from harness import run_bench
from repro.core.engine import IBFS, IBFSConfig
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import rmat
from repro.obs.ledger import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    BestOf,
    LedgerEntry,
    MetricPoint,
)
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

#: Required recompute/repair wall ratio on every batch.
MIN_SPEEDUP = 1.0


def measure(args, ledger):
    scale, edge_factor, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )
    repeats = 2 if args.quick else 3

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

        repair = BestOf()
        for _ in range(repeats):
            with repair:
                repaired = repair_depth_matrix(new_graph, batch, cached)[0]
        if not np.array_equal(repaired, scratch):
            raise AssertionError(
                f"repair diverged from scratch at {fraction:.1%}"
            )

        recompute = BestOf()
        for _ in range(repeats):
            with recompute:
                IBFS(
                    new_graph, IBFSConfig(group_size=num_sources)
                ).run_group(sources)
        speedup = (
            recompute.seconds / repair.seconds
            if repair.seconds > 0 else float("inf")
        )
        ledger.entries.append(LedgerEntry(
            name=f"inserts-{fraction:.1%}",
            metrics={"speedup": MetricPoint(speedup, HIGHER_IS_BETTER, "x")},
            attrs={
                "insert_fraction": fraction,
                "insert_edges": count,
                "plan_decision": plan.decision,
                "repair_seconds": repair.seconds,
                "recompute_seconds": recompute.seconds,
            },
        ))
        print(
            f"[{fraction:.1%} = {count} edges] repair {repair.seconds:.4f}s"
            f"  recompute {recompute.seconds:.4f}s  "
            f"speedup {speedup:.2f}x  plan={plan.decision}",
            flush=True,
        )
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"{fraction:.1%} batch: repair speedup {speedup:.2f}x "
                f"below required {MIN_SPEEDUP:.2f}x"
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
    hit_rate = load.metrics["cache"]["hit_rate"]
    print(
        f"[churn] {load.completed} completed, "
        f"{epochs['published']} epochs, "
        f"{epochs['rows_repaired']} rows repaired, "
        f"{epochs['rows_dropped']} dropped, "
        f"hit rate {hit_rate:.2f}",
        flush=True,
    )
    if epochs["rows_dropped"] != 0:
        failures.append(
            f"insert-only churn dropped {epochs['rows_dropped']} cached "
            "rows; repair should have kept them"
        )
    ledger.entries.append(LedgerEntry(
        name="churn",
        metrics={
            "sim_throughput": MetricPoint(
                load.throughput, HIGHER_IS_BETTER, "1/s"
            ),
            "cache_hit_rate": MetricPoint(
                hit_rate, HIGHER_IS_BETTER, "fraction"
            ),
            "rows_repaired": MetricPoint(
                epochs["rows_repaired"], HIGHER_IS_BETTER, "count"
            ),
            "rows_dropped": MetricPoint(
                epochs["rows_dropped"], LOWER_IS_BETTER, "count"
            ),
        },
        attrs={
            "requests": churn_requests,
            "completed": load.completed,
            **{
                k: v for k, v in epochs.items()
                if k not in ("history", "rows_repaired", "rows_dropped")
            },
        },
    ))
    ledger.meta.update({
        "metric": "recompute/repair host wall ratio per cache refresh "
                  "(best of repeats); churn on the simulated clock",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=7",
        "num_sources": num_sources,
        "repeats": repeats,
        "min_speedup": MIN_SPEEDUP,
    })
    return failures


def main(argv=None):
    return run_bench("stream", "stream_churn", measure, argv, __doc__)


if __name__ == "__main__":
    sys.exit(main())
