#!/usr/bin/env python
"""Scaling and wire-format harness for the partitioned engine.

Runs :class:`repro.dist.engine.PartitionedEngine` over 1/2/4 partitions
under both layouts against the serial :class:`repro.core.engine.IBFS`
baseline on the same graph and sources.  Every configuration's depth
matrix is asserted bit-identical to the serial engine before its
numbers are trusted — partitioning changes communication, never depths.

Two things are measured per configuration:

* real host wall seconds of the full multi-group run (the engine
  executes partitions sequentially in one process, so this prices the
  partitioning *overhead*, not parallel speedup);
* exact exchange accounting — per-level wire bytes and messages under
  the forced ``dense``/``sparse`` formats and the ``auto`` policy.

Results land in ``BENCH_dist.json`` at the repo root (or ``--output``;
``BENCH_dist.quick.json`` in ``--quick`` mode) as a
``repro.bench-ledger/v1`` ledger.  Each ``<layout>x<partitions>``
entry's metrics are its wall time relative to serial and its exact
exchange bytes, messages and modelled exchange seconds; each
``format-level-<n>`` entry carries one level's update bytes under each
wire format.  ``--check`` gates:

* every configuration must be bit-identical (always enforced);
* the 2-partition 1d wall time must stay within 1.5x of the
  1-partition run — splitting the graph must not blow up the
  per-level constant factors;
* sparse must beat dense on low-frontier levels: the auto run's
  cheapest sparse level must cost fewer update bytes than the fixed
  dense broadcast, and auto must never price a level above both forced
  formats.

Usage::

    PYTHONPATH=src python benchmarks/bench_dist_scaling.py          # full
    PYTHONPATH=src python benchmarks/bench_dist_scaling.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_dist_scaling.py --quick --check
"""

from __future__ import annotations

import sys

import numpy as np

from harness import run_bench
from repro.core.engine import IBFS, IBFSConfig
from repro.dist.engine import DistConfig, PartitionedEngine
from repro.graph.generators import rmat
from repro.obs.ledger import LOWER_IS_BETTER, BestOf, LedgerEntry, MetricPoint

SOURCE_SEED = 17

#: (scale, edge_factor, group_size, num_sources)
FULL_SHAPE = (13, 4, 8, 48)
QUICK_SHAPE = (11, 4, 8, 24)

PARTITION_CONFIGS = (
    (1, "1d"),
    (2, "1d"),
    (4, "1d"),
    (2, "2d"),
    (4, "2d"),
)

#: Allowed 2-partition / 1-partition wall ratio.
MAX_SLOWDOWN = 1.5


def lower(value, unit):
    return MetricPoint(value, LOWER_IS_BETTER, unit)


def measure(args, ledger):
    scale, edge_factor, group_size, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )
    repeats = 2 if args.quick else 3

    graph = rmat(scale, edge_factor=edge_factor, seed=3)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = sorted(
        rng.choice(graph.num_vertices, size=num_sources, replace=False).tolist()
    )
    config = IBFSConfig(group_size=group_size)
    serial = IBFS(graph, config)

    print(
        f"graph rmat scale={scale} ef={edge_factor}: "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"{num_sources} sources in groups of {group_size}",
        flush=True,
    )

    reference = serial.run(sources, store_depths=True)
    serial_timer = BestOf()
    for _ in range(repeats):
        with serial_timer:
            serial.run(sources, store_depths=False)
    print(f"[serial] {serial_timer.seconds:.3f}s", flush=True)

    walls = {}
    for num_partitions, layout in PARTITION_CONFIGS:
        engine = PartitionedEngine(
            graph,
            DistConfig(num_partitions=num_partitions, layout=layout),
            config,
        )
        verify = engine.run(sources, store_depths=True)
        if not np.array_equal(verify.depths, reference.depths):
            raise AssertionError(
                f"{layout}x{num_partitions} depths diverged from serial"
            )
        timer = BestOf()
        for _ in range(repeats):
            with timer:
                engine.run(sources, store_depths=False)
        stats = engine.last_stats
        walls[(num_partitions, layout)] = timer.seconds
        ledger.entries.append(LedgerEntry(
            name=f"{layout}x{num_partitions}",
            metrics={
                "vs_serial": lower(timer.seconds / serial_timer.seconds, "x"),
                "exchange_bytes": lower(stats.bytes_total, "bytes"),
                "exchange_messages": lower(stats.messages_total, "count"),
                "modeled_exchange_seconds": lower(
                    sum(t.exchange_seconds for t in stats.levels), "s"
                ),
            },
            attrs={
                "partitions": num_partitions,
                "layout": layout,
                "seconds": timer.seconds,
                "formats": stats.formats(),
            },
        ))
        print(
            f"[{layout}x{num_partitions}] {timer.seconds:.3f}s  "
            f"bytes {stats.bytes_total}  formats {stats.formats()}",
            flush=True,
        )

    # Wire-format study on the 2-partition 1d decomposition: one group,
    # each format forced, plus the auto policy's per-level choices.
    study_group = serial.make_groups(sources)[0]
    format_levels = {}
    for fmt in ("dense", "sparse", "auto"):
        engine = PartitionedEngine(
            graph, DistConfig(num_partitions=2, exchange=fmt), config
        )
        run = engine.run_group(study_group)
        if not np.array_equal(
            run.depths, serial.run_group(study_group).depths
        ):
            raise AssertionError(f"forced {fmt} depths diverged from serial")
        format_levels[fmt] = engine.last_stats.levels
    dense_fixed = PartitionedEngine(
        graph, DistConfig(num_partitions=2), config
    ).partitions.dense_bytes_per_level()
    failures = []
    sparse_min = None
    for dense, sparse, auto in zip(
        format_levels["dense"], format_levels["sparse"], format_levels["auto"]
    ):
        ledger.entries.append(LedgerEntry(
            name=f"format-level-{dense.level}",
            metrics={
                "dense_bytes": lower(dense.update_bytes, "bytes"),
                "sparse_bytes": lower(sparse.update_bytes, "bytes"),
                "auto_bytes": lower(auto.update_bytes, "bytes"),
            },
            attrs={
                "frontier_edges": dense.frontier_edges,
                "auto_fmt": auto.fmt,
            },
        ))
        print(
            f"[level {dense.level}] frontier_edges={dense.frontier_edges}  "
            f"dense={dense.update_bytes}B sparse={sparse.update_bytes}B "
            f"auto={auto.fmt}",
            flush=True,
        )
        if sparse_min is None or sparse.update_bytes < sparse_min:
            sparse_min = sparse.update_bytes
        if auto.update_bytes > max(dense.update_bytes, sparse.update_bytes):
            failures.append(
                f"auto paid {auto.update_bytes}B on level {dense.level}, "
                "above both forced formats"
            )

    slowdown = walls[(2, "1d")] / walls[(1, "1d")]
    if slowdown > MAX_SLOWDOWN:
        failures.append(
            f"2-partition wall {slowdown:.2f}x single-partition "
            f"> {MAX_SLOWDOWN:.1f}x"
        )
    if sparse_min >= dense_fixed:
        failures.append(
            f"sparse never beat dense: cheapest sparse level "
            f"{sparse_min}B >= dense broadcast {dense_fixed}B"
        )
    ledger.meta.update({
        "metric": "host wall seconds relative to serial (best of repeats) "
                  "and exact exchange accounting",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=3",
        "num_sources": num_sources,
        "group_size": group_size,
        "repeats": repeats,
        "serial_seconds": serial_timer.seconds,
        "max_slowdown": MAX_SLOWDOWN,
        "two_partition_slowdown": slowdown,
        "format_study": {
            "partitions": 2,
            "layout": "1d",
            "dense_bytes_per_level": dense_fixed,
        },
    })
    return failures


def main(argv=None):
    return run_bench("dist", "dist_scaling", measure, argv, __doc__)


if __name__ == "__main__":
    sys.exit(main())
