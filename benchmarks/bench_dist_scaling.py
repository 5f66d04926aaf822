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
``BENCH_dist.quick.json`` in ``--quick`` mode).  ``--check`` gates:

* every configuration must be bit-identical (always enforced);
* the 2-partition 1d wall time must stay within ``--max-slowdown``
  (default 1.5x) of the 1-partition run — splitting the graph must not
  blow up the per-level constant factors;
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

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import IBFS, IBFSConfig
from repro.dist.engine import DistConfig, PartitionedEngine
from repro.graph.generators import rmat

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


def time_run(run, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graph and fewer sources (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration")
    parser.add_argument("--output", type=Path, default=None,
                        help="result JSON path (default: BENCH_dist.json "
                             "at repo root; BENCH_dist.quick.json with "
                             "--quick)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless all configurations are "
                             "bit-identical, 2 partitions stay within "
                             "--max-slowdown of 1, and sparse beats dense "
                             "on low-frontier levels")
    parser.add_argument("--max-slowdown", type=float, default=1.5,
                        help="allowed 2-partition / 1-partition wall "
                             "ratio under --check")
    args = parser.parse_args(argv)

    scale, edge_factor, group_size, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )
    repeats = args.repeats or (2 if args.quick else 3)
    root = Path(__file__).resolve().parent.parent
    output = args.output or (
        root / ("BENCH_dist.quick.json" if args.quick else "BENCH_dist.json")
    )

    graph = rmat(scale, edge_factor=edge_factor, seed=3)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = sorted(
        rng.choice(graph.num_vertices, size=num_sources, replace=False).tolist()
    )
    serial = IBFS(graph, IBFSConfig(group_size=group_size))

    print(
        f"graph rmat scale={scale} ef={edge_factor}: "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"{num_sources} sources in groups of {group_size}",
        flush=True,
    )

    reference = serial.run(sources, store_depths=True)
    serial_seconds = time_run(
        lambda: serial.run(sources, store_depths=False), repeats
    )
    print(f"[serial] {serial_seconds:.3f}s", flush=True)

    results = []
    walls = {}
    for num_partitions, layout in PARTITION_CONFIGS:
        engine = PartitionedEngine(
            graph,
            DistConfig(
                num_partitions=num_partitions,
                layout=layout,
                group_size=group_size,
            ),
        )
        verify = engine.run(sources, store_depths=True)
        if not np.array_equal(verify.depths, reference.depths):
            raise AssertionError(
                f"{layout}x{num_partitions} depths diverged from serial"
            )
        seconds = time_run(
            lambda: engine.run(sources, store_depths=False), repeats
        )
        stats = engine.last_stats
        walls[(num_partitions, layout)] = seconds
        entry = {
            "partitions": num_partitions,
            "layout": layout,
            "seconds": seconds,
            "vs_serial": seconds / serial_seconds,
            "bit_identical": True,
            "exchange_bytes": stats.bytes_total,
            "exchange_messages": stats.messages_total,
            "formats": stats.formats(),
            "modeled_exchange_seconds": sum(
                t.exchange_seconds for t in stats.levels
            ),
        }
        results.append(entry)
        print(
            f"[{layout}x{num_partitions}] {seconds:.3f}s  "
            f"bytes {stats.bytes_total}  formats {stats.formats()}",
            flush=True,
        )

    # Wire-format study on the 2-partition 1d decomposition: one group,
    # each format forced, plus the auto policy's per-level choices.
    study_group = serial.make_groups(sources)[0]
    format_levels = {}
    for fmt in ("dense", "sparse", "auto"):
        engine = PartitionedEngine(
            graph,
            DistConfig(
                num_partitions=2, exchange=fmt, group_size=group_size
            ),
        )
        run = engine.run_group(study_group)
        if not np.array_equal(
            run.depths, serial.run_group(study_group).depths
        ):
            raise AssertionError(f"forced {fmt} depths diverged from serial")
        format_levels[fmt] = engine.last_stats.levels
    dense_fixed = PartitionedEngine(
        graph, DistConfig(num_partitions=2, group_size=group_size)
    ).partitions.dense_bytes_per_level()
    level_rows = []
    for dense, sparse, auto in zip(
        format_levels["dense"], format_levels["sparse"], format_levels["auto"]
    ):
        level_rows.append(
            {
                "level": dense.level,
                "frontier_edges": dense.frontier_edges,
                "dense_bytes": dense.update_bytes,
                "sparse_bytes": sparse.update_bytes,
                "auto_fmt": auto.fmt,
                "auto_bytes": auto.update_bytes,
            }
        )
        print(
            f"[level {dense.level}] frontier_edges={dense.frontier_edges}  "
            f"dense={dense.update_bytes}B sparse={sparse.update_bytes}B "
            f"auto={auto.fmt}",
            flush=True,
        )

    payload = {
        "benchmark": "dist_scaling",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "metric": "host wall-clock seconds per full run (best of repeats)",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=3",
        "num_sources": num_sources,
        "group_size": group_size,
        "serial_seconds": serial_seconds,
        "results": results,
        "format_study": {
            "partitions": 2,
            "layout": "1d",
            "dense_bytes_per_level": dense_fixed,
            "levels": level_rows,
        },
    }

    failures = []
    if args.check:
        slowdown = walls[(2, "1d")] / walls[(1, "1d")]
        if slowdown > args.max_slowdown:
            failures.append(
                f"2-partition wall {slowdown:.2f}x single-partition "
                f"> {args.max_slowdown:.1f}x"
            )
        sparse_min = min(r["sparse_bytes"] for r in level_rows)
        if sparse_min >= dense_fixed:
            failures.append(
                f"sparse never beat dense: cheapest sparse level "
                f"{sparse_min}B >= dense broadcast {dense_fixed}B"
            )
        for row in level_rows:
            if row["auto_bytes"] > max(
                row["dense_bytes"], row["sparse_bytes"]
            ):
                failures.append(
                    f"auto paid {row['auto_bytes']}B on level "
                    f"{row['level']}, above both forced formats"
                )
        payload["check"] = {
            "max_slowdown": args.max_slowdown,
            "two_partition_slowdown": slowdown,
            "cheapest_sparse_bytes": sparse_min,
            "dense_bytes_per_level": dense_fixed,
            "passed": not failures,
            "failures": failures,
        }

    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    if args.check:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("dist scaling check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
