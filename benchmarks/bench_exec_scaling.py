#!/usr/bin/env python
"""Wall-clock scaling harness for the multi-process execution backend.

Measures real host wall time of :class:`repro.exec.GroupExecutor` over
1/2/4/8 workers against the serial :class:`repro.core.engine.IBFS`
baseline on the same graph and sources.  The baseline engine runs every
level on one thread (it is built and timed with
``repro.native.LEVEL_THREADS = 1``), so the speedup keeps meaning
processes over one core; the in-process engine on
:func:`repro.native.level_threads` threads is timed too and recorded
beside it (``meta["inprocess_seconds"]``).  Every worker count's result is
asserted bit-identical to the serial engine (depths, counters, group
stats) before its timing is trusted, and one fault-injected
configuration (a worker crashed mid-run) must also reproduce the serial
result exactly — a speedup can never come from doing different or
wrong work.

Results land in ``BENCH_exec.json`` at the repo root (or ``--output``;
``BENCH_exec.quick.json`` in ``--quick`` mode) as a
``repro.bench-ledger/v1`` ledger: one ``workers-<n>`` entry per worker
count whose metric is the speedup over serial; host seconds, steals and
per-worker task counts are attrs.  ``--check`` gates:

* the fault-injected run must be bit-identical (always enforced);
* the 2-worker speedup must reach 1.3x — enforced only when the host
  has at least 2 usable CPUs, since genuine parallel speedup is
  physically impossible on a single core; ``meta`` records
  ``cpu_count`` and whether the gate applied.

Usage::

    PYTHONPATH=src python benchmarks/bench_exec_scaling.py          # full
    PYTHONPATH=src python benchmarks/bench_exec_scaling.py --check  # CI
    PYTHONPATH=src python benchmarks/bench_exec_scaling.py --quick --check
"""

from __future__ import annotations

import sys

import numpy as np

import repro.native as native
from harness import run_bench
from repro.core.engine import IBFS, IBFSConfig
from repro.exec import ExecConfig, FaultPlan, FaultPolicy, GroupExecutor
from repro.graph.generators import rmat
from repro.obs.ledger import HIGHER_IS_BETTER, BestOf, LedgerEntry, MetricPoint

SOURCE_SEED = 11

#: (scale, edge_factor, group_size, num_sources) — enough groups that
#: placement matters (stealing has victims) but each group is a real
#: traversal, so per-task compute dwarfs the IPC round-trip.
FULL_SHAPE = (14, 4, 8, 96)
QUICK_SHAPE = (13, 4, 8, 64)

FULL_WORKER_COUNTS = (1, 2, 4, 8)
QUICK_WORKER_COUNTS = (1, 2)

#: Required 2-worker speedup on a host with at least 2 cores.
MIN_SPEEDUP = 1.3


def same_result(a, b) -> bool:
    """Bit-identity of two ConcurrentResults (the executor contract)."""
    if a.sources != b.sources or a.seconds != b.seconds:
        return False
    if a.counters.__dict__ != b.counters.__dict__:
        return False
    if len(a.groups) != len(b.groups):
        return False
    for ga, gb in zip(a.groups, b.groups):
        if ga.__dict__ != gb.__dict__:
            return False
    if (a.depths is None) != (b.depths is None):
        return False
    if a.depths is not None and not np.array_equal(a.depths, b.depths):
        return False
    return True


def measure(args, ledger):
    scale, edge_factor, group_size, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )
    worker_counts = QUICK_WORKER_COUNTS if args.quick else FULL_WORKER_COUNTS
    repeats = 2 if args.quick else 3
    cpu_count = native.usable_cpus()

    graph = rmat(scale, edge_factor=edge_factor, seed=3)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = sorted(
        rng.choice(graph.num_vertices, size=num_sources, replace=False).tolist()
    )
    config = IBFSConfig(group_size=group_size)

    print(
        f"graph rmat scale={scale} ef={edge_factor}: "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"{num_sources} sources in groups of {group_size}; "
        f"{cpu_count} usable CPUs",
        flush=True,
    )

    # The engine reads its level-thread budget when it first runs.
    budget, native.LEVEL_THREADS = native.LEVEL_THREADS, 1
    try:
        engine = IBFS(graph, config)
        reference = engine.run(sources, store_depths=True)
        serial = BestOf()
        for _ in range(repeats):
            with serial:
                engine.run(sources, store_depths=False)
    finally:
        native.LEVEL_THREADS = budget
    print(f"[serial, one level thread] {serial.seconds:.3f}s", flush=True)
    threaded_engine = IBFS(graph, config)
    if not same_result(reference, threaded_engine.run(sources, store_depths=True)):
        raise AssertionError("threaded in-process result diverged from serial")
    inprocess = BestOf()
    for _ in range(repeats):
        with inprocess:
            threaded_engine.run(sources, store_depths=False)
    print(
        f"[in-process, {native.level_threads()} level threads] "
        f"{inprocess.seconds:.3f}s",
        flush=True,
    )

    speedups = {}
    for workers in worker_counts:
        with GroupExecutor(
            graph, config, exec_config=ExecConfig(num_workers=workers)
        ) as executor:
            # Verification pass doubles as pool warm-up, so fork/attach
            # cost is excluded from the timed runs.
            verify = executor.run(sources, store_depths=True)
            if not same_result(reference, verify):
                raise AssertionError(
                    f"{workers}-worker result diverged from serial"
                )
            timer = BestOf()
            for _ in range(repeats):
                with timer:
                    executor.run(sources, store_depths=False)
            stats = executor.last_stats
        speedups[workers] = serial.seconds / timer.seconds
        ledger.entries.append(LedgerEntry(
            name=f"workers-{workers}",
            metrics={"speedup": MetricPoint(
                speedups[workers], HIGHER_IS_BETTER, "x"
            )},
            attrs={
                "workers": workers,
                "seconds": timer.seconds,
                "backend": stats.backend,
                "steals": stats.steals,
                "per_worker_tasks": dict(stats.per_worker_tasks),
            },
        ))
        print(
            f"[{workers} workers] {timer.seconds:.3f}s  "
            f"speedup {speedups[workers]:.2f}x  "
            f"steals {stats.steals}",
            flush=True,
        )

    # Fault-injected run: crash the worker holding task 1 on its first
    # attempt; the retried run must still reproduce the serial result.
    with GroupExecutor(
        graph,
        config,
        exec_config=ExecConfig(
            num_workers=2,
            fault_plan=FaultPlan(crash={1: 1}),
            faults=FaultPolicy(max_retries=2),
        ),
    ) as executor:
        faulted = executor.run(sources, store_depths=True)
        fault_stats = executor.last_stats
    fault_identical = same_result(reference, faulted)
    print(
        f"[fault-injected] crashes={fault_stats.crashes} "
        f"retries={fault_stats.retries} "
        f"bit_identical={fault_identical}",
        flush=True,
    )

    # The host facts travel with the numbers: a reader of the ledger
    # sees how many cores ran it and whether the speedup gate applied.
    gate_enforced = cpu_count >= 2
    ledger.meta.update({
        "metric": "speedup = serial (one level thread) / executor host "
                  "wall seconds per full run (best of repeats)",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=3",
        "num_sources": num_sources,
        "group_size": group_size,
        "repeats": repeats,
        "serial_seconds": serial.seconds,
        "serial_level_threads": 1,
        "inprocess_seconds": inprocess.seconds,
        "min_speedup": MIN_SPEEDUP,
        "speedup_gate_enforced": gate_enforced,
        "fault_injected": {
            "workers": 2,
            "injected": "crash task 1 attempt 0",
            "bit_identical": fault_identical,
            "crashes": fault_stats.crashes,
            "retries": fault_stats.retries,
            "respawns": fault_stats.respawns,
        },
    })

    failures = []
    if not fault_identical:
        failures.append("fault-injected run diverged from serial")
    if fault_stats.crashes < 1:
        failures.append("injected crash never fired")
    if not gate_enforced:
        print(
            f"host has {cpu_count} core(s); the {MIN_SPEEDUP:.1f}x "
            "2-worker gate needs >= 2 and is skipped"
        )
    elif speedups[2] < MIN_SPEEDUP:
        failures.append(
            f"2-worker speedup {speedups[2]:.2f}x < {MIN_SPEEDUP:.1f}x"
        )
    return failures


def main(argv=None):
    return run_bench("exec", "exec_scaling", measure, argv, __doc__)


if __name__ == "__main__":
    sys.exit(main())
