#!/usr/bin/env python
"""Observability overhead gate: profiling must stay within budget.

:mod:`repro.obs.profile` documents a hard ceiling — fully enabled
tracing + per-level profiling may slow the hot path by at most
``OVERHEAD_BUDGET`` (5%).  This harness measures it: each configuration
runs the bitwise engine with observability fully off and fully on
(tracer installed, ``sample_every=1``), takes the best of 3 (``--quick``)
or 5 wall clocks for each, and reports the overhead ratio
``enabled/disabled - 1``.

The gate is machine-independent (a ratio on the same host), so
``--check`` needs no committed baseline: it exits 1 if any
configuration exceeds the budget.  Results go to ``BENCH_obs.json``
(or ``BENCH_obs.quick.json`` with ``--quick``) as a
``repro.bench-ledger/v1`` ledger whose one metric per configuration is
the overhead fraction; host seconds and graph facts are attrs.
``--trace PATH`` additionally writes the final instrumented run's
spans and the harness's own hub metrics as a JSONL trace artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py            # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick --check
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick \
        --trace obs-trace.jsonl
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from harness import run_bench
from repro.core.bitwise import BitwiseTraversal
from repro.graph.generators import rmat
from repro.obs import export as obs_export
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import tracing as obs_tracing
from repro.obs.ledger import LOWER_IS_BETTER, BestOf, LedgerEntry, MetricPoint
from repro.obs.profile import OVERHEAD_BUDGET

SOURCE_SEED = 23

#: (name, scale, edge_factor, group_size).  Low edge factors raise the
#: diameter, maximizing levels — and therefore profile spans — per unit
#: of traversal work, which is the worst case for the budget.
FULL_CONFIGS = [
    ("bitwise-rmat15-ef2-gs64", 15, 2, 64),
    ("bitwise-rmat17-ef2-gs64", 17, 2, 64),
    ("bitwise-rmat13-ef8-gs32", 13, 8, 32),
]
QUICK_CONFIGS = [
    ("bitwise-rmat14-ef2-gs64", 14, 2, 64),
]
FULL_CONFIGS = QUICK_CONFIGS + FULL_CONFIGS


def observability_off():
    obs_profile.disable()
    obs_tracing.set_tracer(None)


def observability_on():
    tracer = obs_tracing.configure(process="bench")
    obs_profile.configure(enabled=True, sample_every=1)
    return tracer


def time_group(graph, sources, timer):
    """One joint group run on a fresh engine; only the run is timed."""
    engine = BitwiseTraversal(graph)
    with timer:
        engine.run_group(sources)


def run_config(name, scale, edge_factor, group_size, repeats):
    graph = rmat(scale, edge_factor=edge_factor, seed=5)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = rng.integers(0, graph.num_vertices, size=group_size).tolist()

    # Warm caches (allocator, BLAS threads) outside the measurement.
    observability_off()
    BitwiseTraversal(graph).run_group(sources)

    # Off and on runs interleave within each repeat so slow host drift
    # (frequency scaling, background load) hits both states equally
    # instead of biasing the enabled/disabled ratio; best-of-repeats
    # then strips the remaining one-sided noise.
    tracer = observability_on()
    off, on = BestOf(), BestOf()
    for _ in range(repeats):
        observability_off()
        time_group(graph, sources, off)
        obs_tracing.set_tracer(tracer)
        obs_profile.configure(enabled=True, sample_every=1)
        time_group(graph, sources, on)
    span_count = len(tracer.finished)
    observability_off()

    return LedgerEntry(
        name=name,
        metrics={"overhead": MetricPoint(
            on.seconds / off.seconds - 1.0, LOWER_IS_BETTER, "fraction"
        )},
        attrs={
            "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=5",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "group_size": group_size,
            "disabled_seconds": off.seconds,
            "enabled_seconds": on.seconds,
            "spans_per_run": span_count // repeats,
        },
    ), tracer


def publish(entries, hub):
    """Register the harness's measurements into ``hub``, so the
    overhead gate's numbers export like any other layer's."""
    for entry in entries:
        labels = {"config": entry.name}
        hub.gauge(
            "bench_obs_overhead_ratio",
            "Fully-enabled profiling slowdown (enabled/disabled - 1)",
            labels=labels,
        ).set(entry.metrics["overhead"].value)
        hub.gauge(
            "bench_obs_disabled_seconds",
            "Best-of-repeats wall seconds, observability off",
            labels=labels,
        ).set(entry.attrs["disabled_seconds"])
        hub.gauge(
            "bench_obs_enabled_seconds",
            "Best-of-repeats wall seconds, observability on",
            labels=labels,
        ).set(entry.attrs["enabled_seconds"])
    hub.gauge(
        "bench_obs_overhead_budget", "Documented overhead ceiling"
    ).set(OVERHEAD_BUDGET)
    return hub


def measure(args, ledger):
    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    repeats = 3 if args.quick else 5
    ledger.meta.update({
        "metric": "profiling overhead ratio (enabled/disabled - 1, best "
                  "of interleaved repeats)",
        "repeats": repeats,
        "budget": OVERHEAD_BUDGET,
    })

    failures = []
    last_tracer = None
    for cfg in configs:
        print(f"[{cfg[0]}] running ({repeats} repeats per state)...",
              flush=True)
        entry, last_tracer = run_config(*cfg, repeats)
        ledger.entries.append(entry)
        overhead = entry.metrics["overhead"].value
        print(
            f"  off {entry.attrs['disabled_seconds']:.3f}s  "
            f"on {entry.attrs['enabled_seconds']:.3f}s  "
            f"overhead {overhead:+.2%} "
            f"(budget {OVERHEAD_BUDGET:.0%}, "
            f"{entry.attrs['spans_per_run']} spans/run)",
            flush=True,
        )
        if overhead > OVERHEAD_BUDGET:
            failures.append(
                f"{entry.name}: overhead {overhead:+.2%} > "
                f"{OVERHEAD_BUDGET:.0%} budget"
            )

    if args.trace is not None:
        hub = publish(ledger.entries, obs_metrics.MetricsHub())
        count = obs_export.write_jsonl(
            str(args.trace), obs_export.trace_records(last_tracer, hub)
        )
        print(f"wrote {args.trace} ({count} records)")
    return failures


def add_trace_argument(parser):
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="write the last instrumented run's spans plus the "
        "harness metrics as a JSONL trace artifact",
    )


def main(argv=None):
    return run_bench("obs", "obs_overhead", measure, argv, __doc__,
                     add_arguments=add_trace_argument)


if __name__ == "__main__":
    sys.exit(main())
