#!/usr/bin/env python
"""Wall-clock TEPS harness: the compiled kernels against the numpy kernels.

Unlike the ``bench_fig*`` suite, which reports *simulated* metrics,
this harness measures real host wall time: each configuration runs the
same live engine twice on the same graph and sources — once with the
compiled backend (:mod:`repro.native`), once pinned to the numpy
kernels — takes the best of 2 (``--quick``) or 3 runs, and reports
traversed edges per second for both plus the speedup.  The simulated
counters of the two runs are asserted equal, so a speedup can never
come from doing different work.  ``native.warmup()`` runs once before
any timing so compile cost is excluded.

Results go to ``BENCH_native.json`` (``BENCH_native.quick.json`` with
``--quick``) as a ``repro.bench-ledger/v1`` ledger whose one metric
per configuration is the speedup; seconds and TEPS are attrs.
``--check`` fails (exit 1) if native is slower than numpy on any
configuration.  The committed ledger's speedups are floors: CI runs
``repro bench-diff BENCH_native.json BENCH_native.quick.json
--tolerance 0.5``, which fails when a quick configuration's speedup
falls below half its recorded value — a >2x TEPS regression,
expressed as a ratio so the check is machine-independent.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py --quick --check
    PYTHONPATH=src python -m repro.cli bench-diff BENCH_native.json \
        BENCH_native.quick.json --tolerance 0.5                     # CI
"""

from __future__ import annotations

import sys

import numpy as np

import repro.native as native
from harness import run_bench
from repro.core.bitwise import BitwiseTraversal
from repro.core.joint import JointTraversal
from repro.graph.generators import rmat
from repro.obs.ledger import HIGHER_IS_BETTER, BestOf, LedgerEntry, MetricPoint
from repro.plan import HeuristicPolicy

SOURCE_SEED = 11

#: (name, scale, edge_factor, group_size, engine kind) per mode.  Low
#: edge factor keeps diameters high, so per-level fixed costs dominate.
FULL_CONFIGS = [
    ("bitwise-rmat18-ef2-gs64", 18, 2, 64, "bitwise"),
    ("bitwise-rmat19-ef2-gs64", 19, 2, 64, "bitwise"),
    ("msbfs-rmat16-ef2-gs64", 16, 2, 64, "msbfs"),
    ("joint-rmat13-ef8-gs32", 13, 8, 32, "joint"),
]
QUICK_CONFIGS = [
    ("bitwise-rmat15-ef2-gs64", 15, 2, 64, "bitwise"),
    ("joint-rmat11-ef8-gs32", 11, 8, 32, "joint"),
]
# Full mode also runs the quick configs so the committed baseline
# carries entries the quick run's bench-diff can match against in CI.
FULL_CONFIGS = QUICK_CONFIGS + FULL_CONFIGS

ENGINES = {
    "bitwise": lambda g: BitwiseTraversal(g),
    "msbfs": lambda g: BitwiseTraversal(
        g,
        reset_per_level=True,
        thread_per_instance=True,
        planner=HeuristicPolicy(early_termination=False),
    ),
    "joint": lambda g: JointTraversal(g),
}


def time_engine(make_engine, graph, sources, repeats, backend):
    """Best-of-``repeats`` wall time plus the run's counters, with the
    kernel backend pinned to ``backend`` (``None``: the resolved native
    provider; ``"off"``: the numpy kernels).  Engine setup stays outside
    the timed region."""
    timer = BestOf()
    for _ in range(repeats):
        with native.force_backend(backend):
            engine = make_engine(graph)
            with timer:
                _, record, _ = engine.run_group(sources)
    return timer.seconds, record.counters


def run_config(name, scale, edge_factor, group_size, kind, repeats):
    graph = rmat(scale, edge_factor=edge_factor, seed=3)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = rng.integers(0, graph.num_vertices, size=group_size).tolist()
    make_engine = ENGINES[kind]

    native_s, native_counters = time_engine(
        make_engine, graph, sources, repeats, None
    )
    numpy_s, numpy_counters = time_engine(
        make_engine, graph, sources, repeats, "off"
    )
    if native_counters != numpy_counters:
        raise AssertionError(
            f"{name}: native kernels diverged from the numpy counters"
        )

    edges = native_counters.edges_traversed
    return LedgerEntry(
        name=name,
        metrics={"speedup": MetricPoint(
            numpy_s / native_s, HIGHER_IS_BETTER, "x"
        )},
        attrs={
            "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=3",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "group_size": group_size,
            "engine": kind,
            "edges_traversed": edges,
            "numpy_seconds": numpy_s,
            "numpy_teps": edges / numpy_s,
            "native_seconds": native_s,
            "native_teps": edges / native_s,
        },
    )


def measure(args, ledger):
    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    repeats = 2 if args.quick else 3

    if not native.available():
        print(
            "error: no native backend resolved "
            f"({native.disabled_reason()})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    warmup_seconds = native.warmup()
    print(
        f"native backend: {native.backend_name()} "
        f"(warm-up {warmup_seconds * 1e3:.1f} ms, excluded from timings)",
        flush=True,
    )
    ledger.meta.update({
        "metric": "speedup = numpy / native host wall seconds per group "
                  "run (best of repeats)",
        "repeats": repeats,
        "native_backend": native.backend_name(),
        "warmup_seconds": warmup_seconds,
    })

    failures = []
    for cfg in configs:
        print(f"[{cfg[0]}] running ({repeats} repeats per backend)...", flush=True)
        entry = run_config(*cfg, repeats)
        ledger.entries.append(entry)
        speedup = entry.metrics["speedup"].value
        print(
            f"  numpy {entry.attrs['numpy_seconds']:.3f}s "
            f"({entry.attrs['numpy_teps'] / 1e6:.1f} MTEPS)  "
            f"native {entry.attrs['native_seconds']:.3f}s "
            f"({entry.attrs['native_teps'] / 1e6:.1f} MTEPS)  "
            f"speedup {speedup:.2f}x",
            flush=True,
        )
        if speedup < 1.0:
            failures.append(
                f"{entry.name}: native slower than the numpy kernels "
                f"({speedup:.2f}x)"
            )
    return failures


def main(argv=None):
    return run_bench("native", "kernel_walltime", measure, argv, __doc__)


if __name__ == "__main__":
    sys.exit(main())
