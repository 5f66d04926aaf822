#!/usr/bin/env python
"""Wall-clock TEPS harness for the kernels-backed engines.

Unlike the ``bench_fig*`` suite, which reports *simulated* metrics,
this harness measures real host wall time: each configuration runs the
live engine (built on :mod:`repro.kernels`) and a baseline on the same
graph and sources, takes the best of ``--repeats`` runs, and reports
traversed edges per second for both plus the speedup.  The simulated
counters of the two engines are asserted equal on every run, so a
speedup can never come from doing different work.

``--backend`` picks the comparison:

``numpy`` (default)
    live kernels engine vs the frozen pre-kernels reference engine
    (:mod:`repro.kernels.reference`) — the PR 2 measurement, written to
    ``BENCH_core.json``.
``native``
    live engine with the compiled backend (:mod:`repro.native`) vs the
    same engine pinned to the numpy kernels — written to
    ``BENCH_native.json``.  ``native.warmup()`` runs once before any
    timing so JIT/compile cost is excluded, and the run fails outright
    if native is slower than numpy on any configuration.

``--check <baseline.json>`` re-runs the measurement and fails (exit 1)
if any configuration's speedup dropped below half the committed value —
a >2x TEPS regression relative to the recorded baseline, expressed as a
ratio so the check is machine-independent.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py --quick \
        --check BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py \
        --backend native --quick --check BENCH_native.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

import repro.native as native
from repro.core.bitwise import BitwiseTraversal
from repro.core.joint import JointTraversal
from repro.graph.generators import rmat
from repro.kernels.reference import (
    ReferenceBitwiseTraversal,
    ReferenceJointTraversal,
)
from repro.obs import metrics as obs_metrics
from repro.plan import HeuristicPolicy

SOURCE_SEED = 11

#: (name, scale, edge_factor, group_size, engine kind) per mode.  Low
#: edge factor keeps diameters high, so per-level fixed costs — exactly
#: what the kernels rewrite attacks — dominate the reference engine.
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
# carries entries --quick --check can match against in CI.
FULL_CONFIGS = QUICK_CONFIGS + FULL_CONFIGS

ENGINE_PAIRS = {
    "bitwise": (
        lambda g: BitwiseTraversal(g),
        lambda g: ReferenceBitwiseTraversal(g),
    ),
    "msbfs": (
        lambda g: BitwiseTraversal(
            g,
            reset_per_level=True,
            thread_per_instance=True,
            planner=HeuristicPolicy(early_termination=False),
        ),
        lambda g: ReferenceBitwiseTraversal(
            g,
            early_termination=False,
            reset_per_level=True,
            thread_per_instance=True,
        ),
    ),
    "joint": (
        lambda g: JointTraversal(g),
        lambda g: ReferenceJointTraversal(g),
    ),
}


def time_engine(make_engine, graph, sources, repeats, ctx=None):
    """Best-of-``repeats`` wall time plus the run's traversed edges.

    ``ctx`` is an optional context-manager factory entered around every
    construction+run (the native harness pins the kernel backend with
    it); engine setup stays inside the timed region as before.
    """
    ctx = ctx or contextlib.nullcontext
    best = float("inf")
    edges = None
    counters = None
    for _ in range(repeats):
        with ctx():
            engine = make_engine(graph)
            start = time.perf_counter()
            _, record, _ = engine.run_group(sources)
            elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
        edges = record.counters.edges_traversed
        counters = record.counters.__dict__
    return best, edges, counters


def run_config(name, scale, edge_factor, group_size, kind, repeats,
               backend="numpy"):
    graph = rmat(scale, edge_factor=edge_factor, seed=3)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = rng.integers(0, graph.num_vertices, size=group_size).tolist()
    make_after, make_before = ENGINE_PAIRS[kind]
    after_ctx = before_ctx = None
    if backend == "native":
        # Same live engine both sides; only the kernel backend differs.
        make_before = make_after
        before_ctx = lambda: native.force_backend("off")  # noqa: E731

    after_s, after_edges, after_counters = time_engine(
        make_after, graph, sources, repeats, after_ctx
    )
    before_s, before_edges, before_counters = time_engine(
        make_before, graph, sources, repeats, before_ctx
    )
    if after_counters != before_counters:
        raise AssertionError(
            f"{name}: kernels engine diverged from reference counters"
        )

    return {
        "name": name,
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=3",
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "group_size": group_size,
        "engine": kind,
        "edges_traversed": after_edges,
        "before": {"seconds": before_s, "teps": before_edges / before_s},
        "after": {"seconds": after_s, "teps": after_edges / after_s},
        "speedup": before_s / after_s,
    }


def publish(results, hub=None):
    """Register the harness's measurements into the process-wide
    metrics hub (:mod:`repro.obs.metrics`), so the wall-clock numbers
    export next to the engines' own counters."""
    hub = hub if hub is not None else obs_metrics.get_hub()
    for entry in results:
        labels = {"config": entry["name"]}
        hub.gauge(
            "bench_kernel_speedup",
            "Kernels-engine speedup over the frozen reference",
            labels=labels,
        ).set(entry["speedup"])
        hub.gauge(
            "bench_kernel_teps",
            "Kernels-engine wall-clock TEPS",
            labels=labels,
        ).set(entry["after"]["teps"])
    return hub


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graphs, fewer repeats (CI perf smoke)",
    )
    parser.add_argument(
        "--backend",
        choices=("numpy", "native"),
        default="numpy",
        help="baseline: 'numpy' times the kernels engine against the "
        "frozen reference; 'native' times the compiled backend against "
        "the numpy kernels (warm-up excluded)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats per engine"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="result JSON path (default: BENCH_core.json at repo root; "
        "BENCH_core.quick.json in --quick mode)",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="committed baseline JSON; exit 1 if any config's measured "
        "speedup is below half its recorded speedup",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    repeats = args.repeats or (2 if args.quick else 3)
    root = Path(__file__).resolve().parent.parent
    stem = "BENCH_core" if args.backend == "numpy" else "BENCH_native"
    output = args.output or (
        root / (f"{stem}.quick.json" if args.quick else f"{stem}.json")
    )

    warmup_seconds = None
    if args.backend == "native":
        if not native.available():
            print(
                "error: --backend native but no native backend resolved "
                f"({native.disabled_reason()})",
                file=sys.stderr,
            )
            return 2
        warmup_seconds = native.warmup()
        print(
            f"native backend: {native.backend_name()} "
            f"(warm-up {warmup_seconds * 1e3:.1f} ms, excluded from timings)",
            flush=True,
        )

    results = []
    for cfg in configs:
        print(f"[{cfg[0]}] running ({repeats} repeats per engine)...", flush=True)
        entry = run_config(*cfg, repeats, backend=args.backend)
        results.append(entry)
        print(
            f"  before {entry['before']['seconds']:.3f}s "
            f"({entry['before']['teps'] / 1e6:.1f} MTEPS)  "
            f"after {entry['after']['seconds']:.3f}s "
            f"({entry['after']['teps'] / 1e6:.1f} MTEPS)  "
            f"speedup {entry['speedup']:.2f}x",
            flush=True,
        )

    payload = {
        "benchmark": "kernel_walltime",
        "mode": "quick" if args.quick else "full",
        "backend": args.backend,
        "repeats": repeats,
        "metric": "wall-clock TEPS (simulated-counter edges / host seconds)",
        "results": results,
    }
    if args.backend == "native":
        payload["native_backend"] = native.backend_name()
        payload["warmup_seconds"] = warmup_seconds
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    publish(results)

    if args.backend == "native":
        slower = [r["name"] for r in results if r["speedup"] < 1.0]
        if slower:
            print(
                "REGRESSION: native slower than the numpy kernels on "
                + ", ".join(slower),
                file=sys.stderr,
            )
            return 1
        print("native gate passed: native >= numpy on every config")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        recorded = {r["name"]: r["speedup"] for r in baseline["results"]}
        failed = False
        for entry in results:
            floor = recorded.get(entry["name"])
            if floor is None:
                continue
            if entry["speedup"] < floor / 2:
                print(
                    f"REGRESSION {entry['name']}: speedup "
                    f"{entry['speedup']:.2f}x < half of recorded "
                    f"{floor:.2f}x",
                    file=sys.stderr,
                )
                failed = True
        if failed:
            return 1
        print("perf check passed: no config below half its recorded speedup")
    return 0


if __name__ == "__main__":
    sys.exit(main())
