#!/usr/bin/env python
"""Wall-clock TEPS harness: the compiled kernels against the numpy kernels.

Unlike the ``bench_fig*`` suite, which reports *simulated* metrics,
this harness measures real host wall time: each configuration runs the
same live engine twice on the same graph and sources — once with the
compiled backend (:mod:`repro.native`), once pinned to the numpy
kernels — takes the best of ``--repeats`` runs, and reports traversed
edges per second for both plus the speedup.  The simulated counters of
the two runs are asserted equal, so a speedup can never come from doing
different work.  ``native.warmup()`` runs once before any timing so
JIT/compile cost is excluded, and the run fails outright if native is
slower than numpy on any configuration.  Results go to
``BENCH_native.json`` (``BENCH_native.quick.json`` with ``--quick``).

``--check <baseline.json>`` re-runs the measurement and fails (exit 1)
if any configuration's speedup dropped below half the committed value —
a >2x TEPS regression relative to the recorded baseline, expressed as a
ratio so the check is machine-independent.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel_walltime.py --quick \
        --check BENCH_native.json                                     # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import repro.native as native
from repro.core.bitwise import BitwiseTraversal
from repro.core.joint import JointTraversal
from repro.graph.generators import rmat
from repro.obs import metrics as obs_metrics
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
# carries entries --quick --check can match against in CI.
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
    best = float("inf")
    counters = None
    for _ in range(repeats):
        with native.force_backend(backend):
            engine = make_engine(graph)
            start = time.perf_counter()
            _, record, _ = engine.run_group(sources)
            elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        counters = record.counters
    return best, counters


def run_config(name, scale, edge_factor, group_size, kind, repeats):
    graph = rmat(scale, edge_factor=edge_factor, seed=3)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = rng.integers(0, graph.num_vertices, size=group_size).tolist()
    make_engine = ENGINES[kind]

    after_s, after_counters = time_engine(
        make_engine, graph, sources, repeats, None
    )
    before_s, before_counters = time_engine(
        make_engine, graph, sources, repeats, "off"
    )
    if after_counters != before_counters:
        raise AssertionError(
            f"{name}: native kernels diverged from the numpy counters"
        )

    edges = after_counters.edges_traversed
    return {
        "name": name,
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=3",
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "group_size": group_size,
        "engine": kind,
        "edges_traversed": edges,
        "before": {"seconds": before_s, "teps": edges / before_s},
        "after": {"seconds": after_s, "teps": edges / after_s},
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
            "Native-kernel speedup over the numpy kernels",
            labels=labels,
        ).set(entry["speedup"])
        hub.gauge(
            "bench_kernel_teps",
            "Native-kernel wall-clock TEPS",
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
        "--repeats", type=int, default=None, help="timing repeats per engine"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="result JSON path (default: BENCH_native.json at repo root; "
        "BENCH_native.quick.json in --quick mode)",
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
    output = args.output or (
        root / ("BENCH_native.quick.json" if args.quick else "BENCH_native.json")
    )

    if not native.available():
        print(
            "error: no native backend resolved "
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
        print(f"[{cfg[0]}] running ({repeats} repeats per backend)...", flush=True)
        entry = run_config(*cfg, repeats)
        results.append(entry)
        print(
            f"  numpy {entry['before']['seconds']:.3f}s "
            f"({entry['before']['teps'] / 1e6:.1f} MTEPS)  "
            f"native {entry['after']['seconds']:.3f}s "
            f"({entry['after']['teps'] / 1e6:.1f} MTEPS)  "
            f"speedup {entry['speedup']:.2f}x",
            flush=True,
        )

    payload = {
        "benchmark": "kernel_walltime",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "metric": "wall-clock TEPS (simulated-counter edges / host seconds)",
        "results": results,
        "native_backend": native.backend_name(),
        "warmup_seconds": warmup_seconds,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    publish(results)

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
