"""Shared infrastructure for the benchmark suite.

Two kinds of benchmark live here.

**Figure benches** (the ``bench_fig*``, ``bench_ablation_*`` and other
pytest benches) each regenerate one table or figure from the paper's
evaluation (section 8) from *simulated* metrics.  Conventions:

* graphs come from :func:`repro.graph.benchmarks.benchmark_graph` at a
  scale controlled by the ``REPRO_BENCH_SCALE`` environment variable
  (``scale_delta``, default 0 — the suite's native laptop scale);
* the number of BFS instances per experiment is controlled by
  ``REPRO_BENCH_SOURCES`` (default 128, the paper's APSP scaled down —
  several groups of 32, so GroupBy has real choices to make);
* each benchmark prints a plain-text reproduction of the figure's rows
  and writes the same table under ``benchmarks/results/`` so
  EXPERIMENTS.md can reference stable artifacts;
* pytest-benchmark measures harness wall time; the *simulated* metrics
  (TEPS, transactions) are attached as ``extra_info``.

**Host wall-clock benches** (exec, dist, stream, plan, obs, native and
the runtime dispatch gate) run as scripts.  Each times with
:class:`repro.obs.BestOf`, fills a ``repro.bench-ledger/v1`` ledger and
hands it to :func:`run_bench`, which owns their shared command line
(``--quick``, ``--check``, ``--output``), the ``BENCH_<name>.json``
path and the gate verdict.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro import (
    IBFS,
    IBFSConfig,
    NaiveConcurrentBFS,
    SequentialConcurrentBFS,
    benchmark_graph,
)
import repro.native as native
from repro.graph.csr import CSRGraph
from repro.obs.ledger import Ledger, save_ledger

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Graphs listed in the order the paper's figures use.
ALL_GRAPHS = (
    "FB", "FR", "HW", "KG0", "KG1", "KG2", "LJ", "OR", "PK", "RD", "RM",
    "TW", "WK",
)


def scale_delta() -> int:
    """Benchmark graph scale offset (env ``REPRO_BENCH_SCALE``)."""
    return int(os.environ.get("REPRO_BENCH_SCALE", "0"))


def source_count() -> int:
    """Concurrent instances per experiment (env ``REPRO_BENCH_SOURCES``)."""
    return int(os.environ.get("REPRO_BENCH_SOURCES", "128"))


def load_graph(name: str) -> CSRGraph:
    """The named benchmark graph at the configured scale."""
    return benchmark_graph(name, scale_delta=scale_delta())


def pick_sources(graph: CSRGraph, count: Optional[int] = None, seed: int = 42):
    """Deterministic distinct sources for an experiment."""
    if count is None:
        count = source_count()
    count = min(count, graph.num_vertices)
    rng = np.random.default_rng(seed)
    return sorted(
        rng.choice(graph.num_vertices, size=count, replace=False).tolist()
    )


def fig15_engines(graph: CSRGraph, group_size: int = 32) -> Dict[str, object]:
    """The five engine configurations of figure 15, in bar order."""
    return {
        "sequential": SequentialConcurrentBFS(graph),
        "naive": NaiveConcurrentBFS(graph),
        "joint": IBFS(
            graph, IBFSConfig(group_size=group_size, mode="joint", groupby=False)
        ),
        "bitwise": IBFS(
            graph, IBFSConfig(group_size=group_size, mode="bitwise", groupby=False)
        ),
        "groupby": IBFS(
            graph, IBFSConfig(group_size=group_size, mode="bitwise", groupby=True)
        ),
    }


def format_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width text table mirroring the paper's figure data."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in str_rows)) if str_rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)


def emit(name: str, table: str) -> None:
    """Print the reproduction table and persist it under results/."""
    print("\n" + table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table)


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its value.

    The interesting measurements are simulated (deterministic), so
    repeated timing rounds would only re-measure the harness itself.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def run_bench(
    name: str,
    benchmark: str,
    measure: Callable[[argparse.Namespace, Ledger], List[str]],
    argv: Optional[Sequence[str]] = None,
    description: str = "",
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]] = None,
) -> int:
    """Command line of a host wall-clock bench; returns its exit status.

    ``measure(args, ledger)`` runs the bench, fills ``ledger`` (whose
    ``benchmark`` and ``mode`` are set here) and returns the gate
    failures it found.  The ledger goes to ``--output`` or
    ``BENCH_<name>.json`` at the repo root (``BENCH_<name>.quick.json``
    with ``--quick``).  Every ledger records the host's usable CPUs
    (``meta["cpu_count"]``, :func:`repro.native.usable_cpus`) and the
    level-thread budget the engines got
    (``meta["level_threads"]``, :func:`repro.native.level_threads`).
    Under ``--check`` the verdict is recorded in
    ``meta["check"]``, each failure is printed, and any failure makes
    the exit status 1; without it failures are recorded nowhere and
    the status is 0.  ``add_arguments`` adds a bench's own options.
    """
    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--quick", action="store_true",
                        help="the small CI shape")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless every gate passes")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"ledger path (default: BENCH_{name}.json at "
                             f"the repo root; BENCH_{name}.quick.json with "
                             "--quick)")
    if add_arguments is not None:
        add_arguments(parser)
    args = parser.parse_args(argv)

    ledger = Ledger(benchmark=benchmark,
                    mode="quick" if args.quick else "full")
    ledger.meta.update({
        "cpu_count": native.usable_cpus(),
        "level_threads": native.level_threads(),
    })
    failures = measure(args, ledger)
    if args.check:
        ledger.meta["check"] = {"passed": not failures, "failures": failures}
    suffix = ".quick" if args.quick else ""
    output = args.output or REPO_ROOT / f"BENCH_{name}{suffix}.json"
    save_ledger(ledger, str(output))
    print(f"wrote {output}")

    if not args.check:
        return 0
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{benchmark} check passed")
    return 0
