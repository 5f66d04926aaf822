#!/usr/bin/env python
"""Traversal-plan policy comparison and record/replay benchmark.

Runs :class:`repro.core.engine.IBFS` over the same graph and sources
under every planner policy (``heuristic``, ``adaptive``, ``td-only``,
``no-early-termination``) and reports the simulated cost-model seconds
and hardware counters each policy pays.  Direction and vector width are
cost-only knobs, so every policy's depth matrix is asserted
bit-identical to the heuristic reference before its numbers are
trusted.

A second section measures plan record/replay: the heuristic run's
recorded :class:`~repro.plan.RunPlan` for each group is replayed and
must reproduce the recorded depths, counters, and simulated seconds
exactly; host wall-clock for record vs replay is reported (replay skips
the per-level heuristic evaluation).

Results land in ``BENCH_plan.json`` at the repo root (or ``--output``;
``BENCH_plan.quick.json`` in ``--quick`` mode) as a
``repro.bench-ledger/v1`` ledger: one entry per policy whose metrics
are its simulated seconds and counters, and a ``replay`` entry whose
metric is the record/replay host wall ratio (host seconds are attrs).
``--check`` gates:

* every policy depth-identical to the heuristic reference (always
  enforced, with or without ``--check``);
* replay bit-identical for every group (depths, counters, seconds);
* ``adaptive`` simulated seconds within 1.5x of ``heuristic`` — the
  cost model driving it is coarser than the frozen per-level
  heuristics, but it must stay in the same regime;
* ``adaptive`` no slower than ``td-only`` — an adaptive planner that
  loses to never-switching is broken.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan_policies.py          # full
    PYTHONPATH=src python benchmarks/bench_plan_policies.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_plan_policies.py --quick --check
"""

from __future__ import annotations

import sys

import numpy as np

from harness import run_bench
from repro.core.engine import IBFS, IBFSConfig
from repro.graph.generators import rmat
from repro.obs.ledger import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    BestOf,
    LedgerEntry,
    MetricPoint,
)
from repro.plan import POLICY_NAMES, make_policy

SOURCE_SEED = 17

#: (scale, edge_factor, group_size, num_sources)
FULL_SHAPE = (14, 8, 64, 256)
QUICK_SHAPE = (12, 8, 32, 64)

#: Max adaptive/heuristic simulated-seconds ratio.
MAX_GAP = 1.5

#: Simulated counters recorded per policy; an early termination is a
#: skipped inspection, so more of them is better.
COUNTERS = {
    "levels": LOWER_IS_BETTER,
    "inspections": LOWER_IS_BETTER,
    "bottom_up_inspections": LOWER_IS_BETTER,
    "edges_traversed": LOWER_IS_BETTER,
    "early_terminations": HIGHER_IS_BETTER,
    "global_load_transactions": LOWER_IS_BETTER,
}


def policy_entry(name, result):
    metrics = {
        "simulated_seconds": MetricPoint(result.seconds, LOWER_IS_BETTER, "s"),
    }
    for counter, direction in COUNTERS.items():
        metrics[counter] = MetricPoint(
            getattr(result.counters, counter), direction, "count"
        )
    return LedgerEntry(name=name, metrics=metrics)


def measure(args, ledger):
    scale, edge_factor, group_size, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )

    graph = rmat(scale, edge_factor=edge_factor, seed=7)
    rng = np.random.default_rng(SOURCE_SEED)
    sources = sorted(
        rng.choice(graph.num_vertices, size=num_sources, replace=False).tolist()
    )
    config = IBFSConfig(group_size=group_size)

    print(
        f"graph rmat scale={scale} ef={edge_factor}: "
        f"{graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"{num_sources} sources in groups of {group_size}",
        flush=True,
    )

    # ------------------------------------------------------------------
    # Policy comparison (simulated cost-model seconds)
    # ------------------------------------------------------------------
    reference = IBFS(graph, config).run(sources, store_depths=True)
    seconds_by_policy = {}
    all_identical = True
    for name in POLICY_NAMES:
        engine = IBFS(graph, config, planner=make_policy(name))
        result = engine.run(sources, store_depths=True)
        depths_ok = np.array_equal(result.depths, reference.depths)
        all_identical &= depths_ok
        seconds_by_policy[name] = result.seconds
        ledger.entries.append(policy_entry(name, result))
        print(
            f"[{name:>20}] sim {result.seconds:.4f}s  "
            f"levels {result.counters.levels:>5}  "
            f"bu-inspections {result.counters.bottom_up_inspections:>9}  "
            f"depths {'ok' if depths_ok else 'DIVERGED'}",
            flush=True,
        )
    if not all_identical:
        raise AssertionError("a policy's depth matrix diverged from the "
                             "heuristic reference")

    # ------------------------------------------------------------------
    # Record/replay: recorded plans must reproduce runs bit-identically
    # ------------------------------------------------------------------
    engine = IBFS(graph, config)
    groups = [sources[i:i + group_size]
              for i in range(0, len(sources), group_size)]
    record = BestOf()
    with record:
        recorded = [engine.run_group(group) for group in groups]
    plans = [run.groups[0].plan for run in recorded]

    replay = BestOf()
    with replay:
        replayed = [engine.run_group(group, plan=plan)
                    for group, plan in zip(groups, plans)]

    replay_identical = all(
        np.array_equal(a.depths, b.depths)
        and a.counters.__dict__ == b.counters.__dict__
        and a.seconds == b.seconds
        for a, b in zip(recorded, replayed)
    )
    ledger.entries.append(LedgerEntry(
        name="replay",
        metrics={"replay_host_speedup": MetricPoint(
            record.seconds / replay.seconds if replay.seconds else 0.0,
            HIGHER_IS_BETTER, "x",
        )},
        attrs={
            "groups": len(groups),
            "bit_identical": replay_identical,
            "record_host_seconds": record.seconds,
            "replay_host_seconds": replay.seconds,
            "plan_levels": [len(plan) for plan in plans],
        },
    ))
    print(
        f"[replay] {len(groups)} groups  "
        f"record {record.seconds:.3f}s  replay {replay.seconds:.3f}s  "
        f"bit_identical={replay_identical}",
        flush=True,
    )

    adaptive_gap = (
        seconds_by_policy["adaptive"] / seconds_by_policy["heuristic"]
    )
    ledger.meta.update({
        "metric": "simulated cost-model seconds and counters per full run",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=7",
        "num_sources": num_sources,
        "group_size": group_size,
        "max_gap": MAX_GAP,
        "adaptive_vs_heuristic": adaptive_gap,
    })

    failures = []
    if not replay_identical:
        failures.append("plan replay diverged from recording")
    if adaptive_gap > MAX_GAP:
        failures.append(
            f"adaptive is {adaptive_gap:.2f}x the heuristic simulated "
            f"seconds (gate {MAX_GAP:.1f}x)"
        )
    if seconds_by_policy["adaptive"] > seconds_by_policy["td-only"]:
        failures.append("adaptive is slower than the td-only preset")
    return failures


def main(argv=None):
    return run_bench("plan", "plan_policies", measure, argv, __doc__)


if __name__ == "__main__":
    sys.exit(main())
