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
``BENCH_plan.quick.json`` in ``--quick`` mode).
``--check`` gates:

* every policy depth-identical to the heuristic reference (always
  enforced, with or without ``--check``);
* replay bit-identical for every group (depths, counters, seconds);
* ``adaptive`` simulated seconds within ``--max-gap`` (default 1.5x)
  of ``heuristic`` — the cost model driving it is coarser than the
  frozen per-level heuristics, but it must stay in the same regime;
* ``adaptive`` no slower than ``td-only`` — an adaptive planner that
  loses to never-switching is broken.

Usage::

    PYTHONPATH=src python benchmarks/bench_plan_policies.py          # full
    PYTHONPATH=src python benchmarks/bench_plan_policies.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_plan_policies.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import IBFS, IBFSConfig
from repro.graph.generators import rmat
from repro.plan import POLICY_NAMES, make_policy

SOURCE_SEED = 17

#: (scale, edge_factor, group_size, num_sources)
FULL_SHAPE = (14, 8, 64, 256)
QUICK_SHAPE = (12, 8, 32, 64)


def policy_entry(name, result, reference_depths):
    depths_ok = np.array_equal(result.depths, reference_depths)
    counters = result.counters
    return depths_ok, {
        "policy": name,
        "simulated_seconds": result.seconds,
        "depth_identical": depths_ok,
        "levels": counters.levels,
        "inspections": counters.inspections,
        "bottom_up_inspections": counters.bottom_up_inspections,
        "edges_traversed": counters.edges_traversed,
        "early_terminations": counters.early_terminations,
        "global_load_transactions": counters.global_load_transactions,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graph and fewer sources (CI smoke)")
    parser.add_argument("--output", type=Path, default=None,
                        help="result JSON path (default: BENCH_plan.json "
                             "at repo root; BENCH_plan.quick.json with "
                             "--quick)")
    parser.add_argument("--check", action="store_true",
                        help="fail on replay divergence or an adaptive "
                             "policy outside its gates")
    parser.add_argument("--max-gap", type=float, default=1.5,
                        help="max adaptive/heuristic simulated-seconds "
                             "ratio under --check")
    args = parser.parse_args(argv)

    scale, edge_factor, group_size, num_sources = (
        QUICK_SHAPE if args.quick else FULL_SHAPE
    )
    root = Path(__file__).resolve().parent.parent
    output = args.output or (
        root / ("BENCH_plan.quick.json" if args.quick else "BENCH_plan.json")
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
    results = []
    seconds_by_policy = {}
    all_identical = True
    for name in POLICY_NAMES:
        engine = IBFS(graph, config, planner=make_policy(name))
        result = engine.run(sources, store_depths=True)
        depths_ok, entry = policy_entry(name, result, reference.depths)
        all_identical &= depths_ok
        seconds_by_policy[name] = result.seconds
        results.append(entry)
        print(
            f"[{name:>20}] sim {result.seconds:.4f}s  "
            f"levels {entry['levels']:>5}  "
            f"bu-inspections {entry['bottom_up_inspections']:>9}  "
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
    record_start = time.perf_counter()
    recorded = [engine.run_group(group) for group in groups]
    record_seconds = time.perf_counter() - record_start
    plans = [run.groups[0].plan for run in recorded]

    replay_start = time.perf_counter()
    replayed = [engine.run_group(group, plan=plan)
                for group, plan in zip(groups, plans)]
    replay_seconds = time.perf_counter() - replay_start

    replay_identical = all(
        np.array_equal(a.depths, b.depths)
        and a.counters.__dict__ == b.counters.__dict__
        and a.seconds == b.seconds
        for a, b in zip(recorded, replayed)
    )
    replay_entry = {
        "groups": len(groups),
        "bit_identical": replay_identical,
        "record_host_seconds": record_seconds,
        "replay_host_seconds": replay_seconds,
        "replay_host_speedup": (
            record_seconds / replay_seconds if replay_seconds else 0.0
        ),
        "plan_levels": [len(plan) for plan in plans],
    }
    print(
        f"[replay] {len(groups)} groups  "
        f"record {record_seconds:.3f}s  replay {replay_seconds:.3f}s  "
        f"bit_identical={replay_identical}",
        flush=True,
    )

    adaptive_gap = (
        seconds_by_policy["adaptive"] / seconds_by_policy["heuristic"]
    )
    payload = {
        "benchmark": "plan_policies",
        "mode": "quick" if args.quick else "full",
        "metric": "simulated cost-model seconds per full run",
        "graph": f"rmat scale={scale} edge_factor={edge_factor} seed=7",
        "num_sources": num_sources,
        "group_size": group_size,
        "adaptive_vs_heuristic": adaptive_gap,
        "results": results,
        "replay": replay_entry,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    if args.check:
        failed = False
        if not replay_identical:
            print("CHECK FAILED: plan replay diverged from recording",
                  file=sys.stderr)
            failed = True
        if adaptive_gap > args.max_gap:
            print(
                f"CHECK FAILED: adaptive is {adaptive_gap:.2f}x the "
                f"heuristic simulated seconds (gate {args.max_gap:.1f}x)",
                file=sys.stderr,
            )
            failed = True
        if seconds_by_policy["adaptive"] > seconds_by_policy["td-only"]:
            print(
                "CHECK FAILED: adaptive is slower than the td-only preset",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
        print("plan policy check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
