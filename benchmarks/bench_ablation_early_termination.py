"""Ablation: bottom-up early termination on vs off.

Early termination is the bitwise design's key behavioural edge over
MS-BFS (section 6): once a frontier's status word is all-ones the scan
stops.  This ablation isolates its contribution to both the physical
inspection count and the simulated runtime.
"""

from repro.core.bitwise import BitwiseTraversal
from repro.core.groupby import random_groups
from repro.plan import HeuristicPolicy

from harness import ALL_GRAPHS, emit, format_table, load_graph, pick_sources, run_once

GROUP_SIZE = 32


def _run(graph, sources, early):
    engine = BitwiseTraversal(
        graph, planner=HeuristicPolicy(early_termination=early)
    )
    seconds = 0.0
    inspections = 0
    for group in random_groups(sources, GROUP_SIZE, seed=1):
        _, record, stats = engine.run_group(group)
        seconds += stats.seconds
        inspections += record.counters.bottom_up_inspections
    return seconds, inspections


def test_ablation_early_termination(benchmark):
    def experiment():
        rows = []
        for name in ALL_GRAPHS:
            graph = load_graph(name)
            sources = pick_sources(graph)
            on_s, on_insp = _run(graph, sources, early=True)
            off_s, off_insp = _run(graph, sources, early=False)
            rows.append(
                (
                    name,
                    on_insp,
                    off_insp,
                    round(off_insp / on_insp, 2) if on_insp else 0.0,
                    round(off_s / on_s, 2),
                )
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        "Ablation: bottom-up early termination "
        "(bitwise engine, random groups of 32)",
        ["graph", "bu insp (on)", "bu insp (off)", "insp ratio", "time ratio"],
        rows,
    )
    emit("ablation_early_termination", table)

    # Early termination must reduce inspections on every graph and never
    # hurt runtime.
    for name, on_insp, off_insp, _, time_ratio in rows:
        assert on_insp <= off_insp, name
        assert time_ratio >= 0.95, name
    benchmark.extra_info["mean_insp_ratio"] = round(
        sum(r[3] for r in rows) / len(rows), 2
    )
