"""Ablation: per-instance vs per-group direction switching.

iBFS's single kernel lets each instance switch direction independently
(figure 5's mixed-direction level).  A simpler design votes once per
group.  This ablation quantifies what the per-instance flexibility is
worth: per-group voting forces stragglers into bottom-up early (extra
probes) or holds eager instances in top-down (extra inspections).
"""

from repro.core.bitwise import BitwiseTraversal
from repro.core.groupby import random_groups
from repro.plan import HeuristicPolicy

from harness import emit, format_table, load_graph, pick_sources, run_once

GROUP_SIZE = 32
GRAPHS = ("FB", "KG0", "TW", "RD")


def _run(graph, sources, mode):
    engine = BitwiseTraversal(
        graph, planner=HeuristicPolicy(direction_mode=mode)
    )
    seconds = 0.0
    inspections = 0
    for group in random_groups(sources, GROUP_SIZE, seed=3):
        _, record, stats = engine.run_group(group)
        seconds += stats.seconds
        inspections += record.counters.inspections
    return seconds, inspections


def test_ablation_direction_mode(benchmark):
    def experiment():
        rows = []
        for name in GRAPHS:
            graph = load_graph(name)
            sources = pick_sources(graph)
            per_inst_s, per_inst_insp = _run(graph, sources, "per-instance")
            per_grp_s, per_grp_insp = _run(graph, sources, "per-group")
            rows.append(
                (
                    name,
                    per_inst_s * 1e3,
                    per_grp_s * 1e3,
                    round(per_grp_s / per_inst_s, 3),
                    per_inst_insp,
                    per_grp_insp,
                )
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        "Ablation: direction switching granularity (bitwise engine)",
        ["graph", "per-inst ms", "per-grp ms", "grp/inst",
         "per-inst insp", "per-grp insp"],
        rows,
    )
    emit("ablation_direction_mode", table)

    # Both modes are valid; per-instance should never be dramatically
    # worse, and the two must stay within 2x of each other.
    for name, a, b, ratio, _, _ in rows:
        assert 0.5 < ratio < 2.0, name
    benchmark.extra_info["graphs"] = list(GRAPHS)
