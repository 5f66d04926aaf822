"""Ablation: CUDA vector data types (section 6).

With 128 instances the BSA holds two uint64 lanes per vertex; a
``long2``/``long4`` load fetches them in one instruction.  Transactions
(bytes) are unchanged, so the gain appears in instruction counts and
warp load requests — visible in runtime only when the workload is
compute-bound.
"""

from repro.core.bitwise import BitwiseTraversal
from repro.core.groupby import random_groups
from repro.plan import HeuristicPolicy

from harness import emit, format_table, load_graph, pick_sources, run_once

GROUP_SIZE = 128  # two lanes
WIDTHS = (1, 2, 4)
GRAPHS = ("FB", "KG0")


def test_ablation_vector_width(benchmark):
    def experiment():
        rows = []
        for name in GRAPHS:
            graph = load_graph(name)
            sources = pick_sources(graph, 128, seed=2)
            per_width = {}
            for width in WIDTHS:
                engine = BitwiseTraversal(
                    graph, planner=HeuristicPolicy(vector_width=width)
                )
                instructions = 0
                requests = 0
                seconds = 0.0
                for group in random_groups(sources, GROUP_SIZE, seed=1):
                    _, record, stats = engine.run_group(group)
                    instructions += record.counters.instructions
                    requests += record.counters.global_load_requests
                    seconds += stats.seconds
                per_width[width] = (instructions, requests, seconds)
            base = per_width[1]
            for width in WIDTHS:
                instructions, requests, seconds = per_width[width]
                rows.append(
                    (
                        name,
                        width,
                        instructions,
                        requests,
                        round(base[0] / instructions, 2),
                        seconds * 1e3,
                    )
                )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        "Ablation: vector data types (128 instances = 2 BSA lanes)",
        ["graph", "width", "instructions", "load reqs", "instr gain", "ms"],
        rows,
    )
    emit("ablation_vector", table)

    # Wider vectors never increase instruction count or requests.
    by_graph = {}
    for name, width, instructions, requests, _, _ in rows:
        by_graph.setdefault(name, {})[width] = (instructions, requests)
    for name, widths in by_graph.items():
        assert widths[2][0] <= widths[1][0], name
        assert widths[4][0] <= widths[2][0], name
        assert widths[4][1] <= widths[1][1], name
    benchmark.extra_info["widths"] = list(WIDTHS)
