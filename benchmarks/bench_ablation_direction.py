"""Ablation: direction optimization — bottom-up on/off and alpha sweep.

Direction-optimizing BFS (section 2) underpins every engine; this
ablation quantifies how much the bottom-up switch saves on power-law
graphs and how sensitive the result is to the alpha threshold.
"""

from repro import IBFS, IBFSConfig
from repro.plan import HeuristicPolicy

from harness import emit, format_table, load_graph, pick_sources, run_once

ALPHAS = (2.0, 8.0, 14.0, 32.0, 128.0)
GRAPHS = ("FB", "KG0", "RD")


def test_ablation_direction(benchmark):
    def experiment():
        rows = []
        for name in GRAPHS:
            graph = load_graph(name)
            sources = pick_sources(graph)
            config = IBFSConfig(group_size=32, groupby=False)
            td_only = IBFS(
                graph, config, planner=HeuristicPolicy(allow_bottom_up=False)
            ).run(sources, store_depths=False)
            alpha_times = []
            for alpha in ALPHAS:
                result = IBFS(
                    graph, config, planner=HeuristicPolicy(alpha=alpha)
                ).run(sources, store_depths=False)
                alpha_times.append(result.seconds * 1e3)
            rows.append((name, td_only.seconds * 1e3, *alpha_times))
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        "Ablation: direction optimization (ms, bitwise engine)",
        ["graph", "td-only", *(f"alpha={a:g}" for a in ALPHAS)],
        rows,
    )
    emit("ablation_direction", table)

    # Bottom-up must pay off at the default alpha on power-law graphs.
    for row in rows:
        name, td_only = row[0], row[1]
        default_alpha = row[1 + 1 + ALPHAS.index(14.0)]
        if name != "RD":
            assert default_alpha < td_only, name
    benchmark.extra_info["alphas"] = list(ALPHAS)
