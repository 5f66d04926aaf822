"""Figure 20: speedup of iBFS's bitwise design over the MS-BFS-style
bitwise baseline, with random grouping and with GroupBy.

The baseline reimplements the bitwise operation "as in [26]": statuses
reset each level, no early termination, thread-per-instance.  Paper
shape: ~40% speedup already with random groups, ~2.6x with GroupBy.
"""

import numpy as np

from repro import IBFS, IBFSConfig
from repro.core.bitwise import BitwiseTraversal
from repro.core.groupby import random_groups
from repro.gpusim.device import Device
from repro.plan import HeuristicPolicy

from harness import ALL_GRAPHS, emit, format_table, load_graph, pick_sources, run_once

GROUP_SIZE = 32


def _msbfs_style_seconds(graph, sources):
    """The [26]-style bitwise baseline on the GPU device."""
    engine = BitwiseTraversal(
        graph,
        Device(),
        reset_per_level=True,
        thread_per_instance=True,
        planner=HeuristicPolicy(early_termination=False),
    )
    total = 0.0
    for group in random_groups(sources, GROUP_SIZE, seed=20):
        _, record, stats = engine.run_group(group)
        total += stats.seconds
    return total


def test_fig20_bitwise_speedup(benchmark):
    def experiment():
        rows = []
        for name in ALL_GRAPHS:
            graph = load_graph(name)
            sources = pick_sources(graph)
            baseline = _msbfs_style_seconds(graph, sources)
            random = IBFS(
                graph, IBFSConfig(group_size=GROUP_SIZE, groupby=False, seed=20)
            ).run(sources, store_depths=False)
            grouped = IBFS(
                graph, IBFSConfig(group_size=GROUP_SIZE, groupby=True)
            ).run(sources, store_depths=False)
            rows.append(
                (name, baseline / random.seconds, baseline / grouped.seconds)
            )
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        "Figure 20: bitwise speedup over the [26]-style baseline",
        ["graph", "random grouping", "GroupBy"],
        rows,
    )
    emit("fig20_bitwise", table)

    random_mean = float(np.mean([r[1] for r in rows]))
    groupby_mean = float(np.mean([r[2] for r in rows]))
    # Shape: our bitwise design wins on average even with random groups,
    # and GroupBy extends the lead.
    assert random_mean > 1.0
    assert groupby_mean >= random_mean
    benchmark.extra_info["random_mean_speedup"] = round(random_mean, 2)
    benchmark.extra_info["groupby_mean_speedup"] = round(groupby_mean, 2)
