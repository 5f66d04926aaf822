"""Figure 9: frontier sharing ratio, random grouping vs GroupBy, for
top-down and bottom-up levels across all 13 graphs.

Paper shape: GroupBy lifts top-down sharing by a large factor (3.9% ->
39.3% on average, ~10x) and bottom-up sharing to ~66% (~1.7x); gains on
the uniform RD graph are much smaller.
"""

import numpy as np

from repro.core.groupby import GroupByConfig, group_sources, random_groups
from repro.core.joint import JointTraversal

from harness import ALL_GRAPHS, emit, format_table, load_graph, pick_sources, run_once

GROUP_SIZE = 32


def _direction_sharing(graph, groups):
    """Mean sharing ratio per direction over all groups and levels.

    Bottom-up sharing comes from the standard direction-optimized run.
    Top-down sharing is measured with bottom-up disabled over the first
    levels: at laptop scale the direction switch fires as soon as a
    group hits its shared hub (level 2), which would otherwise move the
    entire hub-collision effect into the bottom-up series.
    """
    from repro.plan import HeuristicPolicy

    full = JointTraversal(graph)
    td_only = JointTraversal(
        graph, planner=HeuristicPolicy(allow_bottom_up=False)
    )
    td_fq = td_jfq = bu_fq = bu_jfq = 0
    for members in groups:
        n = len(members)
        _, _, stats = full.run_group(members)
        for fq, jfq in stats.bu_sharing:
            bu_fq += fq / n
            bu_jfq += jfq
        _, _, td_stats = td_only.run_group(members, max_depth=4)
        for fq, jfq in td_stats.td_sharing:
            td_fq += fq / n
            td_jfq += jfq
    td = 100 * td_fq / td_jfq if td_jfq else 0.0
    bu = 100 * bu_fq / bu_jfq if bu_jfq else 0.0
    return td, bu


def test_fig09_groupby_sharing(benchmark):
    def experiment():
        rows = []
        for name in ALL_GRAPHS:
            graph = load_graph(name)
            sources = pick_sources(graph)
            random = random_groups(sources, GROUP_SIZE, seed=9)
            grouped = group_sources(graph, sources, GROUP_SIZE, GroupByConfig())
            rnd_td, rnd_bu = _direction_sharing(graph, random)
            grp_td, grp_bu = _direction_sharing(graph, grouped)
            rows.append((name, rnd_td, grp_td, rnd_bu, grp_bu))
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        "Figure 9: frontier sharing ratio % (random vs GroupBy)",
        ["graph", "td random", "td GroupBy", "bu random", "bu GroupBy"],
        rows,
    )
    emit("fig09_groupby_sharing", table)

    # Shape: averaged over the power-law graphs GroupBy must lift
    # top-down sharing and must not lose bottom-up sharing.
    power_law = [r for r in rows if r[0] != "RD"]
    td_gain = np.mean([r[2] for r in power_law]) - np.mean(
        [r[1] for r in power_law]
    )
    bu_gain = np.mean([r[4] for r in power_law]) - np.mean(
        [r[3] for r in power_law]
    )
    assert td_gain > 0
    assert bu_gain > -2.0
    benchmark.extra_info["td_gain_points"] = round(float(td_gain), 2)
    benchmark.extra_info["bu_gain_points"] = round(float(bu_gain), 2)
