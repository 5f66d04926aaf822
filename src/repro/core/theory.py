"""Empirical verification of the paper's sharing theory (section 5.1).

The paper proves two results that justify GroupBy:

* **Lemma 1** — a group's sharing degree equals the expected speedup of
  its joint execution over sequential execution, where time is counted
  in inspections: ``SD_A = N * |E'| / T_A`` with ``T_A = sum_k
  sum_{v in JFQ(k)} outdegree(v)``.
* **Theorem 1 / Lemma 2** — between two groups of equal size, the one
  with the higher sharing ratio at an early level keeps the higher
  *expected* ratio later, so grouping decisions can be made from the
  first levels.

These are statements about measurable quantities, so this module
measures them: :func:`verify_lemma1` recomputes both sides of Lemma 1
from a traversal and reports the relative gap, and
:func:`early_sharing_predicts_speedup` tests Lemma 2's prediction over
a set of candidate groups.  The test suite asserts both on real graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import GroupingError
from repro.graph.csr import CSRGraph
from repro.plan.policy import HeuristicPolicy
from repro.core.joint import JointTraversal

_TOP_DOWN_ONLY = HeuristicPolicy(allow_bottom_up=False)


@dataclass
class Lemma1Report:
    """Both sides of Lemma 1 for one group."""

    sharing_degree: float
    inspection_speedup: float

    @property
    def relative_gap(self) -> float:
        """``|SD - speedup| / speedup`` (0 when the lemma holds exactly)."""
        if self.inspection_speedup == 0:
            return 0.0 if self.sharing_degree == 0 else float("inf")
        return abs(self.sharing_degree - self.inspection_speedup) / (
            self.inspection_speedup
        )


def verify_lemma1(graph: CSRGraph, group: Sequence[int]) -> Lemma1Report:
    """Measure both sides of Lemma 1 for one group.

    The lemma is exact when every vertex becomes a frontier exactly once
    per instance (a fully reachable graph traversed top-down).  The
    traversal runs top-down only; the measured quantities use the
    engine's actual per-level queues, so unreachable vertices introduce
    only small deviations, which the report quantifies.
    """
    if len(group) == 0:
        raise GroupingError("group must not be empty")
    # Top-down-only traversal matches the lemma's setting (every level's
    # JFQ is expanded and each frontier's full out-edge list inspected).
    engine = JointTraversal(graph, planner=_TOP_DOWN_ONLY)
    depths, record, stats = engine.run_group(group)

    out_degrees = graph.out_degrees()
    # T_A: joint time = sum over levels of outdegrees of JFQ members.
    joint_inspections = 0
    num_levels = len(stats.jfq_sizes)
    for level in range(num_levels):
        frontier = np.any(depths == level, axis=0)
        joint_inspections += int(out_degrees[frontier].sum())
    # Sequential time: each instance inspects its own frontiers' edges.
    sequential_inspections = 0
    for row in depths:
        reached = row >= 0
        sequential_inspections += int(out_degrees[reached].sum())
    speedup = (
        sequential_inspections / joint_inspections
        if joint_inspections
        else 0.0
    )
    return Lemma1Report(
        sharing_degree=stats.sharing_degree,
        inspection_speedup=speedup,
    )


def early_sharing_rank(
    graph: CSRGraph,
    groups: Sequence[Sequence[int]],
    levels: int = 3,
) -> List[Tuple[float, float]]:
    """``(early_sd, overall_sd)`` per group — Theorem 1's two variables.

    ``early_sd`` averages the sharing degree over the first ``levels``
    levels (skipping level 0, where sources never share); ``overall_sd``
    is the group's full-run sharing degree, which by Lemma 1 predicts
    its joint speedup.
    """
    engine = JointTraversal(graph)
    pairs = []
    for group in groups:
        _, _, stats = engine.run_group(group)
        early = stats.per_level_sharing[1 : 1 + levels]
        early_sd = float(np.mean(early)) if early else 0.0
        pairs.append((early_sd, stats.sharing_degree))
    return pairs


def early_sharing_predicts_speedup(
    graph: CSRGraph,
    groups: Sequence[Sequence[int]],
    levels: int = 3,
) -> float:
    """Spearman-style rank agreement between early SD and overall SD.

    Returns a correlation in [-1, 1]; Theorem 1 predicts it is strongly
    positive over groups of the same size.
    """
    pairs = early_sharing_rank(graph, groups, levels=levels)
    if len(pairs) < 2:
        raise GroupingError("need at least two groups to correlate")
    early = np.asarray([p[0] for p in pairs])
    overall = np.asarray([p[1] for p in pairs])
    rank_early = np.argsort(np.argsort(early)).astype(np.float64)
    rank_overall = np.argsort(np.argsort(overall)).astype(np.float64)
    if rank_early.std() == 0 or rank_overall.std() == 0:
        return 1.0 if np.allclose(rank_early, rank_overall) else 0.0
    return float(np.corrcoef(rank_early, rank_overall)[0, 1])
