"""The level loop every group engine runs (sections 4 and 6).

iBFS runs a group, JSA or BSA, through one loop: take each instance's
direction, run the joint kernel for the level, count each instance's
new frontier, and retire the instances that found nothing.
:class:`GroupTraversal` is that loop.  An engine supplies three hooks:

* ``_begin_group(sources, inspections)`` — its state for one group
  (bottom-up inspections accumulate into the int64 ``inspections``);
* ``_level(state, td_instances, bu_instances, level, decision,
  record)`` — one synchronized level, which prices itself into
  ``record`` and returns the level's ``(fq_td, td_vertices, fq_bu,
  bu_vertices, jfq)`` queue sizes with every instance's new-frontier
  size and out-degree sum;
* ``_depths(state)`` — the ``(group, n)`` depth matrix, in
  :func:`~repro.core.result.depth_dtype` of its deepest depth.

The loop owns the rest: the source checks, the planner session or a
recorded plan's replay (one :class:`~repro.plan.types.LevelDecision`
per executed level, recorded into the group's
:class:`~repro.plan.types.RunPlan`), the top-down / bottom-up split,
the lazily built reverse CSR, retirement, the running per-instance
totals behind :class:`~repro.plan.types.LevelStats`, one
``profile.level`` span per level, and the group's
:class:`~repro.core.result.GroupStats`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import RunRecord
from repro.gpusim.device import Device
from repro.obs import profile as obs_profile
from repro.core.result import GroupStats
from repro.core.sharing import SharingObserver
from repro.plan.policy import HeuristicPolicy, Policy, RecordedPolicy
from repro.plan.types import Direction, LevelStats, RunPlan


class GroupTraversal:
    """Joint traversal of one group; subclasses supply the level kernel.

    ``planner`` makes every per-level decision (default
    ``HeuristicPolicy()``).
    """

    name = "group"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.planner = planner or HeuristicPolicy()
        self._reverse = (
            graph.reverse() if self.planner.allow_bottom_up else None
        )
        #: Out-degree view, hoisted once per traversal object.
        self._out_degrees = graph.out_degrees()

    def run_group(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ):
        """Traverse all sources jointly.

        Returns
        -------
        (depths, record, stats):
            ``depths`` is an ``(N, |V|)`` matrix in
            :func:`~repro.core.result.depth_dtype` of its deepest depth
            (int8 up to depth 120); ``record`` the per-level cost
            records; ``stats`` a :class:`GroupStats`.
            With ``plan=`` the recorded decisions replay verbatim and no
            heuristic runs.
        """
        sources = [int(s) for s in sources]
        n = self.graph.num_vertices
        group_size = len(sources)
        if group_size == 0:
            raise TraversalError("group must contain at least one source")
        for s in sources:
            if not 0 <= s < n:
                raise TraversalError(f"source {s} out of range [0, {n})")

        planner = self.planner if plan is None else RecordedPolicy(plan)
        total_edges = self.graph.num_edges
        session = planner.session(group_size, n, total_edges)
        wants_stats = session.wants_stats
        run_plan = RunPlan(
            policy=planner.name, engine=self.name, group_size=group_size
        )

        active = np.ones(group_size, dtype=bool)
        # Running per-instance visited-degree sum: every vertex joins a
        # frontier exactly once, so adding each new frontier's degree
        # sum gives the dense sum over depth >= 0 without rescanning.
        visited_deg = self._out_degrees[
            np.asarray(sources, dtype=np.int64)
        ].astype(np.int64)
        # Cumulative visited-vertex count per instance (the adaptive
        # cost model's unvisited estimate); the source is visited.
        visited_count = np.ones(group_size, dtype=np.int64)
        record = RunRecord()
        observer = SharingObserver(group_size)
        td_sharing: list = []
        bu_sharing: list = []
        bu_inspections = np.zeros(group_size, dtype=np.int64)
        state = self._begin_group(sources, bu_inspections)

        decision = None
        stats_prev: Optional[LevelStats] = None
        level = 0
        while active.any():
            if max_depth is not None and level >= max_depth:
                break
            if level > n + 1:
                raise TraversalError("traversal failed to converge")
            # One decision per executed level: the first comes from
            # initial(), each next from the previous level's observed
            # statistics (None under replay — nothing is recomputed).
            if decision is None:
                decision = session.initial()
            else:
                decision = session.next(stats_prev)
            if decision.num_instances != group_size:
                raise TraversalError(
                    f"planner decided {decision.num_instances} instances "
                    f"for a group of {group_size}"
                )
            run_plan.append(decision)
            directions = decision.directions
            td_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.TOP_DOWN
            ]
            bu_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.BOTTOM_UP
            ]
            if bu_instances and self._reverse is None:
                # A replayed or adaptive plan may go bottom-up even when
                # the construction-time policy never would have.
                self._reverse = self.graph.reverse()
            # Per-level wall-clock profile span; a no-op flag test when
            # profiling is off (the <= 5% overhead budget boundary).
            with obs_profile.span(
                "level",
                depth=level,
                td_instances=len(td_instances),
                bu_instances=len(bu_instances),
                vector_width=decision.vector_width,
                early_termination=decision.early_termination,
                policy=planner.name,
                replay=not wants_stats,
            ):
                sizes, counts, frontier_edges = self._level(
                    state, td_instances, bu_instances, level, decision,
                    record,
                )
            fq_td, td_vertices, fq_bu, bu_vertices, jfq = sizes
            observer.record_level(fq_td + fq_bu, jfq)
            td_sharing.append((fq_td, td_vertices))
            bu_sharing.append((fq_bu, bu_vertices))
            # An instance retires when its new frontier is empty (the
            # sizes are non-negative, so a non-zero size keeps it).
            np.logical_and(active, counts, out=active)
            visited_deg += frontier_edges
            visited_count += counts
            if wants_stats:
                stats_prev = LevelStats(
                    level=level,
                    num_vertices=n,
                    total_edges=total_edges,
                    frontier_vertices=tuple(counts.tolist()),
                    frontier_edges=tuple(frontier_edges.tolist()),
                    unexplored_edges=tuple(
                        (total_edges - visited_deg).tolist()
                    ),
                    visited_vertices=tuple(visited_count.tolist()),
                    active=tuple(active.tolist()),
                )
            level += 1

        record.counters.kernel_launches += 1
        stats = GroupStats(
            sources=sources,
            seconds=self.device.cost.kernel_time(record.levels),
            sharing_degree=observer.degree(),
            sharing_ratio=observer.ratio(),
            jfq_sizes=list(observer.jfq_sizes),
            per_level_sharing=observer.per_level_degree(),
            td_sharing=td_sharing,
            bu_sharing=bu_sharing,
            bottom_up_inspections=bu_inspections.tolist(),
            plan=run_plan,
        )
        return self._depths(state), record, stats
