"""Joint traversal (section 4): one kernel, shared frontiers, JSA + JFQ.

All instances of a group execute inside a single simulated kernel:

* the **Joint Frontier Queue** holds every vertex that is a frontier
  for *any* instance exactly once (generated with a warp scan + vote);
* the **Joint Status Array** stores each vertex's N per-instance status
  bytes contiguously, so N contiguous threads inspecting a vertex
  coalesce into one memory transaction;
* each frontier's adjacency list is loaded from global memory **once**
  into the shared-memory cache and consumed by every instance.

Each instance still inspects independently ("shared frontiers do not
reduce the overall workload") — the savings are in memory traffic, and
the counters below reflect exactly that.

Per-level direction comes from the planner (:mod:`repro.plan`): each
executed level consumes one :class:`~repro.plan.types.LevelDecision`
and the sequence is recorded as a :class:`~repro.plan.types.RunPlan`
on the returned stats; ``plan=`` replays a recording bit-identically.
The JSA engine has no vector loads, so a decision's ``vector_width``
is carried in the record but does not change execution here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.gpusim.counters import LevelRecord, RunRecord
from repro.gpusim.device import Device
from repro.core.result import GroupStats
from repro.core.sharing import SharingObserver
from repro.kernels import bucketed_hit_scan, instance_frontier_stats
from repro.plan.policy import HeuristicPolicy, Policy, RecordedPolicy
from repro.plan.types import Direction, LevelDecision, LevelStats, RunPlan
from repro.util import gather_neighbors

#: One status byte per (vertex, instance) pair, as in figure 4.
JSA_STATUS_BYTES = 1
INSTRUCTIONS_PER_INSPECTION = 10
INSTRUCTIONS_PER_VERTEX = 6

UNVISITED = -1


class JointTraversal:
    """Joint (JSA-based, non-bitwise) traversal of one group.

    ``planner`` makes every per-level decision (default
    ``HeuristicPolicy()``).
    """

    name = "joint"

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
            ``depths`` is an ``(N, |V|)`` int32 matrix; ``record`` the
            per-level cost records; ``stats`` a :class:`GroupStats`.
        """
        sources = [int(s) for s in sources]
        n = self.graph.num_vertices
        group_size = len(sources)
        if group_size == 0:
            raise TraversalError("group must contain at least one source")
        for s in sources:
            if not 0 <= s < n:
                raise TraversalError(f"source {s} out of range [0, {n})")

        if plan is not None:
            planner: Policy = RecordedPolicy(plan)
        else:
            planner = self.planner
        total_edges = self.graph.num_edges
        session = planner.session(group_size, n, total_edges)
        wants_stats = session.wants_stats
        run_plan = RunPlan(
            policy=planner.name, engine=self.name, group_size=group_size
        )

        depths = np.full((group_size, n), UNVISITED, dtype=np.int32)
        depths[np.arange(group_size), sources] = 0
        active = np.ones(group_size, dtype=bool)
        out_degrees = self.graph.out_degrees()
        visited_count = np.ones(group_size, dtype=np.int64)

        record = RunRecord()
        observer = SharingObserver(group_size)
        sharing_log = {"td": [], "bu": []}
        bu_inspections = np.zeros(group_size, dtype=np.int64)

        decision: Optional[LevelDecision] = None
        stats_prev: Optional[LevelStats] = None
        level = 0
        while active.any():
            if max_depth is not None and level >= max_depth:
                break
            if level > n + 1:
                raise TraversalError("traversal failed to converge")
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
                self._reverse = self.graph.reverse()
            progressed = self._level(
                depths,
                td_instances,
                bu_instances,
                level,
                record,
                observer,
                sharing_log,
                bu_inspections,
            )

            # Per-instance bookkeeping: completion and the statistics the
            # policy feeds on.  All instances' statistics come from one
            # vectorized pass over the depth matrix instead of
            # group_size dense scans.
            counts, frontier_edges, unexplored = instance_frontier_stats(
                depths, level, out_degrees, total_edges
            )
            visited_count += counts
            for j in range(group_size):
                if not active[j]:
                    continue
                if directions[j] is Direction.TOP_DOWN:
                    if counts[j] == 0:
                        active[j] = False
                else:
                    if not progressed[j]:
                        active[j] = False
            if wants_stats:
                stats_prev = LevelStats(
                    level=level,
                    num_vertices=n,
                    total_edges=total_edges,
                    frontier_vertices=tuple(int(c) for c in counts),
                    frontier_edges=tuple(int(e) for e in frontier_edges),
                    unexplored_edges=tuple(int(u) for u in unexplored),
                    visited_vertices=tuple(int(v) for v in visited_count),
                    active=tuple(bool(a) for a in active),
                )
            level += 1

        record.counters.kernel_launches += 1
        seconds = self.device.cost.kernel_time(record.levels)
        stats = GroupStats(
            sources=sources,
            seconds=seconds,
            sharing_degree=observer.degree(),
            sharing_ratio=observer.ratio(),
            jfq_sizes=list(observer.jfq_sizes),
            per_level_sharing=observer.per_level_degree(),
            td_sharing=sharing_log["td"],
            bu_sharing=sharing_log["bu"],
            bottom_up_inspections=bu_inspections.tolist(),
            plan=run_plan,
        )
        return depths, record, stats

    # ------------------------------------------------------------------
    # One synchronized level of the joint kernel
    # ------------------------------------------------------------------
    def _level(
        self,
        depths: np.ndarray,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        record: RunRecord,
        observer: SharingObserver,
        sharing_log: dict,
        bu_inspections: np.ndarray,
    ) -> np.ndarray:
        mem = self.device.memory
        counters = record.counters
        group_size = depths.shape[0]
        num_vertices = depths.shape[1]
        progressed = np.zeros(group_size, dtype=bool)

        # Joint frontier queue for this level (each shared frontier once).
        td_mask = (
            np.any(depths[td_instances] == level, axis=0)
            if td_instances
            else np.zeros(num_vertices, dtype=bool)
        )
        bu_mask = (
            np.any(depths[bu_instances] == UNVISITED, axis=0)
            if bu_instances
            else np.zeros(num_vertices, dtype=bool)
        )
        jfq_size = int(np.count_nonzero(td_mask | bu_mask))
        fq_td = sum(
            int(np.count_nonzero(depths[j] == level)) for j in td_instances
        )
        fq_bu = sum(
            int(np.count_nonzero(depths[j] == UNVISITED)) for j in bu_instances
        )
        observer.record_level(fq_td + fq_bu, jfq_size)
        sharing_log["td"].append((fq_td, int(np.count_nonzero(td_mask))))
        sharing_log["bu"].append((fq_bu, int(np.count_nonzero(bu_mask))))
        if jfq_size == 0:
            record.append(LevelRecord(depth=level, direction="td"))
            counters.levels += 1
            return progressed

        loads = 0
        stores = 0
        load_requests = 0
        store_requests = 0
        instructions = 0
        inspections_level = 0

        # --- Top-down pass -------------------------------------------
        td_frontier = np.flatnonzero(td_mask).astype(VERTEX_DTYPE)
        discovered_any = np.zeros(num_vertices, dtype=bool)
        if td_frontier.size:
            degrees = self.graph.out_degrees()[td_frontier]
            pair_count = int(degrees.sum())
            # Adjacency of each joint frontier is loaded once and cached
            # in shared memory for all instances.
            loads += mem.adjacency_transactions(degrees)
            loads += mem.stream_transactions(td_frontier.size * 8)
            counters.shared_memory_accesses += pair_count * max(
                len(td_instances) - 1, 0
            )
            for j in td_instances:
                frontier_j = np.flatnonzero(depths[j] == level).astype(VERTEX_DTYPE)
                if frontier_j.size == 0:
                    continue
                _, neighbors = gather_neighbors(self.graph, frontier_j)
                inspections_level += int(neighbors.size)
                fresh = neighbors[depths[j, neighbors] == UNVISITED]
                if fresh.size:
                    depths[j, fresh] = level + 1
                    discovered_any[fresh] = True
                    progressed[j] = True
            # N contiguous threads inspect each (frontier, neighbor)
            # pair's N contiguous status bytes: one coalesced transaction
            # per pair instead of one per instance.
            loads += mem.status_group_transactions(
                pair_count, group_size * JSA_STATUS_BYTES
            )
            load_requests += pair_count
            td_discovered = int(np.count_nonzero(discovered_any))
            stores += mem.status_group_transactions(
                td_discovered, group_size * JSA_STATUS_BYTES
            )
            store_requests += td_discovered

        # --- Bottom-up pass ------------------------------------------
        if bu_instances:
            probes, early, bu_discovered, vertex_rounds = self._bottom_up_pass(
                depths, bu_instances, level, bu_inspections
            )
            progressed[bu_instances] |= bu_discovered > 0
            counters.early_terminations += early
            counters.bottom_up_inspections += probes
            inspections_level += probes
            bu_frontier = np.flatnonzero(bu_mask).astype(VERTEX_DTYPE)
            loads += mem.stream_transactions(bu_frontier.size * 8)
            loads += mem.adjacency_transactions(
                self._reverse.out_degrees()[bu_frontier]
            )
            # Each (vertex, neighbor-position) probe round touches the
            # probed parent's N contiguous statuses once for all
            # instances still scanning (coalesced).
            loads += mem.status_group_transactions(
                vertex_rounds, group_size * JSA_STATUS_BYTES
            )
            load_requests += vertex_rounds
            found = int(bu_discovered.sum())
            stores += mem.status_group_transactions(
                found, group_size * JSA_STATUS_BYTES
            )
            store_requests += found

        # --- Joint frontier queue generation --------------------------
        # One warp scans each vertex's N statuses and votes (__any); one
        # thread enqueues, __ballot records the sharing bitmap.
        loads += mem.stream_transactions(num_vertices * group_size * JSA_STATUS_BYTES)
        load_requests += self.device.warps_for(num_vertices)
        counters.warp_votes += num_vertices
        stores += mem.stream_transactions(jfq_size * 8)
        store_requests += self.device.warps_for(jfq_size)
        counters.frontier_enqueues += jfq_size

        instructions += (
            inspections_level * INSTRUCTIONS_PER_INSPECTION
            + jfq_size * INSTRUCTIONS_PER_VERTEX
        )
        counters.inspections += inspections_level
        counters.edges_traversed += inspections_level
        counters.levels += 1
        counters.global_load_transactions += loads
        counters.global_store_transactions += stores
        counters.global_load_requests += load_requests
        counters.global_store_requests += store_requests
        counters.instructions += instructions

        record.append(
            LevelRecord(
                depth=level,
                direction="bu" if bu_instances and not td_instances else "td",
                load_transactions=loads,
                store_transactions=stores,
                atomics=0,
                instructions=instructions,
                threads=jfq_size * group_size,
                frontier_size=jfq_size,
            )
        )
        return progressed

    def _bottom_up_pass(
        self,
        depths: np.ndarray,
        bu_instances: List[int],
        level: int,
        bu_inspections: np.ndarray,
    ):
        """Per-instance bottom-up probing with early termination.

        Returns ``(total_probes, early_terminations, discovered_per_instance)``.
        """
        assert self._reverse is not None
        rev = self._reverse
        offsets = rev.row_offsets
        indices = rev.col_indices
        bu_rows = np.asarray(bu_instances, dtype=np.int64)

        pair_row, pair_vertex = np.nonzero(depths[bu_rows] == UNVISITED)
        if pair_row.size == 0:
            return 0, 0, np.zeros(len(bu_instances), dtype=np.int64), 0
        pair_vertex = pair_vertex.astype(VERTEX_DTYPE)
        starts = offsets[pair_vertex]
        ends = offsets[pair_vertex + 1]

        # Each (instance, vertex) pair scans its vertex's in-neighbors
        # until the instance sees a visited parent — a per-pair-local
        # stop condition, so the synchronized round loop collapses into
        # degree-bucketed vector passes with identical probe counts.
        def parent_hit(positions: np.ndarray, nb: np.ndarray) -> np.ndarray:
            inst = bu_rows[pair_row[positions]]
            parent_depth = depths[inst, nb]
            return (parent_depth >= 0) & (parent_depth <= level)

        probes, found = bucketed_hit_scan(
            indices,
            starts,
            ends - starts,
            parent_hit,
            depth_table=depths,
            inst=bu_rows[pair_row],
            level=level,
        )

        discovered_idx = np.flatnonzero(found)
        depths[
            bu_rows[pair_row[discovered_idx]], pair_vertex[discovered_idx]
        ] = level + 1
        early = int(np.count_nonzero(found & (probes < (ends - starts))))
        bu_inspections[bu_rows] += np.bincount(
            pair_row, weights=probes.astype(np.float64),
            minlength=len(bu_instances),
        ).astype(np.int64)
        discovered_per_instance = np.bincount(
            pair_row[discovered_idx], minlength=len(bu_instances)
        )
        # A vertex is probed in synchronized round r while any of its
        # pairs is still scanning (pairs are alive for rounds
        # 0..probes-1), so its round count is the max over its pairs.
        order = np.argsort(pair_vertex, kind="stable")
        pv_sorted = pair_vertex[order]
        boundary = np.empty(pv_sorted.size, dtype=bool)
        boundary[0] = True
        np.not_equal(pv_sorted[1:], pv_sorted[:-1], out=boundary[1:])
        vertex_rounds = int(
            np.maximum.reduceat(probes[order], np.flatnonzero(boundary)).sum()
        )
        return int(probes.sum()), early, discovered_per_instance, vertex_rounds
