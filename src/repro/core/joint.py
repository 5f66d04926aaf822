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

The level loop — decisions, retirement, level statistics and one
``profile.level`` span per level — is
:class:`~repro.core.traversal.GroupTraversal`'s, shared with the BSA
engine; this module supplies the JSA level, which reports each
instance's new frontier through
:func:`~repro.kernels.bookkeeping.new_frontier_stats` while the loop
keeps the visited-degree totals.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graph.csr import VERTEX_DTYPE
from repro.gpusim.counters import LevelRecord, RunRecord
from repro.core.traversal import GroupTraversal
from repro.kernels import bucketed_hit_scan, new_frontier_stats
from repro.plan.types import LevelDecision
from repro.util import gather_neighbors

#: One status byte per (vertex, instance) pair, as in figure 4.
JSA_STATUS_BYTES = 1
INSTRUCTIONS_PER_INSPECTION = 10
INSTRUCTIONS_PER_VERTEX = 6

UNVISITED = -1


class JointTraversal(GroupTraversal):
    """Joint (JSA-based, non-bitwise) traversal of one group.

    ``planner`` makes every per-level decision (default
    ``HeuristicPolicy()``).
    """

    name = "joint"

    def _begin_group(self, sources: List[int], inspections: np.ndarray):
        group_size = len(sources)
        depths = np.full(
            (group_size, self.graph.num_vertices), UNVISITED, dtype=np.int32
        )
        depths[np.arange(group_size), sources] = 0
        return depths, inspections

    def _depths(self, state) -> np.ndarray:
        return state[0]

    # ------------------------------------------------------------------
    # One synchronized level of the joint kernel
    # ------------------------------------------------------------------
    def _level(
        self,
        state,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        decision: LevelDecision,
        record: RunRecord,
    ):
        depths, bu_inspections = state
        mem = self.device.memory
        counters = record.counters
        group_size = depths.shape[0]
        num_vertices = depths.shape[1]

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
        sizes = (
            fq_td,
            int(np.count_nonzero(td_mask)),
            fq_bu,
            int(np.count_nonzero(bu_mask)),
            jfq_size,
        )
        if jfq_size == 0:
            record.append(LevelRecord(depth=level, direction="td"))
            counters.levels += 1
            empty = np.zeros(group_size, dtype=np.int64)
            return sizes, empty, empty

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
            degrees = self._out_degrees[td_frontier]
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
        # A vertex first reached this level holds depth level + 1; the
        # level loop keeps the visited-degree sums incrementally.
        counts, frontier_edges = new_frontier_stats(
            depths, level, self._out_degrees
        )
        return sizes, counts, frontier_edges

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
