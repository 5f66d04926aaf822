"""Single-source direction-optimizing BFS on the simulated device.

This is the Enterprise-style [33] engine iBFS builds on: top-down
expansion + inspection with a frontier queue and status array, a
Beamer-style switch to bottom-up, and per-vertex early termination in
bottom-up ("since its first neighbor 3 is visited, bottom-up BFS will
mark the depth of vertex 6 as 4, and there is no need to check
additional neighbors").

Every level emits exact counts of inspections, queue operations, and
coalesced memory transactions derived from the actual addresses
touched, so the cost model can price it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.gpusim.counters import LevelRecord, RunRecord
from repro.gpusim.device import Device
from repro.kernels import bucketed_hit_scan, round_major_probes
from repro.plan.policy import (
    DirectionPolicy,
    HeuristicPolicy,
    Policy,
    RecordedPolicy,
)
from repro.plan.types import Direction, LevelDecision, LevelStats, RunPlan
from repro.util import gather_neighbors

#: Bytes of one per-vertex status entry (depth byte in the status array).
STATUS_BYTES = 4
#: Scalar instructions charged per edge inspection / per frontier vertex.
INSTRUCTIONS_PER_EDGE = 10
INSTRUCTIONS_PER_VERTEX = 6

UNVISITED = -1


@dataclass
class SingleResult:
    """Outcome of one single-source traversal."""

    source: int
    depths: np.ndarray
    record: RunRecord
    seconds: float
    #: Decision log of the traversal (one-instance ``RunPlan``).
    plan: Optional[RunPlan] = None

    @property
    def edges_traversed(self) -> int:
        return self.record.counters.edges_traversed

    @property
    def teps(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.edges_traversed / self.seconds

    @property
    def reached(self) -> int:
        return int(np.count_nonzero(self.depths >= 0))


class SingleBFS:
    """Direction-optimizing single-source BFS engine.

    Parameters
    ----------
    graph:
        Graph to traverse (its reverse CSR is used for bottom-up).
    device:
        Simulated execution target; defaults to a Kepler K40.
    policy:
        Direction-switch policy; pass ``allow_bottom_up=False`` for a
        top-down-only engine (the B40C baseline).
    """

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.policy = policy or DirectionPolicy()
        if planner is None:
            planner = HeuristicPolicy.from_direction_policy(self.policy)
        self.planner = planner
        self._reverse = graph.reverse() if planner.allow_bottom_up else None

    def run(
        self,
        source: int,
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ) -> SingleResult:
        """Traverse from ``source`` and return depths plus cost records.

        With ``plan=`` the recorded decisions replay verbatim — the
        per-level frontier statistics that feed the direction heuristic
        are never computed.
        """
        n = self.graph.num_vertices
        if not 0 <= source < n:
            raise TraversalError(f"source {source} out of range [0, {n})")
        if plan is not None:
            planner: Policy = RecordedPolicy(plan)
        else:
            planner = self.planner
        total_edges = self.graph.num_edges
        session = planner.session(1, n, total_edges)
        wants_stats = session.wants_stats
        run_plan = RunPlan(policy=planner.name, engine="single", group_size=1)

        depths = np.full(n, UNVISITED, dtype=np.int32)
        depths[source] = 0
        record = RunRecord()
        frontier = np.asarray([source], dtype=VERTEX_DTYPE)
        decision: Optional[LevelDecision] = None
        stats_prev: Optional[LevelStats] = None
        level = 0
        while True:
            if max_depth is not None and level >= max_depth:
                break
            if decision is None:
                decision = session.initial()
            else:
                decision = session.next(stats_prev)
            direction = decision.directions[0]
            if direction is Direction.TOP_DOWN:
                if frontier.size == 0:
                    break
                new_frontier = self._top_down_level(depths, frontier, level, record)
                run_plan.append(decision)
            else:
                if self._reverse is None:
                    self._reverse = self.graph.reverse()
                unvisited = np.flatnonzero(depths == UNVISITED).astype(VERTEX_DTYPE)
                if unvisited.size == 0:
                    break
                new_frontier = self._bottom_up_level(
                    depths, unvisited, level, record
                )
                run_plan.append(decision)
                if new_frontier.size == 0:
                    break
            if wants_stats:
                frontier_edges = int(self.graph.out_degrees()[new_frontier].sum())
                explored = depths >= 0
                unexplored_edges = total_edges - int(
                    self.graph.out_degrees()[explored].sum()
                )
                stats_prev = LevelStats(
                    level=level,
                    num_vertices=n,
                    total_edges=total_edges,
                    frontier_vertices=(int(new_frontier.size),),
                    frontier_edges=(frontier_edges,),
                    unexplored_edges=(unexplored_edges,),
                    visited_vertices=(int(np.count_nonzero(explored)),),
                    active=(True,),
                )
            frontier = new_frontier
            level += 1
            if frontier.size == 0:
                break
        record.counters.kernel_launches += 1
        seconds = self.device.cost.kernel_time(record.levels)
        return SingleResult(source, depths, record, seconds, plan=run_plan)

    # ------------------------------------------------------------------
    # Top-down: expand frontiers, inspect unvisited neighbors
    # ------------------------------------------------------------------
    def _top_down_level(
        self,
        depths: np.ndarray,
        frontier: np.ndarray,
        level: int,
        record: RunRecord,
    ) -> np.ndarray:
        mem = self.device.memory
        counters = record.counters
        degrees = self.graph.out_degrees()[frontier]
        _, neighbors = gather_neighbors(self.graph, frontier)

        unvisited_mask = depths[neighbors] == UNVISITED
        discovered = neighbors[unvisited_mask]
        new_frontier = np.unique(discovered).astype(VERTEX_DTYPE)
        depths[new_frontier] = level + 1

        inspections = int(neighbors.size)
        counters.inspections += inspections
        counters.edges_traversed += inspections
        counters.frontier_enqueues += int(new_frontier.size)
        counters.levels += 1

        # Memory traffic: read FQ, load adjacency lists, inspect neighbor
        # statuses (scattered), write discovered statuses (scattered),
        # regenerate FQ by scanning the status array.
        loads = mem.stream_transactions(int(frontier.size) * 8)
        loads += mem.adjacency_transactions(degrees)
        inspect_txn, inspect_req = mem.coalesced_transactions(neighbors, STATUS_BYTES)
        loads += inspect_txn
        fq_scan = mem.stream_transactions(depths.size * STATUS_BYTES)
        loads += fq_scan
        store_txn, store_req = mem.coalesced_transactions(discovered, STATUS_BYTES)
        stores = store_txn + mem.stream_transactions(int(new_frontier.size) * 8)

        counters.global_load_transactions += loads
        counters.global_store_transactions += stores
        counters.global_load_requests += (
            inspect_req
            + self.device.warps_for(int(frontier.size))
            + self.device.warps_for(depths.size)
        )
        counters.global_store_requests += store_req + self.device.warps_for(
            int(new_frontier.size)
        )
        instructions = (
            inspections * INSTRUCTIONS_PER_EDGE
            + int(frontier.size) * INSTRUCTIONS_PER_VERTEX
        )
        counters.instructions += instructions

        record.append(
            LevelRecord(
                depth=level,
                direction="td",
                load_transactions=loads,
                store_transactions=stores,
                atomics=0,
                instructions=instructions,
                threads=int(frontier.size),
                frontier_size=int(frontier.size),
            )
        )
        return new_frontier

    # ------------------------------------------------------------------
    # Bottom-up: unvisited vertices probe in-neighbors until a visited
    # parent is found (early termination)
    # ------------------------------------------------------------------
    def _bottom_up_level(
        self,
        depths: np.ndarray,
        unvisited: np.ndarray,
        level: int,
        record: RunRecord,
    ) -> np.ndarray:
        assert self._reverse is not None
        mem = self.device.memory
        counters = record.counters
        rev = self._reverse
        offsets = rev.row_offsets
        indices = rev.col_indices

        active = unvisited
        starts = offsets[active]
        ends = offsets[active + 1]

        # "Visited" here means depth assigned at an earlier level;
        # vertices discovered during this same level carry depth
        # level + 1 and must not count as parents yet.  The scan itself
        # runs as degree-bucketed vector passes; per-vertex probe counts
        # and first-hit results are identical to the synchronized round
        # loop, and the round-major probe stream is reconstructed for
        # the coalescing model.
        def parent_hit(_positions: np.ndarray, nb: np.ndarray) -> np.ndarray:
            parent_depth = depths[nb]
            return (parent_depth >= 0) & (parent_depth <= level)

        probes, found = bucketed_hit_scan(
            indices,
            starts,
            ends - starts,
            parent_hit,
            depth_table=depths,
            level=level,
        )

        discovered = active[found]
        depths[discovered] = level + 1
        early = found & (probes < (ends - starts))
        counters.early_terminations += int(np.count_nonzero(early))

        inspections = int(probes.sum())
        counters.inspections += inspections
        counters.bottom_up_inspections += inspections
        counters.edges_traversed += inspections
        counters.frontier_enqueues += int(active.size)
        counters.levels += 1

        probed_ids = round_major_probes(indices, starts, probes)
        loads = mem.stream_transactions(int(active.size) * 8)
        per_line = self.device.config.entries_per_transaction
        loads += int(np.sum((probes + per_line - 1) // per_line))
        inspect_txn, inspect_req = mem.coalesced_transactions(probed_ids, STATUS_BYTES)
        loads += inspect_txn
        loads += mem.stream_transactions(depths.size * STATUS_BYTES)
        store_txn, store_req = mem.coalesced_transactions(discovered, STATUS_BYTES)
        stores = store_txn + mem.stream_transactions(int(active.size) * 8)

        counters.global_load_transactions += loads
        counters.global_store_transactions += stores
        counters.global_load_requests += (
            inspect_req
            + self.device.warps_for(int(active.size))
            + self.device.warps_for(depths.size)
        )
        counters.global_store_requests += store_req + self.device.warps_for(
            int(active.size)
        )
        instructions = (
            inspections * INSTRUCTIONS_PER_EDGE
            + int(active.size) * INSTRUCTIONS_PER_VERTEX
        )
        counters.instructions += instructions

        record.append(
            LevelRecord(
                depth=level,
                direction="bu",
                load_transactions=loads,
                store_transactions=stores,
                atomics=0,
                instructions=instructions,
                threads=int(active.size),
                frontier_size=int(active.size),
            )
        )
        return discovered
