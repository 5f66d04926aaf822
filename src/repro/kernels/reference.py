"""Frozen pre-kernels engines: the equivalence oracle and perf baseline.

These classes are verbatim copies of the traversal engines as they stood
before the vectorized kernel layer (:mod:`repro.kernels`) was introduced:
scalar ``np.bitwise_or.at`` scatters, a full BSA snapshot copy per level,
per-instance Python bookkeeping loops, and a one-round-per-iteration
bottom-up scan.  They are kept for two purposes:

* the equivalence suite (``tests/test_kernels_equivalence.py``) asserts
  that the rewired engines produce bit-identical depths, stats, and
  simulated counters against these references;
* the wall-clock benchmark (``benchmarks/bench_kernel_walltime.py``)
  measures the kernel layer's host-speed win against them.

Do not "fix" or optimize this module — it is intentionally slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.gpusim.counters import LevelRecord, RunRecord
from repro.gpusim.device import Device
from repro.plan import Direction, DirectionPolicy
from repro.bfs.single import SingleResult
from repro.core.result import GroupStats
from repro.core.sharing import SharingObserver
from repro.core.status_array import instance_masks, lanes_for
from repro.util import gather_neighbors

UNVISITED = -1

_BW_INSTRUCTIONS_PER_INSPECTION = 6
_BW_INSTRUCTIONS_PER_VERTEX = 6


class ReferenceBitwiseTraversal:
    """Bitwise (BSA-based) joint traversal of one group.

    Parameters
    ----------
    graph:
        Graph to traverse.
    device:
        Simulated execution target.
    policy:
        Direction-switch policy shared by all instances.
    early_termination:
        Stop a bottom-up scan once every tracked bit of the frontier is
        set (iBFS); disable to model MS-BFS.
    reset_per_level:
        Model MS-BFS's per-level ``visit`` array reset: adds the reset
        traffic and disables the XOR-based identification discount.
    thread_per_instance:
        Model MS-BFS's one-software-thread-per-instance execution
        (thread demand = N) instead of iBFS's thread-per-frontier.
    vector_width:
        CUDA vector data types (section 6): a ``long2``/``long4`` load
        fetches 2/4 status words per instruction, so multi-lane status
        scans issue ``1/width`` as many load requests and instructions.
        Bytes moved (transactions) are unchanged.
    direction_mode:
        ``"per-instance"`` (default — each instance switches direction
        on its own Beamer state, as iBFS's mixed-direction kernel
        allows) or ``"per-group"`` (all instances vote once on the
        aggregate frontier statistics and switch together — simpler
        kernels, but stragglers drag the group; the ablation benchmark
        quantifies the difference).  Depths are exact either way.
    """

    name = "bitwise"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
        early_termination: bool = True,
        reset_per_level: bool = False,
        thread_per_instance: bool = False,
        vector_width: int = 1,
        direction_mode: str = "per-instance",
    ) -> None:
        if vector_width not in (1, 2, 4):
            raise TraversalError(
                f"vector_width must be 1, 2, or 4 (long/long2/long4); "
                f"got {vector_width}"
            )
        if direction_mode not in ("per-instance", "per-group"):
            raise TraversalError(
                f"direction_mode must be 'per-instance' or 'per-group'; "
                f"got {direction_mode!r}"
            )
        self.graph = graph
        self.device = device or Device()
        self.policy = policy or DirectionPolicy()
        self.early_termination = early_termination
        self.reset_per_level = reset_per_level
        self.thread_per_instance = thread_per_instance
        self.vector_width = vector_width
        self.direction_mode = direction_mode
        self._reverse = graph.reverse() if self.policy.allow_bottom_up else None

    # ------------------------------------------------------------------
    def run_group(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
    ):
        """Traverse all sources jointly with the bitwise status array.

        Returns ``(depths, record, stats)`` like
        :meth:`JointTraversal.run_group`.
        """
        sources = [int(s) for s in sources]
        n = self.graph.num_vertices
        group_size = len(sources)
        if group_size == 0:
            raise TraversalError("group must contain at least one source")
        for s in sources:
            if not 0 <= s < n:
                raise TraversalError(f"source {s} out of range [0, {n})")

        lanes = lanes_for(group_size)
        masks = instance_masks(group_size)
        bsa = np.zeros((n, lanes), dtype=np.uint64)
        depths = np.full((group_size, n), UNVISITED, dtype=np.int32)
        for j, s in enumerate(sources):
            bsa[s] |= masks[j]
            depths[j, s] = 0

        directions = [self.policy.initial()] * group_size
        active = np.ones(group_size, dtype=bool)
        out_degrees = self.graph.out_degrees()
        total_edges = self.graph.num_edges

        record = RunRecord()
        observer = SharingObserver(group_size)
        sharing_log = {"td": [], "bu": []}
        bu_inspections = np.zeros(group_size, dtype=np.int64)

        level = 0
        while active.any():
            if max_depth is not None and level >= max_depth:
                break
            if level > n + 1:
                raise TraversalError("traversal failed to converge")
            td_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.TOP_DOWN
            ]
            bu_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.BOTTOM_UP
            ]
            progressed = self._level(
                bsa,
                depths,
                masks,
                td_instances,
                bu_instances,
                level,
                record,
                observer,
                sharing_log,
                bu_inspections,
            )
            group_frontier_edges = 0
            group_unexplored = 0
            group_frontier_count = 0
            for j in range(group_size):
                if not active[j]:
                    continue
                new_frontier = depths[j] == level + 1
                frontier_count = int(np.count_nonzero(new_frontier))
                if directions[j] is Direction.TOP_DOWN:
                    if frontier_count == 0:
                        active[j] = False
                        continue
                else:
                    if not progressed[j]:
                        active[j] = False
                        continue
                frontier_edges = int(out_degrees[new_frontier].sum())
                unexplored = total_edges - int(out_degrees[depths[j] >= 0].sum())
                if self.direction_mode == "per-instance":
                    directions[j] = self.policy.next_direction(
                        directions[j],
                        frontier_edges,
                        unexplored,
                        frontier_count,
                        n,
                    )
                else:
                    group_frontier_edges += frontier_edges
                    group_unexplored += unexplored
                    group_frontier_count += frontier_count
            if self.direction_mode == "per-group" and active.any():
                # One vote on aggregate statistics; every live instance
                # follows it (the "still" per-instance Direction state
                # machine sees the mean instance).
                survivors = [j for j in range(group_size) if active[j]]
                live = len(survivors)
                current = directions[survivors[0]]
                voted = self.policy.next_direction(
                    current,
                    group_frontier_edges // live,
                    group_unexplored // live,
                    group_frontier_count // live,
                    n,
                )
                for j in survivors:
                    directions[j] = voted
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
        )
        return depths, record, stats

    # ------------------------------------------------------------------
    # One synchronized level
    # ------------------------------------------------------------------
    def _level(
        self,
        bsa: np.ndarray,
        depths: np.ndarray,
        masks: np.ndarray,
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
        lanes = bsa.shape[1]
        word_bytes = lanes * 8
        progressed = np.zeros(group_size, dtype=bool)

        td_mask = (
            np.any(depths[td_instances] == level, axis=0)
            if td_instances
            else np.zeros(num_vertices, dtype=bool)
        )
        bu_mask_vertices = (
            np.any(depths[bu_instances] == UNVISITED, axis=0)
            if bu_instances
            else np.zeros(num_vertices, dtype=bool)
        )
        jfq_size = int(np.count_nonzero(td_mask | bu_mask_vertices))
        fq_td = sum(
            int(np.count_nonzero(depths[j] == level)) for j in td_instances
        )
        fq_bu = sum(
            int(np.count_nonzero(depths[j] == UNVISITED)) for j in bu_instances
        )
        observer.record_level(fq_td + fq_bu, jfq_size)
        sharing_log["td"].append((fq_td, int(np.count_nonzero(td_mask))))
        sharing_log["bu"].append(
            (fq_bu, int(np.count_nonzero(bu_mask_vertices)))
        )
        if jfq_size == 0:
            record.append(LevelRecord(depth=level, direction="td"))
            counters.levels += 1
            return progressed

        snapshot = bsa.copy()
        loads = 0
        stores = 0
        load_requests = 0
        store_requests = 0
        atomics = 0
        inspections_level = 0
        # TEPS counts each *instance's* traversed edges (the paper's
        # workload does not shrink under sharing); physical inspections
        # count the single-thread bitwise operations actually executed.
        logical_edges = 0
        out_degrees = self.graph.out_degrees()
        for j in td_instances:
            logical_edges += int(out_degrees[depths[j] == level].sum())

        # --- Top-down pass: BSA[v] |= BSA_k[f] ------------------------
        td_frontier = np.flatnonzero(td_mask).astype(VERTEX_DTYPE)
        if td_frontier.size:
            td_lane_mask = _reference_combine_masks(masks, td_instances)
            frontier_words = snapshot[td_frontier] & td_lane_mask
            degrees = self.graph.out_degrees()[td_frontier]
            sources_rep, neighbors = gather_neighbors(self.graph, td_frontier)
            # One thread per frontier performs one OR per neighbor,
            # regardless of how many instances share the frontier.
            inspections_level += int(neighbors.size)
            word_per_pair = np.repeat(frontier_words, degrees, axis=0)
            np.bitwise_or.at(bsa, neighbors, word_per_pair)

            loads += mem.stream_transactions(td_frontier.size * 8)
            frontier_ld, frontier_req = mem.coalesced_transactions(
                td_frontier, word_bytes
            )
            loads += frontier_ld
            loads += mem.adjacency_transactions(degrees)
            nb_ld, nb_req = mem.coalesced_transactions(neighbors, word_bytes)
            loads += nb_ld
            load_requests += frontier_req + nb_req
            # Shared-memory merging inside each CTA collapses duplicate
            # neighbor updates; only the merged words hit global atomics.
            unique_targets = np.unique(neighbors)
            atomics += int(unique_targets.size)
            counters.shared_memory_accesses += int(
                neighbors.size - unique_targets.size
            )
            st_txn, st_req = mem.coalesced_transactions(unique_targets, word_bytes)
            stores += st_txn
            store_requests += st_req

        # --- Bottom-up pass: BSA[f] |= BSA_k[v], early termination ----
        if bu_instances:
            bu_lane_mask = _reference_combine_masks(masks, bu_instances)
            tally_before = int(bu_inspections.sum())
            probes_total, early, updated = self._bottom_up_pass(
                bsa, snapshot, bu_mask_vertices, bu_lane_mask, bu_inspections
            )
            logical_edges += int(bu_inspections.sum()) - tally_before
            inspections_level += probes_total
            counters.bottom_up_inspections += probes_total
            counters.early_terminations += early
            bu_frontier = np.flatnonzero(bu_mask_vertices).astype(VERTEX_DTYPE)
            loads += mem.stream_transactions(bu_frontier.size * 8)
            per_line = self.device.config.entries_per_transaction
            loads += int(
                np.sum(
                    (self._per_vertex_probes + per_line - 1) // per_line
                )
            )
            probe_ld, probe_req = mem.coalesced_transactions(
                self._probed_neighbors, word_bytes
            )
            loads += probe_ld
            load_requests += probe_req
            st_txn, st_req = mem.coalesced_transactions(updated, word_bytes)
            stores += st_txn
            store_requests += st_req
            # Bottom-up merges updates tree-wise within warps/CTAs,
            # avoiding atomics (section 6, Summary).

        # --- Depth extraction (frontier identification, Algorithm 2) --
        diff = bsa ^ snapshot
        changed = np.flatnonzero(np.any(diff != 0, axis=1))
        for j in (*td_instances, *bu_instances):
            lane, bit = divmod(j, 64)
            got = changed[
                (diff[changed, lane] >> np.uint64(bit)) & np.uint64(1) != 0
            ]
            if got.size:
                depths[j, got] = level + 1
                progressed[j] = True

        # Identification scans BSA_k and BSA_{k+1}; MS-BFS additionally
        # rewrites its per-level visit array.  Vector loads (long2/long4)
        # fetch several lanes per instruction: same bytes, fewer
        # requests and fewer scan instructions.
        words_per_vertex = -(-lanes // self.vector_width)
        scan_ops = num_vertices * words_per_vertex
        loads += 2 * mem.stream_transactions(num_vertices * word_bytes)
        load_requests += 2 * self.device.warps_for(scan_ops)
        if self.reset_per_level:
            stores += mem.stream_transactions(num_vertices * word_bytes)
            store_requests += self.device.warps_for(scan_ops)
        stores += mem.stream_transactions(jfq_size * 8)
        store_requests += self.device.warps_for(jfq_size)
        counters.frontier_enqueues += jfq_size

        instructions = (
            inspections_level * _BW_INSTRUCTIONS_PER_INSPECTION * words_per_vertex
            + (jfq_size + scan_ops) * _BW_INSTRUCTIONS_PER_VERTEX
        )
        counters.inspections += inspections_level
        counters.edges_traversed += logical_edges
        counters.levels += 1
        counters.atomic_operations += atomics
        counters.global_load_transactions += loads
        counters.global_store_transactions += stores
        counters.global_load_requests += load_requests
        counters.global_store_requests += store_requests
        counters.instructions += instructions

        threads = group_size if self.thread_per_instance else jfq_size
        record.append(
            LevelRecord(
                depth=level,
                direction="bu" if bu_instances and not td_instances else "td",
                load_transactions=loads,
                store_transactions=stores,
                atomics=atomics,
                instructions=instructions,
                threads=threads,
                frontier_size=jfq_size,
            )
        )
        return progressed

    # ------------------------------------------------------------------
    def _bottom_up_pass(
        self,
        bsa: np.ndarray,
        snapshot: np.ndarray,
        bu_mask_vertices: np.ndarray,
        bu_lane_mask: np.ndarray,
        bu_inspections: np.ndarray,
    ):
        """Scan in-neighbors of unvisited vertices, OR-ing their words.

        A single thread serves each frontier; with early termination it
        stops at the first prefix of the neighbor list that fills every
        tracked bit.  Returns ``(probes, early_terminations,
        updated_vertices)``, stashes per-vertex probe counts for the
        caller's transaction accounting, and attributes per-instance
        inspection counts (an instance "inspects" a vertex while its own
        bit is still unset — figure 11's balance metric).
        """
        assert self._reverse is not None
        rev = self._reverse
        offsets = rev.row_offsets
        indices = rev.col_indices

        frontier = np.flatnonzero(bu_mask_vertices).astype(VERTEX_DTYPE)
        starts = offsets[frontier]
        ends = offsets[frontier + 1]
        state = snapshot[frontier] & bu_lane_mask
        acc = np.zeros_like(state)
        target = np.broadcast_to(bu_lane_mask, state.shape)
        done = np.all(state == target, axis=1) if self.early_termination else (
            np.zeros(frontier.size, dtype=bool)
        )
        probes = np.zeros(frontier.size, dtype=np.int64)
        probed_parts: List[np.ndarray] = []
        round_idx = 0
        while True:
            alive = ~done & (starts + round_idx < ends)
            if not alive.any():
                break
            alive_idx = np.flatnonzero(alive)
            nb = indices[starts[alive_idx] + round_idx]
            probed_parts.append(nb)
            probes[alive_idx] += 1
            # Instances whose bit is still unset are the ones logically
            # probing this round; tally their inspections.
            pending = (~(state[alive_idx] | acc[alive_idx])) & bu_lane_mask
            bu_inspections += _reference_per_bit_counts(pending, bu_inspections.size)
            contribution = snapshot[nb] & bu_lane_mask
            acc[alive_idx] |= contribution
            if self.early_termination:
                state_alive = state[alive_idx] | acc[alive_idx]
                full = np.all(state_alive == target[alive_idx], axis=1)
                done[alive_idx[full]] = True
            round_idx += 1

        np.bitwise_or.at(bsa, frontier, acc)
        early = int(np.count_nonzero(done & (probes < (ends - starts))))
        updated = frontier[np.any((acc | state) != state, axis=1)]
        self._per_vertex_probes = probes
        self._probed_neighbors = (
            np.concatenate(probed_parts)
            if probed_parts
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        return int(probes.sum()), early, updated


def _reference_combine_masks(masks: np.ndarray, instances: List[int]) -> np.ndarray:
    """OR together the lane masks of the given instances."""
    combined = np.zeros(masks.shape[1], dtype=np.uint64)
    for j in instances:
        combined |= masks[j]
    return combined


def _reference_per_bit_counts(words: np.ndarray, group_size: int) -> np.ndarray:
    """Column sums of the bit matrix encoded by ``(rows, lanes)`` words.

    ``out[j]`` is the number of rows whose instance-``j`` bit is set;
    uint64 lanes are little-endian, so unpacked bit ``j`` of a row is
    exactly instance ``j``'s bit.
    """
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
    as_bytes = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    bits = np.unpackbits(
        as_bytes.reshape(words.shape[0], -1), axis=1, bitorder="little"
    )
    return bits.sum(axis=0, dtype=np.int64)[:group_size]


#: One status byte per (vertex, instance) pair, as in figure 4.
JSA_STATUS_BYTES = 1
_JSA_INSTRUCTIONS_PER_INSPECTION = 10
_JSA_INSTRUCTIONS_PER_VERTEX = 6


class ReferenceJointTraversal:
    """Joint (JSA-based, non-bitwise) traversal of one group."""

    name = "joint"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        policy: Optional[DirectionPolicy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.policy = policy or DirectionPolicy()
        self._reverse = graph.reverse() if self.policy.allow_bottom_up else None

    def run_group(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
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

        depths = np.full((group_size, n), UNVISITED, dtype=np.int32)
        depths[np.arange(group_size), sources] = 0
        directions = [self.policy.initial()] * group_size
        active = np.ones(group_size, dtype=bool)
        out_degrees = self.graph.out_degrees()
        total_edges = self.graph.num_edges

        record = RunRecord()
        observer = SharingObserver(group_size)
        sharing_log = {"td": [], "bu": []}
        bu_inspections = np.zeros(group_size, dtype=np.int64)

        level = 0
        while active.any():
            if max_depth is not None and level >= max_depth:
                break
            if level > n + 1:
                raise TraversalError("traversal failed to converge")
            td_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.TOP_DOWN
            ]
            bu_instances = [
                j for j in range(group_size)
                if active[j] and directions[j] is Direction.BOTTOM_UP
            ]
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

            # Per-instance bookkeeping: completion and direction switch.
            for j in range(group_size):
                if not active[j]:
                    continue
                new_frontier = depths[j] == level + 1
                frontier_count = int(np.count_nonzero(new_frontier))
                if directions[j] is Direction.TOP_DOWN:
                    if frontier_count == 0:
                        active[j] = False
                        continue
                else:
                    if not progressed[j]:
                        active[j] = False
                        continue
                frontier_edges = int(out_degrees[new_frontier].sum())
                unexplored = total_edges - int(out_degrees[depths[j] >= 0].sum())
                directions[j] = self.policy.next_direction(
                    directions[j],
                    frontier_edges,
                    unexplored,
                    frontier_count,
                    n,
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
            inspections_level * _JSA_INSTRUCTIONS_PER_INSPECTION
            + jfq_size * _JSA_INSTRUCTIONS_PER_VERTEX
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
        found = np.zeros(pair_row.size, dtype=bool)
        probes = np.zeros(pair_row.size, dtype=np.int64)
        vertex_rounds = 0
        round_idx = 0
        while True:
            alive = ~found & (starts + round_idx < ends)
            if not alive.any():
                break
            alive_idx = np.flatnonzero(alive)
            nb = indices[starts[alive_idx] + round_idx]
            inst = bu_rows[pair_row[alive_idx]]
            probes[alive_idx] += 1
            vertex_rounds += int(np.unique(pair_vertex[alive_idx]).size)
            parent_depth = depths[inst, nb]
            hit = (parent_depth >= 0) & (parent_depth <= level)
            found[alive_idx[hit]] = True
            round_idx += 1

        discovered_idx = np.flatnonzero(found)
        depths[
            bu_rows[pair_row[discovered_idx]], pair_vertex[discovered_idx]
        ] = level + 1
        early = int(np.count_nonzero(found & (probes < (ends - starts))))
        np.add.at(bu_inspections, bu_rows[pair_row], probes)
        discovered_per_instance = np.bincount(
            pair_row[discovered_idx], minlength=len(bu_instances)
        )
        return int(probes.sum()), early, discovered_per_instance, vertex_rounds


#: Bytes of one per-vertex status entry (depth byte in the status array).
_SS_STATUS_BYTES = 4
#: Scalar instructions charged per edge inspection / per frontier vertex.
_SS_INSTRUCTIONS_PER_EDGE = 10
_SS_INSTRUCTIONS_PER_VERTEX = 6


class ReferenceSingleBFS:
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
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.policy = policy or DirectionPolicy()
        self._reverse = graph.reverse() if self.policy.allow_bottom_up else None

    def run(self, source: int, max_depth: Optional[int] = None) -> SingleResult:
        """Traverse from ``source`` and return depths plus cost records."""
        n = self.graph.num_vertices
        if not 0 <= source < n:
            raise TraversalError(f"source {source} out of range [0, {n})")
        depths = np.full(n, UNVISITED, dtype=np.int32)
        depths[source] = 0
        record = RunRecord()
        direction = self.policy.initial()
        total_edges = self.graph.num_edges
        frontier = np.asarray([source], dtype=VERTEX_DTYPE)
        level = 0
        while True:
            if max_depth is not None and level >= max_depth:
                break
            if direction is Direction.TOP_DOWN:
                if frontier.size == 0:
                    break
                new_frontier = self._top_down_level(depths, frontier, level, record)
            else:
                unvisited = np.flatnonzero(depths == UNVISITED).astype(VERTEX_DTYPE)
                if unvisited.size == 0:
                    break
                new_frontier = self._bottom_up_level(depths, unvisited, level, record)
                if new_frontier.size == 0:
                    break
            frontier_edges = int(self.graph.out_degrees()[new_frontier].sum())
            explored = depths >= 0
            unexplored_edges = total_edges - int(
                self.graph.out_degrees()[explored].sum()
            )
            direction = self.policy.next_direction(
                direction,
                frontier_edges,
                unexplored_edges,
                int(new_frontier.size),
                n,
            )
            frontier = new_frontier
            level += 1
            if frontier.size == 0:
                break
        record.counters.kernel_launches += 1
        seconds = self.device.cost.kernel_time(record.levels)
        return SingleResult(source, depths, record, seconds)

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
        inspect_txn, inspect_req = mem.coalesced_transactions(neighbors, _SS_STATUS_BYTES)
        loads += inspect_txn
        fq_scan = mem.stream_transactions(depths.size * _SS_STATUS_BYTES)
        loads += fq_scan
        store_txn, store_req = mem.coalesced_transactions(discovered, _SS_STATUS_BYTES)
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
            inspections * _SS_INSTRUCTIONS_PER_EDGE
            + int(frontier.size) * _SS_INSTRUCTIONS_PER_VERTEX
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
        probes = np.zeros(active.size, dtype=np.int64)
        found = np.zeros(active.size, dtype=bool)
        probed_ids_parts = []
        round_idx = 0
        while True:
            alive = ~found & (starts + round_idx < ends)
            if not alive.any():
                break
            slots = starts[alive] + round_idx
            probed = indices[slots]
            probed_ids_parts.append(probed)
            probes[alive] += 1
            # "Visited" here means depth assigned at an earlier level;
            # vertices discovered during this same level carry depth
            # level + 1 and must not count as parents yet.
            parent_found = (depths[probed] >= 0) & (depths[probed] <= level)
            hit = np.flatnonzero(alive)[parent_found]
            found[hit] = True
            round_idx += 1

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

        probed_ids = (
            np.concatenate(probed_ids_parts)
            if probed_ids_parts
            else np.empty(0, dtype=VERTEX_DTYPE)
        )
        loads = mem.stream_transactions(int(active.size) * 8)
        per_line = self.device.config.entries_per_transaction
        loads += int(np.sum((probes + per_line - 1) // per_line))
        inspect_txn, inspect_req = mem.coalesced_transactions(probed_ids, _SS_STATUS_BYTES)
        loads += inspect_txn
        loads += mem.stream_transactions(depths.size * _SS_STATUS_BYTES)
        store_txn, store_req = mem.coalesced_transactions(discovered, _SS_STATUS_BYTES)
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
            inspections * _SS_INSTRUCTIONS_PER_EDGE
            + int(active.size) * _SS_INSTRUCTIONS_PER_VERTEX
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
