"""Bitwise traversal (section 6): BSA, bitwise inspection, early termination.

One *bit* per (vertex, instance) pair replaces the JSA's byte, and a
**single thread** inspects a vertex for the whole group with one OR:

* top-down (Algorithm 1): ``BSA_{k+1}[v] |= BSA_k[f]`` for every
  neighbor ``v`` of frontier ``f`` — atomics merge concurrent updates;
* bottom-up: ``BSA_{k+1}[f] |= BSA_k[v]`` neighbor by neighbor, with
  **early termination** the moment ``BSA_{k+1}[f]`` is all-ones;
* frontier identification (Algorithm 2): top-down frontiers are
  vertices whose word changed (``XOR``), bottom-up frontiers vertices
  with unset bits (``NOT``).

Because bits are monotone (never reset), early termination is sound —
the property MS-BFS forfeits by resetting its status array each level.
The MS-BFS baseline reuses this engine with the paper's described
differences: a planner with early termination off, plus the
``reset_per_level`` and ``thread_per_instance`` machine switches.

Per-level choices — direction per instance, vector load width, early
termination — come only from the planner (:mod:`repro.plan`): each executed
level consumes exactly one :class:`~repro.plan.types.LevelDecision` from
the policy's session, and the sequence is recorded as a
:class:`~repro.plan.types.RunPlan` on the returned
:class:`~repro.core.result.GroupStats`.  Passing ``plan=`` to
:meth:`run_group` replays a recorded plan bit-identically, skipping the
heuristic evaluation (the replay session never sees level statistics).

The host runs a group one of two ways, chosen once per group.  When the
compiled library runs the group's lane count
(:func:`repro.native.effective`), each level is one call into it
(:class:`repro.native.LevelKernel`): frontier-sparse identification,
both directions' kernels, extraction from the kernels' touched rows and
every pricing term, over buffers allocated once per ``(n, lanes)``
shape, with ``BSA_k`` kept current by writing back only the changed
rows.  Otherwise the numpy :mod:`repro.kernels` primitives run it, and
are the reference the compiled level is tested against: the top-down
scatter is a segmented reduction, ``BSA_k`` is one whole-array copy per
level into a reused buffer, bottom-up scans are degree-bucketed vector
passes, and per-instance bookkeeping is one vectorized pass over the
changed rows.  Plans never name the path.  Either path gives the same
depths and simulated counters, which the kernels equivalence suite pins
against a recorded golden fixture.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

import repro.native as native
from repro.errors import TraversalError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.gpusim.counters import LevelRecord, RunRecord
from repro.gpusim.device import Device
from repro.obs import profile as obs_profile
from repro.core.result import GroupStats
from repro.core.sharing import SharingObserver
from repro.core.status_array import combine_masks, instance_masks, lanes_for
from repro.kernels import (
    LevelWorkspace,
    bucketed_or_scan,
    per_bit_counts,
    per_bit_weighted,
    round_major_probes,
    scatter_or,
    scatter_plan,
    unpack_lane_bits,
)
from repro.plan.policy import HeuristicPolicy, Policy, RecordedPolicy
from repro.plan.types import Direction, LevelDecision, LevelStats, RunPlan
from repro.util import gather_neighbors

INSTRUCTIONS_PER_INSPECTION = 6
INSTRUCTIONS_PER_VERTEX = 6

UNVISITED = -1


def _materialize_depths(depths_vm: np.ndarray) -> np.ndarray:
    """Transpose the vertex-major depth matrix into the (group, n) int32
    result layout.

    Done in row blocks so each block's strided reads stay cache
    resident: a fused ``ascontiguousarray(depths_vm.T, dtype=int32)``
    walks the int8 input one 64-byte-strided element per output cell —
    a cache miss per element at scale — where block copies cost a
    fraction of that.  The compiled backend runs the same tiled
    widening transpose in C when resolved.
    """
    if native.available():
        return native.materialize_depths(depths_vm)
    num_vertices, group_size = depths_vm.shape
    depths = np.empty((group_size, num_vertices), dtype=np.int32)
    block = 4096
    for i in range(0, num_vertices, block):
        depths[:, i:i + block] = depths_vm[i:i + block].T
    return depths


class BitwiseTraversal:
    """Bitwise (BSA-based) joint traversal of one group.

    Parameters
    ----------
    graph:
        Graph to traverse.
    device:
        Simulated execution target.
    reset_per_level:
        Model MS-BFS's per-level ``visit`` array reset: adds the reset
        traffic and disables the XOR-based identification discount.
    thread_per_instance:
        Model MS-BFS's one-software-thread-per-instance execution
        (thread demand = N) instead of iBFS's thread-per-frontier.
    planner:
        The :class:`~repro.plan.policy.Policy` that owns every per-level
        decision — direction, vector width, early termination (default
        ``HeuristicPolicy()``).  ``reset_per_level`` and
        ``thread_per_instance`` stay engine properties: they model a
        different machine, not a per-level choice.
    """

    name = "bitwise"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        reset_per_level: bool = False,
        thread_per_instance: bool = False,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.reset_per_level = reset_per_level
        self.thread_per_instance = thread_per_instance
        self.planner = planner or HeuristicPolicy()
        self._reverse = (
            graph.reverse() if self.planner.allow_bottom_up else None
        )
        #: Out-degree view, hoisted once per traversal object (the hot
        #: loops used to look it up several times per level).
        self._out_degrees = graph.out_degrees()
        self._workspace = None

    # ------------------------------------------------------------------
    def _get_workspace(self, n: int, lanes: int):
        """This group's level buffers, reused across groups of one shape:
        a :class:`~repro.native.LevelKernel` when the compiled library
        runs ``lanes`` natively, else the numpy path's
        :class:`LevelWorkspace`."""
        use_native = native.effective(lanes)
        ws = self._workspace
        if (
            ws is None
            or ws.num_vertices != n
            or ws.lanes != lanes
            or isinstance(ws, native.LevelKernel) != use_native
        ):
            if use_native:
                config = self.device.config
                ws = native.LevelKernel(
                    self.graph.row_offsets,
                    self.graph.col_indices,
                    self._out_degrees,
                    lanes,
                    config.transaction_bytes,
                    config.warp_size,
                    INSTRUCTIONS_PER_INSPECTION,
                    INSTRUCTIONS_PER_VERTEX,
                )
            else:
                ws = LevelWorkspace(n, lanes)
            self._workspace = ws
        return ws

    # ------------------------------------------------------------------
    def run_group(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ):
        """Traverse all sources jointly with the bitwise status array.

        Returns ``(depths, record, stats)`` like
        :meth:`JointTraversal.run_group`.  With ``plan=`` the recorded
        decisions replay verbatim and no heuristic runs.
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

        lanes = lanes_for(group_size)
        masks = instance_masks(group_size)
        bsa = np.zeros((n, lanes), dtype=np.uint64)
        # Depths live vertex-major during the traversal so each level's
        # update is a contiguous row gather / masked fill / write-back
        # over the changed rows; one transpose at the end restores the
        # (group_size, n) result layout.  The narrowest dtype that can
        # hold the depths seen so far keeps the update traffic small
        # (int8 covers diameter < 126 — almost every real input); the
        # loop widens it well before overflow.
        depths_vm = np.full((n, group_size), UNVISITED, dtype=np.int8)
        for j, s in enumerate(sources):
            bsa[s] |= masks[j]
            depths_vm[s, j] = 0

        active = np.ones(group_size, dtype=bool)
        out_degrees = self._out_degrees
        # Running per-instance visited-degree sum: every vertex joins the
        # frontier exactly once, so accumulating new-frontier degrees is
        # the dense "sum over depth >= 0" recomputed each level.
        visited_deg = out_degrees[np.asarray(sources, dtype=np.int64)].astype(
            np.int64
        )
        # Current-frontier degree sum per instance (depth == level); at
        # level 0 the frontier is exactly the source.
        frontier_deg = visited_deg.copy()
        # Cumulative visited-vertex count per instance (the adaptive
        # cost model's unvisited estimate); the source is visited.
        visited_count = np.ones(group_size, dtype=np.int64)
        # Current frontier as (rows, diff-words): row i of the frontier
        # gained exactly the instance bits set in diff[i] last level, so
        # depth[j, v] == level iff bit j of the row's word is set.  Each
        # level's changed-row diff IS the next level's frontier — no
        # dense (group_size, n) scan ever runs.
        uniq_src, src_inv = np.unique(
            np.asarray(sources, dtype=np.int64), return_inverse=True
        )
        init_diff = np.zeros((uniq_src.size, lanes), dtype=np.uint64)
        np.bitwise_or.at(init_diff, src_inv, masks)
        frontier = (uniq_src, init_diff)
        frontier_counts = np.ones(group_size, dtype=np.int64)

        record = RunRecord()
        observer = SharingObserver(group_size)
        sharing_log = {"td": [], "bu": []}
        bu_inspections = np.zeros(group_size, dtype=np.int64)
        workspace = self._get_workspace(n, lanes)
        if isinstance(workspace, native.LevelKernel):
            # The kernel keeps the frontier between levels itself.
            workspace.begin_group(
                bsa,
                uniq_src,
                init_diff,
                frontier_counts,
                frontier_deg,
                bu_inspections,
                self.reset_per_level,
            )
            frontier = None

        decision: Optional[LevelDecision] = None
        stats_prev: Optional[LevelStats] = None
        level = 0
        while active.any():
            if max_depth is not None and level >= max_depth:
                break
            if level > n + 1:
                raise TraversalError("traversal failed to converge")
            if level >= 120 and depths_vm.dtype == np.int8:
                depths_vm = depths_vm.astype(np.int16)
            elif level >= 32000 and depths_vm.dtype == np.int16:
                depths_vm = depths_vm.astype(np.int32)
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
                progressed, counts, frontier_edges, frontier = self._level(
                    bsa,
                    depths_vm,
                    masks,
                    workspace,
                    td_instances,
                    bu_instances,
                    level,
                    record,
                    observer,
                    sharing_log,
                    bu_inspections,
                    frontier_deg,
                    frontier,
                    frontier_counts,
                    decision,
                )
            frontier_counts = counts
            visited_deg += frontier_edges
            unexplored = total_edges - visited_deg
            frontier_deg = frontier_edges
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
        depths = _materialize_depths(depths_vm)
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
    # One synchronized level
    # ------------------------------------------------------------------
    def _level(
        self,
        bsa: np.ndarray,
        depths_vm: np.ndarray,
        masks: np.ndarray,
        workspace,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        record: RunRecord,
        observer: SharingObserver,
        sharing_log: dict,
        bu_inspections: np.ndarray,
        frontier_deg: np.ndarray,
        frontier,
        frontier_counts: np.ndarray,
        decision: LevelDecision,
    ):
        """Run one level on the path the group's workspace selected: one
        library call (:meth:`_level_native`) or the numpy kernels below,
        which are the reference the compiled level matches step for step.

        Returns ``(progressed, counts, frontier_edges, frontier)``: per
        instance, whether it reached any new vertex, the new frontier's
        size and its out-degree sum, and the next level's ``(changed,
        diff)`` frontier (None on the compiled path, whose kernel keeps
        it).
        """
        if isinstance(workspace, native.LevelKernel):
            return self._level_native(
                workspace,
                depths_vm,
                masks,
                td_instances,
                bu_instances,
                level,
                record,
                observer,
                sharing_log,
                decision,
            )
        mem = self.device.memory
        counters = record.counters
        group_size = masks.shape[0]
        num_vertices = depths_vm.shape[0]
        lanes = bsa.shape[1]
        word_bytes = lanes * 8
        progressed = np.zeros(group_size, dtype=bool)
        counts = np.zeros(group_size, dtype=np.int64)
        fdeg_next = np.zeros(group_size, dtype=np.int64)
        out_degrees = self._out_degrees

        # Frontier masks come from sparse state, never a (group_size, n)
        # scan: the top-down frontier is last level's changed rows whose
        # diff word intersects a top-down instance bit; the bottom-up
        # frontier reads unset bits straight off the BSA words (depth is
        # UNVISITED iff the bit is unset — bits are monotone and
        # extraction mirrors them exactly).
        changed_prev, diff_prev = frontier
        td_mask = np.zeros(num_vertices, dtype=bool)
        fq_td = 0
        if td_instances:
            fq_td = int(frontier_counts[td_instances].sum())
            if changed_prev.size:
                td_sel = combine_masks(masks, td_instances)
                hit = (diff_prev[:, 0] & td_sel[0]) != 0
                for lane in range(1, lanes):
                    hit |= (diff_prev[:, lane] & td_sel[lane]) != 0
                td_mask[changed_prev[hit]] = True
        if bu_instances:
            bu_lane_mask = combine_masks(masks, bu_instances)
            unset = (~bsa) & bu_lane_mask
            bu_mask_vertices = np.any(unset != 0, axis=1)
            fq_bu = int(np.bitwise_count(unset).sum())
        else:
            bu_lane_mask = None
            bu_mask_vertices = np.zeros(num_vertices, dtype=bool)
            fq_bu = 0
        jfq_size = int(np.count_nonzero(td_mask | bu_mask_vertices))
        observer.record_level(fq_td + fq_bu, jfq_size)
        sharing_log["td"].append((fq_td, int(np.count_nonzero(td_mask))))
        sharing_log["bu"].append(
            (fq_bu, int(np.count_nonzero(bu_mask_vertices)))
        )
        if jfq_size == 0:
            record.append(LevelRecord(depth=level, direction="td"))
            counters.levels += 1
            empty_frontier = (
                np.empty(0, dtype=np.int64),
                np.empty((0, lanes), dtype=np.uint64),
            )
            return progressed, counts, fdeg_next, empty_frontier

        workspace.begin_level(bsa)
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
        if td_instances:
            # frontier_deg[j] is the degree sum over depth[j] == level —
            # the same per-instance row sums the dense eq-matrix product
            # would produce.
            logical_edges += int(frontier_deg[td_instances].sum())

        # --- Top-down pass: BSA[v] |= BSA_k[f] ------------------------
        td_frontier = np.flatnonzero(td_mask).astype(VERTEX_DTYPE)
        if td_frontier.size:
            td_lane_mask = combine_masks(masks, td_instances)
            # BSA_k values: nothing has written this level yet.
            frontier_words = bsa[td_frontier] & td_lane_mask
            degrees = out_degrees[td_frontier]
            num_neighbors = int(degrees.sum())
            _, neighbors = gather_neighbors(self.graph, td_frontier)
            plan = scatter_plan(neighbors)
            unique_targets = plan.unique_targets
            word_index = np.repeat(
                np.arange(td_frontier.size, dtype=np.int64), degrees
            )
            scatter_or(bsa, neighbors, frontier_words, plan, word_index)
            frontier_ld, frontier_req = mem.coalesced_transactions(
                td_frontier, word_bytes
            )
            nb_ld, nb_req = mem.coalesced_transactions(neighbors, word_bytes)
            st_txn, st_req = mem.coalesced_transactions(
                unique_targets, word_bytes
            )
            # One thread per frontier performs one OR per neighbor,
            # regardless of how many instances share the frontier.
            inspections_level += num_neighbors
            loads += mem.stream_transactions(td_frontier.size * 8)
            loads += frontier_ld
            loads += mem.adjacency_transactions(degrees)
            loads += nb_ld
            load_requests += frontier_req + nb_req
            # Shared-memory merging inside each CTA collapses duplicate
            # neighbor updates; only the merged words hit global atomics.
            atomics += int(unique_targets.size)
            counters.shared_memory_accesses += (
                num_neighbors - int(unique_targets.size)
            )
            stores += st_txn
            store_requests += st_req

        # --- Bottom-up pass: BSA[f] |= BSA_k[v], early termination ----
        if bu_instances:
            tally_before = int(bu_inspections.sum())
            (
                probes_total, early, updated, per_vertex_probes, probed
            ) = self._bottom_up_pass(
                bsa,
                workspace,
                bu_mask_vertices,
                bu_lane_mask,
                bu_inspections,
                early_termination=decision.early_termination,
            )
            logical_edges += int(bu_inspections.sum()) - tally_before
            inspections_level += probes_total
            counters.bottom_up_inspections += probes_total
            counters.early_terminations += early
            loads += mem.stream_transactions(per_vertex_probes.size * 8)
            per_line = self.device.config.entries_per_transaction
            loads += int(np.sum((per_vertex_probes + per_line - 1) // per_line))
            probe_ld, probe_req = mem.coalesced_transactions(probed, word_bytes)
            loads += probe_ld
            load_requests += probe_req
            st_txn, st_req = mem.coalesced_transactions(updated, word_bytes)
            stores += st_txn
            store_requests += st_req
            # Bottom-up merges updates tree-wise within warps/CTAs,
            # avoiding atomics (section 6, Summary).

        # --- Depth extraction (frontier identification, Algorithm 2) --
        # One XOR against BSA_k finds the changed rows and their diffs.
        # Bit j of a diff word is set iff vertex v first gained instance
        # j's bit this level, i.e. depth[j, v] == level + 1 — so the
        # vertex-major depth rows take one masked fill, the per-instance
        # statistics come from histogram folds over the packed words
        # (O(changed bytes), not O(new pairs)), and (changed, diff) IS
        # next level's frontier.
        changed, diff = workspace.changed(bsa)
        if changed.size:
            counts += per_bit_counts(diff, group_size)
            fdeg_next += per_bit_weighted(
                diff, out_degrees[changed], group_size
            )
            # A newly set bit's depth cell still holds UNVISITED (-1), so
            # adding (level + 2) exactly where bits are set rewrites it
            # to level + 1 with pure SIMD arithmetic — no boolean-where
            # pass.  Rows in ``changed`` are unique, so the fancy-indexed
            # in-place add is a plain gather/add/scatter.
            upd = unpack_lane_bits(diff, group_size).astype(depths_vm.dtype)
            upd *= depths_vm.dtype.type(level + 2)
            depths_vm[changed] += upd
            progressed = counts > 0

        # Identification scans BSA_k and BSA_{k+1}; MS-BFS additionally
        # rewrites its per-level visit array.  Vector loads (long2/long4)
        # fetch several lanes per instruction: same bytes, fewer
        # requests and fewer scan instructions.
        words_per_vertex = -(-lanes // decision.vector_width)
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
            inspections_level * INSTRUCTIONS_PER_INSPECTION * words_per_vertex
            + (jfq_size + scan_ops) * INSTRUCTIONS_PER_VERTEX
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
        return progressed, counts, fdeg_next, (changed, diff)

    def _level_native(
        self,
        kernel: "native.LevelKernel",
        depths_vm: np.ndarray,
        masks: np.ndarray,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        record: RunRecord,
        observer: SharingObserver,
        sharing_log: dict,
        decision: LevelDecision,
    ):
        """One level as one call into the compiled library."""
        if bu_instances:
            kernel.bind_reverse(
                self._reverse.row_offsets, self._reverse.col_indices
            )
        (
            fq_td, td_vertices, fq_bu, bu_vertices, jfq,
            loads, stores, load_requests, store_requests, atomics,
            instructions, inspections, edges, shared, bu_probes, early,
        ) = kernel.run_level(
            depths_vm,
            combine_masks(masks, td_instances),
            combine_masks(masks, bu_instances),
            level,
            decision.vector_width,
            decision.early_termination,
        )
        observer.record_level(fq_td + fq_bu, jfq)
        sharing_log["td"].append((fq_td, td_vertices))
        sharing_log["bu"].append((fq_bu, bu_vertices))
        counters = record.counters
        counters.levels += 1
        if jfq == 0:
            record.append(LevelRecord(depth=level, direction="td"))
        else:
            counters.inspections += inspections
            counters.edges_traversed += edges
            counters.atomic_operations += atomics
            counters.shared_memory_accesses += shared
            counters.bottom_up_inspections += bu_probes
            counters.early_terminations += early
            counters.frontier_enqueues += jfq
            counters.global_load_transactions += loads
            counters.global_store_transactions += stores
            counters.global_load_requests += load_requests
            counters.global_store_requests += store_requests
            counters.instructions += instructions
            record.append(
                LevelRecord(
                    depth=level,
                    direction=(
                        "bu" if bu_instances and not td_instances else "td"
                    ),
                    load_transactions=loads,
                    store_transactions=stores,
                    atomics=atomics,
                    instructions=instructions,
                    threads=(
                        masks.shape[0] if self.thread_per_instance else jfq
                    ),
                    frontier_size=jfq,
                )
            )
        counts, frontier_edges = kernel.new_frontier()
        return counts > 0, counts, frontier_edges, None

    # ------------------------------------------------------------------
    def _bottom_up_pass(
        self,
        bsa: np.ndarray,
        workspace: LevelWorkspace,
        bu_mask_vertices: np.ndarray,
        bu_lane_mask: np.ndarray,
        bu_inspections: np.ndarray,
        early_termination: bool = True,
    ):
        """Scan in-neighbors of unvisited vertices, OR-ing their words.

        A single thread serves each frontier; with early termination it
        stops at the first prefix of the neighbor list that fills every
        tracked bit.  The scan itself runs as degree-bucketed vector
        passes (:func:`~repro.kernels.bottomup.bucketed_or_scan`); the
        per-instance inspection attribution (an instance "inspects" a
        vertex while its own bit is still unset — figure 11's balance
        metric) and the round-major probe stream for the transaction
        model come out identical to the synchronized round loop.

        Returns ``(probes, early_terminations, updated_vertices,
        per_vertex_probes, probed_neighbors)``; the last two feed the
        caller's transaction accounting, the probed neighbors in
        round-major order.
        """
        assert self._reverse is not None
        rev = self._reverse
        offsets = rev.row_offsets
        indices = rev.col_indices

        frontier = np.flatnonzero(bu_mask_vertices).astype(VERTEX_DTYPE)
        starts = offsets[frontier]
        ends = offsets[frontier + 1]
        state = workspace.snapshot_rows(frontier)
        state &= bu_lane_mask
        probes, acc, done, stream = bucketed_or_scan(
            indices,
            starts,
            ends,
            state,
            bu_lane_mask,
            bu_lane_mask,
            early_termination,
            workspace.snapshot,
            bu_inspections,
        )

        # "Updated" for the store model compares against BSA_k (the
        # reference formula).
        if bsa.shape[1] == 1:
            accf = acc.reshape(-1)
            statef = state.reshape(-1)
            bsaf = bsa.reshape(-1)
            updated = frontier[(accf | statef) != statef]
            bsaf[frontier] = np.take(bsaf, frontier) | accf
        else:
            updated = frontier[np.any((acc | state) != state, axis=1)]
            bsa[frontier] |= acc

        early = int(np.count_nonzero(done & (probes < (ends - starts))))
        # Early-termination scans emit the round-major stream directly;
        # full scans (MS-BFS) reconstruct it from per-vertex counts.
        if stream is None:
            stream = round_major_probes(indices, starts, probes)
        return int(probes.sum()), early, updated, probes, stream
