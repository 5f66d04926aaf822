"""Level-synchronous partitioned multi-source BFS.

:class:`PartitionedEngine` traverses graphs that no single worker holds
whole: the CSR is split by :class:`~repro.dist.partition.GraphPartitioner`,
every partition keeps the vertex state (one ``uint64`` status word and
one ``int32`` depth row per owned vertex) for its owner range, and each
level runs as

1. **expand** — every edge block scans its slice of the joint frontier
   and aggregates ``(destination, instance-mask)`` updates;
2. **exchange** — updates are encoded in the level's resolved wire
   format (:mod:`repro.dist.exchange`) and routed to the destination
   owners (plus, under the 2D layout, the new frontier is broadcast to
   the sibling edge blocks of each owner's grid row);
3. **apply** — owners OR the updates into their status words; bits not
   previously visited become depth ``level + 1`` and form the next
   joint frontier.

Depths depend only on the edge set, so the merged ``(group, |V|)``
matrix, assembled in :func:`~repro.core.result.depth_dtype` of its
deepest depth, is bit-identical to serial
:meth:`repro.core.engine.IBFS.run` for every layout, partition count,
and wire format.  What the knobs change is the *communication*:
per-level bytes and messages are accounted exactly and priced by the
:mod:`repro.dist.comm` cost model, and the per-level format choice is
recorded into the run's :class:`~repro.plan.types.RunPlan` (via the
``exchange`` field of :class:`~repro.plan.types.LevelDecision`) so a
replay re-sends exactly the recorded bytes.

Every partition runs in this process, one after another, so host wall
time prices the partitioning overhead, not parallel speed-up; the
parallel cost of a level is what the comm model prices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import ProfilerCounters
from repro.kernels.bookkeeping import unpack_lane_bits
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.core.engine import check_group
from repro.core.groupby import GroupByConfig, group_sources, random_groups
from repro.core.result import ConcurrentResult, GroupStats, depth_dtype
from repro.plan.types import Direction, LevelDecision, RunPlan
from repro.dist.comm import CommCostModel
from repro.dist.exchange import (
    SPARSE_ENTRY_BYTES,
    ExchangePayload,
    ExchangePolicy,
    encode_updates,
    merge_payload,
)
from repro.dist.partition import (
    BALANCE_MODES,
    LAYOUTS,
    GraphPartition,
    GraphPartitioner,
    PartitionSet,
    check_partition_cover,
)

#: Depth value of unreached vertices (matches the serial engines).
UNVISITED = -1

#: Hard instance cap: one uint64 status word per vertex.
MAX_GROUP_SIZE = 64


@dataclass(frozen=True)
class DistConfig:
    """Configuration of a :class:`PartitionedEngine`.

    ``group_size``/``groupby``/``groupby_config``/``seed`` mirror
    :class:`~repro.core.engine.IBFSConfig` so source grouping stays
    identical to the serial engine; ``group_size`` is additionally
    clamped to :data:`MAX_GROUP_SIZE` (one status word per vertex).
    """

    num_partitions: int = 2
    layout: str = "1d"
    balance: str = "edges"
    #: Default wire format ("auto" lets :class:`ExchangePolicy` decide
    #: per level from the previous level's frontier).
    exchange: str = "auto"
    exchange_threshold: float = 1.0
    group_size: int = MAX_GROUP_SIZE
    groupby: bool = True
    groupby_config: GroupByConfig = GroupByConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_partitions <= 0:
            raise TraversalError("num_partitions must be positive")
        if self.layout not in LAYOUTS:
            raise TraversalError(
                f"layout must be one of {LAYOUTS}; got {self.layout!r}"
            )
        if self.balance not in BALANCE_MODES:
            raise TraversalError(
                f"balance must be one of {BALANCE_MODES}; "
                f"got {self.balance!r}"
            )
        if self.group_size <= 0:
            raise TraversalError("group_size must be positive")
        # Delegate format/threshold validation.
        ExchangePolicy(self.exchange, self.exchange_threshold)


# ----------------------------------------------------------------------
# Per-partition state and compute
# ----------------------------------------------------------------------
class PartitionState:
    """One partition's vertex state plus its edge-block compute."""

    def __init__(self, part: GraphPartition, own_bounds: np.ndarray) -> None:
        self.part = part
        self.own_bounds = np.asarray(own_bounds, dtype=np.int64)
        self._scratch = np.zeros(
            part.dst_stop - part.dst_start, dtype=np.uint64
        )
        self.group_size = 0
        self.visited: Optional[np.ndarray] = None
        self.depths: Optional[np.ndarray] = None

    # -- lifecycle -----------------------------------------------------
    def init_group(self, group_size: int) -> None:
        if not 1 <= group_size <= MAX_GROUP_SIZE:
            raise TraversalError(
                f"group size must be in [1, {MAX_GROUP_SIZE}]; "
                f"got {group_size}"
            )
        self.group_size = group_size
        own = self.part.own_size
        self.visited = np.zeros(own, dtype=np.uint64)
        self.depths = np.full((own, group_size), UNVISITED, dtype=np.int32)

    # -- expand --------------------------------------------------------
    def expand(
        self, vertices: np.ndarray, masks: np.ndarray, fmt: str
    ) -> Tuple[List[Tuple[int, ExchangePayload]], int]:
        """Scan this block's rows of the frontier slice and return the
        encoded per-owner payloads plus the number of edges scanned.

        ``vertices`` are global frontier ids within the block's source
        range; under the dense format a payload goes to *every* owner
        range overlapping the block's column band (the broadcast), under
        the sparse format only where updates exist.
        """
        part = self.part
        local = np.asarray(vertices, dtype=np.int64) - part.src_start
        ro = part.row_offsets
        starts = ro[local]
        counts = (ro[local + 1] - starts).astype(np.int64)
        total = int(counts.sum())
        touched = np.empty(0, dtype=np.int64)
        if total:
            head = np.concatenate(([0], np.cumsum(counts[:-1])))
            flat = (
                np.repeat(starts, counts)
                + np.arange(total, dtype=np.int64)
                - np.repeat(head, counts)
            )
            dsts = part.col_indices[flat] - part.dst_start
            scratch = self._scratch
            np.bitwise_or.at(scratch, dsts, np.repeat(masks, counts))
            touched = np.flatnonzero(scratch)
        payloads: List[Tuple[int, ExchangePayload]] = []
        touched_global = touched + part.dst_start
        touched_masks = self._scratch[touched]
        owners = np.flatnonzero(
            (self.own_bounds[:-1] < part.dst_stop)
            & (self.own_bounds[1:] > part.dst_start)
        )
        for owner in owners:
            lo = max(int(self.own_bounds[owner]), part.dst_start)
            hi = min(int(self.own_bounds[owner + 1]), part.dst_stop)
            a = np.searchsorted(touched_global, lo)
            b = np.searchsorted(touched_global, hi)
            if fmt == "sparse" and a == b:
                continue
            payloads.append(
                (
                    int(owner),
                    encode_updates(
                        touched_global[a:b], touched_masks[a:b], lo, hi, fmt
                    ),
                )
            )
        if touched.size:
            self._scratch[touched] = 0
        return payloads, total

    # -- apply ---------------------------------------------------------
    def apply(
        self, level: int, payloads: Sequence[ExchangePayload]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge incoming updates; returns the newly discovered frontier
        slice (global vertex ids, instance masks).  ``level == -1``
        injects the sources (depth 0)."""
        part = self.part
        acc = np.zeros(part.own_size, dtype=np.uint64)
        for payload in payloads:
            merge_payload(payload, acc, part.own_start)
        new = acc & ~self.visited
        idx = np.flatnonzero(new)
        if idx.size:
            self.visited[idx] |= new[idx]
            bits = unpack_lane_bits(
                new[idx].reshape(-1, 1), self.group_size
            ).astype(bool)
            rows = self.depths[idx]
            rows[bits] = level + 1
            self.depths[idx] = rows
        return idx + part.own_start, new[idx]

    # -- collect -------------------------------------------------------
    def collect(self) -> np.ndarray:
        """The owned ``(own_size, group_size)`` int32 depth block."""
        return self.depths


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class LevelTrace:
    """Communication record of one executed level."""

    level: int
    fmt: str
    #: Touched destination vertices across all update payloads.
    entries: int
    #: Update wire bytes (dense broadcast or sparse pairs).
    update_bytes: int
    #: 2D frontier-broadcast bytes (0 under 1d).
    broadcast_bytes: int
    messages: int
    frontier_vertices: int
    frontier_edges: int
    edges_scanned: Tuple[int, ...]
    compute_seconds: float
    exchange_seconds: float

    @property
    def nbytes(self) -> int:
        return self.update_bytes + self.broadcast_bytes

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "fmt": self.fmt,
            "entries": self.entries,
            "update_bytes": self.update_bytes,
            "broadcast_bytes": self.broadcast_bytes,
            "bytes": self.nbytes,
            "messages": self.messages,
            "frontier_vertices": self.frontier_vertices,
            "frontier_edges": self.frontier_edges,
            "edges_scanned": list(self.edges_scanned),
            "compute_seconds": self.compute_seconds,
            "exchange_seconds": self.exchange_seconds,
        }


@dataclass
class DistStats:
    """Observability of one partitioned run (communication)."""

    layout: str
    num_partitions: int
    groups: int = 0
    levels: List[LevelTrace] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def bytes_total(self) -> int:
        return sum(t.nbytes for t in self.levels)

    @property
    def messages_total(self) -> int:
        return sum(t.messages for t in self.levels)

    def formats(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.levels:
            out[t.fmt] = out.get(t.fmt, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "layout": self.layout,
            "num_partitions": self.num_partitions,
            "groups": self.groups,
            "bytes_total": self.bytes_total,
            "messages_total": self.messages_total,
            "formats": self.formats(),
            "wall_seconds": self.wall_seconds,
            "levels": [t.to_dict() for t in self.levels],
        }

    def publish(self, hub: Optional[obs_metrics.MetricsHub] = None) -> None:
        hub = hub if hub is not None else obs_metrics.get_hub()
        hub.counter(
            "exchange_bytes_total", "Frontier-exchange wire bytes"
        ).inc(self.bytes_total)
        hub.counter(
            "exchange_messages_total", "Frontier-exchange messages"
        ).inc(self.messages_total)
        hub.counter(
            "dist_levels_total", "Partitioned traversal levels executed"
        ).inc(len(self.levels))
        latency = hub.histogram(
            "exchange_level_seconds",
            "Modeled exchange seconds per traversal level",
        )
        for trace in self.levels:
            latency.observe(trace.exchange_seconds)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PartitionedEngine:
    """Multi-source BFS over a partitioned graph (see module docs).

    Drop-in peer of :class:`~repro.core.engine.IBFS` for the serving
    layer: same ``run_group(group, max_depth, plan)`` /
    ``run(sources, ...)`` surface, same bit-identical depth matrices,
    and the same recorded-plan replay contract.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[DistConfig] = None,
    ) -> None:
        self.graph = graph
        self.config = config or DistConfig()
        self.partitioner = GraphPartitioner(
            graph,
            self.config.num_partitions,
            layout=self.config.layout,
            balance=self.config.balance,
        )
        self.partitions = self.partitioner.build()
        check_partition_cover(graph, self.partitions)
        self.cost_model = CommCostModel()
        self.exchange_policy = ExchangePolicy(
            self.config.exchange, self.config.exchange_threshold
        )
        self._dense_bytes = self.partitions.dense_bytes_per_level()
        self._out_degrees = graph.out_degrees()
        self._states = [
            PartitionState(p, self.partitions.own_bounds)
            for p in self.partitions.parts
        ]
        self._closed = False
        #: Stats of the most recent run/run_group call.
        self.last_stats: Optional[DistStats] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "+groupby" if self.config.groupby else "+random"
        return (
            f"dist-{self.config.layout}x{self.config.num_partitions}{suffix}"
        )

    def effective_group_size(self) -> int:
        """Configured N clamped by the one-status-word-per-vertex rule."""
        return min(self.config.group_size, MAX_GROUP_SIZE)

    def make_groups(self, sources: Sequence[int]) -> List[List[int]]:
        group_size = self.effective_group_size()
        if self.config.groupby:
            return group_sources(
                self.graph, sources, group_size, self.config.groupby_config
            )
        return random_groups(sources, group_size, self.config.seed)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the partition states; the engine refuses to run after."""
        self._closed = True
        self._states = []

    def __enter__(self) -> "PartitionedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_group(
        self,
        group: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ) -> ConcurrentResult:
        """Execute one pre-formed group across all partitions.

        ``plan`` replays a recorded run: each level's wire format comes
        from the plan's ``exchange`` fields instead of the policy, so
        the exchange re-sends exactly the recorded bytes.
        """
        if self._closed:
            raise TraversalError("engine is closed")
        group = check_group(
            group, self.graph.num_vertices, self.effective_group_size
        )
        stats = DistStats(
            layout=self.config.layout,
            num_partitions=self.config.num_partitions,
        )
        wall_start = time.perf_counter()
        result = self._run_group_once(group, max_depth, plan, stats)
        stats.wall_seconds = time.perf_counter() - wall_start
        stats.groups = 1
        self.last_stats = stats
        stats.publish()
        return result

    # ------------------------------------------------------------------
    def _run_group_once(
        self,
        group: List[int],
        max_depth: Optional[int],
        plan: Optional[RunPlan],
        stats: DistStats,
    ) -> ConcurrentResult:
        pset = self.partitions
        n = self.graph.num_vertices
        group_size = len(group)
        tracer = obs_tracing.get_tracer()
        recorded = RunPlan(
            policy=plan.policy if plan is not None else self.exchange_policy.name,
            engine=self.name,
            group_size=group_size,
        )
        td = (Direction.TOP_DOWN,) * group_size

        with tracer.span(
            "dist.run_group",
            layout=self.config.layout,
            partitions=pset.num_partitions,
            group_size=group_size,
            replay=plan is not None,
        ):
            for state in self._states:
                state.init_group(group_size)

            # Source injection: depth 0, not an exchange (no bytes).
            src_vertices = np.asarray(group, dtype=np.int64)
            src_masks = np.uint64(1) << np.arange(
                group_size, dtype=np.uint64
            )
            order = np.argsort(src_vertices, kind="stable")
            inject = self._bucket_by_owner(
                src_vertices[order], src_masks[order]
            )
            new_slices = [
                state.apply(-1, payloads)
                for state, payloads in zip(self._states, inject)
            ]

            counters = ProfilerCounters()
            traces: List[LevelTrace] = []
            jfq_sizes: List[int] = []
            per_level_sharing: List[float] = []
            td_sharing: List[Tuple[int, int]] = []
            seconds = 0.0
            level = 0
            deepest = 0
            while True:
                frontier_count = sum(
                    int(v.shape[0]) for v, _ in new_slices
                )
                if frontier_count == 0:
                    break
                if max_depth is not None and level >= max_depth:
                    break
                fmt = self._resolve_format(plan, level, new_slices)
                with tracer.span(
                    "exchange.level", level=level, fmt=fmt
                ) as span:
                    trace, new_slices = self._run_level(
                        pset, level, fmt, new_slices
                    )
                    cost = self.cost_model.price_level(
                        trace.edges_scanned, trace.nbytes, trace.messages
                    )
                    trace.compute_seconds = cost.compute_seconds
                    trace.exchange_seconds = cost.exchange_seconds
                    if span is not None:
                        span.annotate(
                            bytes=trace.nbytes,
                            messages=trace.messages,
                            entries=trace.entries,
                            frontier=trace.frontier_vertices,
                            exchange_seconds=trace.exchange_seconds,
                        )
                seconds += cost.total_seconds
                traces.append(trace)
                recorded.append(
                    LevelDecision(directions=td, exchange=fmt)
                )
                counters.levels += 1
                counters.kernel_launches += pset.num_partitions
                counters.edges_traversed += sum(trace.edges_scanned)
                new_total = sum(int(v.shape[0]) for v, _ in new_slices)
                new_bits = self._popcount_slices(new_slices, group_size)
                counters.frontier_enqueues += new_bits
                counters.inspections += trace.entries
                jfq_sizes.append(new_total)
                per_level_sharing.append(
                    new_bits / new_total if new_total else 0.0
                )
                td_sharing.append((new_bits, new_total))
                if new_total:
                    deepest = level + 1
                level += 1

            matrix = np.full(
                (group_size, n), UNVISITED, dtype=depth_dtype(deepest)
            )
            for part, state in zip(pset.parts, self._states):
                matrix[:, part.own_start : part.own_stop] = state.collect().T

        stats.levels.extend(traces)
        shared = [s for s in per_level_sharing if s > 0]
        sharing_degree = (
            sum(shared) / len(shared) if shared else 0.0
        )
        gstats = GroupStats(
            sources=group,
            seconds=seconds,
            sharing_degree=sharing_degree,
            sharing_ratio=(
                sharing_degree / group_size if group_size else 0.0
            ),
            jfq_sizes=jfq_sizes,
            per_level_sharing=per_level_sharing,
            td_sharing=td_sharing,
            bu_sharing=[(0, 0) for _ in td_sharing],
            bottom_up_inspections=[0] * group_size,
            plan=recorded,
        )
        return ConcurrentResult(
            engine=self.name,
            sources=group,
            seconds=seconds,
            counters=counters,
            depths=matrix,
            num_vertices=n,
            groups=[gstats],
        )

    # ------------------------------------------------------------------
    def _resolve_format(
        self,
        plan: Optional[RunPlan],
        level: int,
        new_slices: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> str:
        if plan is not None and len(plan.decisions):
            decision = plan.decisions[min(level, len(plan.decisions) - 1)]
            if decision.exchange != "auto":
                return decision.exchange
        frontier_edges = 0
        for vertices, _ in new_slices:
            if vertices.size:
                frontier_edges += int(
                    self._out_degrees[vertices].sum()
                )
        return self.exchange_policy.decide(frontier_edges, self._dense_bytes)

    def _bucket_by_owner(
        self, vertices: np.ndarray, masks: np.ndarray
    ) -> List[List[ExchangePayload]]:
        """Sparse source-injection payloads per owning partition
        (``vertices`` must be sorted)."""
        pset = self.partitions
        out: List[List[ExchangePayload]] = [
            [] for _ in range(pset.num_partitions)
        ]
        cuts = np.searchsorted(vertices, pset.own_bounds)
        for p in range(pset.num_partitions):
            a, b = int(cuts[p]), int(cuts[p + 1])
            if a == b:
                continue
            part = pset.parts[p]
            out[p].append(
                encode_updates(
                    vertices[a:b],
                    masks[a:b],
                    part.own_start,
                    part.own_stop,
                    "sparse",
                )
            )
        return out

    def _run_level(
        self,
        pset: PartitionSet,
        level: int,
        fmt: str,
        new_slices: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[LevelTrace, List[Tuple[np.ndarray, np.ndarray]]]:
        """Expand + exchange + apply for one level."""
        # Route the joint frontier to the edge blocks.  Owner ranges
        # refine row bands, so an owner's new vertices go to the blocks
        # of its own grid row — every sibling block beyond the owner
        # itself is a remote copy (the 2D frontier broadcast).
        frontier_vertices = 0
        frontier_edges = 0
        broadcast_bytes = 0
        broadcast_messages = 0
        per_row: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for p, (vertices, masks) in enumerate(new_slices):
            if not vertices.size:
                continue
            count = int(vertices.shape[0])
            frontier_vertices += count
            frontier_edges += int(self._out_degrees[vertices].sum())
            grid_row = pset.parts[p].row
            per_row.setdefault(grid_row, []).append((vertices, masks))
            remote = pset.cols - 1
            broadcast_bytes += SPARSE_ENTRY_BYTES * count * remote
            broadcast_messages += remote
        frontier_slices: List[Tuple[np.ndarray, np.ndarray]] = []
        for part in pset.parts:
            chunks = per_row.get(part.row)
            if not chunks:
                frontier_slices.append(
                    (
                        np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.uint64),
                    )
                )
            elif len(chunks) == 1:
                frontier_slices.append(chunks[0])
            else:
                frontier_slices.append(
                    (
                        np.concatenate([c[0] for c in chunks]),
                        np.concatenate([c[1] for c in chunks]),
                    )
                )

        expanded = [
            state.expand(vertices, masks, fmt)
            for state, (vertices, masks) in zip(self._states, frontier_slices)
        ]

        update_bytes = 0
        update_messages = 0
        entries = 0
        edges_scanned: List[int] = []
        per_owner: List[List[ExchangePayload]] = [
            [] for _ in range(pset.num_partitions)
        ]
        for payloads, edges in expanded:
            edges_scanned.append(int(edges))
            for owner, payload in payloads:
                per_owner[owner].append(payload)
                update_bytes += payload.nbytes
                update_messages += 1
                entries += payload.entries

        new_slices = [
            state.apply(level, payloads)
            for state, payloads in zip(self._states, per_owner)
        ]
        trace = LevelTrace(
            level=level,
            fmt=fmt,
            entries=entries,
            update_bytes=update_bytes,
            broadcast_bytes=broadcast_bytes,
            messages=update_messages + broadcast_messages,
            frontier_vertices=frontier_vertices,
            frontier_edges=frontier_edges,
            edges_scanned=tuple(edges_scanned),
            compute_seconds=0.0,
            exchange_seconds=0.0,
        )
        return trace, new_slices

    @staticmethod
    def _popcount_slices(
        slices: Sequence[Tuple[np.ndarray, np.ndarray]], group_size: int
    ) -> int:
        total = 0
        for _, masks in slices:
            if masks.size:
                total += int(
                    unpack_lane_bits(
                        masks.reshape(-1, 1), group_size
                    ).sum()
                )
        return total

    # ------------------------------------------------------------------
    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources; same grouping and bit-identical
        depth matrix as :meth:`repro.core.engine.IBFS.run`."""
        sources = [int(s) for s in sources]
        if not sources:
            raise TraversalError("at least one source is required")
        parts = []
        merged = DistStats(
            layout=self.config.layout,
            num_partitions=self.config.num_partitions,
        )
        for group in self.make_groups(sources):
            part = self.run_group(group, max_depth=max_depth)
            parts.append((
                group,
                part.depths if store_depths else None,
                part.counters,
                part.groups[0],
            ))
            run_stats = self.last_stats
            merged.groups += 1
            merged.levels.extend(run_stats.levels)
            merged.wall_seconds += run_stats.wall_seconds
        self.last_stats = merged
        return ConcurrentResult.from_groups(
            self.name, sources, self.graph.num_vertices, parts
        )
