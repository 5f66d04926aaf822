"""Level-synchronous partitioned multi-source BFS.

:class:`PartitionedEngine` traverses graphs that no single worker holds
whole: the CSR is split by :class:`~repro.dist.partition.GraphPartitioner`,
every partition keeps one ``uint64`` status word per owned vertex, and
each group runs through the level loop every group engine shares,
:class:`~repro.core.traversal.GroupTraversal`.
:class:`PartitionedTraversal` supplies its hooks; each level runs as

1. **route** — each owner's slice of the joint frontier goes to the
   edge blocks of its grid row (under the 2D layout every sibling block
   beyond the owner's own is a remote copy: the frontier broadcast);
2. **expand** — every edge block scans its slice of the frontier and
   aggregates ``(destination, instance-mask)`` updates;
3. **exchange** — updates are encoded in the level's resolved wire
   format (:mod:`repro.dist.exchange`) and sent to the destination
   owners;
4. **apply** — owners OR the updates into their status words; bits not
   previously visited become depth ``level + 1`` and form the next
   joint frontier.

Depths depend only on the edge set, so the ``(group, |V|)`` matrix,
kept vertex-major on the depth ladder as the bitwise engine keeps it,
is bit-identical to serial :meth:`repro.core.engine.IBFS.run` for every
layout, partition count, and wire format.  What the knobs change is the
*communication*: per-level bytes and messages are accounted exactly and
priced by the :mod:`repro.dist.comm` cost model, which also gives the
group its seconds, and the per-level format choice is recorded into the
run's :class:`~repro.plan.types.RunPlan` (the ``exchange`` field of
:class:`~repro.plan.types.LevelDecision`) so a replay re-sends exactly
the recorded bytes.  Every level runs top-down: a plan with bottom-up
levels raises :class:`~repro.errors.TraversalError`.

Every partition runs in this process, one after another, so host wall
time prices the partitioning overhead, not parallel speed-up; the
parallel cost of a level is what the comm model prices.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.counters import RunRecord
from repro.kernels import unpack_lane_bits
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.core.engine import IBFS, IBFSConfig, check_group
from repro.core.result import ConcurrentResult, ladder_depths, widen_for_level
from repro.core.traversal import GroupTraversal
from repro.plan.policy import FixedPolicy
from repro.plan.types import LevelDecision, RunPlan
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
    check_partition_cover,
)

#: Depth value of unreached vertices (matches the serial engines).
UNVISITED = -1

#: Hard instance cap: one uint64 status word per vertex.
MAX_GROUP_SIZE = 64

#: The frontier slice of a block whose grid row found nothing.
_NO_FRONTIER = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64))


@dataclass(frozen=True)
class DistConfig:
    """Placement of a :class:`PartitionedEngine`: how the graph is split
    and how levels exchange.  Grouping is the engine's
    :class:`~repro.core.engine.IBFSConfig`."""

    num_partitions: int = 2
    layout: str = "1d"
    balance: str = "edges"
    #: Default wire format ("auto" lets :class:`ExchangePolicy` decide
    #: per level from the previous level's frontier).
    exchange: str = "auto"
    exchange_threshold: float = 1.0

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
        # Delegate format/threshold validation.
        ExchangePolicy(self.exchange, self.exchange_threshold)


# ----------------------------------------------------------------------
# Per-partition state and compute
# ----------------------------------------------------------------------
class PartitionState:
    """One partition's status words plus its edge-block compute."""

    def __init__(self, part: GraphPartition, own_bounds: np.ndarray) -> None:
        self.part = part
        self.own_bounds = np.asarray(own_bounds, dtype=np.int64)
        self._scratch = np.zeros(
            part.dst_stop - part.dst_start, dtype=np.uint64
        )
        self.visited: Optional[np.ndarray] = None

    def init_group(self) -> None:
        self.visited = np.zeros(self.part.own_size, dtype=np.uint64)

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
        self, payloads: Sequence[ExchangePayload]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge incoming updates; returns the newly discovered frontier
        slice (global vertex ids, instance masks)."""
        part = self.part
        acc = np.zeros(part.own_size, dtype=np.uint64)
        for payload in payloads:
            merge_payload(payload, acc, part.own_start)
        new = acc & ~self.visited
        idx = np.flatnonzero(new)
        if idx.size:
            self.visited[idx] |= new[idx]
        return idx + part.own_start, new[idx]


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

    def add(self, other: "DistStats") -> None:
        """Fold another call's groups, levels and wall time into these."""
        self.groups += other.groups
        self.levels.extend(other.levels)
        self.wall_seconds += other.wall_seconds

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
# The level loop's hooks
# ----------------------------------------------------------------------
@dataclass
class _Group:
    """One group's state between levels: the joint frontier as one
    ``(vertices, masks)`` slice per owner, its instance-bit total and
    out-degree sum, and the vertex-major depth matrix (replaced when it
    widens)."""

    frontier: List[Tuple[np.ndarray, np.ndarray]]
    fq: int
    frontier_edges: int
    depths: np.ndarray


class PartitionedTraversal(GroupTraversal):
    """The partitions' joint traversal of one group, on the shared
    level loop.  Every level runs top-down (``FixedPolicy("td")``);
    :attr:`traces` holds the last group's per-level exchange records.
    """

    name = "partitioned"

    def __init__(self, graph: CSRGraph, config: DistConfig) -> None:
        super().__init__(graph, planner=FixedPolicy("td"))
        self.partitions = GraphPartitioner(
            graph,
            config.num_partitions,
            layout=config.layout,
            balance=config.balance,
        ).build()
        check_partition_cover(graph, self.partitions)
        self.cost_model = CommCostModel()
        self.exchange_policy = ExchangePolicy(
            config.exchange, config.exchange_threshold
        )
        self._dense_bytes = self.partitions.dense_bytes_per_level()
        self._states = [
            PartitionState(p, self.partitions.own_bounds)
            for p in self.partitions.parts
        ]
        self.traces: List[LevelTrace] = []

    def run_group(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ):
        if plan is not None and plan.needs_bottom_up:
            raise TraversalError(
                "the partitioned engine runs top-down levels only; the "
                "plan directs instances bottom-up"
            )
        return super().run_group(sources, max_depth=max_depth, plan=plan)

    # ------------------------------------------------------------------
    def _begin_group(
        self, sources: List[int], inspections: np.ndarray
    ) -> _Group:
        group_size = len(sources)
        if group_size > MAX_GROUP_SIZE:
            raise TraversalError(
                f"group size must be at most {MAX_GROUP_SIZE}; "
                f"got {group_size}"
            )
        self.traces = []
        depths = np.full(
            (self.graph.num_vertices, group_size), UNVISITED, dtype=np.int8
        )
        depths[sources, np.arange(group_size)] = 0
        # Source injection: depth 0, applied like an exchange that
        # costs no bytes.
        vertices = np.asarray(sources, dtype=np.int64)
        masks = np.uint64(1) << np.arange(group_size, dtype=np.uint64)
        order = np.argsort(vertices, kind="stable")
        vertices, masks = vertices[order], masks[order]
        cuts = np.searchsorted(vertices, self.partitions.own_bounds)
        frontier = []
        for p, state in enumerate(self._states):
            state.init_group()
            a, b = cuts[p], cuts[p + 1]
            frontier.append(state.apply([encode_updates(
                vertices[a:b], masks[a:b],
                state.part.own_start, state.part.own_stop, "sparse",
            )]))
        return _Group(
            frontier, group_size, int(self._out_degrees[vertices].sum()),
            depths,
        )

    def _resolve_decision(
        self, group: _Group, decision: LevelDecision
    ) -> LevelDecision:
        """Fill an ``"auto"`` exchange from the frontier about to be
        expanded; a recorded format replays as it stands."""
        if decision.exchange != "auto":
            return decision
        fmt = self.exchange_policy.decide(
            group.frontier_edges, self._dense_bytes
        )
        return dataclasses.replace(decision, exchange=fmt)

    def _level(
        self,
        group: _Group,
        td_instances: List[int],
        bu_instances: List[int],
        level: int,
        decision: LevelDecision,
        record: RunRecord,
    ):
        """The level's exchange (:meth:`_exchange`), then the new
        frontier's per-instance sizes and the depth rows it reaches."""
        tracer = obs_tracing.get_tracer()
        with tracer.span(
            "exchange.level", level=level, fmt=decision.exchange
        ) as span:
            trace, new = self._exchange(level, decision.exchange, group)
            if span is not None:
                span.annotate(
                    bytes=trace.nbytes,
                    messages=trace.messages,
                    entries=trace.entries,
                    frontier=trace.frontier_vertices,
                    exchange_seconds=trace.exchange_seconds,
                )
        self.traces.append(trace)

        # One unpack of the new bits gives each instance's new-frontier
        # size and degree sum and the depth update (the words are one
        # lane, so this beats per_bit_counts' eight byte histograms).
        vertices = np.concatenate([v for v, _ in new])
        bits = unpack_lane_bits(
            np.concatenate([m for _, m in new])[:, None],
            group.depths.shape[1],
        )
        degrees = self._out_degrees[vertices]
        counts = bits.sum(axis=0, dtype=np.int64)
        frontier_edges = degrees @ bits
        if vertices.size:
            # A newly set bit's cell holds UNVISITED (-1): adding
            # level + 2 where bits are set writes depth level + 1.
            group.depths = widen_for_level(group.depths, level)
            upd = bits.astype(group.depths.dtype)
            upd *= group.depths.dtype.type(level + 2)
            group.depths[vertices] += upd

        new_bits = int(counts.sum())
        counters = record.counters
        counters.levels += 1
        counters.kernel_launches += len(self._states)
        counters.edges_traversed += sum(trace.edges_scanned)
        counters.frontier_enqueues += new_bits
        counters.inspections += trace.entries
        jfq = trace.frontier_vertices
        sizes = (group.fq, jfq, 0, 0, jfq)
        group.frontier = new
        group.fq = new_bits
        group.frontier_edges = int(degrees.sum())
        return sizes, counts, frontier_edges

    def _depths(self, group: _Group) -> np.ndarray:
        return ladder_depths(group.depths)

    def _group_seconds(self, group: _Group, record: RunRecord) -> float:
        return sum(t.compute_seconds + t.exchange_seconds for t in self.traces)

    def _exchange(
        self, level: int, fmt: str, group: _Group
    ) -> Tuple[LevelTrace, List[Tuple[np.ndarray, np.ndarray]]]:
        """Route → expand → exchange → apply for one level, priced by
        the comm model; returns its trace and the new frontier."""
        pset = self.partitions
        # Route: owner ranges refine row bands, so an owner's frontier
        # goes to the blocks of its own grid row, and every sibling
        # block beyond the owner itself gets a remote copy (the 2D
        # frontier broadcast).
        per_row: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        for (vertices, masks), part in zip(group.frontier, pset.parts):
            if vertices.size:
                per_row.setdefault(part.row, []).append((vertices, masks))
        senders = sum(len(chunks) for chunks in per_row.values())
        frontier_vertices = sum(int(v.shape[0]) for v, _ in group.frontier)
        remote = pset.cols - 1

        update_bytes = 0
        update_messages = 0
        entries = 0
        edges_scanned: List[int] = []
        per_owner: List[List[ExchangePayload]] = [
            [] for _ in range(pset.num_partitions)
        ]
        for state in self._states:
            chunks = per_row.get(state.part.row) or [_NO_FRONTIER]
            payloads, edges = state.expand(
                np.concatenate([v for v, _ in chunks]),
                np.concatenate([m for _, m in chunks]),
                fmt,
            )
            edges_scanned.append(edges)
            for owner, payload in payloads:
                per_owner[owner].append(payload)
                update_bytes += payload.nbytes
                update_messages += 1
                entries += payload.entries
        new = [
            state.apply(payloads)
            for state, payloads in zip(self._states, per_owner)
        ]
        broadcast_bytes = SPARSE_ENTRY_BYTES * frontier_vertices * remote
        messages = update_messages + senders * remote
        cost = self.cost_model.price_level(
            edges_scanned, update_bytes + broadcast_bytes, messages
        )
        trace = LevelTrace(
            level=level,
            fmt=fmt,
            entries=entries,
            update_bytes=update_bytes,
            broadcast_bytes=broadcast_bytes,
            messages=messages,
            frontier_vertices=frontier_vertices,
            frontier_edges=group.frontier_edges,
            edges_scanned=tuple(edges_scanned),
            compute_seconds=cost.compute_seconds,
            exchange_seconds=cost.exchange_seconds,
        )
        return trace, new


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PartitionedEngine(IBFS):
    """Multi-source BFS over a partitioned graph (see module docs).

    An :class:`~repro.core.engine.IBFS` whose groups run on a
    :class:`PartitionedTraversal`: ``config`` groups the sources as it
    does for the serial engine (group size capped at
    :data:`MAX_GROUP_SIZE`), ``dist_config`` places the partitions, and
    ``run`` leaves :attr:`last_stats` merged over its groups.  Same
    bit-identical depth matrices and recorded-plan replay as the serial
    engine.
    """

    def __init__(
        self,
        graph: CSRGraph,
        dist_config: Optional[DistConfig] = None,
        config: Optional[IBFSConfig] = None,
    ) -> None:
        # IBFS's attributes, with the partitioned traversal as the
        # group engine (IBFS.__init__ would build a device kernel).
        self.graph = graph
        self.config = config or IBFSConfig()
        self.dist_config = dist_config or DistConfig()
        self._group_engine = PartitionedTraversal(graph, self.dist_config)
        self.planner = self._group_engine.planner
        self.partitions = self._group_engine.partitions
        self.exchange_policy = self._group_engine.exchange_policy
        self._closed = False
        self._merged: Optional[DistStats] = None
        #: Stats of the most recent run/run_group call.
        self.last_stats: Optional[DistStats] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "+groupby" if self.config.groupby else "+random"
        dist = self.dist_config
        return f"dist-{dist.layout}x{dist.num_partitions}{suffix}"

    def effective_group_size(self) -> int:
        """Configured N clamped by the one-status-word-per-vertex rule."""
        return min(self.config.group_size, MAX_GROUP_SIZE)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the partition states; the engine refuses to run after."""
        self._closed = True
        self._group_engine = None

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
        traversal = self._group_engine
        wall_start = time.perf_counter()
        with obs_tracing.get_tracer().span(
            "dist.run_group",
            layout=self.dist_config.layout,
            partitions=self.partitions.num_partitions,
            group_size=len(group),
            replay=plan is not None,
        ):
            depths, record, gstats = traversal.run_group(
                group, max_depth=max_depth, plan=plan
            )
        stats = DistStats(
            layout=self.dist_config.layout,
            num_partitions=self.dist_config.num_partitions,
            groups=1,
            levels=traversal.traces,
            wall_seconds=time.perf_counter() - wall_start,
        )
        self.last_stats = stats
        if self._merged is not None:
            self._merged.add(stats)
        stats.publish()
        return ConcurrentResult.from_groups(
            self.name,
            group,
            self.graph.num_vertices,
            [(group, depths, record.counters, gstats)],
        )

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """:meth:`IBFS.run`, leaving :attr:`last_stats` merged over
        every group it ran."""
        self._merged = DistStats(
            layout=self.dist_config.layout,
            num_partitions=self.dist_config.num_partitions,
        )
        try:
            result = super().run(
                sources, max_depth=max_depth, store_depths=store_depths
            )
            self.last_stats = self._merged
        finally:
            self._merged = None
        return result
