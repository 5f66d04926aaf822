"""Epoch-aware BFS serving: mutations interleaved with queries.

:class:`DynamicBFSServer` extends the discrete-event
:class:`~repro.service.server.BFSServer` with a :meth:`mutate` verb.
Each mutation batch is a *barrier* in simulated time: pending batches
flush against the old epoch (queries admitted before the mutation see
pre-mutation depths, bit-identically), then the overlay folds into a
new epoch snapshot with its own ``graph_cache_id``, and the serving
substrate — engine, optional partitioned engine, micro-batcher, cache
keying — swaps onto the new graph.

Cache handling per epoch swap, the part worth the subsystem:

* **Plan cache** — recorded traversal plans embed old-graph frontier
  structure; every old-epoch entry is purged (counted as an
  invalidation, not an eviction).
* **Result cache** — for *insert-only* batches within the repair cost
  budget, cached depth rows are **repaired in place**: rows are
  bucketed by ``max_depth``, stacked (in the widest of their dtypes)
  and repaired jointly as one matrix via
  :func:`~repro.stream.repair.repair_depth_matrix`, and re-keyed to
  the new epoch preserving LRU order.  The repaired rows are
  bit-identical to re-traversing on the new graph, so post-mutation
  cache hits stay exact, and they come back narrow like an engine's.  Batches with deletes (or oversized insert
  wavefronts) drop the old rows instead — correct, just colder.

Every swap appends an :class:`EpochRecord`; ``metrics_snapshot`` gains
an ``"epochs"`` section aggregating repair/invalidation counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.slo import SIGNAL_CACHE_STALENESS
from repro.runtime import SubstrateSpec
from repro.service.batcher import MicroBatcher
from repro.service.cache import ResultCache
from repro.service.server import BFSServer, ServingConfig
from repro.stream.epoch import Snapshot
from repro.stream.overlay import MutationBatch
from repro.stream.repair import (
    NOOP,
    RECOMPUTE,
    REPAIR,
    RepairConfig,
    plan_repair,
    repair_depth_matrix,
)


@dataclass(frozen=True)
class EpochRecord:
    """Bookkeeping for one epoch swap (one :meth:`mutate` call)."""

    epoch: int
    time: float
    inserts: int
    deletes: int
    #: Repair decision: "noop", "repair", or "recompute".
    decision: str
    reason: str
    #: Depth rows patched across the swap (kept hot).
    rows_repaired: int = 0
    #: Depth rows dropped (cold restart for their sources).
    rows_dropped: int = 0
    #: Plan-cache entries purged.
    plans_purged: int = 0
    #: Scatter-min rounds the repair took (0 for noop/recompute).
    repair_rounds: int = 0

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "time": self.time,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "decision": self.decision,
            "rows_repaired": self.rows_repaired,
            "rows_dropped": self.rows_dropped,
            "plans_purged": self.plans_purged,
            "repair_rounds": self.repair_rounds,
        }


class DynamicBFSServer(BFSServer):
    """A :class:`BFSServer` whose graph mutates between queries.

    The one parameter beyond :class:`BFSServer`'s, ``repair_config``,
    tunes the repair-vs-recompute cost model.  The serving substrate is
    always the epoch-swapping ``stream`` substrate; its delegate
    (serial, executor, or partitioned) follows the spec.  A
    substrate-owned executor (``workers > 0`` in the spec) survives
    mutation — each epoch swap republishes the new graph to a fresh
    worker pool.  A *caller-owned* ``executor`` object is refused with
    a typed :class:`~repro.errors.UnsupportedMutationError`: its
    workers map one published graph for their lifetime, which is
    exactly what an epoch swap violates.
    """

    def __init__(
        self,
        graph: CSRGraph,
        serving: Optional[ServingConfig] = None,
        repair_config: Optional[RepairConfig] = None,
        **kwargs,
    ) -> None:
        self._groupby_config = kwargs.get("groupby_config")
        self.repair_config = repair_config or RepairConfig()
        self.epoch_records: List[EpochRecord] = []
        # Force the epoch-swapping substrate: whatever placement the
        # caller asked for becomes the per-epoch delegate.
        spec = kwargs.pop("substrate", None) or SubstrateSpec()
        if spec.kind != "stream":
            spec = SubstrateSpec.from_flags(
                kind=spec.kind,
                workers=spec.workers,
                partitions=spec.partitions,
                layout=spec.layout,
                churn=True,
            )
        super().__init__(graph, serving=serving, substrate=spec, **kwargs)

    # ------------------------------------------------------------------
    # Mutation surface
    # ------------------------------------------------------------------
    def mutate(
        self,
        inserts: Optional[Tuple] = None,
        deletes: Optional[Tuple] = None,
        arrival_time: Optional[float] = None,
    ) -> EpochRecord:
        """Apply one mutation batch and publish a new epoch.

        ``inserts`` / ``deletes`` are ``(src, dst)`` array pairs.  The
        call is a barrier at ``arrival_time`` (default: current clock):
        everything already queued executes against the old epoch first;
        requests submitted afterwards see the new one.  Returns the
        :class:`EpochRecord` describing what happened to the caches.
        """
        now = self.clock if arrival_time is None else float(arrival_time)
        if now < self.clock:
            raise ServiceError(
                f"mutation arrival {now} is before the server clock "
                f"{self.clock}"
            )
        with obs_tracing.get_tracer().span("stream.mutate") as mspan:
            record = self._mutate_inner(inserts, deletes, now, mspan)
        self._record_mutation(record, mspan)
        return record

    def _mutate_inner(
        self,
        inserts: Optional[Tuple],
        deletes: Optional[Tuple],
        now: float,
        mspan,
    ) -> EpochRecord:
        self.advance_to(now)
        # Barrier: flush in-flight batches on the old epoch.  Completed
        # responses stay queued for take_completed() as usual.
        while len(self.batcher) > 0:
            free = min(self._device_free)
            self.clock = max(self.clock, free)
            self._dispatch(self.clock, draining=True)

        if inserts is not None:
            self.substrate.overlay.insert_edges(*inserts)
        if deletes is not None:
            self.substrate.overlay.delete_edges(*deletes)
        batch = self.substrate.overlay.pending_batch()
        if batch.empty:
            return EpochRecord(
                epoch=self.substrate.epochs.current_epoch,
                time=self.clock,
                inserts=0,
                deletes=0,
                decision=NOOP,
                reason="empty batch",
            )

        old_graph_id = self._graph_id
        with obs_tracing.get_tracer().span(
            "stream.publish",
            inserts=batch.num_inserts,
            deletes=batch.num_deletes,
        ) as span:
            # publish() folds the overlay into a new epoch AND routes
            # the swap through the substrate's on_epoch_published hook
            # (rebuilding the serial/partitioned delegate, or tearing
            # down and republishing the executor's worker pool).
            snap = self.substrate.publish()
            plan = plan_repair(batch, snap.graph, self.repair_config)
            self._on_epoch(snap)
            repaired, rounds = 0, 0
            if plan.decision == REPAIR:
                with obs_tracing.get_tracer().span(
                    "stream.repair",
                    inserts=batch.num_inserts,
                ) as rspan:
                    repaired, rounds = self._repair_result_cache(
                        old_graph_id, snap, batch
                    )
                    if rspan is not None:
                        rspan.annotate(
                            rows_repaired=repaired, repair_rounds=rounds
                        )
                dropped = 0
            else:
                dropped = self.cache.purge(
                    lambda key: key[0] == old_graph_id
                )
            plans_purged = self.plan_cache.purge(
                lambda key: key[0] == old_graph_id
            )
            if span is not None:
                span.annotate(
                    epoch=snap.epoch,
                    decision=plan.decision,
                    rows_repaired=repaired,
                    rows_dropped=dropped,
                    plans_purged=plans_purged,
                )

        return EpochRecord(
            epoch=snap.epoch,
            time=self.clock,
            inserts=batch.num_inserts,
            deletes=batch.num_deletes,
            decision=plan.decision,
            reason=plan.reason,
            rows_repaired=repaired,
            rows_dropped=dropped,
            plans_purged=plans_purged,
            repair_rounds=rounds,
        )

    def _record_mutation(self, record: EpochRecord, mspan) -> None:
        """One swap's bookkeeping fan-out: epoch history, hub counters,
        span attrs, and the cache-staleness SLO signal."""
        self.epoch_records.append(record)
        touched = record.rows_repaired + record.rows_dropped
        staleness = (
            record.rows_dropped / touched if touched > 0 else 0.0
        )
        if mspan is not None:
            mspan.annotate(
                epoch=record.epoch,
                decision=record.decision,
                inserts=record.inserts,
                deletes=record.deletes,
                rows_repaired=record.rows_repaired,
                rows_dropped=record.rows_dropped,
                cache_staleness=staleness,
            )
        hub = obs_metrics.get_hub()
        hub.counter(
            "stream_mutations_total",
            help="mutation batches applied, by repair decision",
            labels={"decision": record.decision},
        ).inc()
        if record.decision != NOOP:
            hub.counter(
                "stream_rows_repaired_total",
                help="cached depth rows patched across epoch swaps",
            ).inc(record.rows_repaired)
            hub.counter(
                "stream_rows_dropped_total",
                help="cached depth rows invalidated by epoch swaps",
            ).inc(record.rows_dropped)
            hub.counter(
                "stream_plans_purged_total",
                help="plan-cache entries purged by epoch swaps",
            ).inc(record.plans_purged)
            self._observe_slo(SIGNAL_CACHE_STALENESS, staleness)

    # ------------------------------------------------------------------
    # Epoch swap internals
    # ------------------------------------------------------------------
    def _on_epoch(self, snap: Snapshot) -> None:
        """Point the server-side machinery at the new epoch's graph.

        The traversal substrate has already swapped (inside
        :meth:`~repro.runtime.StreamSubstrate.publish`); what remains is
        the serving bookkeeping built over the graph object itself.
        """
        self.graph = snap.graph
        self.batch_size = min(
            self.serving.batch_size,
            self.substrate.effective_group_size(),
        )
        # The batcher is empty post-barrier; rebuild it so GroupBy sees
        # the new adjacency and the new batch-size clamp.
        self.batcher = MicroBatcher(
            snap.graph,
            self.batch_size,
            self.serving.flush_deadline,
            groupby=self.serving.groupby,
            groupby_config=self._groupby_config,
        )
        self._graph_id = snap.graph_id
        # engine_key is config-derived and stable across epochs; the
        # graph_id swap alone re-namespaces both caches.

    def _repair_result_cache(
        self, old_graph_id: str, snap: Snapshot, batch: MutationBatch
    ) -> Tuple[int, int]:
        """Patch cached depth rows onto the new epoch, preserving LRU
        order.  Returns ``(rows_repaired, total_rounds)``."""
        entries = self.cache.items()
        # Bucket old-epoch rows by the max_depth they were computed
        # under; each bucket repairs jointly as one (k, n) matrix.
        buckets: Dict[Optional[int], List[Tuple[int, np.ndarray]]] = {}
        for key, row in entries:
            if key[0] == old_graph_id and key[2] == self._engine_key:
                buckets.setdefault(key[3], []).append((key[1], row))
        if not buckets:
            return 0, 0
        repaired_rows: Dict[Tuple, np.ndarray] = {}
        total_rounds = 0
        for max_depth, rows in buckets.items():
            matrix = np.stack([row for _, row in rows])
            fixed, rounds = repair_depth_matrix(
                snap.graph, batch, matrix, max_depth=max_depth
            )
            total_rounds += rounds
            for i, (source, _) in enumerate(rows):
                new_key = ResultCache.key(
                    snap.graph_id, source, self._engine_key, max_depth
                )
                repaired_rows[(old_graph_id, source,
                               self._engine_key, max_depth)] = (
                    new_key,
                    fixed[i],
                )
        # Rebuild the cache in its original LRU order, swapping each
        # old-epoch entry for its repaired, re-keyed row.
        self.cache.clear()
        for key, row in entries:
            swap = repaired_rows.get(key)
            if swap is not None:
                self.cache.put(swap[0], swap[1])
            elif key[0] == old_graph_id:
                # Same graph id, different engine key (cannot happen on
                # one server, but stay safe): drop rather than serve a
                # row we did not repair.
                self.cache.invalidations += 1
            else:
                self.cache.put(key, row)
        return len(repaired_rows), total_rounds

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self, elapsed: Optional[float] = None) -> dict:
        """Server metrics plus the ``"epochs"`` section: swap history
        and aggregate repair/invalidation counters."""
        payload = super().metrics_snapshot(elapsed=elapsed)
        records = self.epoch_records
        payload["epochs"] = {
            "current_epoch": self.substrate.epochs.current_epoch,
            "published": sum(1 for r in records if r.decision != NOOP),
            "repairs": sum(1 for r in records if r.decision == REPAIR),
            "recomputes": sum(
                1 for r in records if r.decision == RECOMPUTE
            ),
            "rows_repaired": sum(r.rows_repaired for r in records),
            "rows_dropped": sum(r.rows_dropped for r in records),
            "plans_purged": sum(r.plans_purged for r in records),
            "reclaimed_epochs": self.substrate.epochs.reclaimed_epochs,
            "history": [r.to_dict() for r in records],
        }
        return payload

    def close(self) -> None:
        # The stream substrate owns the epoch store; closing the
        # substrate closes both the delegate and the store.
        super().close()
