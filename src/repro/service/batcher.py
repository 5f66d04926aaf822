"""Dynamic micro-batching of pending BFS requests.

The paper's result that makes an online service viable is that ``i``
instances grouped by the outdegree rules run far faster jointly than
back-to-back — so the batcher's job is to turn a stream of independent
arrivals into GroupBy-formed groups.  Two triggers flush a batch:

* **size** — enough distinct pending sources to fill a group (the
  paper's N); throughput-optimal;
* **deadline** — the oldest pending request has waited
  ``flush_deadline`` simulated seconds; bounds tail latency when
  traffic is light.

Both triggers, and the earliest queued timeout the server expires by,
read counters the batcher keeps as requests enter and leave the pool (a
request count per depth limit and a cached earliest deadline), so
checking them costs the same whatever the pool size.

At flush time the GroupBy rules of :mod:`repro.core.groupby` still run
over the *whole pending pool* and the batch is the group containing the
oldest request — older requests are never starved by better-matching
newcomers, yet each batch keeps the high sharing ratio the rules were
designed for.  Repeat sources coalesce: any number of requests for the
same (source, depth limit) ride one traversal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.core.groupby import GroupByConfig, group_sources
from repro.service.request import PendingRequest

_INF = float("inf")


class MicroBatcher:
    """Accumulates admitted requests and forms GroupBy batches.

    ``_pending`` is the pool in flush order; every change to it goes
    through :meth:`add`, :meth:`requeue_front`, :meth:`take_batch`,
    :meth:`expire` or :meth:`drop`, which keep the trigger counters in
    step with it.
    """

    def __init__(
        self,
        graph: CSRGraph,
        batch_size: int,
        flush_deadline: float,
        groupby: bool = True,
        groupby_config: Optional[GroupByConfig] = None,
    ) -> None:
        if batch_size <= 0:
            raise ServiceError("batch_size must be positive")
        if flush_deadline <= 0:
            raise ServiceError("flush_deadline must be positive")
        self.graph = graph
        self.batch_size = batch_size
        self.flush_deadline = flush_deadline
        self.groupby = groupby
        self.groupby_config = groupby_config or GroupByConfig()
        self._pending: List[PendingRequest] = []
        #: Pending requests per depth limit (the size trigger's cohort
        #: sizes).
        self._counts: Dict[Optional[int], int] = {}
        #: Earliest pending deadline; ``None`` once the request holding
        #: a finite one has left, until the next read rescans the pool.
        self._earliest: Optional[float] = _INF

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> Tuple[PendingRequest, ...]:
        return tuple(self._pending)

    def add(self, item: PendingRequest) -> None:
        self._pending.append(item)
        self._count_in(item)

    def requeue_front(self, items: Sequence[PendingRequest]) -> None:
        """Put requests back at the head of the pool, oldest first, so
        they flush before newer traffic.  Requests that arrived at the
        same instant go back in the reverse of their given order."""
        self._pending[:0] = sorted(
            reversed(items), key=lambda p: p.arrival_time
        )
        for item in items:
            self._count_in(item)

    def _count_in(self, item: PendingRequest) -> None:
        limit = item.max_depth
        self._counts[limit] = self._counts.get(limit, 0) + 1
        if self._earliest is not None and item.deadline < self._earliest:
            self._earliest = item.deadline

    def _count_out(
        self, limit: Optional[int], items: Sequence[PendingRequest]
    ) -> None:
        """``items``, all with depth limit ``limit``, left the pool."""
        left = self._counts[limit] - len(items)
        if left:
            self._counts[limit] = left
        else:
            del self._counts[limit]
        # Only a finite earliest deadline can leave with a request; a
        # pool without timeouts never rescans.
        earliest = self._earliest
        if earliest is not None and earliest < _INF and any(
            p.deadline == earliest for p in items
        ):
            self._earliest = None

    # ------------------------------------------------------------------
    # Flush triggers
    # ------------------------------------------------------------------
    def _cohort(self) -> List[PendingRequest]:
        """Pending requests batchable with the oldest one (same depth
        limit — a joint kernel runs all its instances to one limit)."""
        if not self._pending:
            return []
        limit = self._pending[0].max_depth
        return [p for p in self._pending if p.max_depth == limit]

    def size_ready(self) -> bool:
        """True when the oldest request's cohort fills a batch.

        Counts *requests*, not distinct sources: repeat sources coalesce
        onto one traversal, so a pool of ``batch_size`` requests is
        worth flushing even when hot sources overlap — waiting longer
        only adds latency, not sharing.
        """
        if not self._pending:
            return False
        return self._counts[self._pending[0].max_depth] >= self.batch_size

    def deadline_at(self) -> Optional[float]:
        """Simulated time the oldest request forces a flush; None if idle."""
        if not self._pending:
            return None
        return self._pending[0].arrival_time + self.flush_deadline

    def deadline_ready(self, now: float) -> bool:
        deadline = self.deadline_at()
        return deadline is not None and now >= deadline

    def earliest_deadline(self) -> float:
        """Earliest per-request timeout in the pool (``inf`` if none)."""
        if self._earliest is None:
            self._earliest = min(
                (p.deadline for p in self._pending), default=_INF
            )
        return self._earliest

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------
    def take_batch(self) -> Tuple[List[int], List[PendingRequest]]:
        """Remove and return one batch: (distinct sources, its requests).

        The sources are GroupBy-formed over the pending cohort; the
        selected group is the one holding the oldest request's source.
        """
        cohort = self._cohort()
        if not cohort:
            raise ServiceError("take_batch on an empty batcher")
        unique: List[int] = []
        seen = set()
        for p in cohort:
            if p.source not in seen:
                seen.add(p.source)
                unique.append(p.source)

        if self.groupby and len(unique) > 1:
            groups = group_sources(
                self.graph, unique, self.batch_size, self.groupby_config
            )
            oldest = cohort[0].source
            chosen = next(g for g in groups if oldest in g)
        else:
            chosen = unique[: self.batch_size]

        members = set(chosen)
        batch = [p for p in cohort if p.source in members]
        taken = {id(p) for p in batch}
        self._pending = [p for p in self._pending if id(p) not in taken]
        self._count_out(cohort[0].max_depth, batch)
        return list(chosen), batch

    def expire(self, now: float) -> Sequence[PendingRequest]:
        """Remove and return, in pool order, every request whose
        deadline is at or before ``now`` (one pass over the pool, and
        none while the earliest deadline lies after ``now``)."""
        if self.earliest_deadline() > now:
            return ()
        keep: List[PendingRequest] = []
        gone: List[PendingRequest] = []
        for p in self._pending:
            (gone if p.deadline <= now else keep).append(p)
        self._pending = keep
        for p in gone:
            self._count_out(p.max_depth, (p,))
        return gone

    def drop(self, item: PendingRequest) -> None:
        """Remove one request from the pool (timeout while queued)."""
        kept = [p for p in self._pending if p is not item]
        removed = len(self._pending) - len(kept)
        if removed:
            self._count_out(item.max_depth, [item] * removed)
        self._pending = kept
