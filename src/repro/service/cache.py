"""LRU caches for served traversals: depth rows and traversal plans.

Power-law graphs concentrate queries on hot vertices the same way they
concentrate edges on hubs, so an online BFS service sees heavily
repeated sources.  Two caches exploit that, both bounded LRUs over the
same machinery:

* :class:`ResultCache` stores depth rows, read-only and in the narrow
  dtype the engine returned them in, keyed by
  ``(graph_id, source, engine_key, max_depth)``.  A depth row fully
  determines every answer the service can give about a source (reached
  count, target depth, closeness), so every request kind is served from
  the same entry.  The scalar answers that reduce the whole row (reached
  count, closeness) are kept beside it once first read, and dropped with
  it.
* :class:`PlanCache` stores recorded :class:`~repro.plan.types.RunPlan`
  objects keyed by ``(graph_id, group_signature, engine_key,
  max_depth)``.  A repeated *batch* (same group of sources on the same
  graph under the same engine) replays its plan instead of re-running
  the planner heuristics at every level — the traversal itself is
  bit-identical either way.

``graph_id`` fingerprints the CSR arrays (so two servers on different
graphs never alias) and ``engine_key`` fingerprints the engine
configuration plus the planner policy, per the serving-layer contract.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.graph.csr import CSRGraph
from repro.plan.types import RunPlan


def graph_cache_id(graph: CSRGraph) -> str:
    """Stable content fingerprint of a CSR graph.

    Memoized on the graph object: CSR arrays are immutable by contract,
    so the CRC pass over both arrays runs at most once per graph no
    matter how many servers or caches fingerprint it.  The CRC reads
    the contiguous arrays in place, without a byte copy.
    """
    memo = getattr(graph, "_cache_id", None)
    if memo is not None:
        return memo
    crc = zlib.crc32(graph.row_offsets)
    crc = zlib.crc32(graph.col_indices, crc)
    cache_id = f"csr-{graph.num_vertices}-{graph.num_edges}-{crc:08x}"
    try:
        graph._cache_id = cache_id
    except AttributeError:
        pass
    # The fingerprint is memoized forever, so the arrays must never
    # change again: freeze them so an in-place mutation raises at the
    # mutation site instead of silently serving stale cached depth rows
    # keyed by the old content.
    freeze = getattr(graph, "freeze", None)
    if freeze is not None:
        freeze()
    return cache_id


class LRUCache:
    """Bounded LRU mapping hashable keys to cached values.

    ``capacity`` counts entries; 0 disables caching entirely (every
    lookup misses, every store is dropped) so an unbatched or
    plan-cache-free baseline can run through the same code path.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ServiceError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries dropped by :meth:`purge` (epoch re-fingerprinting),
        #: counted separately from capacity evictions.
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """Value for ``key``, refreshing recency; ``None`` on miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU on overflow."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            self._forget(key)
            return
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._forget(evicted)
            self.evictions += 1

    def _forget(self, key: Hashable) -> None:
        """Hook: the value cached at ``key`` was replaced or removed."""

    def clear(self) -> None:
        self._entries.clear()

    def items(self) -> list:
        """``(key, value)`` pairs in LRU order (oldest first), without
        touching recency — used by the epoch layer to migrate entries
        across a re-fingerprint while preserving eviction order."""
        return list(self._entries.items())

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Returns the number of entries dropped; the count also
        accumulates into :attr:`invalidations` so cache statistics
        distinguish epoch invalidation from capacity eviction.
        """
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
            self._forget(key)
        self.invalidations += len(doomed)
        return len(doomed)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ResultCache(LRUCache):
    """LRU of depth rows keyed per source, each with the scalar answers
    already computed from it."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._answers: Dict[Hashable, Dict[str, float]] = {}

    @staticmethod
    def key(
        graph_id: str, source: int, engine_key: str, max_depth: Optional[int]
    ) -> Tuple[str, int, str, Optional[int]]:
        return (graph_id, int(source), engine_key, max_depth)

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Depth row for ``key``, refreshing recency; ``None`` on miss."""
        return super().get(key)

    def put(self, key: Hashable, depth_row: np.ndarray) -> np.ndarray:
        """Store a depth row in its own dtype and return the row as
        stored, which is read-only: a write through a response would
        otherwise change every later hit.  A view is copied first (a
        row of a batch's depth matrix would keep the whole matrix alive
        for as long as the row stays cached); an array that owns its
        data is taken over as it is."""
        if depth_row.base is not None:
            depth_row = depth_row.copy()
        depth_row.flags.writeable = False
        super().put(key, depth_row)
        return depth_row

    def answers(self, key: Hashable) -> Dict[str, float]:
        """Answers computed from the row cached at ``key``, by request
        kind, for the caller to read and fill.  The dict lives as long
        as the row: a new :meth:`put` of the key, eviction,
        :meth:`purge` and :meth:`clear` drop it.  A key not cached gets
        a throwaway dict."""
        memo = self._answers.get(key)
        if memo is None:
            memo = {}
            if key in self._entries:
                self._answers[key] = memo
        return memo

    def _forget(self, key: Hashable) -> None:
        self._answers.pop(key, None)

    def clear(self) -> None:
        super().clear()
        self._answers.clear()


class PlanCache(LRUCache):
    """LRU of recorded traversal plans keyed per batch.

    The group *signature* is the ordered tuple of sources: the planner's
    per-instance decisions are positional, so the same sources in a
    different order are a different plan.
    """

    @staticmethod
    def key(
        graph_id: str,
        sources: Sequence[int],
        engine_key: str,
        max_depth: Optional[int],
    ) -> Tuple[str, Tuple[int, ...], str, Optional[int]]:
        return (
            graph_id,
            tuple(int(s) for s in sources),
            engine_key,
            max_depth,
        )

    def get(self, key: Hashable) -> Optional[RunPlan]:
        """Recorded plan for ``key``; ``None`` on miss."""
        return super().get(key)

    def put(self, key: Hashable, plan: RunPlan) -> None:
        super().put(key, plan)
