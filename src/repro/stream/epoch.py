"""Epoch-tagged immutable graph snapshots.

Each :meth:`EpochStore.publish` folds the pending overlay delta into a
fresh frozen CSR and tags it with a monotonically increasing epoch
number.  The snapshot carries its own graph id (``graph_cache_id``),
so downstream caches keyed by graph id — depth rows, traversal plans,
shm segments — invalidate *by keying*: epoch N+1 simply has a
different id, and nothing keyed to epoch N's id is ever served against
the new graph.

Epoch 0 is named by the base graph's content CRC.  Every later epoch
is named from its parent: :func:`lineage_id` digests epoch N's id and
the batch that made epoch N+1, which costs O(batch) where a CRC of the
new CSR costs O(|E|).  Two stores fed the same base and the same
batches therefore name their epochs alike, as their graphs are alike;
a graph reached by two different histories gets two ids, which only
costs a cache miss.

The store keeps only the current snapshot: publishing reclaims the
one it replaces, so a superseded epoch's arrays are freed as soon as
nothing else references them.  An in-process reader that needs the
old graph past a publish holds the graph object itself.  Worker
processes never map a snapshot: the executor substrate republishes
each new epoch's graph to its own pool.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.service.cache import graph_cache_id, remember_graph_id
from repro.stream.overlay import GraphOverlay, MutationBatch


def lineage_id(parent_id: str, batch: MutationBatch, graph: CSRGraph) -> str:
    """Graph id of ``graph``, the fold of ``batch`` into the graph named
    ``parent_id``: a 128-bit BLAKE2b digest of the parent's id and the
    batch's four arrays, each prefixed by its length."""
    digest = hashlib.blake2b(parent_id.encode(), digest_size=16)
    for array in (
        batch.insert_src, batch.insert_dst, batch.delete_src, batch.delete_dst
    ):
        digest.update(np.int64(array.size).tobytes())
        digest.update(np.ascontiguousarray(array, dtype=np.int64))
    return f"csr-{graph.num_vertices}-{graph.num_edges}-{digest.hexdigest()}"


@dataclass
class Snapshot:
    """One immutable published graph version; ``graph`` is dropped
    (``None``) once the snapshot is reclaimed."""

    epoch: int
    graph: CSRGraph
    graph_id: str
    batch: MutationBatch


class EpochStore:
    """Versioned snapshot store over a :class:`GraphOverlay`."""

    def __init__(self, base: CSRGraph) -> None:
        self.overlay = GraphOverlay(base)
        self._closed = False
        #: Snapshots reclaimed so far (graph dropped).
        self.reclaimed_epochs = 0
        # Epoch 0 is the base graph, published eagerly so the store is
        # never empty and the base participates in the same lifecycle.
        self._current = Snapshot(
            epoch=0,
            graph=base,
            graph_id=graph_cache_id(base),  # freezes as a side effect
            batch=MutationBatch.make(base.num_vertices),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self._current.epoch

    @property
    def current(self) -> Snapshot:
        return self._current

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self) -> Snapshot:
        """Fold pending mutations into a new epoch and make it current.

        With nothing pending this is a no-op returning the current
        snapshot (no new epoch, no new id).  Otherwise the new graph
        is frozen and named by :func:`lineage_id` from the current
        epoch's id, the snapshot it replaces is reclaimed, and the
        reclamation is counted on the hub's
        ``stream_epochs_reclaimed_total``.
        """
        self._check_open()
        if not self.overlay.has_pending:
            return self._current
        graph, batch = self.overlay.commit()
        old = self._current
        graph_id = remember_graph_id(
            graph, lineage_id(old.graph_id, batch, graph)
        )
        self._current = Snapshot(
            epoch=old.epoch + 1, graph=graph, graph_id=graph_id, batch=batch
        )
        self._reclaim(old)
        obs_metrics.get_hub().counter(
            "stream_epochs_reclaimed_total",
            help="superseded epoch snapshots reclaimed on publish",
        ).inc(1)
        return self._current

    def _reclaim(self, snap: Snapshot) -> None:
        snap.graph = None  # type: ignore[assignment]
        self.reclaimed_epochs += 1

    def close(self) -> None:
        """Reclaim the current epoch; the store is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        self._reclaim(self._current)

    def _check_open(self) -> None:
        if self._closed:
            raise StreamError("EpochStore is closed")

    def __enter__(self) -> "EpochStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EpochStore(current_epoch={self.current_epoch})"
