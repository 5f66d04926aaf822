"""Epoch-tagged immutable graph snapshots.

Each :meth:`EpochStore.publish` folds the pending overlay delta into a
fresh frozen CSR and tags it with a monotonically increasing epoch
number.  The snapshot carries its own content fingerprint
(``graph_cache_id``), so downstream caches keyed by graph id — depth
rows, traversal plans, shm segments — invalidate *by keying*: epoch
N+1 simply has a different id, and nothing keyed to epoch N's id is
ever served against the new graph.

The store keeps only the current snapshot: publishing reclaims the
one it replaces, so a superseded epoch's arrays are freed as soon as
nothing else references them.  An in-process reader that needs the
old graph past a publish holds the graph object itself.  Worker
processes never map a snapshot: the executor substrate republishes
each new epoch's graph to its own pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.service.cache import graph_cache_id
from repro.stream.overlay import GraphOverlay, MutationBatch


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
        self._current = self._make_snapshot(
            0, base, MutationBatch.make(base.num_vertices)
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
    def _make_snapshot(
        self, epoch: int, graph: CSRGraph, batch: MutationBatch
    ) -> Snapshot:
        graph_id = graph_cache_id(graph)  # freezes as a side effect
        return Snapshot(epoch=epoch, graph=graph, graph_id=graph_id, batch=batch)

    def publish(self) -> Snapshot:
        """Fold pending mutations into a new epoch and make it current.

        With nothing pending this is a no-op returning the current
        snapshot (no new epoch, no re-fingerprint).  Otherwise the
        snapshot it replaces is reclaimed, and the reclamation is
        counted on the hub's ``stream_epochs_reclaimed_total``.
        """
        self._check_open()
        if not self.overlay.has_pending:
            return self._current
        graph, batch = self.overlay.commit()
        old = self._current
        self._current = self._make_snapshot(old.epoch + 1, graph, batch)
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
