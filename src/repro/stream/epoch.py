"""Epoch-tagged immutable graph snapshots with refcounted publication.

Each :meth:`EpochStore.publish` folds the pending overlay delta into a
fresh frozen CSR and tags it with a monotonically increasing epoch
number.  The snapshot carries its own content fingerprint
(``graph_cache_id``), so downstream caches keyed by graph id — depth
rows, traversal plans, shm segments — invalidate *by keying*: epoch
N+1 simply has a different id, and nothing keyed to epoch N's id is
ever served against the new graph.

Queries in flight on epoch N keep working unaffected: they hold a
:class:`Snapshot` (and optionally a :class:`PinToken`) whose graph
object stays alive until the pin count drops to zero *and* the epoch
is superseded.  The current epoch is never reclaimed.  Worker
processes never map a snapshot: the executor substrate republishes
each new epoch's graph to its own pool.

Crash safety: a pin can record its owner pid.  :meth:`EpochStore.gc`
probes recorded pids with ``os.kill(pid, 0)`` and drops pins whose
owner died, so a reader that crashed mid-query cannot keep a
superseded epoch's graph alive forever.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.service.cache import graph_cache_id
from repro.stream.overlay import GraphOverlay, MutationBatch


@dataclass
class PinToken:
    """One outstanding reference to an epoch snapshot.

    ``pid`` (optional) names the owner process; :meth:`EpochStore.gc`
    drops tokens whose owner has died.
    """

    epoch: int
    token_id: int
    pid: Optional[int] = None


@dataclass
class Snapshot:
    """One immutable published graph version."""

    epoch: int
    graph: CSRGraph
    graph_id: str
    batch: MutationBatch
    pins: Dict[int, PinToken] = field(default_factory=dict)
    reclaimed: bool = False

    @property
    def pinned(self) -> bool:
        return bool(self.pins)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


class EpochStore:
    """Versioned snapshot store over a :class:`GraphOverlay`."""

    def __init__(self, base: CSRGraph) -> None:
        self.overlay = GraphOverlay(base)
        self._token_ids = itertools.count(1)
        self._snapshots: Dict[int, Snapshot] = {}
        self._closed = False
        #: Snapshots reclaimed so far (graph dropped).
        self.reclaimed_epochs = 0
        # Epoch 0 is the base graph, published eagerly so the store is
        # never empty and the base participates in the same lifecycle.
        self._current_epoch = 0
        self._snapshots[0] = self._make_snapshot(
            0, base, MutationBatch.make(base.num_vertices)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> int:
        return self._current_epoch

    @property
    def current(self) -> Snapshot:
        return self._snapshots[self._current_epoch]

    def snapshot(self, epoch: Optional[int] = None) -> Snapshot:
        """The snapshot for ``epoch`` (default: current).

        Raises :class:`~repro.errors.StreamError` for unknown or
        already-reclaimed epochs.
        """
        if epoch is None:
            epoch = self._current_epoch
        snap = self._snapshots.get(epoch)
        if snap is None or snap.reclaimed:
            raise StreamError(
                f"epoch {epoch} is unknown or already reclaimed "
                f"(current epoch is {self._current_epoch})"
            )
        return snap

    def live_epochs(self) -> List[int]:
        """Epoch numbers still holding a graph (current + pinned old)."""
        return sorted(
            e for e, s in self._snapshots.items() if not s.reclaimed
        )

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
        snapshot (no new epoch, no re-fingerprint).
        After publishing, superseded unpinned epochs are reclaimed.
        """
        self._check_open()
        if not self.overlay.has_pending:
            return self.current
        graph, batch = self.overlay.commit()
        epoch = self._current_epoch + 1
        snap = self._make_snapshot(epoch, graph, batch)
        self._snapshots[epoch] = snap
        self._current_epoch = epoch
        self.gc()
        return snap

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(
        self, epoch: Optional[int] = None, pid: Optional[int] = None
    ) -> PinToken:
        """Take a reference on an epoch, keeping it alive across later
        publishes.  ``pid`` marks the owner for crash-aware GC."""
        self._check_open()
        snap = self.snapshot(epoch)
        token = PinToken(
            epoch=snap.epoch, token_id=next(self._token_ids), pid=pid
        )
        snap.pins[token.token_id] = token
        return token

    def unpin(self, token: PinToken) -> None:
        """Drop a reference; reclaims the epoch when it was the last pin
        on a superseded epoch."""
        snap = self._snapshots.get(token.epoch)
        if snap is None:
            return
        snap.pins.pop(token.token_id, None)
        self.gc()

    # ------------------------------------------------------------------
    # Reclamation
    # ------------------------------------------------------------------
    def gc(self) -> int:
        """Reclaim superseded epochs with no *live* pins.

        A pin whose recorded owner pid no longer exists counts as dead
        and is dropped first — a crashed reader will never unpin, so
        holding its pin forever would only leak the epoch.  Returns the number of epochs
        reclaimed by this call.  The current epoch is never touched.

        Each call emits a ``stream.gc`` span (candidates scanned,
        epochs reclaimed) and bumps ``stream_epochs_reclaimed_total``
        on the hub, so epoch reclamation shows up in trace reports
        next to the publishes that triggered it.
        """
        reclaimed = 0
        scanned = 0
        with obs_tracing.get_tracer().span("stream.gc") as span:
            for epoch, snap in list(self._snapshots.items()):
                if snap.reclaimed or epoch == self._current_epoch:
                    continue
                scanned += 1
                for token_id, token in list(snap.pins.items()):
                    if token.pid is not None and not _pid_alive(token.pid):
                        del snap.pins[token_id]
                if snap.pins:
                    continue
                self._reclaim(snap)
                reclaimed += 1
            if span is not None:
                span.annotate(scanned=scanned, reclaimed=reclaimed)
        if reclaimed:
            obs_metrics.get_hub().counter(
                "stream_epochs_reclaimed_total",
                help="superseded epoch snapshots reclaimed by gc",
            ).inc(reclaimed)
        return reclaimed

    def _reclaim(self, snap: Snapshot) -> None:
        snap.reclaimed = True
        snap.graph = None  # type: ignore[assignment]
        self.reclaimed_epochs += 1

    def close(self) -> None:
        """Reclaim every remaining epoch, including the current one.
        The store is unusable afterwards."""
        if self._closed:
            return
        self._closed = True
        for snap in self._snapshots.values():
            if not snap.reclaimed:
                self._reclaim(snap)
        self._snapshots.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise StreamError("EpochStore is closed")

    def __enter__(self) -> "EpochStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EpochStore(current_epoch={self._current_epoch}, "
            f"live={self.live_epochs()})"
        )
