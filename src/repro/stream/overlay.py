"""Delta/CSR overlay: batched edge mutations on a frozen CSR graph.

The iBFS paper traverses an immutable graph, but a production graph
service mutates while queries run.  The overlay keeps the frozen CSR
as-is and accumulates edge inserts/deletes in O(batch) delta storage;
:meth:`GraphOverlay.commit` folds the pending delta into a fresh CSR in
one vectorized pass — one fold per published epoch, no matter how many
individual mutations arrived in between.

**Compaction contract** (what the differential suite pins): folding a
batch produces *bit-identical* CSR arrays to rebuilding from scratch
with :func:`repro.graph.builders.from_edge_arrays` over the equivalent
edge list, where the equivalent list is

1. the current edges in CSR order,
2. minus **every** copy of each ``(src, dst)`` pair in the batch's
   deletes (deletes apply first within a batch),
3. plus the batch's inserted pairs appended in submission order.

Because ``from_edge_arrays`` sorts stably by source, this means each
vertex's adjacency keeps its prior edge order with inserts appended —
the paper's "preserve the edge sequence" property survives mutation.

The vertex set is fixed at construction: dynamic graphs here grow and
shrink *edges*; vertex ids are the stable keys the serving layer's
caches and the depth matrices are indexed by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import StreamError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE


def _as_edge_arrays(
    src, dst, num_vertices: int, what: str
) -> Tuple[np.ndarray, np.ndarray]:
    src = np.asarray(src, dtype=VERTEX_DTYPE).reshape(-1)
    dst = np.asarray(dst, dtype=VERTEX_DTYPE).reshape(-1)
    if src.shape != dst.shape:
        raise StreamError(
            f"{what}: src and dst must have equal length "
            f"({src.size} != {dst.size})"
        )
    if src.size and (
        int(src.min()) < 0
        or int(dst.min()) < 0
        or int(src.max()) >= num_vertices
        or int(dst.max()) >= num_vertices
    ):
        raise StreamError(
            f"{what}: edge endpoint out of range [0, {num_vertices})"
        )
    return src, dst


@dataclass(frozen=True)
class MutationBatch:
    """One atomic set of edge mutations (deletes apply before inserts)."""

    insert_src: np.ndarray
    insert_dst: np.ndarray
    delete_src: np.ndarray
    delete_dst: np.ndarray

    @classmethod
    def make(
        cls,
        num_vertices: int,
        inserts: Optional[Tuple] = None,
        deletes: Optional[Tuple] = None,
    ) -> "MutationBatch":
        """Build a validated batch from ``(src, dst)`` array pairs."""
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        isrc, idst = (
            _as_edge_arrays(*inserts, num_vertices, "inserts")
            if inserts is not None
            else (empty, empty)
        )
        dsrc, ddst = (
            _as_edge_arrays(*deletes, num_vertices, "deletes")
            if deletes is not None
            else (empty, empty)
        )
        return cls(isrc, idst, dsrc, ddst)

    @property
    def num_inserts(self) -> int:
        return int(self.insert_src.size)

    @property
    def num_deletes(self) -> int:
        return int(self.delete_src.size)

    @property
    def empty(self) -> bool:
        return self.num_inserts == 0 and self.num_deletes == 0

    @property
    def insert_only(self) -> bool:
        """True for the hot path: inserts can only lower BFS depths, so
        cached depth rows are repairable instead of recomputable."""
        return self.num_deletes == 0

    def __repr__(self) -> str:
        return (
            f"MutationBatch(inserts={self.num_inserts}, "
            f"deletes={self.num_deletes})"
        )


def apply_batch(graph: CSRGraph, batch: MutationBatch) -> CSRGraph:
    """Fold one batch into a fresh CSR per the compaction contract.

    Deletes remove every copy of each listed pair from the current
    edge multiset; inserts append per-source in submission order.  The
    result is bit-identical to a stable ``from_edge_arrays`` rebuild of
    the equivalent edge list.  When ``graph`` owns its reverse CSR the
    batch is folded into that too, keeping each in-neighbor row
    ascending by source exactly as :meth:`CSRGraph.reverse` builds it,
    so an epoch swap never re-derives the reverse from scratch.
    """
    deletes = (batch.delete_src, batch.delete_dst)
    inserts = (batch.insert_src, batch.insert_dst)
    folded = _fold_rows(graph, deletes, inserts, sorted_rows=False)
    rev = graph.cached_reverse
    if rev is not None:
        folded.link_reverse(
            _fold_rows(rev, deletes[::-1], inserts[::-1], sorted_rows=True)
        )
    return folded


def _fold_rows(
    csr: CSRGraph,
    deletes: Tuple[np.ndarray, np.ndarray],
    inserts: Tuple[np.ndarray, np.ndarray],
    sorted_rows: bool,
) -> CSRGraph:
    """Fold ``deletes`` and ``inserts``, ``(rows, cols)`` array pairs
    in ``csr``'s own orientation, by rebuilding only the rows they touch.

    A touched row drops every copy of its deleted pairs, keeps its
    surviving entries in order and appends its inserts in submission
    order — or, with ``sorted_rows``, is sorted ascending instead.
    Untouched rows are copied as whole spans between the touched ones,
    so the cost is one copy of the edge array plus work proportional
    to the touched rows, with no |E|-sized index temporary or sort.
    """
    n = np.int64(csr.num_vertices)
    offsets, cols = csr.row_offsets, csr.col_indices
    rows = np.union1d(deletes[0], inserts[0])
    starts = offsets[rows]
    ends = offsets[rows + 1]
    counts = ends - starts
    # Gather the touched rows' entries, row by row.
    row_of = np.repeat(rows, counts)
    vals = cols[
        np.arange(row_of.size, dtype=VERTEX_DTYPE)
        + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    ]
    if deletes[0].size:
        # Pair keys fit int64 as long as n * n < 2**63 — far beyond any
        # laptop-scale graph; col < n keeps the encoding collision-free.
        keep = ~np.isin(row_of * n + vals, deletes[0] * n + deletes[1])
        row_of, vals = row_of[keep], vals[keep]
    row_of = np.concatenate([row_of, inserts[0]])
    vals = np.concatenate([vals, inserts[1]])
    # A stable sort by row puts each row's survivors before its inserts;
    # sorting by (row, col) key instead orders each row by value, and
    # equal keys are equal entries.
    order = np.argsort(row_of * n + vals if sorted_rows else row_of,
                       kind="stable")
    row_of, vals = row_of[order], vals[order]
    # Every rebuilt entry belongs to a touched row, so row i's entries
    # end where the next touched row's begin.
    bounds = np.searchsorted(row_of, rows, side="right")
    degrees = np.diff(offsets)
    degrees[rows] = np.diff(bounds, prepend=0)
    new_offsets = np.zeros_like(offsets)
    np.cumsum(degrees, out=new_offsets[1:])
    pieces = []
    prev = lo = 0
    for start, end, hi in zip(starts.tolist(), ends.tolist(), bounds.tolist()):
        pieces += (cols[prev:start], vals[lo:hi])
        prev, lo = end, hi
    pieces.append(cols[prev:])
    return CSRGraph(new_offsets, np.concatenate(pieces), validate=False)


class GraphOverlay:
    """Mutable edge overlay over a frozen base CSR.

    Mutations accumulate in a pending batch at O(1) amortized cost per
    edge; :meth:`commit` folds the batch into a fresh immutable CSR
    (the ``current`` snapshot source).  Between commits,
    :meth:`neighbors` answers point queries against the merged view
    without materializing anything.
    """

    def __init__(self, base: CSRGraph) -> None:
        self.base = base
        #: Latest committed CSR (``base`` until the first commit).
        self.current = base
        self.num_vertices = base.num_vertices
        self._pending_inserts: List[Tuple[np.ndarray, np.ndarray]] = []
        self._pending_deletes: List[Tuple[np.ndarray, np.ndarray]] = []
        #: Committed batches so far (epoch fold count).
        self.commits = 0
        self.total_inserted = 0
        self.total_deleted = 0

    # ------------------------------------------------------------------
    # Mutation intake
    # ------------------------------------------------------------------
    def insert_edges(self, src, dst) -> int:
        """Queue directed edge inserts; returns the number queued."""
        src, dst = _as_edge_arrays(src, dst, self.num_vertices, "inserts")
        if src.size:
            self._pending_inserts.append((src, dst))
        return int(src.size)

    def delete_edges(self, src, dst) -> int:
        """Queue edge deletes (every copy of each pair is removed at
        commit); returns the number of pairs queued."""
        src, dst = _as_edge_arrays(src, dst, self.num_vertices, "deletes")
        if src.size:
            self._pending_deletes.append((src, dst))
        return int(src.size)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending_inserts or self._pending_deletes)

    def pending_batch(self) -> MutationBatch:
        """The queued mutations as one :class:`MutationBatch`."""
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        isrc = (
            np.concatenate([s for s, _ in self._pending_inserts])
            if self._pending_inserts
            else empty
        )
        idst = (
            np.concatenate([d for _, d in self._pending_inserts])
            if self._pending_inserts
            else empty
        )
        dsrc = (
            np.concatenate([s for s, _ in self._pending_deletes])
            if self._pending_deletes
            else empty
        )
        ddst = (
            np.concatenate([d for _, d in self._pending_deletes])
            if self._pending_deletes
            else empty
        )
        return MutationBatch(isrc, idst, dsrc, ddst)

    # ------------------------------------------------------------------
    # Merged point view (pre-commit)
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` under the pending delta, without
        folding: committed adjacency minus pending deletes of ``v``,
        plus pending inserts from ``v`` in submission order."""
        if not 0 <= v < self.num_vertices:
            raise StreamError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )
        neigh = self.current.neighbors(v)
        doomed = [
            dst[src == v] for src, dst in self._pending_deletes
        ]
        if doomed:
            drop = np.concatenate(doomed)
            if drop.size:
                neigh = neigh[~np.isin(neigh, drop)]
        added = [dst[src == v] for src, dst in self._pending_inserts]
        if added:
            neigh = np.concatenate([neigh] + added)
        return neigh

    @property
    def num_edges(self) -> int:
        """Edge count of the merged view (exact, O(pending))."""
        count = self.current.num_edges
        if self._pending_deletes:
            batch = self.pending_batch()
            folded = apply_batch(self.current, batch)
            return folded.num_edges
        for src, _ in self._pending_inserts:
            count += src.size
        return count

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def commit(self) -> Tuple[CSRGraph, MutationBatch]:
        """Fold the pending batch into a fresh CSR.

        Returns ``(graph, batch)``: the new committed snapshot source
        and the batch that produced it.  With nothing pending the
        current graph is returned with an empty batch.
        """
        batch = self.pending_batch()
        self._pending_inserts = []
        self._pending_deletes = []
        if batch.empty:
            return self.current, batch
        deleted_before = self.current.num_edges
        self.current = apply_batch(self.current, batch)
        self.commits += 1
        self.total_inserted += batch.num_inserts
        self.total_deleted += (
            deleted_before + batch.num_inserts - self.current.num_edges
        )
        return self.current, batch

    def compact(self) -> CSRGraph:
        """Commit anything pending and return the folded CSR."""
        graph, _ = self.commit()
        return graph

    def __repr__(self) -> str:
        return (
            f"GraphOverlay(vertices={self.num_vertices}, "
            f"committed_edges={self.current.num_edges}, "
            f"pending={self.pending_batch()!r})"
        )
