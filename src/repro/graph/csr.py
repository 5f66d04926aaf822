"""Compressed Sparse Row graph storage.

The paper (section 8.1) stores every benchmark in CSR format, keeps the
edge sequence of the input, treats each undirected edge as two directed
edges, and additionally stores the *reversed* edges of directed graphs so
that bottom-up traversal can look up in-neighbors.  :class:`CSRGraph`
mirrors that layout: a forward CSR (``row_offsets`` / ``col_indices``)
and a lazily built reverse CSR over the same vertex set.

A graph owns its reverse; the reverse refers back to it only weakly,
so a forward/reverse pair is freed by reference counting as soon as the
last reference to the forward graph goes, with no cycle left for the
cyclic garbage collector.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError

#: dtype used for vertex ids and offsets; int64 matches the paper's uint64
#: runs while staying signed for safe arithmetic in numpy.
VERTEX_DTYPE = np.int64


class CSRGraph:
    """A directed graph in Compressed Sparse Row form.

    Parameters
    ----------
    row_offsets:
        Array of ``num_vertices + 1`` monotonically non-decreasing offsets
        into ``col_indices``; vertex ``v``'s out-neighbors are
        ``col_indices[row_offsets[v]:row_offsets[v + 1]]``.
    col_indices:
        Flat array of destination vertex ids, one per directed edge.
    validate:
        When true (the default) the constructor checks structural
        invariants and raises :class:`~repro.errors.GraphError` on
        violation.  Pass ``False`` only for arrays produced by trusted
        builders.
    """

    __slots__ = (
        "row_offsets",
        "col_indices",
        "_reverse",
        "_out_degrees",
        "_cache_id",
        "__weakref__",
    )

    def __init__(
        self,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        validate: bool = True,
    ) -> None:
        self.row_offsets = np.ascontiguousarray(row_offsets, dtype=VERTEX_DTYPE)
        self.col_indices = np.ascontiguousarray(col_indices, dtype=VERTEX_DTYPE)
        #: The owned reverse CSR, or a weak reference to the graph this
        #: one is the reverse of (see :meth:`link_reverse`).
        self._reverse = None
        self._out_degrees: Optional[np.ndarray] = None
        #: Content fingerprint memo filled by the serving layer's
        #: ``graph_cache_id`` — the CSR arrays are treated as immutable,
        #: so hashing them more than once per graph is pure waste.
        self._cache_id: Optional[str] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if self.row_offsets.ndim != 1 or self.col_indices.ndim != 1:
            raise GraphError("row_offsets and col_indices must be 1-D arrays")
        if self.row_offsets.size == 0:
            raise GraphError("row_offsets must contain at least one entry")
        if self.row_offsets[0] != 0:
            raise GraphError("row_offsets must start at 0")
        if self.row_offsets[-1] != self.col_indices.size:
            raise GraphError(
                "row_offsets must end at len(col_indices): "
                f"{self.row_offsets[-1]} != {self.col_indices.size}"
            )
        if np.any(np.diff(self.row_offsets) < 0):
            raise GraphError("row_offsets must be non-decreasing")
        if self.col_indices.size:
            lo = int(self.col_indices.min())
            hi = int(self.col_indices.max())
            if lo < 0 or hi >= self.num_vertices:
                raise GraphError(
                    f"edge endpoint out of range [0, {self.num_vertices}): "
                    f"saw min={lo}, max={hi}"
                )

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices |V|."""
        return int(self.row_offsets.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of directed edges |E| (multi-edges and self-loops count)."""
        return int(self.col_indices.size)

    @property
    def average_degree(self) -> float:
        """Mean outdegree |E| / |V| (0.0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return bool(
            np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    # ------------------------------------------------------------------
    # Neighborhood access
    # ------------------------------------------------------------------
    def out_degree(self, v: int) -> int:
        """Outdegree of vertex ``v``."""
        self._check_vertex(v)
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of outdegrees for every vertex (cached)."""
        if self._out_degrees is None:
            self._out_degrees = np.diff(self.row_offsets)
        return self._out_degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` in input edge order (read-only view)."""
        self._check_vertex(v)
        return self.col_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def in_degree(self, v: int) -> int:
        """Indegree of vertex ``v`` (builds the reverse CSR on first use)."""
        return self.reverse().out_degree(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbors of ``v`` (builds the reverse CSR on first use)."""
        return self.reverse().neighbors(v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over directed edges as ``(src, dst)`` pairs."""
        for v in range(self.num_vertices):
            start = int(self.row_offsets[v])
            stop = int(self.row_offsets[v + 1])
            for idx in range(start, stop):
                yield v, int(self.col_indices[idx])

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(sources, destinations)`` arrays of all directed edges."""
        sources = np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.out_degrees()
        )
        return sources, self.col_indices.copy()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise GraphError(
                f"vertex {v} out of range [0, {self.num_vertices})"
            )

    # ------------------------------------------------------------------
    # Reverse graph (for bottom-up traversal)
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The transpose graph, built once and cached.

        The paper stores reversed edges alongside the forward CSR so that
        bottom-up traversal can scan in-neighbors; we materialize the same
        structure lazily.  Each in-neighbor row lists its sources in
        ascending order.  ``graph.reverse().reverse() is graph`` for as
        long as ``graph`` is alive.
        """
        rev = self._linked()
        if rev is None:
            rev = self.link_reverse(self._build_reverse())
        return rev

    @property
    def cached_reverse(self) -> Optional["CSRGraph"]:
        """The reverse CSR this graph owns, or ``None`` when it has not
        been built (never builds one).  A graph that is itself the
        reverse of a live graph owns no reverse."""
        rev = self._reverse
        return rev if isinstance(rev, CSRGraph) else None

    def link_reverse(self, rev: "CSRGraph") -> "CSRGraph":
        """Install ``rev`` as this graph's reverse CSR; returns ``rev``.

        The one place the two directions are linked: this graph holds
        ``rev`` strongly and ``rev`` points back through a weak
        reference.  ``rev`` must be the transpose of this graph with
        ascending rows (trusted, not checked).  The reverse of a frozen
        graph is frozen too.
        """
        self._reverse = rev
        rev._reverse = weakref.ref(self)
        if self.frozen:
            rev.freeze()
        return rev

    def _linked(self) -> Optional["CSRGraph"]:
        """The linked transpose in either direction, if any is alive."""
        rev = self._reverse
        if isinstance(rev, weakref.ref):
            return rev()
        return rev

    def _build_reverse(self) -> "CSRGraph":
        # One sort of the (dst, src) pair keys: equal keys are equal
        # edges, so no stable sort is needed for rows ascending by
        # source.  Keys fit int64 while n * n < 2**63.
        n = np.int64(self.num_vertices)
        in_degrees = np.bincount(self.col_indices, minlength=n)
        rev_offsets = np.zeros(n + 1, dtype=VERTEX_DTYPE)
        np.cumsum(in_degrees, out=rev_offsets[1:])
        sources = np.repeat(
            np.arange(n, dtype=VERTEX_DTYPE), self.out_degrees()
        )
        keys = self.col_indices * n
        keys += sources
        keys.sort()
        keys %= n
        return CSRGraph(rev_offsets, keys, validate=False)

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    def has_edge(self, src: int, dst: int) -> bool:
        """True when at least one directed edge ``src -> dst`` exists."""
        self._check_vertex(dst)
        return bool(np.any(self.neighbors(src) == dst))

    def is_symmetric(self) -> bool:
        """True when every edge has a matching reverse edge (with equal
        multiplicity), i.e. the graph is effectively undirected."""
        fwd_src, fwd_dst = self.edge_array()
        rev = self.reverse()
        rev_src, rev_dst = rev.edge_array()
        fwd = np.lexsort((fwd_dst, fwd_src))
        bwd = np.lexsort((rev_dst, rev_src))
        return bool(
            np.array_equal(fwd_src[fwd], rev_src[bwd])
            and np.array_equal(fwd_dst[fwd], rev_dst[bwd])
        )

    def memory_bytes(self, vertex_bytes: int = 8) -> int:
        """Approximate CSR storage footprint in bytes.

        Used by the group-size capacity rule ``N <= (M - S - |JFQ|)/|SA|``
        from section 3 of the paper.
        """
        return vertex_bytes * (self.row_offsets.size + self.col_indices.size)

    def copy(self) -> "CSRGraph":
        """Deep copy (does not copy the cached reverse graph).

        The copy is mutable and unfingerprinted even when this graph is
        :meth:`frozen <freeze>` — fresh arrays, fresh ``_cache_id``.
        """
        return CSRGraph(
            self.row_offsets.copy(), self.col_indices.copy(), validate=False
        )

    # ------------------------------------------------------------------
    # Immutability
    # ------------------------------------------------------------------
    def freeze(self) -> "CSRGraph":
        """Make the CSR arrays read-only; returns ``self``.

        Every consumer that fingerprints a graph (`graph_cache_id`, shm
        publication, epoch snapshots) keys caches by its content, so an
        in-place mutation after fingerprinting would silently serve
        stale cached depth rows.  Freezing turns that bug into an
        immediate ``ValueError`` at the mutation site.  The cached
        outdegree vector and the linked reverse CSR are frozen too
        (bottom-up traversal reads them), and so is a reverse built
        later; an outdegree vector built after the freeze stays
        writeable but is recomputed from the frozen arrays, so it
        cannot drift.
        """
        for arr in (self.row_offsets, self.col_indices, self._out_degrees):
            if arr is not None:
                arr.flags.writeable = False
        rev = self._linked()
        if rev is not None and not rev.frozen:
            rev.freeze()
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has made the CSR arrays read-only."""
        return not self.col_indices.flags.writeable

    # ------------------------------------------------------------------
    # Serialization (worker handoff)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        """The graph as plain arrays plus its derived caches.

        The payload carries the cached outdegree vector and content
        fingerprint (when present) so that :meth:`from_arrays` — and
        therefore pickling — never re-derives them.  The lazily built
        reverse CSR is deliberately excluded: it is O(|E|) to ship and
        cheap to rebuild only where actually needed.
        """
        return {
            "row_offsets": self.row_offsets,
            "col_indices": self.col_indices,
            "out_degrees": self._out_degrees,
            "cache_id": self._cache_id,
        }

    @classmethod
    def from_arrays(
        cls,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        out_degrees: Optional[np.ndarray] = None,
        cache_id: Optional[str] = None,
    ) -> "CSRGraph":
        """Rebuild a graph from :meth:`to_arrays` output without
        re-validating or re-deriving the cached degree vector."""
        graph = cls(row_offsets, col_indices, validate=False)
        if out_degrees is not None:
            graph._out_degrees = np.asarray(out_degrees, dtype=VERTEX_DTYPE)
        graph._cache_id = cache_id
        if cache_id is not None:
            # A fingerprint promises immutable content; carry the
            # promise across pickling the same way graph_cache_id
            # establishes it.
            graph.freeze()
        return graph

    def __reduce__(self):
        return (
            CSRGraph.from_arrays,
            (
                self.row_offsets,
                self.col_indices,
                self._out_degrees,
                self._cache_id,
            ),
        )


def empty_graph(num_vertices: int = 0) -> CSRGraph:
    """A graph with ``num_vertices`` vertices and no edges."""
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    return CSRGraph(
        np.zeros(num_vertices + 1, dtype=VERTEX_DTYPE),
        np.empty(0, dtype=VERTEX_DTYPE),
        validate=False,
    )
