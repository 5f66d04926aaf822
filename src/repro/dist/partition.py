"""Graph partitioning for distributed traversal.

:class:`GraphPartitioner` splits one immutable :class:`~repro.graph.csr.CSRGraph`
into edge blocks following the two classical distributed-BFS
decompositions:

``"1d"``
    P contiguous vertex ranges; partition ``p`` owns its range's vertex
    state *and* every out-edge of those vertices (Buluç & Madduri's 1D
    row decomposition).
``"2d"``
    an R×C grid (R·C = P, R the largest factor ≤ √P); block ``(i, j)``
    holds the edges with source in row band ``i`` and destination in
    column band ``j``.  Vertex *state* stays 1D-owned: each row band is
    subdivided into C owner ranges, one per block of that grid row, so
    an owner's range is always inside its own row band and the union of
    all edge blocks is exactly the edge set — which is what keeps the
    merged depth matrix bit-identical to the serial engine under either
    layout.

Each partition is a pair of plain numpy arrays (its local CSR) plus
the ranges it covers; the engine keeps them all in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE

#: Supported decompositions.
LAYOUTS = ("1d", "2d")

#: Boundary balancing: ``"edges"`` places range boundaries so each
#: range carries a near-equal share of ``out_degree + 1`` weight (edge
#: work plus per-vertex state work); ``"vertices"`` splits the vertex
#: range evenly.
BALANCE_MODES = ("edges", "vertices")


def grid_shape(num_partitions: int) -> Tuple[int, int]:
    """``(rows, cols)`` of the 2D grid: rows is the largest divisor of
    ``num_partitions`` not exceeding its square root."""
    if num_partitions <= 0:
        raise GraphError("num_partitions must be positive")
    rows = 1
    for r in range(1, int(math.isqrt(num_partitions)) + 1):
        if num_partitions % r == 0:
            rows = r
    return rows, num_partitions // rows


def _even_bounds(start: int, stop: int, parts: int) -> np.ndarray:
    span = stop - start
    cuts = [start + (span * k) // parts for k in range(parts + 1)]
    return np.asarray(cuts, dtype=VERTEX_DTYPE)


def _weighted_bounds(
    cum_weights: np.ndarray, start: int, stop: int, parts: int
) -> np.ndarray:
    """Boundaries inside ``[start, stop)`` at near-equal cumulative
    weight; degenerates to the even split when the span has no weight."""
    lo, hi = float(cum_weights[start]), float(cum_weights[stop])
    if hi <= lo:
        return _even_bounds(start, stop, parts)
    targets = lo + (hi - lo) * np.arange(1, parts, dtype=np.float64) / parts
    inner = np.searchsorted(cum_weights[start : stop + 1], targets) + start
    bounds = np.concatenate(([start], inner, [stop])).astype(VERTEX_DTYPE)
    return np.maximum.accumulate(bounds)


@dataclass(frozen=True)
class GraphPartition:
    """One edge block plus the vertex-state range its worker owns.

    ``row_offsets``/``col_indices`` are the block's local CSR: row ``r``
    is global vertex ``src_start + r`` and column entries stay *global*
    vertex ids within ``[dst_start, dst_stop)``.
    """

    part_id: int
    #: Grid coordinates (1d: ``(part_id, 0)``).
    row: int
    col: int
    #: Edge-block source range (the block's CSR rows).
    src_start: int
    src_stop: int
    #: Edge-block destination range (column band).
    dst_start: int
    dst_stop: int
    #: Owned vertex-state range (always inside ``[src_start, src_stop)``).
    own_start: int
    own_stop: int
    num_vertices: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    @property
    def num_local_edges(self) -> int:
        return int(self.col_indices.shape[0])

    @property
    def own_size(self) -> int:
        return self.own_stop - self.own_start

    @property
    def src_size(self) -> int:
        return self.src_stop - self.src_start


class PartitionSet:
    """All partitions of one graph plus the routing tables the
    level-synchronous exchange needs (owner and row-band lookups)."""

    def __init__(
        self,
        layout: str,
        rows: int,
        cols: int,
        num_vertices: int,
        parts: List[GraphPartition],
        row_bounds: np.ndarray,
        col_bounds: np.ndarray,
    ) -> None:
        self.layout = layout
        self.rows = rows
        self.cols = cols
        self.num_vertices = num_vertices
        self.parts = parts
        #: Row-band boundaries, length ``rows + 1``.
        self.row_bounds = row_bounds
        #: Column-band boundaries, length ``cols + 1``.
        self.col_bounds = col_bounds
        #: Owner-range boundaries, length ``num_partitions + 1``;
        #: partition ``p`` owns ``[own_bounds[p], own_bounds[p + 1])``.
        self.own_bounds = np.asarray(
            [p.own_start for p in parts] + [parts[-1].own_stop],
            dtype=VERTEX_DTYPE,
        )

    @property
    def num_partitions(self) -> int:
        return len(self.parts)

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning partition id of each (global) vertex."""
        return np.searchsorted(self.own_bounds, vertices, side="right") - 1

    def grid_row_of(self, vertices: np.ndarray) -> np.ndarray:
        """Grid row (row band) containing each vertex."""
        return np.searchsorted(self.row_bounds, vertices, side="right") - 1

    def dense_bytes_per_level(self) -> int:
        """Wire bytes one dense-format exchange costs, independent of
        the frontier: every block ships one status word per vertex of
        each owner range overlapping its column band."""
        total = 0
        for p in self.parts:
            for q in self.parts:
                lo = max(p.dst_start, q.own_start)
                hi = min(p.dst_stop, q.own_stop)
                if hi > lo:
                    total += 8 * (hi - lo)
        return total


class GraphPartitioner:
    """Splits a CSR graph into 1D or 2D partitions (see module docs)."""

    def __init__(
        self,
        graph: CSRGraph,
        num_partitions: int,
        layout: str = "1d",
        balance: str = "edges",
    ) -> None:
        if num_partitions <= 0:
            raise GraphError("num_partitions must be positive")
        if layout not in LAYOUTS:
            raise GraphError(
                f"layout must be one of {LAYOUTS}; got {layout!r}"
            )
        if balance not in BALANCE_MODES:
            raise GraphError(
                f"balance must be one of {BALANCE_MODES}; got {balance!r}"
            )
        self.graph = graph
        self.num_partitions = num_partitions
        self.layout = layout
        self.balance = balance
        if layout == "1d":
            self.rows, self.cols = num_partitions, 1
        else:
            self.rows, self.cols = grid_shape(num_partitions)

    # ------------------------------------------------------------------
    def _bounds(self, start: int, stop: int, parts: int) -> np.ndarray:
        if self.balance == "vertices":
            return _even_bounds(start, stop, parts)
        weights = self.graph.out_degrees().astype(np.int64) + 1
        cum = np.concatenate(([0], np.cumsum(weights)))
        return _weighted_bounds(cum, start, stop, parts)

    def _slice_block(
        self, src_start: int, src_stop: int, dst_start: int, dst_stop: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        ro, ci = self.graph.row_offsets, self.graph.col_indices
        lo, hi = int(ro[src_start]), int(ro[src_stop])
        seg_offsets = ro[src_start : src_stop + 1] - lo
        seg_cols = ci[lo:hi]
        if dst_start == 0 and dst_stop == self.graph.num_vertices:
            return (
                np.ascontiguousarray(seg_offsets, dtype=VERTEX_DTYPE),
                np.ascontiguousarray(seg_cols, dtype=VERTEX_DTYPE),
            )
        mask = (seg_cols >= dst_start) & (seg_cols < dst_stop)
        kept = np.concatenate(
            ([0], np.cumsum(mask, dtype=VERTEX_DTYPE))
        )
        return (
            np.ascontiguousarray(kept[seg_offsets], dtype=VERTEX_DTYPE),
            np.ascontiguousarray(seg_cols[mask], dtype=VERTEX_DTYPE),
        )

    def build(self) -> PartitionSet:
        n = self.graph.num_vertices
        row_bounds = self._bounds(0, n, self.rows)
        col_bounds = (
            _even_bounds(0, n, 1)
            if self.cols == 1
            else self._bounds(0, n, self.cols)
        )
        parts: List[GraphPartition] = []
        for i in range(self.rows):
            src_start, src_stop = int(row_bounds[i]), int(row_bounds[i + 1])
            # Owner ranges refine the row band: block (i, j) owns the
            # j-th sub-range, so every owner expands its own vertices.
            own_bounds = self._bounds(src_start, src_stop, self.cols)
            for j in range(self.cols):
                dst_start, dst_stop = int(col_bounds[j]), int(col_bounds[j + 1])
                offsets, cols = self._slice_block(
                    src_start, src_stop, dst_start, dst_stop
                )
                parts.append(
                    GraphPartition(
                        part_id=i * self.cols + j,
                        row=i,
                        col=j,
                        src_start=src_start,
                        src_stop=src_stop,
                        dst_start=dst_start,
                        dst_stop=dst_stop,
                        own_start=int(own_bounds[j]),
                        own_stop=int(own_bounds[j + 1]),
                        num_vertices=n,
                        row_offsets=offsets,
                        col_indices=cols,
                    )
                )
        return PartitionSet(
            layout=self.layout,
            rows=self.rows,
            cols=self.cols,
            num_vertices=n,
            parts=parts,
            row_bounds=row_bounds,
            col_bounds=col_bounds,
        )


def check_partition_cover(
    graph: CSRGraph, partition_set: PartitionSet
) -> None:
    """Structural audit: the blocks must tile the edge set exactly and
    the owner ranges must tile the vertex set.  Raises ``GraphError``."""
    if int(partition_set.own_bounds[0]) != 0 or int(
        partition_set.own_bounds[-1]
    ) != graph.num_vertices:
        raise GraphError("owner ranges do not tile the vertex set")
    if np.any(np.diff(partition_set.own_bounds) < 0):
        raise GraphError("owner ranges are not monotone")
    total_edges = sum(p.num_local_edges for p in partition_set.parts)
    if total_edges != graph.num_edges:
        raise GraphError(
            f"edge blocks hold {total_edges} edges; graph has "
            f"{graph.num_edges}"
        )
    for p in partition_set.parts:
        if not (p.src_start <= p.own_start <= p.own_stop <= p.src_stop):
            raise GraphError(
                f"partition {p.part_id}: owner range escapes its row band"
            )
