"""Weighted graphs: CSR storage with per-edge weights.

Section 8 notes iBFS "can be easily configured to support conventional
top-down BFS and traverse weighted graphs", and the related-work
section positions iBFS against Dijkstra / Bellman-Ford /
Floyd-Warshall.  :class:`WeightedCSRGraph` carries a weight per
directed edge in CSR order so the SSSP engines in
:mod:`repro.bfs.sssp` can reuse all of the unweighted machinery.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builders import from_edge_arrays
from repro.graph.csr import CSRGraph, VERTEX_DTYPE

#: dtype of edge weights.
WEIGHT_DTYPE = np.float64


class WeightedCSRGraph:
    """A directed graph in CSR form with one weight per edge.

    The topology lives in an embedded :class:`CSRGraph`; ``weights[i]``
    belongs to the edge stored at ``col_indices[i]``.  The reverse
    graph carries the same weights permuted consistently, so weighted
    bottom-up/pull traversals see identical edge costs.
    """

    __slots__ = ("graph", "weights", "_reverse")

    def __init__(self, graph: CSRGraph, weights: np.ndarray) -> None:
        weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
        if weights.shape != (graph.num_edges,):
            raise GraphError(
                f"need one weight per edge: {weights.shape} != "
                f"({graph.num_edges},)"
            )
        self.graph = graph
        self.weights = weights
        self._reverse: Optional["WeightedCSRGraph"] = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def __repr__(self) -> str:
        return (
            f"WeightedCSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )

    def neighbors(self, v: int) -> Tuple[np.ndarray, np.ndarray]:
        """Out-neighbors of ``v`` with their edge weights."""
        start = int(self.graph.row_offsets[v])
        stop = int(self.graph.row_offsets[v + 1])
        return self.graph.col_indices[start:stop], self.weights[start:stop]

    def has_negative_weights(self) -> bool:
        """True when any edge weight is negative (Dijkstra precondition)."""
        return bool(self.weights.size and self.weights.min() < 0)

    # ------------------------------------------------------------------
    def reverse(self) -> "WeightedCSRGraph":
        """Transpose with weights carried along (cached)."""
        if self._reverse is None:
            rev = self.graph.reverse()
            sources, dests = self.graph.edge_array()
            order = np.argsort(dests, kind="stable")
            self._reverse = WeightedCSRGraph(rev, self.weights[order])
            self._reverse._reverse = self
        return self._reverse

    def unweighted(self) -> CSRGraph:
        """The underlying topology."""
        return self.graph


def from_weighted_edges(
    edges: Iterable[Tuple[int, int, float]],
    num_vertices: Optional[int] = None,
    undirected: bool = False,
) -> WeightedCSRGraph:
    """Build a :class:`WeightedCSRGraph` from ``(src, dst, weight)``
    triples (reverse edges reuse the same weight when ``undirected``)."""
    triples = list(edges)
    if triples:
        src = np.fromiter((e[0] for e in triples), dtype=VERTEX_DTYPE)
        dst = np.fromiter((e[1] for e in triples), dtype=VERTEX_DTYPE)
        weights = np.fromiter((e[2] for e in triples), dtype=WEIGHT_DTYPE)
    else:
        src = np.empty(0, dtype=VERTEX_DTYPE)
        dst = np.empty(0, dtype=VERTEX_DTYPE)
        weights = np.empty(0, dtype=WEIGHT_DTYPE)
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weights = np.concatenate([weights, weights])
    graph = from_edge_arrays(src, dst, num_vertices=num_vertices)
    # from_edge_arrays stable-sorts by source; apply the same permutation.
    order = np.argsort(src, kind="stable")
    return WeightedCSRGraph(graph, weights[order])


def with_random_weights(
    graph: CSRGraph,
    low: float = 1.0,
    high: float = 10.0,
    seed: int = 0,
) -> WeightedCSRGraph:
    """Attach uniformly random weights in ``[low, high)`` to a topology."""
    if high < low:
        raise GraphError("high must be >= low")
    rng = np.random.default_rng(seed)
    weights = rng.uniform(low, high, size=graph.num_edges)
    return WeightedCSRGraph(graph, weights)


def with_unit_weights(graph: CSRGraph) -> WeightedCSRGraph:
    """Unit weights: shortest paths coincide with BFS depths."""
    return WeightedCSRGraph(graph, np.ones(graph.num_edges, dtype=WEIGHT_DTYPE))
