"""All-pairs shortest paths.

iBFS *is* APSP when ``i = |V|`` (section 1).  This module provides the
unweighted APSP front-end over any concurrent engine, plus a
Floyd-Warshall reference for weighted graphs (the classic comparator
from section 9) used by the tests to cross-validate the SSSP engines.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.weighted import WeightedCSRGraph
from repro.core.result import ConcurrentResult, depth_dtype


class _ConcurrentEngine(Protocol):
    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult: ...


def apsp_unweighted(graph: CSRGraph, engine: _ConcurrentEngine) -> np.ndarray:
    """Hop-count distance matrix via concurrent BFS from every vertex.

    Returns an ``(n, n)`` matrix with ``-1`` for unreachable pairs, in
    :func:`~repro.core.result.depth_dtype` of the longest distance
    (int8 up to 120 hops).  Memory scales as n^2 — intended for the
    laptop-scale graphs this reproduction uses.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros((0, 0), dtype=depth_dtype(0))
    result = engine.run(range(n), store_depths=True)
    return result.depths


def floyd_warshall(graph: WeightedCSRGraph) -> np.ndarray:
    """Weighted APSP reference (O(n^3); small graphs only).

    Raises :class:`GraphError` when a negative cycle exists.
    """
    n = graph.num_vertices
    if n > 2048:
        raise GraphError(
            f"floyd_warshall is O(n^3); {n} vertices is too large"
        )
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    sources, dests = graph.graph.edge_array()
    # Multi-edges keep the lightest weight.
    np.minimum.at(dist, (sources, dests), graph.weights)
    for k in range(n):
        through_k = dist[:, k, None] + dist[None, k, :]
        np.minimum(dist, through_k, out=dist)
    if np.any(np.diag(dist) < 0):
        raise GraphError("graph contains a negative cycle")
    return dist


def eccentricities(graph: CSRGraph, engine: _ConcurrentEngine) -> np.ndarray:
    """Per-vertex eccentricity (max finite BFS depth; -1 if isolated)."""
    depths = apsp_unweighted(graph, engine)
    ecc = np.full(graph.num_vertices, -1, dtype=np.int64)
    for v in range(graph.num_vertices):
        reached = depths[v] >= 0
        if np.count_nonzero(reached) > 1:
            ecc[v] = int(depths[v][reached].max())
        elif reached.any():
            ecc[v] = 0
    return ecc


def exact_diameter(graph: CSRGraph, engine: _ConcurrentEngine) -> int:
    """Largest finite pairwise hop distance (0 for edgeless graphs)."""
    ecc = eccentricities(graph, engine)
    return int(ecc.max()) if ecc.size else 0
