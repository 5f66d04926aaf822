"""Builders converting edge lists and adjacency structures into CSR.

These preserve input edge order within each source vertex, as the paper
does when translating edge-list datasets into CSR ("we translate them
into CSR while preserving the edge sequence").
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE


def from_edges(
    edges: Iterable[Tuple[int, int]],
    num_vertices: Optional[int] = None,
    undirected: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an iterable of ``(src, dst)`` pairs.

    Parameters
    ----------
    edges:
        Directed edge pairs.  Multi-edges and self-loops are kept, matching
        the paper's TEPS definition ("counting any multiple edges and
        self-loops").
    num_vertices:
        Total vertex count; inferred as ``max id + 1`` when omitted.
    undirected:
        When true every pair also contributes the reversed edge, mirroring
        "for undirected graphs, each edge is considered as two directed
        edges".
    """
    edge_list = list(edges)
    if edge_list:
        src = np.fromiter((e[0] for e in edge_list), dtype=VERTEX_DTYPE)
        dst = np.fromiter((e[1] for e in edge_list), dtype=VERTEX_DTYPE)
    else:
        src = np.empty(0, dtype=VERTEX_DTYPE)
        dst = np.empty(0, dtype=VERTEX_DTYPE)
    return from_edge_arrays(src, dst, num_vertices=num_vertices, undirected=undirected)


def from_edge_arrays(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: Optional[int] = None,
    undirected: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel source/destination arrays."""
    src = np.asarray(src, dtype=VERTEX_DTYPE)
    dst = np.asarray(dst, dtype=VERTEX_DTYPE)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphError("src and dst must be 1-D arrays of equal length")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphError("vertex ids must be non-negative")
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max()) + 1) if src.size else 0
    elif src.size and max(int(src.max()), int(dst.max())) >= num_vertices:
        raise GraphError(
            f"edge endpoint exceeds num_vertices={num_vertices}"
        )

    degrees = np.bincount(src, minlength=num_vertices).astype(VERTEX_DTYPE)
    offsets = np.zeros(num_vertices + 1, dtype=VERTEX_DTYPE)
    np.cumsum(degrees, out=offsets[1:])
    order = _stable_order(src, num_vertices)
    return CSRGraph(offsets, dst[order], validate=False)


def _stable_order(src: np.ndarray, num_vertices: int) -> np.ndarray:
    """``np.argsort(src, kind="stable")`` for ids below ``num_vertices``.

    numpy sorts 16-bit keys stably by radix sort and wider ones by
    timsort, so ids that fit 16 bits sort as one ``uint16`` key and ids
    below 2**32 as two stable ``uint16`` passes, low half then high
    half; the permutation is the same.
    """
    if num_vertices <= 1 << 16:
        return np.argsort(src.astype(np.uint16), kind="stable")
    if num_vertices <= 1 << 32:
        low = np.argsort((src & 0xFFFF).astype(np.uint16), kind="stable")
        high = (src[low] >> 16).astype(np.uint16)
        return low[np.argsort(high, kind="stable")]
    return np.argsort(src, kind="stable")


def from_adjacency(adjacency: Sequence[Sequence[int]]) -> CSRGraph:
    """Build a :class:`CSRGraph` from a list of per-vertex neighbor lists."""
    degrees = np.fromiter(
        (len(neighbors) for neighbors in adjacency),
        dtype=VERTEX_DTYPE,
        count=len(adjacency),
    )
    offsets = np.zeros(len(adjacency) + 1, dtype=VERTEX_DTYPE)
    np.cumsum(degrees, out=offsets[1:])
    if offsets[-1]:
        flat = np.concatenate(
            [np.asarray(n, dtype=VERTEX_DTYPE) for n in adjacency if len(n)]
        )
    else:
        flat = np.empty(0, dtype=VERTEX_DTYPE)
    return CSRGraph(offsets, flat)


def to_undirected(graph: CSRGraph) -> CSRGraph:
    """Symmetrize ``graph``: every directed edge gains its reverse."""
    src, dst = graph.edge_array()
    return from_edge_arrays(
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        num_vertices=graph.num_vertices,
    )


def add_reverse_edges(graph: CSRGraph) -> CSRGraph:
    """Alias of :func:`to_undirected`, named after the paper's directed-graph
    preprocessing ("we also store the reversed edges to support the
    bottom-up traversal")."""
    return to_undirected(graph)


def relabel_random(graph: CSRGraph, seed: int = 0) -> CSRGraph:
    """Apply a random vertex-id permutation, preserving structure.

    Useful in tests: BFS depth multisets must be invariant under
    relabeling.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.num_vertices).astype(VERTEX_DTYPE)
    src, dst = graph.edge_array()
    return from_edge_arrays(perm[src], perm[dst], num_vertices=graph.num_vertices)


def simplify(graph: CSRGraph, remove_self_loops: bool = True) -> CSRGraph:
    """Collapse parallel edges (and by default drop self-loops).

    BFS depths are unaffected by multiplicity, but path-counting
    algorithms (betweenness, sigma) follow the simple-graph convention;
    use this before comparing against tools that collapse multi-edges.
    """
    src, dst = graph.edge_array()
    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if src.size:
        pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
    return from_edge_arrays(src, dst, num_vertices=graph.num_vertices)


def subgraph(graph: CSRGraph, vertices: Sequence[int]) -> CSRGraph:
    """Induced subgraph on ``vertices``, relabeled to ``0..len(vertices)-1``
    in the given order."""
    keep = np.asarray(vertices, dtype=VERTEX_DTYPE)
    if keep.size != np.unique(keep).size:
        raise GraphError("subgraph vertex list contains duplicates")
    mapping = -np.ones(graph.num_vertices, dtype=VERTEX_DTYPE)
    mapping[keep] = np.arange(keep.size, dtype=VERTEX_DTYPE)
    src, dst = graph.edge_array()
    mask = (mapping[src] >= 0) & (mapping[dst] >= 0)
    return from_edge_arrays(
        mapping[src[mask]], mapping[dst[mask]], num_vertices=int(keep.size)
    )
