"""Graph serialization: edge lists, DIMACS-style files, and binary CSR.

The paper's datasets arrive as edge lists (SNAP, Graph500 output) or
DIMACS generator output and are converted to CSR; these routines provide
the same round trips for this reproduction's synthetic suites.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builders import from_edge_arrays
from repro.graph.csr import CSRGraph, VERTEX_DTYPE

PathLike = Union[str, os.PathLike]

_CSR_MAGIC = b"REPROCSR"


def read_edge_list(
    path: PathLike,
    comments: str = "#",
    undirected: bool = False,
) -> CSRGraph:
    """Read a whitespace-separated ``src dst`` edge-list file.

    Lines starting with ``comments`` are skipped, except that a
    ``# repro edge list: N vertices, ...`` header (as written by
    :func:`write_edge_list`) fixes the vertex count, so trailing
    isolated vertices survive the round trip.  Raises
    :class:`~repro.errors.GraphFormatError` on malformed lines.
    """
    src = []
    dst = []
    num_vertices = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comments):
                marker = "repro edge list:"
                if marker in stripped:
                    tail = stripped.split(marker, 1)[1].split()
                    if len(tail) >= 2 and tail[1].startswith("vert"):
                        num_vertices = int(tail[0])
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst', got {stripped!r}"
                )
            try:
                src.append(int(parts[0]))
                dst.append(int(parts[1]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id in {stripped!r}"
                ) from exc
    return from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=num_vertices,
        undirected=undirected,
    )


def write_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph as ``src dst`` lines with a size header comment."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"# repro edge list: {graph.num_vertices} vertices, "
            f"{graph.num_edges} edges\n"
        )
        src, dst = graph.edge_array()
        for s, d in zip(src.tolist(), dst.tolist()):
            handle.write(f"{s} {d}\n")


def read_dimacs(path: PathLike) -> CSRGraph:
    """Read a DIMACS graph file (``p sp n m`` header, ``a u v [w]`` arcs).

    DIMACS vertex ids are 1-based; they are shifted to 0-based.
    """
    num_vertices = None
    src = []
    dst = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("c"):
                continue
            parts = stripped.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(
                        f"{path}:{lineno}: malformed problem line {stripped!r}"
                    )
                num_vertices = int(parts[2])
            elif parts[0] in ("a", "e"):
                if num_vertices is None:
                    raise GraphFormatError(
                        f"{path}:{lineno}: arc line before problem line"
                    )
                if len(parts) < 3:
                    raise GraphFormatError(
                        f"{path}:{lineno}: malformed arc line {stripped!r}"
                    )
                src.append(int(parts[1]) - 1)
                dst.append(int(parts[2]) - 1)
            else:
                raise GraphFormatError(
                    f"{path}:{lineno}: unrecognized line type {parts[0]!r}"
                )
    if num_vertices is None:
        raise GraphFormatError(f"{path}: missing problem line")
    return from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=num_vertices,
    )


def write_dimacs(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph as a DIMACS shortest-path file (1-based arcs)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("c repro DIMACS export\n")
        handle.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        src, dst = graph.edge_array()
        for s, d in zip(src.tolist(), dst.tolist()):
            handle.write(f"a {s + 1} {d + 1}\n")


def read_weighted_dimacs(path: PathLike):
    """Read a DIMACS shortest-path file keeping the arc weights.

    Returns a :class:`~repro.graph.weighted.WeightedCSRGraph`; arcs
    without a weight field default to weight 1.
    """
    from repro.graph.weighted import from_weighted_edges

    num_vertices = None
    triples = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("c"):
                continue
            parts = stripped.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(
                        f"{path}:{lineno}: malformed problem line {stripped!r}"
                    )
                num_vertices = int(parts[2])
            elif parts[0] in ("a", "e"):
                if num_vertices is None:
                    raise GraphFormatError(
                        f"{path}:{lineno}: arc line before problem line"
                    )
                if len(parts) < 3:
                    raise GraphFormatError(
                        f"{path}:{lineno}: malformed arc line {stripped!r}"
                    )
                weight = float(parts[3]) if len(parts) > 3 else 1.0
                triples.append((int(parts[1]) - 1, int(parts[2]) - 1, weight))
            else:
                raise GraphFormatError(
                    f"{path}:{lineno}: unrecognized line type {parts[0]!r}"
                )
    if num_vertices is None:
        raise GraphFormatError(f"{path}: missing problem line")
    return from_weighted_edges(triples, num_vertices=num_vertices)


def write_weighted_dimacs(wgraph, path: PathLike) -> None:
    """Write a weighted graph as DIMACS ``a u v w`` arcs (1-based)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("c repro weighted DIMACS export\n")
        handle.write(f"p sp {wgraph.num_vertices} {wgraph.num_edges}\n")
        src, dst = wgraph.graph.edge_array()
        for s, d, w in zip(src.tolist(), dst.tolist(), wgraph.weights.tolist()):
            handle.write(f"a {s + 1} {d + 1} {w:g}\n")


def save_csr(graph: CSRGraph, path: PathLike) -> None:
    """Save the CSR arrays in a compact binary container."""
    with open(path, "wb") as handle:
        handle.write(_CSR_MAGIC)
        np.save(handle, graph.row_offsets, allow_pickle=False)
        np.save(handle, graph.col_indices, allow_pickle=False)


def load_csr(path: PathLike) -> CSRGraph:
    """Load a graph previously written by :func:`save_csr`."""
    with open(path, "rb") as handle:
        magic = handle.read(len(_CSR_MAGIC))
        if magic != _CSR_MAGIC:
            raise GraphFormatError(f"{path}: not a repro CSR file")
        row_offsets = np.load(handle, allow_pickle=False)
        col_indices = np.load(handle, allow_pickle=False)
    return CSRGraph(row_offsets, col_indices)
