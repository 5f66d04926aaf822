"""Instance-vectorized per-level bookkeeping.

Joint engines need, at the end of every level and for every instance
``j``: the new-frontier count, the sum of out-degrees over the new
frontier, and the count of still-unexplored edges.  Computing these with
a per-``j`` Python loop costs ``group_size`` full passes over the depth
matrix per level; the helpers here produce all instances' values in one
vectorized pass each.

The bit-matrix helpers translate between packed uint64 status lanes and
per-instance columns: uint64 lanes are little-endian on every supported
platform, so unpacked bit ``j`` of a row is exactly instance ``j``'s
bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

import repro.native as native


def unpack_lane_bits(
    words: np.ndarray, group_size: int, trim: bool = True
) -> np.ndarray:
    """``(rows, group_size)`` 0/1 matrix from ``(rows, lanes)`` uint64 words.

    Column ``j`` holds instance ``j``'s bit of each row.  ``trim=False``
    keeps the full ``lanes * 64`` columns (a contiguous result) for
    callers that know the padding bits are never set.
    """
    if words.size == 0:
        width = group_size if trim else words.shape[1] * 64 if words.ndim == 2 else 64
        return np.zeros((0, width), dtype=np.uint8)
    as_bytes = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    bits = np.unpackbits(
        as_bytes.reshape(words.shape[0], -1), axis=1, bitorder="little"
    )
    return bits[:, :group_size] if trim else bits


#: ``_BYTE_BITS[k, v]`` is bit ``k`` of byte value ``v`` — turns a byte
#: histogram into per-bit counts with one tiny matmul.
_BYTE_BITS = ((np.arange(256)[None, :] >> np.arange(8)[:, None]) & 1).astype(
    np.int64
)


def per_bit_counts(words: np.ndarray, group_size: int) -> np.ndarray:
    """Column sums of the bit matrix encoded by ``(rows, lanes)`` words.

    ``out[j]`` is the number of rows whose instance-``j`` bit is set.
    Implemented as one histogram per byte (or, for tall inputs, uint16)
    position folded through a bit table — the histogram loop visits each
    input element once instead of materializing the 8x-larger unpacked
    bit matrix, so halving the element count by histogramming two bytes
    at a time wins as soon as the rows outweigh the 65536-bin reset.

    The tally runs on the compiled backend when one resolves; bit-count
    sums are order-free, so the result is bit-identical either way.
    """
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
    if native.available():
        return native.per_bit_counts(words, group_size)
    rows = words.shape[0]
    contig = np.ascontiguousarray(words, dtype=np.uint64)
    if rows >= 1 << 15:
        as_u16 = contig.view(np.uint16).reshape(rows, -1)
        counts = np.empty(as_u16.shape[1] * 16, dtype=np.int64)
        for c in range(as_u16.shape[1]):
            hist = np.bincount(as_u16[:, c], minlength=1 << 16)
            pair = hist.reshape(256, 256)  # pair[hi, lo]
            counts[c * 16 : c * 16 + 8] = _BYTE_BITS @ pair.sum(axis=0)
            counts[c * 16 + 8 : c * 16 + 16] = _BYTE_BITS @ pair.sum(axis=1)
        return counts[:group_size]
    as_bytes = contig.view(np.uint8).reshape(rows, -1)
    counts = np.empty(as_bytes.shape[1] * 8, dtype=np.int64)
    for b in range(as_bytes.shape[1]):
        hist = np.bincount(as_bytes[:, b], minlength=256)
        counts[b * 8 : (b + 1) * 8] = _BYTE_BITS @ hist
    return counts[:group_size]


def per_bit_weighted(
    words: np.ndarray, weights: np.ndarray, group_size: int
) -> np.ndarray:
    """Weighted column sums: ``out[j] = weights[bit j set].sum()``.

    Same byte-histogram scheme as :func:`per_bit_counts` with weighted
    bins.  Float64 accumulation is exact for integer weights whose sums
    stay below 2**53 — true for any degree total bounded by the edge
    count, which also makes the compiled backend's int64 accumulation
    (used whenever the library loads) bit-identical.
    """
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
    if native.available():
        return native.per_bit_weighted(words, weights, group_size)
    rows = words.shape[0]
    as_bytes = np.ascontiguousarray(words, dtype=np.uint64).view(np.uint8)
    as_bytes = as_bytes.reshape(rows, -1)
    w = np.asarray(weights, dtype=np.float64)
    out = np.empty(as_bytes.shape[1] * 8, dtype=np.float64)
    for b in range(as_bytes.shape[1]):
        hist = np.bincount(as_bytes[:, b], weights=w, minlength=256)
        out[b * 8 : (b + 1) * 8] = _BYTE_BITS @ hist
    return out[:group_size].astype(np.int64)


def new_frontier_stats(
    depths: np.ndarray,
    level: int,
    out_degrees: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-instance new-frontier count and out-degree sum, sparsely.

    Scans the ``(group_size, n)`` depth matrix once for vertices first
    reached at ``level + 1`` and tallies them per instance.  Engines
    that track visited-edge totals incrementally (each vertex enters the
    frontier exactly once) pair this with a running sum instead of the
    dense re-scan in :func:`instance_frontier_stats`.

    Float64 bincount weights are exact here: degree sums are bounded by
    the edge count, far below 2**53.
    """
    group_size = depths.shape[0]
    rows, cols = np.nonzero(depths == np.int32(level + 1))
    counts = np.bincount(rows, minlength=group_size).astype(np.int64)
    if rows.size:
        frontier_edges = np.bincount(
            rows,
            weights=np.asarray(out_degrees)[cols].astype(np.float64),
            minlength=group_size,
        ).astype(np.int64)
    else:
        frontier_edges = np.zeros(group_size, dtype=np.int64)
    return counts, frontier_edges


def instance_frontier_stats(
    depths: np.ndarray,
    level: int,
    out_degrees: np.ndarray,
    total_edges: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All per-instance end-of-level statistics in one vectorized pass.

    For every instance ``j`` of the ``(group_size, n)`` depth matrix:

    * ``counts[j]``          — vertices first reached at ``level + 1``;
    * ``frontier_edges[j]``  — out-degree sum over that new frontier;
    * ``unexplored[j]``      — ``total_edges`` minus the out-degree sum
      over every visited vertex.

    These are exactly the inputs of the Beamer direction switch, with
    integer arithmetic identical to the per-instance formulation.
    """
    new_frontier = depths == np.int32(level + 1)
    counts = np.count_nonzero(new_frontier, axis=1)
    degrees = np.asarray(out_degrees, dtype=np.int64)
    frontier_edges = new_frontier.astype(np.int64) @ degrees
    visited_edges = (depths >= 0).astype(np.int64) @ degrees
    unexplored = total_edges - visited_edges
    return counts, frontier_edges, unexplored
