"""Instance-vectorized per-level bookkeeping.

Joint engines need, at the end of every level and for every instance
``j``: the new-frontier count and the sum of out-degrees over the new
frontier (the shared level loop keeps the visited-edge totals from
them).  Computing these with a per-``j`` Python loop costs
``group_size`` full passes over the depth matrix per level; the helpers
here produce all instances' values in one vectorized pass each.

The bit-matrix helpers translate between packed uint64 status lanes and
per-instance columns: uint64 lanes are little-endian on every supported
platform, so unpacked bit ``j`` of a row is exactly instance ``j``'s
bit.  They serve the numpy bitwise level; the compiled level tallies
the same bits inside its one call.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
    """
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
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
    count, which also makes the compiled level's int64 accumulation
    bit-identical.
    """
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
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
    """Per-instance new-frontier count and out-degree sum in one pass.

    For every instance ``j`` of the ``(group_size, n)`` depth matrix:
    ``counts[j]`` is the number of vertices first reached at ``level +
    1`` and ``frontier_edges[j]`` their out-degree sum — one compare of
    the matrix, a row count and an integer matrix-vector product.  The
    level loop (:class:`repro.core.traversal.GroupTraversal`) keeps the
    visited-edge totals as a running sum of these degree sums (each
    vertex enters a frontier exactly once), so the visited set is never
    re-scanned.
    """
    new_frontier = depths == np.int32(level + 1)
    counts = np.count_nonzero(new_frontier, axis=1)
    degrees = np.asarray(out_degrees, dtype=np.int64)
    return counts, new_frontier.astype(np.int64) @ degrees
