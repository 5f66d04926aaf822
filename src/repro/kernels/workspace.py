"""Per-level ``BSA_k`` bookkeeping of the numpy bitwise level: one
whole-array snapshot per level.

Algorithm 2 identifies a level's frontiers by comparing the status
array before the level (``BSA_k``) with the array after it.  A
:class:`LevelWorkspace` keeps ``BSA_k`` the way the paper's double
buffer does: ``begin_level`` copies the live array into a preallocated
buffer, bottom-up probes read rows of that buffer, and ``changed``
compares the two arrays and XORs the rows that differ.  The buffer is
reused across levels and groups of the same shape.

This is the numpy path's workspace, and the reference for the compiled
level (:class:`repro.native.LevelKernel`), which keeps its own
``BSA_k`` current by writing back only the rows its kernels touched.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class LevelWorkspace:
    """Reusable ``BSA_k`` buffer for one ``(num_vertices, lanes)`` BSA."""

    __slots__ = ("num_vertices", "lanes", "snapshot")

    def __init__(self, num_vertices: int, lanes: int) -> None:
        self.num_vertices = num_vertices
        self.lanes = lanes
        #: This level's ``BSA_k``; valid after :meth:`begin_level`.
        self.snapshot = np.zeros((num_vertices, lanes), dtype=np.uint64)

    def begin_level(self, words: np.ndarray) -> None:
        """Copy the live array as this level's ``BSA_k``."""
        np.copyto(self.snapshot, words)

    def snapshot_rows(self, rows: np.ndarray) -> np.ndarray:
        """``BSA_k`` values of ``rows`` as a fresh ``(rows, lanes)`` array."""
        if self.lanes == 1:
            # Single-lane rows are scalars: a flat ``take`` beats the
            # generic per-row gather by a wide margin.
            return np.take(self.snapshot.reshape(-1), rows)[:, None]
        return self.snapshot[rows]

    def changed(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows whose live value differs from ``BSA_k``.

        Returns ``(rows, diff)`` with ``diff[i] = words[rows[i]] ^
        BSA_k[rows[i]]``, non-zero for every returned row; rows ascend.
        """
        snapshot = self.snapshot
        # Column compares OR-ed lane by lane: faster than
        # ``np.any(words != snapshot, axis=1)`` on rows this short
        # (about 6x at two lanes).
        hit = words[:, 0] != snapshot[:, 0]
        for lane in range(1, self.lanes):
            hit |= words[:, lane] != snapshot[:, lane]
        rows = np.flatnonzero(hit)
        return rows, words[rows] ^ snapshot[rows]
