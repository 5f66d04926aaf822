"""Coalesced global-memory transaction counting.

On Kepler, one global-memory transaction moves 128 contiguous bytes; a
warp's 32 access addresses are coalesced into as few transactions as the
number of distinct 128-byte segments they touch.  The paper's joint
status array exploits exactly this: "one global memory transaction
typically fetches 16 contiguous data entries from an array and only
continuous threads can share the retrieved data".

:class:`MemoryModel` counts transactions exactly from the element
indices each warp accesses, fully vectorized so engines can hand it the
complete per-level access stream.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

import repro.native as native
from repro.errors import SimulationError
from repro.gpusim.config import DeviceConfig


class MemoryModel:
    """Transaction accounting for one simulated device."""

    def __init__(self, config: DeviceConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    # Streaming (fully coalesced) accesses
    # ------------------------------------------------------------------
    def stream_transactions(self, num_bytes: int) -> int:
        """Transactions for a contiguous sweep of ``num_bytes`` bytes.

        Used for frontier-queue reads/writes and status-array scans,
        which contiguous threads access in order.
        """
        if num_bytes < 0:
            raise SimulationError("num_bytes must be non-negative")
        return math.ceil(num_bytes / self.config.transaction_bytes)

    def adjacency_transactions(self, degrees: np.ndarray, entry_bytes: int = 8) -> int:
        """Transactions to load each listed adjacency list once.

        Each frontier's neighbor list is contiguous in CSR, so loading a
        list of degree ``d`` costs ``ceil(d * entry_bytes / 128)``
        transactions (at least one when ``d > 0``).
        """
        if degrees.size == 0:
            return 0
        per_line = self.config.transaction_bytes // entry_bytes
        return int(np.sum((degrees + per_line - 1) // per_line))

    # ------------------------------------------------------------------
    # Warp-coalesced scattered accesses
    # ------------------------------------------------------------------
    def coalesced_transactions(
        self,
        element_indices: np.ndarray,
        element_bytes: int,
    ) -> Tuple[int, int]:
        """Transactions and warp requests for a scattered access stream.

        ``element_indices[i]`` is the array index accessed by simulated
        thread ``i``; threads are grouped into warps of
        ``config.warp_size`` in order.  Within a warp, accesses landing
        in the same ``transaction_bytes`` segment coalesce into one
        transaction.

        Returns
        -------
        (transactions, requests):
            ``requests`` is the number of warp-level memory instructions
            (one per warp), the denominator of figure 19's
            transactions-per-request metric.
        """
        indices = np.asarray(element_indices)
        if indices.size == 0:
            return 0, 0
        if element_bytes <= 0:
            raise SimulationError("element_bytes must be positive")
        warp = self.config.warp_size
        if warp == 1:
            # CPU model: every access is its own transaction-sized fetch.
            return int(indices.size), int(indices.size)
        if native.available():
            # Same distinct-lines-per-warp count without materializing,
            # padding, and sorting the line grid, at O(1) per access.
            return native.coalesced_transactions(
                indices, element_bytes, self.config.transaction_bytes, warp
            )
        lines = (indices.astype(np.int64) * element_bytes) // self.config.transaction_bytes
        requests = math.ceil(lines.size / warp)
        pad = requests * warp - lines.size
        if pad:
            lines = np.concatenate([lines, np.full(pad, -1, dtype=np.int64)])
        grid = np.sort(lines.reshape(requests, warp), axis=1)
        distinct = np.ones_like(grid, dtype=bool)
        distinct[:, 1:] = grid[:, 1:] != grid[:, :-1]
        distinct &= grid >= 0
        return int(distinct.sum()), requests

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def status_group_transactions(self, num_vertices_touched: int, status_bytes: int) -> int:
        """Transactions when N contiguous per-instance statuses of one
        vertex are accessed by N contiguous threads (joint layout).

        Each touched vertex costs ``ceil(status_bytes / 128)``
        transactions; ``status_bytes`` is ``N`` for the byte-wide JSA and
        ``ceil(N / 8)`` for the bitwise BSA.
        """
        per_vertex = math.ceil(status_bytes / self.config.transaction_bytes)
        return num_vertices_touched * max(per_vertex, 1)
