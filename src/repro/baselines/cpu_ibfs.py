"""CPU-iBFS baseline: the full iBFS algorithm on the CPU cost model.

Section 7: "In principal iBFS can be implemented on CPUs.  Specifically,
joint traversal and GroupBy can follow the same design on GPUs.  One
notable difference is that iBFS would need atomic operation on CPUs for
the multi-thread bitwise operation."  The algorithm is identical to the
GPU engine (same depths, same inspections); only the device pricing
changes — fewer hardware threads, lower bandwidth, expensive atomics,
and per-thread context-switch overhead, which the paper reports as a
~2x deficit versus the GPU version.  Under the planner it runs the
full heuristic stack (:func:`repro.plan.presets.cpu_ibfs_policy`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import IBFS, IBFSConfig
from repro.core.result import ConcurrentResult
from repro.graph.csr import CSRGraph
from repro.gpusim.config import XEON_CPU
from repro.gpusim.device import Device
from repro.plan.policy import Policy


class CPUiBFS:
    """iBFS (joint + GroupBy + bitwise) executed on a CPU device."""

    name = "cpu-ibfs"

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[IBFSConfig] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self._engine = IBFS(
            graph,
            config or IBFSConfig(group_size=64),
            device=Device(XEON_CPU),
            planner=planner,
        )

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources with the CPU cost model."""
        result = self._engine.run(
            sources, max_depth=max_depth, store_depths=store_depths
        )
        result.engine = self.name
        return result
