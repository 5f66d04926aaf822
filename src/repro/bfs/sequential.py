"""Sequential concurrent-BFS baseline: run the instances one by one.

This is the paper's "Sequential" bar in figure 15 — state-of-the-art
single-source BFS (Enterprise-style) executed once per source, each run
owning the whole device.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.gpusim.counters import ProfilerCounters
from repro.gpusim.device import Device
from repro.bfs.single import SingleBFS
from repro.core.result import ConcurrentResult
from repro.plan.policy import Policy


class SequentialConcurrentBFS:
    """Run ``i`` BFS instances back-to-back on one device."""

    name = "sequential"

    def __init__(
        self,
        graph: CSRGraph,
        device: Optional[Device] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.device = device or Device()
        self.engine = SingleBFS(graph, self.device, planner=planner)

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from every source sequentially; times add up."""
        sources = [int(s) for s in sources]
        counters = ProfilerCounters()
        total_seconds = 0.0
        depths = [] if store_depths else None
        for source in sources:
            result = self.engine.run(source, max_depth=max_depth)
            total_seconds += result.seconds
            counters.merge(result.record.counters)
            if depths is not None:
                depths.append(result.depths)
        matrix = np.stack(depths) if depths else None
        return ConcurrentResult(
            engine=self.name,
            sources=sources,
            seconds=total_seconds,
            counters=counters,
            depths=matrix,
            num_vertices=self.graph.num_vertices,
        )
