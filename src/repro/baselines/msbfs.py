"""MS-BFS baseline (Then et al., VLDB 2015) on the CPU cost model.

Faithful to how the iBFS paper characterizes it (sections 1, 6, 9):

* bitwise per-instance statuses, but the frontier ("visit") array is
  **reset at each level**, so the status array does not remember all
  visited vertices and bottom-up **cannot terminate early**;
* a single software thread runs each BFS instance, so no atomics are
  needed, but only ``N`` threads are ever active;
* instances are grouped randomly (no GroupBy).

Under the planner this baseline is a policy preset
(:func:`repro.plan.presets.msbfs_policy` — the direction heuristic with
early termination off) over :class:`~repro.core.bitwise.BitwiseTraversal`
with the engine-level MS-BFS switches (``reset_per_level``,
``thread_per_instance``) on the Xeon device preset, run through the
shared random-groups loop.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.common import run_random_groups
from repro.core.bitwise import BitwiseTraversal
from repro.core.result import ConcurrentResult
from repro.graph.csr import CSRGraph
from repro.gpusim.config import XEON_CPU
from repro.gpusim.device import Device
from repro.plan.presets import msbfs_policy


class MSBFS:
    """Multi-source BFS with per-level status reset on a CPU."""

    name = "ms-bfs"

    def __init__(
        self,
        graph: CSRGraph,
        group_size: int = 64,
        device: Optional[Device] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.group_size = group_size
        self.device = device or Device(XEON_CPU)
        self.seed = seed
        self._engine = BitwiseTraversal(
            graph,
            self.device,
            reset_per_level=True,
            thread_per_instance=True,
            planner=msbfs_policy(),
        )

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources in randomly formed groups."""
        return run_random_groups(
            self._engine,
            self.name,
            self.graph.num_vertices,
            sources,
            self.group_size,
            self.seed,
            max_depth=max_depth,
            store_depths=store_depths,
        )
