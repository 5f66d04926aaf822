"""Multi-GPU concurrent BFS (section 8.3's execution model).

"As long as different GPUs work on independent BFSes, there is no need
for inter-GPU communication.  Therefore, the key challenge here is
achieving workload balance on GPUs."  :class:`DistributedIBFS` runs the
single-device iBFS engine to obtain per-group simulated times, then
schedules the groups across a simulated cluster and reports the
makespan ("the longest time consumption of all the GPUs is reported"),
per-device utilization, and the aggregate traversal rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.obs import tracing as obs_tracing
from repro.gpusim.cluster import Cluster, Scheduler, schedule_lpt
from repro.gpusim.config import DeviceConfig, KEPLER_K20
from repro.gpusim.device import Device
from repro.core.engine import IBFS, IBFSConfig
from repro.core.result import ConcurrentResult


@dataclass
class DistributedResult:
    """Outcome of a distributed concurrent-BFS run."""

    #: The underlying single-device result (depths, counters, groups).
    local: ConcurrentResult
    num_devices: int
    makespan: float
    device_times: np.ndarray
    assignment: np.ndarray

    @property
    def teps(self) -> float:
        """Aggregate traversal rate over the cluster makespan."""
        if self.makespan <= 0:
            return 0.0
        return self.local.counters.edges_traversed / self.makespan

    @property
    def speedup(self) -> float:
        """Makespan speedup over single-device serial execution."""
        serial = float(self.device_times.sum())
        if self.makespan <= 0:
            return 0.0
        return serial / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by device count, in (0, 1]."""
        if self.num_devices == 0:
            return 0.0
        return self.speedup / self.num_devices

    @property
    def imbalance(self) -> float:
        """Makespan over mean device time (1.0 = perfectly balanced)."""
        mean = float(self.device_times.mean()) if self.device_times.size else 0.0
        if mean == 0:
            return 1.0
        return self.makespan / mean

    def groups_on_device(self, device_id: int) -> List[int]:
        """Indices of the groups assigned to one device."""
        if not 0 <= device_id < self.num_devices:
            raise SimulationError(
                f"device {device_id} out of range [0, {self.num_devices})"
            )
        return np.flatnonzero(self.assignment == device_id).tolist()


class DistributedIBFS:
    """iBFS across a fleet of identical simulated GPUs.

    Groups run serially in this process on the single-device engine;
    only the *schedule* across the devices is simulated.  Real
    placements — worker processes, a partitioned graph — are chosen
    with a :class:`~repro.runtime.SubstrateSpec` instead.
    """

    def __init__(
        self,
        graph: CSRGraph,
        num_devices: int,
        config: Optional[IBFSConfig] = None,
        device_config: Optional[DeviceConfig] = None,
        scheduler: Scheduler = schedule_lpt,
    ) -> None:
        if num_devices <= 0:
            raise SimulationError("num_devices must be positive")
        self.graph = graph
        self.num_devices = num_devices
        self.device_config = device_config or KEPLER_K20
        self.scheduler = scheduler
        device = Device(self.device_config)
        # Every device holds a full graph replica (paper's setup).
        if not device.fits(graph):
            raise SimulationError(
                f"graph does not fit in {self.device_config.name} memory"
            )
        self.engine = IBFS(graph, config or IBFSConfig(), device=device)

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = False,
    ) -> DistributedResult:
        """Traverse from all sources across the cluster."""
        sources = [int(s) for s in sources]
        with obs_tracing.get_tracer().span(
            "distributed.run",
            num_devices=self.num_devices,
            num_sources=len(sources),
        ):
            local = self.engine.run(
                sources, max_depth=max_depth, store_depths=store_depths
            )
            cluster = Cluster(
                self.num_devices, self.device_config, self.scheduler
            )
            outcome = cluster.run(local.group_times())
        return DistributedResult(
            local=local,
            num_devices=self.num_devices,
            makespan=outcome.makespan,
            device_times=outcome.device_times,
            assignment=outcome.assignment,
        )

    def strong_scaling(
        self,
        sources: Sequence[int],
        device_counts: Sequence[int],
    ) -> List[DistributedResult]:
        """One result per device count over the *same* workload.

        Runs the traversal once and re-schedules the measured group
        times, which is exactly what varying the cluster size does.
        """
        local = self.engine.run(sources, store_depths=False)
        durations = local.group_times()
        results = []
        for count in device_counts:
            outcome = Cluster(count, self.device_config, self.scheduler).run(
                durations
            )
            results.append(
                DistributedResult(
                    local=local,
                    num_devices=count,
                    makespan=outcome.makespan,
                    device_times=outcome.device_times,
                    assignment=outcome.assignment,
                )
            )
        return results
