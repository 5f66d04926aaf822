"""The user-facing iBFS engine: group, schedule, run, aggregate.

``IBFS`` ties the three techniques together the way section 8 runs
them: sources are partitioned into groups of at most ``N`` (bounded by
the device-memory capacity rule of section 3), each group runs as one
joint kernel (JSA- or BSA-based), and groups execute serially on one
device or are scheduled across a simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.cluster import Cluster
from repro.gpusim.counters import ProfilerCounters
from repro.gpusim.device import Device
from repro.obs import profile as obs_profile
from repro.core.bitwise import BitwiseTraversal
from repro.core.groupby import GroupByConfig, group_sources, random_groups
from repro.core.joint import JointTraversal
from repro.core.result import ConcurrentResult, GroupStats
from repro.plan.policy import Policy
from repro.plan.types import RunPlan

#: JSA stores one byte per instance-vertex; BSA one bit.
_STATUS_BYTES_PER_INSTANCE = {"joint": 1.0, "bitwise": 0.125}


@dataclass(frozen=True)
class IBFSConfig:
    """Configuration of an :class:`IBFS` engine.

    Attributes
    ----------
    group_size:
        Maximum concurrent instances per kernel (the paper's N, default
        128); clamped by the device capacity rule at run time.
    mode:
        ``"bitwise"`` (full iBFS, default) or ``"joint"`` (JSA-based
        joint traversal without the bitwise optimization).
    groupby:
        Apply the outdegree-based GroupBy rules; when false, groups are
        formed randomly (the paper's "random grouping" baseline).
    groupby_config:
        Rule parameters (p sequence / q / seed).
    seed:
        Seed for random grouping.

    Per-level decisions — direction, early termination, the
    long/long2/long4 vector width of section 6 — are not configuration:
    :class:`IBFS` takes them from its ``planner``.
    """

    group_size: int = 128
    mode: str = "bitwise"
    groupby: bool = True
    groupby_config: GroupByConfig = GroupByConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.group_size <= 0:
            raise TraversalError("group_size must be positive")
        if self.mode not in ("joint", "bitwise"):
            raise TraversalError(f"unknown mode {self.mode!r}")
        if not isinstance(self.groupby_config, GroupByConfig):
            raise TraversalError(
                f"groupby_config must be a GroupByConfig; "
                f"got {type(self.groupby_config).__name__}"
            )
        if not self.groupby and self.groupby_config != GroupByConfig():
            raise TraversalError(
                "custom groupby_config q/p thresholds have no effect with "
                "groupby=False (random grouping uses IBFSConfig.seed); "
                "enable groupby or drop the custom GroupByConfig"
            )


class IBFS:
    """Concurrent BFS engine implementing the paper's full system.

    ``planner`` makes every per-level decision; ``None`` means
    ``HeuristicPolicy()``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[IBFSConfig] = None,
        device: Optional[Device] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.config = config or IBFSConfig()
        self.device = device or Device()
        engine_cls = (
            BitwiseTraversal if self.config.mode == "bitwise" else JointTraversal
        )
        self._group_engine = engine_cls(graph, self.device, planner=planner)
        #: The policy making per-level decisions (``planner`` resolved).
        self.planner = self._group_engine.planner

    @property
    def name(self) -> str:
        suffix = "+groupby" if self.config.groupby else "+random"
        return f"ibfs-{self.config.mode}{suffix}"

    # ------------------------------------------------------------------
    def make_groups(self, sources: Sequence[int]) -> List[List[int]]:
        """Partition the sources per the configuration (GroupBy or random),
        honoring the device capacity rule."""
        group_size = self.effective_group_size()
        if self.config.groupby:
            return group_sources(
                self.graph, sources, group_size, self.config.groupby_config
            )
        return random_groups(sources, group_size, self.config.seed)

    def effective_group_size(self) -> int:
        """Configured N clamped by section 3's memory-capacity rule."""
        capacity = self.device.max_group_size(
            self.graph,
            status_bytes_per_instance=_STATUS_BYTES_PER_INSTANCE[self.config.mode],
        )
        if capacity <= 0:
            raise TraversalError(
                f"graph does not leave room for any BFS instance on "
                f"{self.device.config.name}"
            )
        return min(self.config.group_size, capacity)

    # ------------------------------------------------------------------
    def run_group(
        self,
        group: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ) -> ConcurrentResult:
        """Execute one pre-formed group as a single joint kernel.

        This is the re-entrant per-group execution hook the serving
        layer (:mod:`repro.service`) builds on: callers that form their
        own batches (e.g. a micro-batcher draining an online request
        queue) run each batch through this method without re-grouping.
        The group must respect the device capacity rule and contain
        distinct in-range sources.  Depths are always stored — the
        returned :class:`ConcurrentResult` holds exactly one group.

        ``plan`` replays a previously recorded
        :class:`~repro.plan.types.RunPlan` bit-identically, skipping
        all per-level heuristic evaluation.
        """
        group = [int(s) for s in group]
        if not group:
            raise TraversalError("a group needs at least one source")
        if len(set(group)) != len(group):
            raise TraversalError("group sources must be distinct")
        for s in group:
            if not 0 <= s < self.graph.num_vertices:
                raise TraversalError(f"source {s} out of range")
        capacity = self.effective_group_size()
        if len(group) > capacity:
            raise TraversalError(
                f"group of {len(group)} exceeds the effective group size "
                f"{capacity}"
            )
        with obs_profile.span(
            "engine.run_group",
            group_size=len(group),
            mode=self.config.mode,
            policy=self.planner.name if plan is None else plan.policy,
            replay=plan is not None,
        ):
            depths, record, stats = self._group_engine.run_group(
                group, max_depth=max_depth, plan=plan
            )
        counters = ProfilerCounters()
        counters.merge(record.counters)
        return ConcurrentResult(
            engine=self.name,
            sources=group,
            seconds=stats.seconds,
            counters=counters,
            depths=np.asarray(depths),
            num_vertices=self.graph.num_vertices,
            groups=[stats],
        )

    # ------------------------------------------------------------------
    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
        cluster: Optional[Cluster] = None,
    ) -> ConcurrentResult:
        """Traverse from all sources.

        Groups run serially on this engine's device; pass ``cluster`` to
        instead schedule the groups across multiple simulated devices
        (figure 17), in which case ``seconds`` is the cluster makespan.
        """
        sources = [int(s) for s in sources]
        if not sources:
            raise TraversalError("at least one source is required")
        groups = self.make_groups(sources)
        counters = ProfilerCounters()
        group_stats: List[GroupStats] = []
        depth_rows = {} if store_depths else None
        sole_depths = None

        for group in groups:
            part = self.run_group(group, max_depth=max_depth)
            counters.merge(part.counters)
            group_stats.append(part.groups[0])
            if depth_rows is not None:
                if len(groups) == 1 and group == sources:
                    sole_depths = part.depths
                else:
                    for row, source in enumerate(group):
                        depth_rows[source] = part.depths[row]

        if cluster is not None:
            seconds = cluster.run([g.seconds for g in group_stats]).makespan
        else:
            seconds = sum(g.seconds for g in group_stats)

        matrix = None
        if sole_depths is not None:
            # One group in source order: the group's matrix IS the
            # result — stacking row views would copy it verbatim.
            matrix = sole_depths
        elif depth_rows is not None:
            matrix = np.stack([depth_rows[s] for s in sources])
        return ConcurrentResult(
            engine=self.name,
            sources=sources,
            seconds=seconds,
            counters=counters,
            depths=matrix,
            num_vertices=self.graph.num_vertices,
            groups=group_stats,
        )

    # ------------------------------------------------------------------
    def run_all(
        self,
        max_depth: Optional[int] = None,
        store_depths: bool = False,
        cluster: Optional[Cluster] = None,
    ) -> ConcurrentResult:
        """All-pairs shortest path: traverse from every vertex (i = |V|)."""
        return self.run(
            range(self.graph.num_vertices),
            max_depth=max_depth,
            store_depths=store_depths,
            cluster=cluster,
        )
