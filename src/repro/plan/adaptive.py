"""Cost-model-driven per-level policy.

:class:`AdaptivePolicy` replaces the fixed alpha/beta thresholds with a
direct work estimate in the spirit of the gpusim cost model: each level
it compares the edges a top-down expansion would touch (the frontier's
out-degree sum) against the inspections a bottom-up scan is expected to
perform (unvisited vertices times the expected probes before an early
hit), and directs each live instance down the cheaper side.  It also
picks the vector width from the group's lane count.

All its choices affect *cost only* — depths and the simulated traversal
counters that depend on direction differ from :class:`HeuristicPolicy`
exactly as two different alpha/beta settings would, but every policy
produces correct depths.  ``benchmarks/bench_plan_policies.py``
quantifies the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional

from repro.errors import TraversalError
from repro.plan.policy import Policy, PolicySession
from repro.plan.types import Direction, LevelDecision, LevelStats


@dataclass(frozen=True)
class AdaptivePolicy(Policy):
    """Pick direction and width per level from observed frontier stats.

    Parameters
    ----------
    probe_discount:
        Expected fraction of a bottom-up vertex's parent list inspected
        before early termination hits (section 6 reports most lookups
        stop within the first few parents on power-law graphs).
    margin:
        Bottom-up must beat top-down by this factor before switching —
        a hysteresis band so borderline levels don't flap.
    allow_bottom_up:
        Disable to restrict the model to top-down costs.
    early_termination:
        Arm bottom-up early termination (the probe discount assumes it).
    """

    name: ClassVar[str] = "adaptive"

    probe_discount: float = 0.15
    margin: float = 1.25
    allow_bottom_up: bool = True
    early_termination: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.probe_discount <= 1.0:
            raise TraversalError(
                f"probe_discount must be in (0, 1]; got {self.probe_discount}"
            )
        if self.margin < 1.0:
            raise TraversalError(
                f"margin must be >= 1.0; got {self.margin}"
            )

    def session(
        self, group_size: int, num_vertices: int, total_edges: int
    ) -> PolicySession:
        return _AdaptiveSession(self, group_size, num_vertices, total_edges)


class _AdaptiveSession(PolicySession):
    def __init__(
        self,
        policy: AdaptivePolicy,
        group_size: int,
        num_vertices: int,
        total_edges: int,
    ) -> None:
        self._policy = policy
        self._group_size = group_size
        self._n = max(1, num_vertices)
        self._avg_degree = total_edges / self._n
        # Lanes = status words per group; one 64-bit word per 64 sources.
        lanes = (group_size + 63) // 64
        if lanes >= 4:
            self._vector_width = 4
        elif lanes >= 2:
            self._vector_width = 2
        else:
            self._vector_width = 1
        self._directions: List[Direction] = [Direction.TOP_DOWN] * group_size

    def _decision(self) -> LevelDecision:
        return LevelDecision(
            directions=tuple(self._directions),
            vector_width=self._vector_width,
            early_termination=self._policy.early_termination,
        )

    def initial(self) -> LevelDecision:
        return self._decision()

    def next(self, stats: Optional[LevelStats]) -> LevelDecision:
        assert stats is not None
        p = self._policy
        n = self._n
        for j in range(self._group_size):
            if not stats.active[j]:
                continue
            frontier_vertices = int(stats.frontier_vertices[j])
            if not p.allow_bottom_up:
                self._directions[j] = Direction.TOP_DOWN
                continue
            # Top-down cost: expand every frontier out-edge.
            td_cost = float(stats.frontier_edges[j])
            # Bottom-up cost: every unvisited vertex probes its parent
            # list until it hits a frontier member.  The expected probe
            # count shrinks as the frontier covers more of the graph.
            unvisited = max(0, n - int(stats.visited_vertices[j]))
            frontier_fraction = max(frontier_vertices / n, 1.0 / n)
            probes = min(self._avg_degree, 1.0 / frontier_fraction)
            bu_cost = unvisited * probes * p.probe_discount
            if td_cost > bu_cost * p.margin and td_cost > 0:
                self._directions[j] = Direction.BOTTOM_UP
            elif bu_cost > td_cost * p.margin:
                self._directions[j] = Direction.TOP_DOWN
            # Within the hysteresis band: keep the current direction.
        return self._decision()
