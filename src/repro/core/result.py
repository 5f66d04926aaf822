"""Result objects returned by every concurrent-BFS engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import TraversalError
from repro.gpusim.counters import ProfilerCounters


@dataclass
class GroupStats:
    """Per-group execution statistics (one joint kernel)."""

    #: Source vertices in this group.
    sources: List[int]
    #: Simulated seconds for the group's kernel.
    seconds: float
    #: Sharing degree (average instances sharing each joint frontier).
    sharing_degree: float
    #: Sharing ratio = sharing degree / group size, in [0, 1].
    sharing_ratio: float
    #: Per-level joint frontier queue sizes.
    jfq_sizes: List[int] = field(default_factory=list)
    #: Per-level sharing degree (figure 6's y-axis).
    per_level_sharing: List[float] = field(default_factory=list)
    #: Per-level ``(sum_j |FQ_j|, |JFQ|)`` restricted to top-down
    #: instances (figure 9's top-down series).
    td_sharing: List[tuple] = field(default_factory=list)
    #: Per-level ``(sum_j |FQ_j|, |JFQ|)`` restricted to bottom-up
    #: instances (figure 9's bottom-up series).
    bu_sharing: List[tuple] = field(default_factory=list)
    #: Per-instance bottom-up inspection counts (figure 11's data).
    bottom_up_inspections: List[int] = field(default_factory=list)
    #: Decision log of the traversal (``repro.plan.RunPlan``); excluded
    #: from equality so engine stats still compare clean against
    #: reference stats built without a planner.
    plan: Optional[object] = field(default=None, compare=False, repr=False)


@dataclass
class ConcurrentResult:
    """Outcome of a concurrent multi-source traversal.

    ``depths`` is an ``(i, |V|)`` int32 matrix (row order matches
    ``sources``) or ``None`` when the caller asked not to store depths
    (APSP-scale benchmark runs).
    """

    engine: str
    sources: List[int]
    seconds: float
    counters: ProfilerCounters
    num_vertices: int
    depths: Optional[np.ndarray] = None
    groups: List[GroupStats] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index: Dict[int, int] = {s: i for i, s in enumerate(self.sources)}

    @classmethod
    def from_groups(
        cls,
        engine: str,
        sources: Sequence[int],
        num_vertices: int,
        parts: Sequence[tuple],
    ) -> "ConcurrentResult":
        """One result from per-group parts, in run order.

        Each part is ``(group, depths, counters, stats)``: the group's
        sources, its ``(len(group), |V|)`` depth matrix (None when the
        caller keeps no depths), its :class:`ProfilerCounters` and its
        :class:`GroupStats`.  Counters and simulated seconds add up, as
        groups run serially; depth rows stack in ``sources`` order, and
        the result stores no depths when a part has none.  One group
        equal to ``sources`` in order keeps its matrix as the result:
        stacking its row views would copy it verbatim.
        """
        sources = list(sources)
        counters = ProfilerCounters()
        for part in parts:
            counters.merge(part[2])
        groups = [part[3] for part in parts]
        depths = None
        if all(part[1] is not None for part in parts):
            if len(parts) == 1 and list(parts[0][0]) == sources:
                depths = np.asarray(parts[0][1])
            else:
                depth_rows = {}
                for group, matrix, _, _ in parts:
                    depth_rows.update(zip(group, matrix))
                depths = np.stack([depth_rows[s] for s in sources])
        return cls(
            engine=engine,
            sources=sources,
            seconds=sum(g.seconds for g in groups),
            counters=counters,
            num_vertices=num_vertices,
            depths=depths,
            groups=groups,
        )

    # ------------------------------------------------------------------
    # Depth queries
    # ------------------------------------------------------------------
    def depth(self, source: int, vertex: int) -> int:
        """BFS depth of ``vertex`` from ``source``; -1 when unreachable."""
        row = self.depth_row(source)
        if not 0 <= vertex < self.num_vertices:
            raise TraversalError(f"vertex {vertex} out of range")
        return int(row[vertex])

    def depth_row(self, source: int) -> np.ndarray:
        """Depth array from one source."""
        if self.depths is None:
            raise TraversalError(
                "depths were not stored for this run (store_depths=False)"
            )
        try:
            return self.depths[self._index[source]]
        except KeyError:
            raise TraversalError(f"{source} was not a traversal source") from None

    def reached(self, source: int) -> int:
        """Vertices reachable from ``source`` (including itself)."""
        return int(np.count_nonzero(self.depth_row(source) >= 0))

    # ------------------------------------------------------------------
    # Performance metrics
    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        return len(self.sources)

    @property
    def edges_traversed(self) -> int:
        return self.counters.edges_traversed

    @property
    def teps(self) -> float:
        """Traversed edges per second over the simulated runtime."""
        if self.seconds <= 0:
            return 0.0
        return self.edges_traversed / self.seconds

    @property
    def sharing_degree(self) -> float:
        """Instance-weighted mean sharing degree across groups."""
        if not self.groups:
            return 0.0
        weights = [len(g.sources) for g in self.groups]
        total = sum(weights)
        if total == 0:
            return 0.0
        return sum(g.sharing_degree * w for g, w in zip(self.groups, weights)) / total

    @property
    def sharing_ratio(self) -> float:
        """Instance-weighted mean sharing ratio across groups."""
        if not self.groups:
            return 0.0
        weights = [len(g.sources) for g in self.groups]
        total = sum(weights)
        if total == 0:
            return 0.0
        return sum(g.sharing_ratio * w for g, w in zip(self.groups, weights)) / total

    def group_times(self) -> List[float]:
        """Simulated seconds per group (the cluster scheduler's units)."""
        return [g.seconds for g in self.groups]

    @property
    def plans(self) -> List:
        """Recorded per-group decision logs (``repro.plan.RunPlan``)."""
        return [g.plan for g in self.groups]

    def summary(self) -> Dict[str, float]:
        """Compact scalar summary used by the benchmark harness."""
        return {
            "instances": float(self.num_instances),
            "seconds": self.seconds,
            "teps": self.teps,
            "edges_traversed": float(self.edges_traversed),
            "load_transactions": float(self.counters.global_load_transactions),
            "store_transactions": float(self.counters.global_store_transactions),
            "inspections": float(self.counters.inspections),
            "sharing_degree": self.sharing_degree,
        }

    def to_dict(self, include_depths: bool = False) -> Dict:
        """JSON-serializable representation of the run.

        Depths are included only on request (they are O(i * |V|)).
        """
        payload = {
            "engine": self.engine,
            "sources": list(self.sources),
            "seconds": self.seconds,
            "num_vertices": self.num_vertices,
            "summary": self.summary(),
            "groups": [
                {
                    "sources": list(g.sources),
                    "seconds": g.seconds,
                    "sharing_degree": g.sharing_degree,
                    "sharing_ratio": g.sharing_ratio,
                    "jfq_sizes": list(g.jfq_sizes),
                }
                for g in self.groups
            ],
        }
        if include_depths and self.depths is not None:
            payload["depths"] = self.depths.tolist()
        return payload

    def to_json(self, include_depths: bool = False, indent: int = 2) -> str:
        """Serialize :meth:`to_dict` to a JSON string."""
        import json

        return json.dumps(self.to_dict(include_depths), indent=indent)


def validate_against_reference(
    result: ConcurrentResult, reference_depths: np.ndarray
) -> None:
    """Raise :class:`TraversalError` when depths differ from the oracle."""
    if result.depths is None:
        raise TraversalError("cannot validate a run without stored depths")
    if result.depths.shape != reference_depths.shape:
        raise TraversalError(
            f"depth shape mismatch: {result.depths.shape} vs "
            f"{reference_depths.shape}"
        )
    if not np.array_equal(result.depths, reference_depths):
        bad = np.argwhere(result.depths != reference_depths)
        row, col = bad[0]
        raise TraversalError(
            f"engine {result.engine!r} disagrees with reference at "
            f"source index {row}, vertex {col}: "
            f"{result.depths[row, col]} != {reference_depths[row, col]} "
            f"({bad.shape[0]} mismatches total)"
        )
