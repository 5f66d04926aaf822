"""Typed per-level traversal decisions and recorded run plans.

The planner layer (:mod:`repro.plan`) owns every choice the paper makes
*per level* that changes what the simulated device does: traversal
direction (section 2's top-down/bottom-up switch), the vector load width
(section 6's ``long``/``long2``/``long4``), whether bottom-up early
termination is armed, and the partitioned engine's frontier-exchange
format.  How the host executes a level (compiled or numpy kernels) is
not a decision: it follows from what the host can run, and never
changes a result or a counter.  One level of one group executes exactly
one :class:`LevelDecision`; the sequence of decisions a run actually
executed is its :class:`RunPlan`.

A :class:`RunPlan` is a first-class artifact:

* engines attach it to their :class:`~repro.core.result.GroupStats`;
* it replays bit-identically (same depths, same simulated counters)
  through :class:`~repro.plan.policy.RecordedPolicy`, skipping the
  heuristic evaluation that produced it;
* it pickles across the exec task protocol and JSON-round-trips for
  the ``repro plan`` CLI verb and the service-layer plan cache.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import TraversalError

#: CUDA vector data types of section 6 (long/long2/long4).
VECTOR_WIDTHS = (1, 2, 4)

#: Frontier-exchange wire formats for the partitioned distributed
#: engine (:mod:`repro.dist`): ``"dense"`` ships one status bitmap word
#: per destination-range vertex, ``"sparse"`` ships ``(vertex, mask)``
#: pairs for touched vertices only, and ``"auto"`` lets the exchange
#: policy pick per level — the communication counterpart of the
#: top-down/bottom-up direction switch.  Single-process engines ignore
#: the field (it never changes depths or simulated traversal counters).
EXCHANGE_FORMATS = ("auto", "dense", "sparse")


class Direction(enum.Enum):
    """Traversal direction of one BFS level."""

    TOP_DOWN = "td"
    BOTTOM_UP = "bu"


def _typed(payload: Dict, key: str, kind: type, default):
    """``payload[key]`` (``default`` when absent), which must be a JSON
    integer or boolean as ``kind`` says."""
    value = payload.get(key, default)
    # bool subclasses int, so an integer field rejects true/false itself.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        expected = "an integer" if kind is int else "a boolean"
        raise TraversalError(
            f"malformed plan payload: {key} must be {expected}; got {value!r}"
        )
    return value


def _require_object(payload, what: str) -> None:
    if not isinstance(payload, dict):
        raise TraversalError(
            f"malformed {what} payload: expected an object, "
            f"got {type(payload).__name__}"
        )


@dataclass(frozen=True)
class LevelDecision:
    """Everything the simulated device does differently at one level.

    Attributes
    ----------
    directions:
        Per-instance traversal direction, index-aligned with the
        group's sources.  Engines intersect this with their own
        active-instance bookkeeping, so entries of completed instances
        are carried along but never executed.
    vector_width:
        Status words fetched per load instruction (1, 2, or 4).
    early_termination:
        Arm bottom-up early termination for this level.
    exchange:
        Frontier-exchange wire format for this level (one of
        :data:`EXCHANGE_FORMATS`); consumed by the partitioned
        distributed engine, ignored by single-process engines.  Plans
        recorded by :class:`repro.dist.engine.PartitionedEngine` hold
        the *resolved* format (never ``"auto"``) so replay re-sends
        exactly the recorded bytes.
    """

    directions: Tuple[Direction, ...]
    vector_width: int = 1
    early_termination: bool = True
    exchange: str = "auto"

    def __post_init__(self) -> None:
        if not self.directions:
            raise TraversalError("a LevelDecision needs at least one instance")
        for d in self.directions:
            if not isinstance(d, Direction):
                raise TraversalError(
                    f"directions must be Direction members; got {d!r}"
                )
        if self.vector_width not in VECTOR_WIDTHS:
            raise TraversalError(
                f"vector_width must be one of {VECTOR_WIDTHS}; "
                f"got {self.vector_width}"
            )
        if self.exchange not in EXCHANGE_FORMATS:
            raise TraversalError(
                f"exchange must be one of {EXCHANGE_FORMATS}; "
                f"got {self.exchange!r}"
            )

    @property
    def num_instances(self) -> int:
        return len(self.directions)

    @property
    def top_down(self) -> int:
        """Instances directed top-down this level."""
        return sum(1 for d in self.directions if d is Direction.TOP_DOWN)

    @property
    def bottom_up(self) -> int:
        """Instances directed bottom-up this level."""
        return sum(1 for d in self.directions if d is Direction.BOTTOM_UP)

    def to_dict(self) -> Dict:
        return {
            "directions": [d.value for d in self.directions],
            "vector_width": self.vector_width,
            "early_termination": self.early_termination,
            "exchange": self.exchange,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "LevelDecision":
        """Rebuild a decision from :meth:`to_dict` output.

        Plans arrive from outside the program (``repro plan --replay``),
        so every malformed payload raises
        :class:`~repro.errors.TraversalError`.  Unknown keys are
        ignored, which keeps plans exported with the former host-only
        ``kernel`` and ``snapshot`` fields loadable.
        """
        _require_object(payload, "LevelDecision")
        directions = payload.get("directions")
        if not isinstance(directions, (list, tuple)):
            raise TraversalError(
                "malformed LevelDecision payload: directions must be a "
                f"list; got {directions!r}"
            )
        try:
            directions = tuple(Direction(v) for v in directions)
        except (TypeError, ValueError) as exc:
            raise TraversalError(f"malformed LevelDecision payload: {exc}")
        return cls(
            directions=directions,
            vector_width=_typed(payload, "vector_width", int, 1),
            early_termination=_typed(
                payload, "early_termination", bool, True
            ),
            exchange=payload.get("exchange", "auto"),
        )


@dataclass
class LevelStats:
    """Observed outcome of one executed level, fed back to the policy.

    All per-instance sequences are index-aligned with the group.  The
    values are exactly what the pre-planner engines handed their
    :class:`~repro.plan.policy.DirectionPolicy`: the *new* frontier's
    vertex count and out-degree sum, the remaining unexplored out-degree
    mass, plus the cumulative visited-vertex count the adaptive cost
    model needs.  ``active`` is the post-level liveness mask (an
    instance retires when its frontier empties).
    """

    level: int
    num_vertices: int
    total_edges: int
    frontier_vertices: "Tuple[int, ...]"
    frontier_edges: "Tuple[int, ...]"
    unexplored_edges: "Tuple[int, ...]"
    visited_vertices: "Tuple[int, ...]"
    active: "Tuple[bool, ...]"


@dataclass
class RunPlan:
    """The decision log of one group's traversal, level by level.

    ``decisions[k]`` is the decision level ``k`` executed; the list
    covers exactly the executed levels (a replay that runs past the
    recorded horizon repeats the final decision).  Plans are
    value-comparable, picklable, and JSON-round-trippable.
    """

    policy: str
    engine: str
    group_size: int
    decisions: List[LevelDecision] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self) -> Iterator[LevelDecision]:
        return iter(self.decisions)

    def append(self, decision: LevelDecision) -> None:
        if decision.num_instances != self.group_size:
            raise TraversalError(
                f"decision for {decision.num_instances} instances appended "
                f"to a plan of group size {self.group_size}"
            )
        self.decisions.append(decision)

    @property
    def needs_bottom_up(self) -> bool:
        """Whether any recorded level directs any instance bottom-up."""
        return any(d.bottom_up > 0 for d in self.decisions)

    def to_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "engine": self.engine,
            "group_size": self.group_size,
            "decisions": [d.to_dict() for d in self.decisions],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunPlan":
        """Rebuild a plan from :meth:`to_dict` output; every malformed
        payload raises :class:`~repro.errors.TraversalError`."""
        _require_object(payload, "RunPlan")
        decisions = payload.get("decisions", [])
        if not isinstance(decisions, list):
            raise TraversalError(
                "malformed RunPlan payload: decisions must be a list; "
                f"got {decisions!r}"
            )
        try:
            plan = cls(
                policy=str(payload["policy"]),
                engine=str(payload["engine"]),
                group_size=_typed(payload, "group_size", int, None),
            )
        except KeyError as exc:
            raise TraversalError(f"malformed RunPlan payload: missing {exc}")
        for entry in decisions:
            plan.append(LevelDecision.from_dict(entry))
        return plan

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraversalError(f"malformed RunPlan JSON: {exc}")
        return cls.from_dict(payload)
