"""repro.plan — the unified per-level traversal planner.

One layer owns every per-level choice that changes what the simulated
device does: traversal direction, vector load width, early termination
and the partitioned engine's exchange format.  Policies produce
typed :class:`LevelDecision` objects; engines execute them and record
the sequence as a :class:`RunPlan`, which replays bit-identically via
:class:`RecordedPolicy`.
"""

from repro.plan.adaptive import AdaptivePolicy
from repro.plan.policy import (
    DIRECTION_MODES,
    DirectionPolicy,
    FixedPolicy,
    HeuristicPolicy,
    Policy,
    PolicySession,
    RecordedPolicy,
)
from repro.plan.presets import POLICY_NAMES, make_policy
from repro.plan.types import (
    EXCHANGE_FORMATS,
    VECTOR_WIDTHS,
    Direction,
    LevelDecision,
    LevelStats,
    RunPlan,
)

__all__ = [
    "AdaptivePolicy",
    "DIRECTION_MODES",
    "Direction",
    "DirectionPolicy",
    "EXCHANGE_FORMATS",
    "FixedPolicy",
    "HeuristicPolicy",
    "LevelDecision",
    "LevelStats",
    "POLICY_NAMES",
    "Policy",
    "PolicySession",
    "RecordedPolicy",
    "RunPlan",
    "VECTOR_WIDTHS",
    "make_policy",
]
