"""Pluggable per-level traversal policies.

A :class:`Policy` is a reusable, picklable description of how traversal
decisions are made; :meth:`Policy.session` instantiates the per-run
state machine (:class:`PolicySession`) that actually emits
:class:`~repro.plan.types.LevelDecision` objects:

* :class:`HeuristicPolicy` — the default of every engine: the Beamer
  alpha/beta state machine per instance (or one per-group vote), with
  fixed vector-width and early-termination choices.  Bit-identical to
  the pre-planner engines; the equivalence suite's golden counter
  fixture pins it.
* :class:`FixedPolicy` — constant decisions, optionally switching
  direction at a fixed level.  The baselines reduce to presets over
  this (B40C and SpMM-BC are ``FixedPolicy(direction="td")``).
* :class:`RecordedPolicy` — replays a :class:`~repro.plan.types.RunPlan`
  verbatim, skipping heuristic evaluation entirely
  (``wants_stats = False``, so engines do not even materialize the
  per-level statistics).

Every engine takes its policy as ``planner=`` and nothing else makes a
per-level decision; ``None`` means ``HeuristicPolicy()``.
:class:`DirectionPolicy` — the Beamer state machine — lives here only
as the heuristic's step function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional

from repro.errors import TraversalError
from repro.plan.types import (
    VECTOR_WIDTHS,
    Direction,
    LevelDecision,
    LevelStats,
    RunPlan,
)

DIRECTION_MODES = ("per-instance", "per-group")


@dataclass
class DirectionPolicy:
    """Per-instance direction state machine (Beamer-style, as used by
    Enterprise).

    "BFS typically starts the traversal in top-down and switches to
    bottom-up in a later stage" (section 2).  The standard switch rule
    compares the work remaining in each direction: go bottom-up when
    the frontier's out-edge count exceeds ``1/alpha`` of the unexplored
    edge count, and return to top-down when the frontier shrinks below
    ``|V| / beta`` vertices.

    Parameters
    ----------
    alpha:
        Top-down -> bottom-up threshold (Beamer's default 14); must be
        positive — zero or negative values would make the switch rule
        vacuous or inverted.
    beta:
        Bottom-up -> top-down threshold (Beamer's default 24); must be
        positive for the same reason.
    allow_bottom_up:
        Disable to model top-down-only systems (B40C, SpMM-BC).
    sticky:
        When true (the paper's GPU setting) an instance that switched to
        bottom-up never switches back; the bitwise status array requires
        monotone visited bits, which a return to top-down would not
        break, but Enterprise-style GPU BFS stays bottom-up once the
        frontier covers the graph's dense core.
    """

    alpha: float = 14.0
    beta: float = 24.0
    allow_bottom_up: bool = True
    sticky: bool = True

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise TraversalError(
                f"alpha must be positive; got {self.alpha!r} "
                f"(alpha <= 0 disables or inverts the top-down switch rule)"
            )
        if not self.beta > 0:
            raise TraversalError(
                f"beta must be positive; got {self.beta!r} "
                f"(beta <= 0 disables or inverts the bottom-up switch rule)"
            )

    def initial(self) -> Direction:
        return Direction.TOP_DOWN

    def next_direction(
        self,
        current: Direction,
        frontier_edges: int,
        unexplored_edges: int,
        frontier_vertices: int,
        num_vertices: int,
    ) -> Direction:
        """Direction for the next level given this level's outcome."""
        if not self.allow_bottom_up:
            return Direction.TOP_DOWN
        if current is Direction.TOP_DOWN:
            if frontier_edges * self.alpha > unexplored_edges and frontier_edges > 0:
                return Direction.BOTTOM_UP
            return Direction.TOP_DOWN
        if self.sticky:
            return Direction.BOTTOM_UP
        if frontier_vertices * self.beta < num_vertices:
            return Direction.TOP_DOWN
        return Direction.BOTTOM_UP


class PolicySession:
    """Per-run decision state machine produced by :meth:`Policy.session`.

    The engine asks :meth:`initial` for the first executed level's
    decision and :meth:`next` — with the previous level's observed
    :class:`~repro.plan.types.LevelStats` — for each subsequent one.
    Sessions with ``wants_stats = False`` (replay) receive ``None``
    instead of stats, and engines skip materializing them.
    """

    #: Whether :meth:`next` consumes observed level statistics.
    wants_stats: bool = True

    def initial(self) -> LevelDecision:
        raise NotImplementedError

    def next(self, stats: Optional[LevelStats]) -> LevelDecision:
        raise NotImplementedError


class Policy:
    """Base of every planner policy.

    Subclasses are value-comparable dataclasses (so plans and engine
    specs pickle across the exec task protocol) exposing
    :attr:`allow_bottom_up` — whether an engine must build the reverse
    CSR up front — and :meth:`session`.
    """

    name: ClassVar[str] = "policy"
    allow_bottom_up: bool = True

    def session(
        self, group_size: int, num_vertices: int, total_edges: int
    ) -> PolicySession:
        raise NotImplementedError


def _validate_width(vector_width: int) -> None:
    if vector_width not in VECTOR_WIDTHS:
        raise TraversalError(
            f"vector_width must be one of {VECTOR_WIDTHS}; got {vector_width}"
        )


@dataclass(frozen=True)
class HeuristicPolicy(Policy):
    """The consolidated pre-planner heuristics, bit-identical.

    Parameters
    ----------
    alpha, beta, allow_bottom_up, sticky:
        The Beamer switch rule, as :class:`DirectionPolicy` documents
        them; ``allow_bottom_up=False`` models top-down-only systems.
    direction_mode:
        ``"per-instance"`` (each instance switches on its own Beamer
        state, as iBFS's mixed-direction kernel allows) or
        ``"per-group"`` (all live instances follow one vote over the
        mean frontier statistics — simpler kernels, but stragglers drag
        the group).  Depths are exact either way.
    early_termination:
        Stop a bottom-up scan once every tracked bit of the frontier is
        set (iBFS); disable to model MS-BFS.
    vector_width:
        CUDA vector data types (section 6): a ``long2``/``long4`` load
        fetches 2/4 status words per instruction, so multi-lane status
        scans need ``1/width`` as many load requests and instructions.
        Bytes moved (transactions) are unchanged, and the JSA engine,
        which has no packed status words, ignores it.
    """

    name: ClassVar[str] = "heuristic"

    alpha: float = 14.0
    beta: float = 24.0
    allow_bottom_up: bool = True
    sticky: bool = True
    direction_mode: str = "per-instance"
    early_termination: bool = True
    vector_width: int = 1

    def __post_init__(self) -> None:
        # Reuse DirectionPolicy's alpha/beta validation verbatim.
        DirectionPolicy(
            self.alpha, self.beta, self.allow_bottom_up, self.sticky
        )
        if self.direction_mode not in DIRECTION_MODES:
            raise TraversalError(
                f"direction_mode must be one of {DIRECTION_MODES}; "
                f"got {self.direction_mode!r}"
            )
        _validate_width(self.vector_width)

    def session(
        self, group_size: int, num_vertices: int, total_edges: int
    ) -> PolicySession:
        return _HeuristicSession(self, group_size, num_vertices)


class _HeuristicSession(PolicySession):
    """Beamer state per instance, stepped exactly like the old loops."""

    def __init__(
        self, policy: HeuristicPolicy, group_size: int, num_vertices: int
    ) -> None:
        self._policy = policy
        self._step = DirectionPolicy(
            alpha=policy.alpha,
            beta=policy.beta,
            allow_bottom_up=policy.allow_bottom_up,
            sticky=policy.sticky,
        )
        self._group_size = group_size
        self._num_vertices = num_vertices
        self._directions: List[Direction] = [self._step.initial()] * group_size

    def _decision(self) -> LevelDecision:
        p = self._policy
        return LevelDecision(
            directions=tuple(self._directions),
            vector_width=p.vector_width,
            early_termination=p.early_termination,
        )

    def initial(self) -> LevelDecision:
        return self._decision()

    def next(self, stats: Optional[LevelStats]) -> LevelDecision:
        assert stats is not None
        step = self._step
        n = self._num_vertices
        if self._policy.direction_mode == "per-instance":
            for j in range(self._group_size):
                if not stats.active[j]:
                    continue
                self._directions[j] = step.next_direction(
                    self._directions[j],
                    int(stats.frontier_edges[j]),
                    int(stats.unexplored_edges[j]),
                    int(stats.frontier_vertices[j]),
                    n,
                )
            return self._decision()
        # Per-group: one vote on aggregate statistics; every live
        # instance follows it (the "still" per-instance Direction state
        # machine sees the mean instance).
        survivors = [j for j in range(self._group_size) if stats.active[j]]
        if survivors:
            live = len(survivors)
            group_frontier_edges = sum(
                int(stats.frontier_edges[j]) for j in survivors
            )
            group_unexplored = sum(
                int(stats.unexplored_edges[j]) for j in survivors
            )
            group_frontier_count = sum(
                int(stats.frontier_vertices[j]) for j in survivors
            )
            voted = step.next_direction(
                self._directions[survivors[0]],
                group_frontier_edges // live,
                group_unexplored // live,
                group_frontier_count // live,
                n,
            )
            for j in survivors:
                self._directions[j] = voted
        return self._decision()


@dataclass(frozen=True)
class FixedPolicy(Policy):
    """Constant decisions, optionally switching direction at one level.

    ``direction`` is every instance's direction from level 0;
    ``switch_level`` (when given) flips all instances from top-down to
    bottom-up at that depth, modeling systems with a static rather than
    observed switch point.  B40C and SpMM-BC are
    ``FixedPolicy(direction="td")``.
    """

    name: ClassVar[str] = "fixed"

    direction: str = "td"
    switch_level: Optional[int] = None
    early_termination: bool = True
    vector_width: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("td", "bu"):
            raise TraversalError(
                f"direction must be 'td' or 'bu'; got {self.direction!r}"
            )
        if self.switch_level is not None:
            if self.direction != "td":
                raise TraversalError(
                    "switch_level only applies to direction='td'"
                )
            if self.switch_level <= 0:
                raise TraversalError("switch_level must be positive")
        _validate_width(self.vector_width)

    @property
    def allow_bottom_up(self) -> bool:  # type: ignore[override]
        return self.direction == "bu" or self.switch_level is not None

    def session(
        self, group_size: int, num_vertices: int, total_edges: int
    ) -> PolicySession:
        return _FixedSession(self, group_size)


class _FixedSession(PolicySession):
    wants_stats = False

    def __init__(self, policy: FixedPolicy, group_size: int) -> None:
        self._policy = policy
        self._group_size = group_size
        self._level = 0

    def _decision(self) -> LevelDecision:
        p = self._policy
        direction = Direction(p.direction)
        if p.switch_level is not None and self._level >= p.switch_level:
            direction = Direction.BOTTOM_UP
        return LevelDecision(
            directions=(direction,) * self._group_size,
            vector_width=p.vector_width,
            early_termination=p.early_termination,
        )

    def initial(self) -> LevelDecision:
        decision = self._decision()
        self._level += 1
        return decision

    def next(self, stats: Optional[LevelStats]) -> LevelDecision:
        decision = self._decision()
        self._level += 1
        return decision


class RecordedPolicy(Policy):
    """Replay a recorded :class:`~repro.plan.types.RunPlan` verbatim.

    The session pops the recorded decisions in order — no heuristic is
    evaluated and no level statistics are materialized.  A replay that
    runs past the recorded horizon (e.g. a larger ``max_depth`` than
    the recording) repeats the final decision; directions only affect
    cost, never correctness, so this is always safe.
    """

    name: ClassVar[str] = "recorded"

    def __init__(self, plan: RunPlan) -> None:
        if len(plan) == 0:
            raise TraversalError("cannot replay an empty RunPlan")
        self.plan = plan
        # A replayed run re-records the same plan it executes; keeping
        # the originating policy's name makes the re-recorded plan
        # compare equal to the original.
        self.name = plan.policy

    @property
    def allow_bottom_up(self) -> bool:  # type: ignore[override]
        return self.plan.needs_bottom_up

    def session(
        self, group_size: int, num_vertices: int, total_edges: int
    ) -> PolicySession:
        if self.plan.group_size != group_size:
            raise TraversalError(
                f"recorded plan is for group size {self.plan.group_size}, "
                f"not {group_size}"
            )
        return _RecordedSession(self.plan)


class _RecordedSession(PolicySession):
    wants_stats = False

    def __init__(self, plan: RunPlan) -> None:
        self._decisions = plan.decisions
        self._next = 0

    def _pop(self) -> LevelDecision:
        if self._next < len(self._decisions):
            decision = self._decisions[self._next]
            self._next += 1
            return decision
        return self._decisions[-1]

    def initial(self) -> LevelDecision:
        return self._pop()

    def next(self, stats: Optional[LevelStats]) -> LevelDecision:
        return self._pop()

