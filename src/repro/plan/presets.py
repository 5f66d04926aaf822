"""Named policy presets for the CLI and the baseline systems.

The baselines are, under the planner, nothing but policy choices over
the shared traversal loop:

* B40C and SpMM-BC traverse top-down only → ``FixedPolicy("td")``;
* MS-BFS keeps the direction heuristic but has no early termination →
  ``HeuristicPolicy(early_termination=False)``;
* CPU-iBFS is the full heuristic stack → ``HeuristicPolicy()``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TraversalError
from repro.plan.adaptive import AdaptivePolicy
from repro.plan.policy import FixedPolicy, HeuristicPolicy, Policy

#: Names accepted by ``--policy`` on ``repro run`` / ``repro serve`` /
#: ``repro plan``.
POLICY_NAMES = ("heuristic", "adaptive", "td-only", "no-early-termination")


def make_policy(name: str) -> Policy:
    """Build a policy from its CLI name."""
    if name == "adaptive":
        return AdaptivePolicy()
    if name == "heuristic":
        return HeuristicPolicy()
    if name == "td-only":
        return FixedPolicy(direction="td")
    if name == "no-early-termination":
        return HeuristicPolicy(early_termination=False)
    raise TraversalError(
        f"unknown policy {name!r}; expected one of {POLICY_NAMES}"
    )


def b40c_policy() -> FixedPolicy:
    """B40C: top-down-only, no status-array tricks."""
    return FixedPolicy(direction="td")


def spmm_bc_policy() -> FixedPolicy:
    """SpMM-style batched BFS: top-down-only frontier products."""
    return FixedPolicy(direction="td")


def msbfs_policy() -> HeuristicPolicy:
    """MS-BFS: direction-switching but no bottom-up early termination."""
    return HeuristicPolicy(early_termination=False)


def cpu_ibfs_policy(
    alpha: Optional[float] = None, beta: Optional[float] = None
) -> HeuristicPolicy:
    """CPU port of the full iBFS heuristic stack."""
    kwargs = {}
    if alpha is not None:
        kwargs["alpha"] = alpha
    if beta is not None:
        kwargs["beta"] = beta
    return HeuristicPolicy(**kwargs)
