"""iBFS core: joint traversal, GroupBy, and bitwise optimization.

This package is the paper's primary contribution:

* :class:`~repro.core.joint.JointTraversal` — one kernel per group with
  a joint frontier queue and joint status array (section 4);
* :mod:`~repro.core.groupby` — outdegree-based grouping rules and the
  sharing-degree theory behind them (section 5);
* :class:`~repro.core.bitwise.BitwiseTraversal` — one-bit-per-instance
  status arrays with bitwise inspection, bitwise frontier
  identification, and bottom-up early termination (section 6);
* :class:`~repro.core.engine.IBFS` — the user-facing orchestrator that
  groups sources, runs each group, and aggregates results.
"""

from repro.core.result import ConcurrentResult, GroupStats
from repro.core.status_array import BitwiseStatusArray, lanes_for
from repro.core.sharing import (
    SharingObserver,
    sharing_degree,
    sharing_ratio,
    pairwise_sharing,
)
from repro.core.groupby import (
    GroupByConfig,
    group_sources,
    random_groups,
    auto_tune_q,
)
from repro.core.frontier import (
    FrontierBallots,
    generate_jfq,
    frontier_bits_top_down,
    frontier_bits_bottom_up,
)
from repro.core.joint import JointTraversal
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.core.theory import (
    Lemma1Report,
    verify_lemma1,
    early_sharing_rank,
    early_sharing_predicts_speedup,
)

__all__ = [
    "ConcurrentResult",
    "GroupStats",
    "BitwiseStatusArray",
    "lanes_for",
    "SharingObserver",
    "sharing_degree",
    "sharing_ratio",
    "pairwise_sharing",
    "GroupByConfig",
    "group_sources",
    "random_groups",
    "auto_tune_q",
    "FrontierBallots",
    "generate_jfq",
    "frontier_bits_top_down",
    "frontier_bits_bottom_up",
    "JointTraversal",
    "BitwiseTraversal",
    "IBFS",
    "IBFSConfig",
    "Lemma1Report",
    "verify_lemma1",
    "early_sharing_rank",
    "early_sharing_predicts_speedup",
]
