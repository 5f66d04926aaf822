"""Shared execution loop for the grouped baseline systems.

Under the planner, the baselines differ mostly in *policy* — which
per-level decisions they are allowed to make — plus a device preset and
one or two engine-level switches.  What used to be four forked
traversal loops is now one helper: partition sources into random
groups, run each group through a traversal engine, and aggregate the
per-group stats into a :class:`~repro.core.result.ConcurrentResult`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.groupby import random_groups
from repro.core.result import ConcurrentResult


def run_random_groups(
    engine,
    engine_name: str,
    num_vertices: int,
    sources: Sequence[int],
    group_size: int,
    seed: int,
    max_depth: Optional[int] = None,
    store_depths: bool = True,
) -> ConcurrentResult:
    """Run ``sources`` through ``engine.run_group`` in random groups.

    ``engine`` is any group traversal engine returning
    ``(depths, record, stats)`` (the :class:`BitwiseTraversal` /
    :class:`JointTraversal` contract).  Groups execute serially;
    simulated seconds add up.
    """
    sources = [int(s) for s in sources]
    parts = []
    for group in random_groups(sources, group_size, seed):
        depths, record, stats = engine.run_group(group, max_depth=max_depth)
        parts.append((
            group, depths if store_depths else None, record.counters, stats
        ))
    return ConcurrentResult.from_groups(
        engine_name, sources, num_vertices, parts
    )
