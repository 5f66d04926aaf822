"""Outdegree-based GroupBy (section 5.2).

Two complementary rules pick which BFS instances to run together:

* **Rule 1** — the source's outdegree is less than ``p`` (small sources
  do not dilute the sharing contributed by the hub);
* **Rule 2** — the sources connect to at least one common vertex whose
  outdegree is greater than ``q`` (a shared hub makes their frontiers
  collide within the first levels, and by Theorem 1 early sharing
  predicts later sharing).

Application order follows the paper: groups satisfying both rules are
formed first (with ``p`` drawn in ascending order from a power-of-two
sequence), undersized groups with *different* hubs are combined next,
and whatever remains is grouped randomly.  For uniform-degree graphs,
where no vertex clears ``q``, the fallback groups sources that share
common neighbors (section 5.2's "slightly different rule").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GroupingError
from repro.graph.csr import CSRGraph

#: Default hub-outdegree threshold; the paper picks q = 128 after the
#: figure 8 sweep.
DEFAULT_Q = 128
#: Default ascending source-outdegree thresholds for Rule 1.
DEFAULT_P_SEQUENCE = (4, 16, 64, 128)


@dataclass(frozen=True)
class GroupByConfig:
    """Parameters of the GroupBy rules."""

    #: Rule 2 hub threshold.
    q: int = DEFAULT_Q
    #: Rule 1 thresholds, tried in ascending order.
    p_sequence: Tuple[int, ...] = DEFAULT_P_SEQUENCE
    #: Seed for the random fallback grouping.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.q < 0:
            raise GroupingError("q must be non-negative")
        if not self.p_sequence or any(p <= 0 for p in self.p_sequence):
            raise GroupingError("p_sequence must contain positive thresholds")
        if tuple(sorted(self.p_sequence)) != tuple(self.p_sequence):
            raise GroupingError("p_sequence must be ascending")


def random_groups(
    sources: Sequence[int], group_size: int, seed: int = 0
) -> List[List[int]]:
    """Shuffle the sources and chunk them into groups (the baseline the
    paper calls "random grouping")."""
    if group_size <= 0:
        raise GroupingError("group_size must be positive")
    _check_sources(sources)
    rng = np.random.default_rng(seed)
    shuffled = list(sources)
    rng.shuffle(shuffled)
    return [
        [int(s) for s in shuffled[i : i + group_size]]
        for i in range(0, len(shuffled), group_size)
    ]


def group_sources(
    graph: CSRGraph,
    sources: Sequence[int],
    group_size: int,
    config: Optional[GroupByConfig] = None,
) -> List[List[int]]:
    """Partition the sources into GroupBy-optimized groups.

    Every source appears in exactly one group; groups hold at most
    ``group_size`` sources each.
    """
    if group_size <= 0:
        raise GroupingError("group_size must be positive")
    _check_sources(sources)
    config = config or GroupByConfig()
    sources = [int(s) for s in sources]
    n = graph.num_vertices
    for s in sources:
        if not 0 <= s < n:
            raise GroupingError(f"source {s} out of range")

    degrees = graph.out_degrees()
    hubs, lowest = _neighbor_summary(graph, degrees, sources, config.q)
    hub_of = dict(zip(sources, hubs))

    # Phase 1: Rule 1 + Rule 2.  Ascending p admits the smallest sources
    # first, bucketed by their shared hub.
    assigned: Dict[int, int] = {}
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for p in config.p_sequence:
        for s in sources:
            if s in assigned:
                continue
            hub = hub_of[s]
            if hub is None or degrees[s] >= p:
                continue
            buckets.setdefault((hub, p), []).append(s)
            assigned[s] = hub

    groups: List[List[int]] = []
    partial: List[List[int]] = []
    for _, members in sorted(
        buckets.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        for i in range(0, len(members), group_size):
            chunk = members[i : i + group_size]
            if len(chunk) == group_size:
                groups.append(chunk)
            else:
                partial.append(chunk)

    # Phase 2: combine undersized hub groups (different hubs together).
    partial = _merge_partials(partial, group_size, groups)

    # Phase 3: uniform-graph fallback — group leftovers by a shared
    # common neighbor, then randomly.
    leftovers = [s for s in sources if s not in assigned]
    leftovers.extend(s for chunk in partial for s in chunk)
    if leftovers:
        lowest_of = dict(zip(sources, lowest))
        groups.extend(
            _fallback_groups(lowest_of, leftovers, group_size, config.seed)
        )
    return groups


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def auto_tune_q(
    graph: CSRGraph,
    sources: Sequence[int],
    group_size: int,
    candidates: Tuple[int, ...] = (4, 16, 64, 128, 256, 1024),
    probe_levels: int = 3,
) -> int:
    """Pick the hub threshold q with the best early sharing (figure 8).

    The paper selects q = 128 after sweeping relative performance.
    Lemma 2 says the first levels' sharing predicts the speedup, so this
    tuner runs only ``probe_levels`` levels per candidate grouping and
    returns the q whose groups share most early — a cheap programmatic
    version of the figure 8 sweep.
    """
    from repro.core.joint import JointTraversal

    if group_size <= 0:
        raise GroupingError("group_size must be positive")
    if not candidates:
        raise GroupingError("candidates must not be empty")
    engine = JointTraversal(graph)
    best_q = candidates[0]
    best_score = -1.0
    for q in candidates:
        groups = group_sources(
            graph, sources, group_size, GroupByConfig(q=q)
        )
        total_fq = 0
        total_jfq = 0
        for members in groups:
            _, _, stats = engine.run_group(members, max_depth=probe_levels)
            for fq, jfq in (*stats.td_sharing, *stats.bu_sharing):
                total_fq += fq
                total_jfq += jfq
        score = total_fq / total_jfq if total_jfq else 0.0
        if score > best_score:
            best_score = score
            best_q = q
    return best_q


def _check_sources(sources: Sequence[int]) -> None:
    if len(set(int(s) for s in sources)) != len(sources):
        raise GroupingError("sources must be distinct (the paper requires "
                            "i distinct source vertices)")


def _neighbor_summary(
    graph: CSRGraph, degrees: np.ndarray, sources: List[int], q: int
) -> Tuple[List[Optional[int]], List[Optional[int]]]:
    """Per source, its Rule 2 hub and its smallest neighbor (``None``
    for either when it has no neighbors, and for the hub when no
    neighbor's outdegree is above ``q``), from one gather over the
    sources' adjacency slices.

    The hub is the first neighbor, in adjacency order, of maximum
    outdegree.  The paper notes the hub need not be a direct neighbor
    ("as long as within the first several levels"); direct neighbors
    already give the strongest level-2 collision and keep grouping
    O(|E|).
    """
    offsets = graph.row_offsets
    rows = np.asarray(sources, dtype=np.int64)
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    # Slice i of the gather is source i's adjacency; empty slices hold
    # nothing, so the non-empty ones begin at strictly rising bounds.
    begins = np.cumsum(counts) - counts
    slot = np.arange(int(counts.sum()), dtype=np.int64)
    neighbors = graph.col_indices[slot + np.repeat(starts - begins, counts)]
    hubs: List[Optional[int]] = [None] * len(sources)
    lowest: List[Optional[int]] = [None] * len(sources)
    if neighbors.size == 0:
        return hubs, lowest
    full = np.flatnonzero(counts)
    bounds = begins[full]
    neighbor_degrees = degrees[neighbors]
    top = np.maximum.reduceat(neighbor_degrees, bounds)
    # The first slot of each slice that holds its maximum.
    owner = np.repeat(np.arange(full.size), counts[full])
    at_top = np.flatnonzero(neighbor_degrees == top[owner])
    first = at_top[np.flatnonzero(np.diff(owner[at_top], prepend=-1))]
    for i, hub, top_degree, low in zip(
        full.tolist(),
        neighbors[first].tolist(),
        top.tolist(),
        np.minimum.reduceat(neighbors, bounds).tolist(),
    ):
        if top_degree > q:
            hubs[i] = hub
        lowest[i] = low
    return hubs, lowest


def _merge_partials(
    partial: List[List[int]], group_size: int, groups: List[List[int]]
) -> List[List[int]]:
    """Greedily concatenate undersized hub groups into full ones."""
    partial = sorted(partial, key=len, reverse=True)
    merged: List[int] = []
    remaining: List[List[int]] = []
    for chunk in partial:
        merged.extend(chunk)
        while len(merged) >= group_size:
            groups.append(merged[:group_size])
            merged = merged[group_size:]
    if merged:
        remaining.append(merged)
    return remaining


def _fallback_groups(
    lowest_of: Dict[int, Optional[int]],
    sources: List[int],
    group_size: int,
    seed: int,
) -> List[List[int]]:
    """Group by a shared smallest neighbor (``lowest_of``), then
    randomly.

    This is the uniform-graph rule: "iBFS can select a group of BFS
    instances if they share some common vertices from the sources".
    """
    buckets: Dict[int, List[int]] = {}
    isolated: List[int] = []
    for s in sources:
        lowest = lowest_of[s]
        if lowest is None:
            isolated.append(s)
        else:
            buckets.setdefault(lowest, []).append(s)

    groups: List[List[int]] = []
    pending: List[int] = []
    for _, members in sorted(
        buckets.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        pending.extend(members)
        while len(pending) >= group_size:
            groups.append(pending[:group_size])
            pending = pending[group_size:]
    pending.extend(isolated)

    rng = np.random.default_rng(seed)
    rng.shuffle(pending)
    for i in range(0, len(pending), group_size):
        groups.append(pending[i : i + group_size])
    return [g for g in groups if g]
