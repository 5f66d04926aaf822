"""Incremental BFS repair for insert-only mutation batches.

Edge inserts can only *lower* BFS depths: every old shortest path still
exists in the new graph.  So a cached depth matrix for epoch N is not
garbage after an insert batch — it is an upper bound on epoch N+1's
depths, and the exact new matrix is recovered by relaxing from the
inserted edges outward instead of re-traversing from the sources.

The repair is a multi-source scatter-min over the *new* graph:

1. Seed: for each inserted edge ``(u, v)`` and each BFS instance,
   propose ``depth[u] + 1`` for ``v``; keep proposals that improve.
2. Rounds: vertices whose depth improved re-propose ``depth + 1`` to
   their out-neighbors (new CSR), until a round improves nothing.

Because BFS depths are unique (the shortest-path metric has a single
fixed point), the repaired matrix is **bit-identical** to running the
engine from scratch on the post-mutation snapshot — including under a
``max_depth`` cap, since any vertex at depth ``d <= max_depth`` has a
BFS parent at ``d - 1``, so capped propagation never cuts a needed
chain.  The differential suite pins this equivalence.

A row that no inserted edge improves at the seed step seeds no round
and comes back unchanged, so the serving layer first asks
:func:`changed_rows` which rows the batch improves, by the same seed
rule, and relaxes only those.

Deletes can raise depths, which a cached matrix cannot bound from
above; :func:`plan_repair` routes any batch with deletes — and any
insert batch whose estimated repair frontier exceeds the cost
threshold — to full recomputation instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.result import narrow_depths
from repro.errors import StreamError
from repro.graph.csr import CSRGraph
from repro.stream.overlay import MutationBatch

#: Repair decisions, in increasing order of work.
NOOP = "noop"
REPAIR = "repair"
RECOMPUTE = "recompute"


@dataclass(frozen=True)
class RepairConfig:
    """Cost-model knobs for :func:`plan_repair`.

    ``max_seed_fraction`` bounds the estimated repair wavefront (sum of
    new-graph out-degrees of inserted-edge heads) as a fraction of
    |E|: past it, a from-scratch traversal's near-linear frontier
    machinery beats scatter-min rounds and repair is declined.
    """

    max_seed_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_seed_fraction <= 1.0:
            raise StreamError(
                "max_seed_fraction must be in [0, 1], got "
                f"{self.max_seed_fraction}"
            )


@dataclass(frozen=True)
class RepairPlan:
    """Outcome of the repair cost model for one batch."""

    decision: str  # one of NOOP / REPAIR / RECOMPUTE
    reason: str
    #: Estimated wavefront cost (degree sum of insert heads), -1 when
    #: the decision did not need it.
    seed_cost: int = -1
    #: Cost budget the estimate was compared against.
    budget: int = -1


def plan_repair(
    batch: MutationBatch,
    graph: CSRGraph,
    config: Optional[RepairConfig] = None,
) -> RepairPlan:
    """Decide how to bring cached depth rows up to date after ``batch``.

    ``graph`` is the *post-mutation* snapshot.  Deletes always force
    recomputation; empty batches are no-ops; insert batches repair
    unless the estimated wavefront exceeds the configured budget.
    """
    config = config or RepairConfig()
    if batch.empty:
        return RepairPlan(NOOP, "empty batch")
    if not batch.insert_only:
        return RepairPlan(
            RECOMPUTE,
            f"batch has {batch.num_deletes} deletes; cached depths are "
            "not an upper bound",
        )
    degrees = graph.out_degrees()
    seed_cost = int(degrees[batch.insert_dst].sum()) + batch.num_inserts
    budget = int(config.max_seed_fraction * graph.num_edges)
    if seed_cost > budget:
        return RepairPlan(
            RECOMPUTE,
            f"estimated repair wavefront {seed_cost} exceeds budget "
            f"{budget} ({config.max_seed_fraction:.0%} of |E|)",
            seed_cost=seed_cost,
            budget=budget,
        )
    return RepairPlan(
        REPAIR,
        f"insert-only batch, wavefront {seed_cost} within budget {budget}",
        seed_cost=seed_cost,
        budget=budget,
    )


def _depth_cap(num_vertices: int, max_depth: Optional[int]) -> int:
    """Deepest depth a repaired row can hold: a true shortest depth in
    an n-vertex graph is at most n - 1, so pruning there (or at a lower
    ``max_depth``) loses nothing."""
    cap = max(num_vertices - 1, 0)
    return cap if max_depth is None else min(cap, max_depth)


def _seed_mask(
    tail_depths: np.ndarray, head_depths: np.ndarray, cap: int
) -> np.ndarray:
    """The repair's seed rule, elementwise over inserted edges (u, v)
    and rows: True where ``depth[u] + 1`` lowers ``depth[v]`` within
    ``cap``, i.e. ``depth[u] >= 0``, ``depth[u] + 1 <= cap``, and
    ``depth[v] < 0`` or ``depth[v] > depth[u] + 1``.  ``tail_depths``
    must be int64, so that ``depth[u] + 1`` never wraps."""
    step = tail_depths + 1
    return (
        (tail_depths >= 0)
        & (step <= cap)
        & ((head_depths < 0) | (head_depths > step))
    )


def changed_rows(
    rows: Sequence[np.ndarray],
    batch: MutationBatch,
    max_depth: Optional[int] = None,
) -> np.ndarray:
    """Indices of the cached depth rows that the insert-only ``batch``
    changes, by :func:`repair_depth_matrix`'s own seed rule: the rows
    where some inserted edge (u, v) lowers ``depth[v]`` to
    ``depth[u] + 1``.  Every other row is already exact on the new
    graph.  One gather reads each row at the edges' endpoints; the rows
    may differ in dtype."""
    ends = np.concatenate([batch.insert_src, batch.insert_dst])
    at_ends = np.array([row[ends] for row in rows])
    m = batch.num_inserts
    return np.flatnonzero(
        _seed_mask(
            at_ends[:, :m].astype(np.int64),
            at_ends[:, m:],
            _depth_cap(rows[0].size, max_depth),
        ).any(axis=1)
    )


def _scatter_relax(
    work: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter-min ``values`` into ``work[rows, cols]``.

    Returns the (row, col) coordinates that actually improved.  Uses
    flat indexing + ``np.minimum.at`` so duplicate targets within one
    round resolve to the smallest proposal, matching BFS's level-
    synchronous semantics.
    """
    flat = rows * np.int64(n) + cols
    uniq, inverse = np.unique(flat, return_inverse=True)
    best = np.full(uniq.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, inverse, values)
    prev = work.reshape(-1)[uniq]
    improved = best < prev
    hit = uniq[improved]
    work.reshape(-1)[hit] = best[improved]
    return hit // n, hit % n


def repair_depth_matrix(
    graph: CSRGraph,
    batch: MutationBatch,
    depths: np.ndarray,
    max_depth: Optional[int] = None,
) -> Tuple[np.ndarray, int]:
    """Patch a cached depth matrix across an insert-only batch.

    Parameters
    ----------
    graph:
        The **post-mutation** CSR snapshot.
    batch:
        The insert-only batch that produced ``graph``.
    depths:
        ``(k, n)`` integer depth matrix valid for the pre-mutation
        graph (unvisited = -1), computed under the same ``max_depth``.
    max_depth:
        The cap the cached matrix was computed under; depths beyond it
        stay -1, exactly as the engines record them.

    Returns ``(repaired, rounds)``: a fresh matrix bit-identical to a
    from-scratch run on ``graph``, dtype included (the int64 work
    matrix is narrowed to :func:`~repro.core.result.depth_dtype` of its
    deepest depth), and the number of relaxation rounds the repair took
    (0 when nothing improved).
    """
    if not batch.insert_only:
        raise StreamError(
            "repair_depth_matrix requires an insert-only batch; "
            "deletes need full recomputation"
        )
    n = graph.num_vertices
    if depths.ndim != 2 or depths.shape[1] != n:
        raise StreamError(
            f"depth matrix shape {depths.shape} does not match "
            f"graph with {n} vertices"
        )
    cap = _depth_cap(n, max_depth)
    if batch.num_inserts == 0 or depths.shape[0] == 0:
        return narrow_depths(depths.copy()), 0

    # Seed round: relax every inserted edge in every instance, keeping
    # only the proposals that improve.
    tails = depths[:, batch.insert_src].astype(np.int64)
    rows, edges = np.nonzero(
        _seed_mask(tails, depths[:, batch.insert_dst], cap)
    )
    if rows.size == 0:
        return narrow_depths(depths.copy()), 0

    # Unvisited (-1) becomes INF (n + 1, above the cap, so it maps back
    # to -1 at the end) and min() treats it as "infinitely far"; int64
    # headroom means cand = work + 1 never wraps.
    work = depths.astype(np.int64)
    work[work < 0] = n + 1
    frow, fcol = _scatter_relax(
        work, rows, batch.insert_dst[edges], tails[rows, edges] + 1, n
    )
    offsets = graph.row_offsets
    cols = graph.col_indices

    rounds = 0
    while frow.size:
        rounds += 1
        # Expand: every improved (instance, vertex) proposes depth+1 to
        # its out-neighbors in the new graph.
        deg = (offsets[fcol + 1] - offsets[fcol]).astype(np.int64)
        rows = np.repeat(frow, deg)
        base = np.repeat(offsets[fcol], deg)
        step = np.arange(rows.size, dtype=np.int64) - np.repeat(
            np.cumsum(deg) - deg, deg
        )
        targets = cols[base + step]
        cand = np.repeat(work[frow, fcol], deg) + 1
        ok = cand <= cap
        rows, targets, cand = rows[ok], targets[ok], cand[ok]
        if rows.size == 0:
            break
        frow, fcol = _scatter_relax(work, rows, targets, cand, n)

    work[work > cap] = -1
    return narrow_depths(work), rounds
