"""Degree-bucketed bottom-up scans.

The direct formulation — the *reference loop* below — runs bottom-up
as one synchronized Python loop over neighbor-list *positions*: round
``r`` probes the ``r``-th in-neighbor of every still-scanning vertex,
so a skewed graph costs ``max_degree`` Python-level iterations even
when almost every vertex terminated rounds ago.  The key observation is
that the scan is *per-vertex local*: whether (and when) a vertex stops
depends only on its own neighbor prefix, and every per-round tally the
engines need (probe counts, per-instance inspections, early
terminations) can be re-derived from per-vertex quantities.

The scanners here therefore bucket vertices by in-degree (short /
medium / long) and process each bucket in wide vectorized passes — a
``(vertices, rounds)`` block per pass, with cumulative ORs or hit
argmaxes replacing the round loop.  Long adjacency lists are walked in
fixed-width chunks so hubs cannot blow up the block size.

Because the simulated memory model coalesces the probe address stream
*in warp order*, :func:`round_major_probes` reconstructs the exact
round-major (round 0 of every vertex, then round 1, ...) neighbor
sequence the reference loop would have produced, keeping transaction
counts bit-identical.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

import repro.native as native
from repro.kernels.bookkeeping import per_bit_counts
from repro.obs import profile as obs_profile
from repro.util import exclusive_cumsum

#: Degree bounds of the short and medium buckets; longer lists are
#: chunked by ``_LONG_CHUNK`` rounds per pass.
_BUCKET_BOUNDS = (4, 32)
_LONG_CHUNK = 64
#: Soft cap on elements per vectorized block; wide buckets are sliced
#: row-wise to stay under it.
_BLOCK_BUDGET = 1 << 22


def _row_slices(count: int, rounds: int, lanes: int):
    """Yield ``slice`` objects covering ``count`` rows under the budget."""
    per_row = max(rounds * lanes, 1)
    step = max(1, _BLOCK_BUDGET // per_row)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _bucketize(work: np.ndarray, degrees: np.ndarray):
    """Split ``work`` positions into (positions, degree_cap) buckets."""
    buckets = []
    deg = degrees[work]
    taken = np.zeros(work.size, dtype=bool)
    for bound in _BUCKET_BOUNDS:
        sel = ~taken & (deg <= bound)
        if sel.any():
            buckets.append((work[sel], bound))
        taken |= sel
    rest = work[~taken]
    if rest.size:
        buckets.append((rest, None))
    return buckets


def _pass_widths(cap, adaptive: bool):
    """Round counts per vectorized pass for one bucket.

    With early exits (``adaptive``) most vertices stop within a probe or
    two, so passes grow geometrically from a single round — the dominant
    first block wastes no work on the many that die immediately, while
    survivors graduate to wider blocks.  Without early exits every round
    runs regardless, so the bucket is processed at its full width
    (capped by ``_LONG_CHUNK``).
    """
    width = 1 if adaptive else (cap or _LONG_CHUNK)
    while True:
        yield width
        width = min(width * 2, _LONG_CHUNK)


def round_major_probes(
    indices: np.ndarray, starts: np.ndarray, probes: np.ndarray
) -> np.ndarray:
    """Probed-neighbor stream in the reference loop's round-major order.

    Vertex ``i`` (in ``starts`` order) probed ``probes[i]`` neighbors,
    the ``r``-th being ``indices[starts[i] + r]``.  The reference loop
    emits all round-0 probes (vertices ascending), then all round-1
    probes, and so on — the order the warp-coalescing model sees.

    Dispatches to the compiled backend transparently when one is
    resolved: the native counting sort produces the identical stream
    (the ordering is fully determined), so no planner choice is needed.
    """
    total = int(probes.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    if native.available():
        return native.round_major_probes(indices, starts, probes)
    m = np.int64(probes.size)
    v_rep = np.repeat(np.arange(probes.size, dtype=np.int64), probes)
    r_idx = np.arange(total, dtype=np.int64) - np.repeat(
        exclusive_cumsum(probes), probes
    )
    # Sorting the combined key (round, vertex) in one stable pass is the
    # same ordering lexsort((v_rep, r_idx)) produces, at half the cost.
    max_key = (int(probes.max()) - 1) * int(m) + int(m) - 1
    if max_key < 2**31:
        order = np.argsort(
            (r_idx * m + v_rep).astype(np.int32), kind="stable"
        )
    elif max_key < 2**62:
        order = np.argsort(r_idx * m + v_rep, kind="stable")
    else:
        order = np.lexsort((v_rep, r_idx))
    return indices[starts[v_rep] + r_idx][order]


# ----------------------------------------------------------------------
# Bitwise OR-accumulating scan (the BSA engine's bottom-up)
# ----------------------------------------------------------------------
def _rows_match(words: np.ndarray, target_row: np.ndarray) -> np.ndarray:
    """Row-wise ``all(words == target_row, axis=1)`` as a lane loop.

    ``target_row`` is one ``(lanes,)`` word shared by every row, so each
    lane is a scalar compare; chained 2-D compares beat the generic
    reduce machinery on a 3-D view.
    """
    eq = words[:, 0] == target_row[0]
    for lane in range(1, words.shape[1]):
        eq &= words[:, lane] == target_row[lane]
    return eq


def bucketed_or_scan(
    indices: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    state: np.ndarray,
    lane_mask: np.ndarray,
    target: np.ndarray,
    early_termination: bool,
    bsa_k: np.ndarray,
    inspections_out: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Profiled entry point for :func:`_bucketed_or_scan_impl` (the
    docstring there is authoritative); emits one
    ``profile.kernels.bottomup_or_scan`` span per call when profiling
    is on, a single flag test when off.

    This is the numpy bitwise level's scan; the compiled level runs the
    same scan in C (:func:`repro.native.or_scan` is its per-op form).
    """
    with obs_profile.span(
        "kernels.bottomup_or_scan",
        positions=int(starts.size),
        early_termination=bool(early_termination),
    ):
        return _bucketed_or_scan_impl(
            indices, starts, ends, state, lane_mask, target,
            early_termination, bsa_k, inspections_out,
        )


def _bucketed_or_scan_impl(
    indices: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    state: np.ndarray,
    lane_mask: np.ndarray,
    target: np.ndarray,
    early_termination: bool,
    bsa_k: np.ndarray,
    inspections_out: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Per-vertex bottom-up OR scan with optional early termination.

    For frontier position ``i`` with in-neighbors ``nb_0..nb_{d-1}``,
    accumulate ``acc |= bsa_k[nb_r] & lane_mask`` round by round, where
    ``bsa_k`` is the level's ``(num_vertices, lanes)`` status-array
    snapshot, stopping (when ``early_termination``) at the first round
    after which ``state | acc`` equals the ``(lanes,)`` row ``target``
    (one word shared by every position).  Per-instance inspection
    tallies — one per (vertex, round, instance-with-unset-bit) triple —
    are added to ``inspections_out`` exactly as the synchronized
    reference loop counts them.

    With early termination the scan runs one geometric work-list
    (widths 1, 2, 4, ... rounds per pass): most vertices fill within a
    probe or two, so the dominant first pass is exactly one round wide,
    and because passes cover strictly increasing round ranges over one
    vertex-ordered list, the probed-neighbor stream can be *emitted* in
    round-major order as a by-product — no sort needed.  Without early
    termination every round executes regardless, so vertices are
    degree-bucketed into full-width passes instead and the stream is
    left to :func:`round_major_probes`.

    Returns ``(probes, acc, done, stream)``: rounds executed per
    position, the accumulated words, which positions reached the full
    target, and the round-major probed-neighbor stream (``None`` when
    not running in early-termination mode).
    """
    m = starts.size
    lanes = state.shape[1]
    group_size = inspections_out.size
    degrees = ends - starts
    probes = np.zeros(m, dtype=np.int64)
    acc = np.zeros_like(state)
    if early_termination:
        done = _rows_match(state, target)
    else:
        done = np.zeros(m, dtype=bool)
    work = np.flatnonzero(~done & (degrees > 0))

    # Which instances the lane mask tracks, as a 0/1 vector — pending
    # (masked-and-unset) tallies become "cells minus set bits" without
    # materializing the inverted words.
    mask_bits = np.unpackbits(
        np.ascontiguousarray(lane_mask, dtype=np.uint64).view(np.uint8),
        bitorder="little",
    )[:group_size].astype(np.int64)

    if early_termination:
        stream_parts = []
        positions = work
        # Compact running prefix (``state | acc``) per *live* position,
        # carried across passes.  Every live position has probed exactly
        # ``offset`` rounds, so retirement writes — probes, done, acc —
        # happen once per position instead of full-array fancy updates
        # every pass.
        pre = state[positions]
        offset = 0
        width = 1
        while positions.size:
            round_lists: list = [[] for _ in range(width)]
            surv_pos: list = []
            surv_pre: list = []
            for rows in _row_slices(positions.size, width, lanes):
                sp, spre = _et_pass(
                    positions[rows], pre[rows], offset, width,
                    probes, done, acc, round_lists,
                    indices, starts, degrees, lane_mask, mask_bits,
                    target, bsa_k, inspections_out, group_size,
                )
                surv_pos.append(sp)
                surv_pre.append(spre)
            for per_round in round_lists:
                stream_parts.extend(per_round)
            offset += width
            width = min(width * 2, _LONG_CHUNK)
            positions = np.concatenate(surv_pos) if surv_pos else positions[:0]
            pre = np.concatenate(surv_pre) if surv_pre else pre[:0]
        if stream_parts:
            stream = np.concatenate(stream_parts)
        else:
            stream = np.empty(0, dtype=indices.dtype)
        return probes, acc, done, stream

    args = (
        indices,
        starts,
        degrees,
        state,
        acc,
        lane_mask,
        mask_bits,
        bsa_k,
        inspections_out,
        group_size,
    )
    for positions, cap in _bucketize(work, degrees):
        offset = 0
        width = cap or _LONG_CHUNK
        while positions.size:
            for rows in _row_slices(positions.size, width, lanes):
                _or_pass(positions[rows], offset, width, probes, *args)
            offset += width
            positions = positions[degrees[positions] > offset]
    return probes, acc, done, None


def _et_pass(
    idx: np.ndarray,
    pre: np.ndarray,
    offset: int,
    width: int,
    probes: np.ndarray,
    done: np.ndarray,
    acc: np.ndarray,
    round_lists: list,
    indices: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    lane_mask: np.ndarray,
    mask_bits: np.ndarray,
    target: np.ndarray,
    bsa_k: np.ndarray,
    inspections_out: np.ndarray,
    group_size: int,
):
    """Early-termination rounds ``[offset, offset + width)`` for ``idx``.

    ``pre[i]`` is ``state | acc`` for position ``idx[i]`` — the compact
    work-list invariant.  Returns the surviving ``(positions, pre)``
    pair; retiring positions (filled or degree-exhausted) get their
    final ``probes``, ``done``, and ``acc`` values written here, once.
    ``acc`` receives the whole prefix word: the extra ``state`` bits are
    already present in ``state | acc`` and in the live status array, so
    no downstream comparison changes.
    """
    a = idx.size
    lanes = pre.shape[1]
    base = starts[idx] + offset

    if width == 1:
        # The dominant pass: one probe each, no padding, no accumulate.
        nb = indices[base]
        contrib = bsa_k[nb] & lane_mask
        # An instance's pending count over these rows is the rows whose
        # masked bit is unset: rows minus set bits, zeroed off-mask.
        np.add(
            inspections_out,
            mask_bits * (a - per_bit_counts(pre, group_size)),
            out=inspections_out,
        )
        round_lists[0].append(nb)
        new_pre = pre | contrib
        full = _rows_match(new_pre, target)
        survive = ~full & (degrees[idx] > offset + 1)
        retire = idx[~survive]
        probes[retire] = offset + 1
        done[idx[full]] = True
        acc[retire] = new_pre[~survive]
        return idx[survive], new_pre[survive]

    lim = np.minimum(degrees[idx] - offset, width)
    cols = np.arange(width, dtype=np.int64)
    # Padding slots re-probe the last valid neighbor.  That is harmless
    # without any zeroing: the OR-prefix ``after`` is monotone per row,
    # so a padded round can never be the *first* full one, and no padded
    # cell is ever read back — ``probes_c`` never exceeds ``lim``.
    slot = base[:, None] + np.minimum(cols[None, :], lim[:, None] - 1)
    nb = indices[slot]
    contrib = bsa_k[nb]
    contrib &= lane_mask

    # Seed round 0 with the running prefix and accumulate in place:
    # after[:, r] is then the word right after local round r, and the
    # word seen *before* round r is after[:, r - 1] (pre for r = 0).
    contrib[:, 0] |= pre
    after = np.bitwise_or.accumulate(contrib, axis=1, out=contrib)

    # Monotone prefix + padding re-OR: a row fills somewhere iff its
    # last column is full, so the per-row argmax runs only on the
    # (typically few) full rows.
    any_full = _rows_match(after[:, width - 1], target)
    first_full = np.zeros(a, dtype=np.int64)
    full_rows = np.flatnonzero(any_full)
    if full_rows.size:
        sub = after[full_rows]
        full_after = sub[:, :, 0] == target[0]
        for lane in range(1, lanes):
            full_after &= sub[:, :, lane] == target[lane]
        first_full[full_rows] = np.argmax(full_after, axis=1)
    probes_c = np.where(any_full, np.minimum(first_full + 1, lim), lim)

    # Per-round tally and stream emission without materializing the
    # "before" cube or a 3-D boolean gather: round r probes the rows
    # with probes_c > r, and their before-word is pre (r == 0) or
    # after[:, r - 1].
    col_counts = a - np.cumsum(np.bincount(probes_c, minlength=width + 1)[:width])
    set_counts = np.zeros(group_size, dtype=np.int64)
    total_cells = 0
    for r in range(width):
        c = int(col_counts[r])
        if c == 0:
            break
        src = pre if r == 0 else after[:, r - 1]
        if c == a:
            sel_words = src
            sel_nb = nb[:, r]
        else:
            live = probes_c > r
            sel_words = src[live]
            sel_nb = nb[live, r]
        set_counts += per_bit_counts(sel_words, group_size)
        total_cells += c
        round_lists[r].append(sel_nb)
    np.add(
        inspections_out,
        mask_bits * (total_cells - set_counts),
        out=inspections_out,
    )

    # Survivors (not full, neighbors left) keep scanning with the pass's
    # full accumulation as their new prefix; everyone else retires.
    survive = ~any_full & (degrees[idx] > offset + width)
    retire = ~survive
    ret_idx = idx[retire]
    probes[ret_idx] = offset + probes_c[retire]
    done[ret_idx] = any_full[retire] & (first_full[retire] < lim[retire])
    acc[ret_idx] = after[np.flatnonzero(retire), probes_c[retire] - 1]
    return idx[survive], after[np.flatnonzero(survive), width - 1]


def _or_pass(
    idx: np.ndarray,
    offset: int,
    width: int,
    probes: np.ndarray,
    indices: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    state: np.ndarray,
    acc: np.ndarray,
    lane_mask: np.ndarray,
    mask_bits: np.ndarray,
    bsa_k: np.ndarray,
    inspections_out: np.ndarray,
    group_size: int,
) -> None:
    """Full-scan rounds ``[offset, offset + width)`` (no early exit)."""
    a = idx.size
    base = starts[idx] + offset

    lim = np.minimum(degrees[idx] - offset, width)
    cols = np.arange(width, dtype=np.int64)
    # Padding slots re-probe the last valid neighbor; the per-round
    # tally below never reads a padded cell (``lim`` bounds it) and the
    # OR result is unchanged by re-ORing a word already folded in.
    slot = base[:, None] + np.minimum(cols[None, :], lim[:, None] - 1)
    nb = indices[slot]
    contrib = bsa_k[nb]
    contrib &= lane_mask

    prefix0 = state[idx]
    if offset:
        prefix0 = prefix0 | acc[idx]
    # Seed round 0 with the starting word and accumulate in place:
    # after[:, r] is then the word right after local round r, and the
    # word seen *before* round r is after[:, r - 1] (prefix0 for r = 0).
    contrib[:, 0] |= prefix0
    after = np.bitwise_or.accumulate(contrib, axis=1, out=contrib)

    probes[idx] += lim
    # ``after`` includes prefix0's bits on top of the probed ORs; those
    # bits are already present in ``state | acc`` (and in the live
    # array), so folding them into ``acc`` changes no downstream value.
    acc[idx] |= after[np.arange(a), lim - 1]

    # Per-round pending tally: round r probes the rows with lim > r,
    # whose before-word is prefix0 (r == 0) or after[:, r - 1].
    col_counts = a - np.cumsum(np.bincount(lim, minlength=width + 1)[:width])
    set_counts = np.zeros(group_size, dtype=np.int64)
    total_cells = 0
    for r in range(width):
        c = int(col_counts[r])
        if c == 0:
            break
        src = prefix0 if r == 0 else after[:, r - 1]
        if c == a:
            sel_words = src
        else:
            sel_words = src[lim > r]
        set_counts += per_bit_counts(sel_words, group_size)
        total_cells += c
    np.add(
        inspections_out,
        mask_bits * (total_cells - set_counts),
        out=inspections_out,
    )


# ----------------------------------------------------------------------
# First-hit scan (the JSA engine's and single-source bottom-up)
# ----------------------------------------------------------------------
def bucketed_hit_scan(
    indices: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    hit: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    depth_table: Optional[np.ndarray] = None,
    inst: Optional[np.ndarray] = None,
    level: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Profiled entry point for :func:`_bucketed_hit_scan_impl` (the
    docstring there is authoritative); emits one
    ``profile.kernels.bottomup_hit_scan`` span per call when profiling
    is on.

    The JSA and single-source engines' ``hit`` predicate is always the
    same depth-window test — neighbor visited at a level ``<= level``.
    Passing its raw form (``depth_table``, optional per-position row
    selector ``inst``, and ``level``) lets the compiled backend run the
    scan as one fused loop when it resolves; the ``hit`` callable
    remains the numpy fallback and the semantics of record.
    """
    with obs_profile.span(
        "kernels.bottomup_hit_scan",
        positions=int(starts.size),
    ):
        if (
            depth_table is not None
            and level is not None
            and native.effective()
        ):
            return native.hit_scan_depth(
                indices, starts, degrees, depth_table, level, inst=inst
            )
        return _bucketed_hit_scan_impl(indices, starts, degrees, hit)


def _bucketed_hit_scan_impl(
    indices: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    hit: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-position scan that stops at the first hit neighbor.

    ``hit(positions, neighbors)`` receives parallel arrays — the global
    scan positions and the neighbor each probes — and returns a boolean
    per pair; it must be pure (the depth array is not mutated until the
    whole scan finishes, mirroring the reference loops).

    Returns ``(probes, found)``: probes executed per position
    (``first_hit + 1`` or the full degree) and whether a hit occurred.
    """
    m = starts.size
    probes = np.zeros(m, dtype=np.int64)
    found = np.zeros(m, dtype=bool)
    work = np.flatnonzero(degrees > 0)
    if work.size == 0:
        return probes, found

    for positions, cap in _bucketize(work, degrees):
        offset = 0
        widths = _pass_widths(cap, True)
        while positions.size:
            width = next(widths)
            for rows in _row_slices(positions.size, width, 1):
                idx = positions[rows]
                a = idx.size
                lim = np.minimum(degrees[idx] - offset, width)
                cols = np.arange(width, dtype=np.int64)
                valid = cols[None, :] < lim[:, None]
                base = starts[idx] + offset
                slot = np.where(valid, base[:, None] + cols[None, :], base[:, None])
                hits = np.zeros((a, width), dtype=bool)
                pos_rep = np.broadcast_to(idx[:, None], (a, width))[valid]
                hits[valid] = hit(pos_rep, indices[slot[valid]])
                any_hit = hits.any(axis=1)
                first = np.argmax(hits, axis=1)
                probes[idx] += np.where(any_hit, first + 1, lim)
                found[idx] |= any_hit
            offset += width
            positions = positions[
                ~found[positions] & (degrees[positions] > offset)
            ]
    return probes, found
