"""Scalar-loop kernels in the Numba ``nopython`` subset.

These functions are the compiled backend's *source of truth* in Python
form: :mod:`repro.native._numba` wraps every one of them in
``numba.njit(cache=True)`` when Numba is importable, and the
``python`` provider runs them as-is — slow, but exercising exactly the
loop structure the JIT compiles, which makes them the testable oracle
for both compiled providers (the C translation unit in
:mod:`repro.native._csrc` restates the same loops in C).

Constraints imposed by nopython mode, kept deliberately:

* signatures take arrays and ints only — optional inputs arrive as a
  mode flag plus a (possibly empty) sentinel array, never ``None``;
* status words are always 2-D ``(rows, lanes)`` uint64 — single-lane
  callers pass ``(rows, 1)`` views (same memory, no copies);
* bit iteration is a shift loop (no ``ctz`` intrinsic in the subset);
* outputs are caller-allocated and written in place, so the three
  providers share one allocation layer.

Semantics mirror the numpy kernel layer bit-for-bit; the authoritative
docstrings live in :mod:`repro.kernels.scatter`,
:mod:`repro.kernels.bottomup`, and :mod:`repro.kernels.bookkeeping`.
"""

from __future__ import annotations

import numpy as np

name = "python"

_ONE = np.uint64(1)
_ZERO = np.uint64(0)


def unique_targets(
    offsets, cols, frontier, flags, out, element_bytes, txn_bytes, warp,
    pricing,
):
    """First walk of the fused top-down edge map; returns the count.

    Writes the sorted unique targets of the ``frontier`` rows of the
    CSR ``(offsets, cols)`` into ``out`` and prices the level's three
    access streams into ``pricing`` rows as ``(transactions, requests)``
    — 0: frontier words in frontier order, 1: neighbor words in edge
    order (the ``gather_neighbors`` stream), 2: the unique target
    stores, in the ascending order the flag sweep emits them.  Each
    stream is counted exactly as :func:`coalesce` counts it, with the
    open warp's distinct lines held in a bitmap over the ``n`` vertices'
    lines, cleared from the warp's own list of new lines.

    ``flags`` (uint8, one slot per vertex) must be all-zero on entry;
    every flag set here is cleared before returning so the caller can
    cache one zeroed buffer across calls.
    """
    n = flags.shape[0]
    seen = np.zeros((n * element_bytes) // txn_bytes // 64 + 1, dtype=np.uint64)
    fresh = np.empty(warp, dtype=np.int64)
    nd = 0
    k = 0
    txns = 0
    reqs = 0
    lo = n
    hi = -1
    for r in range(frontier.shape[0]):
        f = frontier[r]
        for e in range(offsets[f], offsets[f + 1]):
            t = cols[e]
            flags[t] = 1
            lo = min(lo, t)
            hi = max(hi, t)
            line = (t * element_bytes) // txn_bytes
            if k == warp:
                for j in range(nd):
                    seen[fresh[j] >> 6] = _ZERO
                txns += nd
                reqs += 1
                nd = 0
                k = 0
            k += 1
            bit = _ONE << np.uint64(line & 63)
            if seen[line >> 6] & bit == _ZERO:
                seen[line >> 6] |= bit
                fresh[nd] = line
                nd += 1
    if k > 0:
        for j in range(nd):
            seen[fresh[j] >> 6] = _ZERO
        txns += nd
        reqs += 1
    pricing[1, 0] = txns
    pricing[1, 1] = reqs
    count = 0
    for v in range(lo, hi + 1):
        if flags[v] != 0:
            flags[v] = 0
            out[count] = v
            count += 1
    for s in range(2):
        stream = frontier if s == 0 else out[:count]
        nd = 0
        k = 0
        txns = 0
        reqs = 0
        for i in range(stream.shape[0]):
            line = (stream[i] * element_bytes) // txn_bytes
            if k == warp:
                for j in range(nd):
                    seen[fresh[j] >> 6] = _ZERO
                txns += nd
                reqs += 1
                nd = 0
                k = 0
            k += 1
            bit = _ONE << np.uint64(line & 63)
            if seen[line >> 6] & bit == _ZERO:
                seen[line >> 6] |= bit
                fresh[nd] = line
                nd += 1
        if k > 0:
            for j in range(nd):
                seen[fresh[j] >> 6] = _ZERO
            txns += nd
            reqs += 1
        pricing[2 * s, 0] = txns
        pricing[2 * s, 1] = reqs
    return count


def scatter_or(out, offsets, cols, frontier, words):
    """Second walk of the fused top-down edge map.

    ``out[v] |= words[r]`` over uint64 rows for every target ``v`` in
    ``frontier[r]``'s row of the CSR ``(offsets, cols)`` — the edge map
    without a materialized neighbor or ``np.repeat`` index array.
    """
    lanes = out.shape[1]
    for r in range(frontier.shape[0]):
        f = frontier[r]
        for e in range(offsets[f], offsets[f + 1]):
            t = cols[e]
            for lane in range(lanes):
                out[t, lane] |= words[r, lane]


def or_scan(
    indices,
    starts,
    ends,
    state,
    lane_mask,
    target,
    early_termination,
    bsa_k,
    probes,
    acc,
    done,
    inspections,
):
    """Per-position bottom-up OR scan with true per-vertex early exit.

    The fused restatement of the vectorized passes in
    :func:`repro.kernels.bottomup.bucketed_or_scan`: position ``i``
    accumulates ``pre |= bsa_k[nb_r] & lane_mask`` neighbor by
    neighbor (``bsa_k`` is the level's status-array snapshot), retiring
    on the first round whose prefix reaches ``target`` (when
    ``early_termination``) or after its whole list.

    Outputs match the numpy passes exactly: ``probes[i]`` rounds
    executed, ``acc[i]`` the full prefix at retirement (zeros for
    skipped positions), ``done[i]`` whether the target was reached, and
    ``inspections[b] += 1`` per (position, executed round) whose
    before-word has tracked bit ``b`` unset.  ``inspections`` must span
    the full ``lanes * 64`` bit width.  Returns total probes.
    """
    m = starts.shape[0]
    lanes = state.shape[1]
    pre = np.empty(lanes, dtype=np.uint64)
    total = 0
    for i in range(m):
        full = True
        for lane in range(lanes):
            pre[lane] = state[i, lane]
            if pre[lane] != target[lane]:
                full = False
        if early_termination != 0 and full:
            done[i] = True
            continue
        deg = ends[i] - starts[i]
        if deg == 0:
            continue
        s = starts[i]
        r = 0
        while r < deg:
            for lane in range(lanes):
                pend = lane_mask[lane] & ~pre[lane]
                b = lane * 64
                while pend != _ZERO:
                    if pend & _ONE != _ZERO:
                        inspections[b] += 1
                    pend >>= _ONE
                    b += 1
            v = indices[s + r]
            full = True
            for lane in range(lanes):
                pre[lane] |= bsa_k[v, lane] & lane_mask[lane]
                if pre[lane] != target[lane]:
                    full = False
            r += 1
            if early_termination != 0 and full:
                done[i] = True
                break
        probes[i] = r
        total += r
        for lane in range(lanes):
            acc[i, lane] = pre[lane]
    return total


def coalesce(indices, element_bytes, txn_bytes, warp, out):
    """Warp-coalesced transaction counting over an access stream.

    Thread ``i`` accesses element ``indices[i]``; consecutive ``warp``
    threads form one request, and accesses landing in the same
    ``txn_bytes`` segment coalesce into one transaction.  Writes
    ``out[0] = transactions``, ``out[1] = requests`` — identical to the
    sort-based counting in
    :meth:`repro.gpusim.memory.MemoryModel.coalesced_transactions`
    (indices are non-negative array offsets, so integer division
    matches numpy's floor division).

    Indices are unbounded, so the open warp's distinct lines go in an
    open-addressing table of at least ``2 * warp`` slots: slot ``s``
    holds ``keys[s]`` while ``gen[s]`` is the open warp's number, so a
    lookup costs O(1) for any warp size and closing a warp is one
    increment.  A line's first slot folds it to 32 bits, multiplies by
    the 32-bit golden-ratio constant and keeps the top ``bits`` bits.
    """
    bits = 1
    while (1 << bits) < 2 * warp:
        bits += 1
    mask = (1 << bits) - 1
    shift = 32 - bits if bits < 32 else 0
    keys = np.empty(mask + 1, dtype=np.int64)
    gen = np.zeros(mask + 1, dtype=np.int64)
    cur = 1
    nd = 0
    k = 0
    txns = 0
    reqs = 0
    for i in range(indices.shape[0]):
        line = (indices[i] * element_bytes) // txn_bytes
        if k == warp:
            txns += nd
            reqs += 1
            nd = 0
            k = 0
            cur += 1
        k += 1
        x = (line ^ (line >> 32)) & 0xFFFFFFFF
        s = ((x * 0x61C88647) & 0xFFFFFFFF) >> shift
        seen = False
        while gen[s] == cur:
            if keys[s] == line:
                seen = True
                break
            s = (s + 1) & mask
        if not seen:
            gen[s] = cur
            keys[s] = line
            nd += 1
    if k > 0:
        txns += nd
        reqs += 1
    out[0] = txns
    out[1] = reqs


def round_coalesce(
    indices, starts, probes, num_vertices, element_bytes, txn_bytes, warp,
    out,
):
    """Fused bottom-up probe pricing without the materialized stream.

    Walks the round-major probed-neighbor stream — all round-0 probes
    in position order, then round 1, ... — feeding each address through
    the same warp-coalescing count as :func:`coalesce`.  Probes are
    vertex ids below ``num_vertices``, so the open warp's distinct
    lines are bits of a map over those vertices' lines, cleared from
    the warp's own list of new lines.  The live list carries
    ``(cursor, remaining)`` pairs, so each round touches only the
    positions still probing.  Identical to :func:`round_major`
    followed by :func:`coalesce` on its output.
    """
    m = probes.shape[0]
    seen = np.zeros(
        (num_vertices * element_bytes) // txn_bytes // 64 + 1, dtype=np.uint64
    )
    fresh = np.empty(warp, dtype=np.int64)
    live = np.empty((m, 2), dtype=np.int64)
    nlive = 0
    for i in range(m):
        if probes[i] > 0:
            live[nlive, 0] = starts[i]
            live[nlive, 1] = probes[i]
            nlive += 1
    nd = 0
    k = 0
    txns = 0
    reqs = 0
    while nlive > 0:
        w = 0
        for li in range(nlive):
            cursor = live[li, 0]
            remaining = live[li, 1]
            line = (indices[cursor] * element_bytes) // txn_bytes
            if k == warp:
                for j in range(nd):
                    seen[fresh[j] >> 6] = _ZERO
                txns += nd
                reqs += 1
                nd = 0
                k = 0
            k += 1
            bit = _ONE << np.uint64(line & 63)
            if seen[line >> 6] & bit == _ZERO:
                seen[line >> 6] |= bit
                fresh[nd] = line
                nd += 1
            if remaining > 1:
                live[w, 0] = cursor + 1
                live[w, 1] = remaining - 1
                w += 1
        nlive = w
    if k > 0:
        txns += nd
        reqs += 1
    out[0] = txns
    out[1] = reqs


def depth_update(rows, diff, group_size, depths, add):
    """``depths[rows[i], j] += add`` for every set bit ``j`` of row i.

    The compiled form of the unpack / multiply / fancy-add depth
    extraction in ``core/bitwise.py``: newly set bits still hold the
    UNVISITED sentinel, so adding ``level + 2`` rewrites them to
    ``level + 1``.  ``depths`` keeps whatever rung of the narrow-dtype
    ladder the caller is on.
    """
    m = rows.shape[0]
    lanes = diff.shape[1]
    for i in range(m):
        row = rows[i]
        for lane in range(lanes):
            w = diff[i, lane]
            b = lane * 64
            while w != _ZERO:
                if w & _ONE != _ZERO and b < group_size:
                    depths[row, b] += add
                w >>= _ONE
                b += 1


def transpose_i32(src, dst):
    """``dst[g, v] = int32(src[v, g])`` — widening depth transpose.

    Tiled over vertex blocks so the strided reads stay cache-resident;
    the narrow signed dtypes sign-extend exactly (UNVISITED = -1).
    """
    n = src.shape[0]
    gs = src.shape[1]
    block = 64
    for v0 in range(0, n, block):
        v1 = min(v0 + block, n)
        for g in range(gs):
            for v in range(v0, v1):
                dst[g, v] = src[v, g]


def round_major(indices, starts, probes, round_base, out):
    """Round-major probed-neighbor stream via counting sort.

    Emits all round-0 probes in position order, then round 1, ... —
    the exact order :func:`repro.kernels.bottomup.round_major_probes`
    reconstructs with a stable argsort.  ``round_base`` must hold
    ``max(probes)`` zeroed int64 slots; ``out`` holds ``probes.sum()``.
    """
    m = probes.shape[0]
    for i in range(m):
        for r in range(probes[i]):
            round_base[r] += 1
    running = 0
    for r in range(round_base.shape[0]):
        c = round_base[r]
        round_base[r] = running
        running += c
    for i in range(m):
        s = starts[i]
        for r in range(probes[i]):
            out[round_base[r]] = indices[s + r]
            round_base[r] += 1


def hit_scan_depth(
    indices, starts, degrees, depths, inst, use_inst, level, probes, found
):
    """First-hit scan over an int32 depth table.

    Position ``i`` probes its neighbor list in order until one has
    ``0 <= depth <= level`` (a parent visited at an earlier level) —
    the depth-table specialization of
    :func:`repro.kernels.bottomup.bucketed_hit_scan`'s ``hit``
    callable.  ``use_inst == 0`` reads ``depths`` row 0 (single-source
    1-D tables arrive as ``(1, n)`` views); otherwise position ``i``
    reads row ``inst[i]``.  Returns total probes.
    """
    total = 0
    for i in range(starts.shape[0]):
        row = inst[i] if use_inst != 0 else 0
        s = starts[i]
        deg = degrees[i]
        r = 0
        while r < deg:
            d = depths[row, indices[s + r]]
            r += 1
            if d >= 0 and d <= level:
                found[i] = True
                break
        probes[i] = r
        total += r
    return total


def per_bit_counts(words, out):
    """``out[b] +=`` number of rows with bit ``b`` set (full bit width).

    A plain shift loop per word: bit-count sums are order-free, so any
    accumulation order is bit-identical to the byte-histogram
    formulation in :func:`repro.kernels.bookkeeping.per_bit_counts`.
    """
    rows = words.shape[0]
    lanes = words.shape[1]
    for i in range(rows):
        for lane in range(lanes):
            w = words[i, lane]
            b = lane * 64
            while w != _ZERO:
                if w & _ONE != _ZERO:
                    out[b] += 1
                w >>= _ONE
                b += 1


def per_bit_weighted(words, weights, out):
    """``out[b] +=`` sum of ``weights`` over rows with bit ``b`` set.

    Integer accumulation; identical to the numpy float64 path for any
    weight total below 2**53 (degree sums always are).
    """
    rows = words.shape[0]
    lanes = words.shape[1]
    for i in range(rows):
        wt = weights[i]
        for lane in range(lanes):
            w = words[i, lane]
            b = lane * 64
            while w != _ZERO:
                if w & _ONE != _ZERO:
                    out[b] += wt
                w >>= _ONE
                b += 1
