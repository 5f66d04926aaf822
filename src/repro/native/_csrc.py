"""C source and build machinery for :mod:`repro.native`.

The C translation unit below holds one scalar inner loop per kernel,
the shape a compiler turns into tight machine code.  It is compiled
once per source revision with the host C compiler into a shared library
cached under ``~/.cache/repro-native`` (or ``REPRO_NATIVE_CACHE``) and
bound through :mod:`ctypes`; when there is no compiler or the compile
fails, :func:`load_library` raises
:class:`~repro.native.NativeUnavailable` naming the cause, and the
numpy kernels keep running.

Semantics are locked to the numpy kernel layer: every function is a
line-by-line restatement of the corresponding reformulation in
``repro/kernels`` (see the docstrings there), so simulated counters and
depth matrices stay bit-identical — the native equivalence suite holds
every op to the numpy kernels, and the kernels golden fixture pins the
counters of both.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from repro.native import NativeUnavailable

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Warp-coalesced transaction counting (gpusim/memory.py): thread i    */
/* accesses element idx[i]; consecutive ``warp`` threads form one      */
/* request, and accesses landing in the same ``txn_bytes`` segment     */
/* coalesce.  Counts = distinct segment lines per warp (identical to   */
/* the sort-based numpy formulation; indices are non-negative, so C    */
/* truncating division equals floor division).                         */
/*                                                                    */
/* The open warp's distinct lines live in a set whose lookup costs     */
/* O(1) however many lines the warp has seen, for any warp size:       */
/*   line_map  a bitmap over a bounded line range (streams of vertex   */
/*             ids), zero between warps: closing a warp clears the     */
/*             words holding its own list of new lines;                */
/*   line_set  an open-addressing table of >= 2*warp slots for         */
/*             unbounded streams; a slot is live only while its        */
/*             generation is the open warp's, so closing a warp is     */
/*             one increment.                                          */
/* ------------------------------------------------------------------ */

/* (idx * element_bytes) / txn_bytes is a per-element 64-bit division; */
/* when element_bytes divides txn_bytes into a power of two (8-byte    */
/* entries in 128-byte transactions — the only shapes the simulator    */
/* uses) the quotient is a shift of the non-negative index.  Returns   */
/* the shift, or -1 to keep the division.                              */
static inline int line_shift(int64_t element_bytes, int64_t txn_bytes) {
    if (element_bytes <= 0 || txn_bytes % element_bytes) return -1;
    int64_t d = txn_bytes / element_bytes;
    if (d & (d - 1)) return -1;
    return __builtin_ctzll((uint64_t)d);
}

static inline int64_t line_of(int64_t idx, int shift, int64_t element_bytes,
                              int64_t txn_bytes) {
    return shift >= 0 ? idx >> shift : (idx * element_bytes) / txn_bytes;
}

typedef struct {
    uint64_t *seen;  /* bit per line; set only for the open warp's lines */
    int64_t *fresh;  /* the open warp's distinct lines */
    int64_t nd;      /* distinct lines in the open warp */
    int64_t k;       /* threads consumed in the open warp */
    int64_t warp;
    int64_t txns;
    int64_t reqs;
} line_map;

static int map_open(line_map *a, int64_t lines, int64_t warp) {
    a->seen = calloc((size_t)(lines / 64 + 1), sizeof(uint64_t));
    a->fresh = malloc((size_t)warp * sizeof(int64_t));
    a->nd = a->k = a->txns = a->reqs = 0;
    a->warp = warp;
    if (a->seen && a->fresh) return 0;
    free(a->seen);
    free(a->fresh);
    return -1;
}

static inline void map_close_warp(line_map *a) {
    for (int64_t j = 0; j < a->nd; j++) a->seen[a->fresh[j] >> 6] = 0;
    a->txns += a->nd;
    a->reqs++;
    a->nd = 0;
    a->k = 0;
}

static inline void map_push(line_map *a, int64_t line) {
    if (a->k == a->warp) map_close_warp(a);
    a->k++;
    uint64_t *w = a->seen + (line >> 6);
    uint64_t bit = (uint64_t)1 << (line & 63);
    if (*w & bit) return;
    *w |= bit;
    a->fresh[a->nd++] = line;
}

/* Closes the stream: out = (transactions, requests); the map is ready */
/* for the next stream.                                                */
static void map_take(line_map *a, int64_t *out) {
    if (a->k) map_close_warp(a);
    out[0] = a->txns;
    out[1] = a->reqs;
    a->txns = a->reqs = 0;
}

static void map_free(line_map *a) {
    free(a->seen);
    free(a->fresh);
}

typedef struct {
    int64_t *keys;
    int64_t *gen;    /* keys[s] is live iff gen[s] == cur */
    int64_t cur;
    int64_t mask;
    int shift;
    int64_t nd, k, warp, txns, reqs;
} line_set;

/* Slot of a line: fold to 32 bits, multiply by the 32-bit golden      */
/* ratio constant, keep the top bits (tables past 2**32 slots use the  */
/* low 2**32; probing still reaches every slot).                       */
static inline int64_t set_slot(int64_t line, int shift) {
    uint64_t x = ((uint64_t)line ^ ((uint64_t)line >> 32)) & 0xFFFFFFFFu;
    return (int64_t)(((x * 0x61C88647u) & 0xFFFFFFFFu) >> shift);
}

static int set_open(line_set *a, int64_t warp) {
    int bits = 1;
    while (((int64_t)1 << bits) < 2 * warp) bits++;
    a->keys = malloc(sizeof(int64_t) << bits);
    a->gen = calloc((size_t)1 << bits, sizeof(int64_t));
    a->cur = 1;
    a->mask = ((int64_t)1 << bits) - 1;
    a->shift = bits < 32 ? 32 - bits : 0;
    a->nd = a->k = a->txns = a->reqs = 0;
    a->warp = warp;
    if (a->keys && a->gen) return 0;
    free(a->keys);
    free(a->gen);
    return -1;
}

static inline void set_push(line_set *a, int64_t line) {
    if (a->k == a->warp) {
        a->txns += a->nd;
        a->reqs++;
        a->nd = 0;
        a->k = 0;
        a->cur++;
    }
    a->k++;
    int64_t s = set_slot(line, a->shift);
    while (a->gen[s] == a->cur) {
        if (a->keys[s] == line) return;
        s = (s + 1) & a->mask;
    }
    a->gen[s] = a->cur;
    a->keys[s] = line;
    a->nd++;
}

/* ------------------------------------------------------------------ */
/* Fused top-down edge map, first walk: mark the unique targets of     */
/* the frontier's CSR rows and price the level's three access streams  */
/* into ``pricing`` as (transactions, requests) pairs — frontier words */
/* in frontier order, neighbor words in edge order (the                */
/* gather_neighbors stream), and the unique target stores, priced in   */
/* the ascending sweep that emits them (sorted without a comparison    */
/* sort).  ``flags`` must be all-zero on entry and is left all-zero,   */
/* so one zeroed buffer serves every call (the numpy layer caches one  */
/* per size).  Returns the target count, or -1 when scratch cannot be  */
/* allocated.                                                          */
/* ------------------------------------------------------------------ */
int64_t repro_unique_targets(const int64_t *offsets, const int64_t *cols,
                             const int64_t *frontier, int64_t rows,
                             int64_t n, uint8_t *flags, int64_t *out,
                             int64_t element_bytes, int64_t txn_bytes,
                             int64_t warp, int64_t *pricing) {
    int shift = line_shift(element_bytes, txn_bytes);
    line_map acc;
    if (map_open(&acc, line_of(n, shift, element_bytes, txn_bytes), warp))
        return -1;
    for (int64_t r = 0; r < rows; r++)
        map_push(&acc, line_of(frontier[r], shift, element_bytes, txn_bytes));
    map_take(&acc, pricing);
    int64_t lo = n, hi = -1;
    for (int64_t r = 0; r < rows; r++) {
        const int64_t *nb = cols + offsets[frontier[r]];
        const int64_t *end = cols + offsets[frontier[r] + 1];
        for (; nb < end; nb++) {
            int64_t t = *nb;
            flags[t] = 1;
            if (t < lo) lo = t;
            if (t > hi) hi = t;
            map_push(&acc, line_of(t, shift, element_bytes, txn_bytes));
        }
    }
    map_take(&acc, pricing + 2);
    int64_t count = 0;
    for (int64_t v = lo; v <= hi; v++) {
        if (flags[v]) {
            flags[v] = 0;
            out[count++] = v;
            map_push(&acc, line_of(v, shift, element_bytes, txn_bytes));
        }
    }
    map_take(&acc, pricing + 4);
    map_free(&acc);
    return count;
}

/* ------------------------------------------------------------------ */
/* Fused top-down edge map, second walk: out[v] |= words[r] for every  */
/* target v in frontier[r]'s CSR row.                                  */
/* ------------------------------------------------------------------ */
void repro_scatter_or(uint64_t *out, const int64_t *offsets,
                      const int64_t *cols, const int64_t *frontier,
                      int64_t rows, const uint64_t *words, int64_t lanes) {
    for (int64_t r = 0; r < rows; r++) {
        const int64_t *nb = cols + offsets[frontier[r]];
        const int64_t *end = cols + offsets[frontier[r] + 1];
        if (lanes == 1) {
            uint64_t w = words[r];
            for (; nb < end; nb++) out[*nb] |= w;
            continue;
        }
        const uint64_t *w = words + r * lanes;
        for (; nb < end; nb++) {
            uint64_t *dst = out + *nb * lanes;
            for (int64_t l = 0; l < lanes; l++) dst[l] |= w[l];
        }
    }
}

/* Per-instance pending tallies: for every tracked bit of ``mask``     */
/* unset in the before-word, the owning instance inspected this probe  */
/* (figure 11's balance attribution).  Incrementing one counter per    */
/* pending bit per probe is the scan's dominant cost on early levels   */
/* (most of 64 bits pending, every probe), so the hot loops bin the    */
/* pending *bytes* into 256-wide histograms — 8 increments per word    */
/* per probe regardless of popcount — and ``fold_pending`` expands     */
/* them into per-bit sums afterwards.  Integer sums are order-free,    */
/* so the result is bit-identical to the direct tally.                 */
/* The before-word changes only when a probe contributes new bits —    */
/* rare on scale-free graphs — so the scan batches runs of unchanged   */
/* ``pre`` and adds the run length once per histogram bin instead of   */
/* binning every probe.  Weighted sums are still order-free.           */
static inline void bin_pending_w(uint64_t pend, int64_t *hist,
                                 int64_t weight) {
    for (int bp = 0; bp < 8; bp++)
        hist[bp * 256 + (int)((pend >> (bp * 8)) & 0xFF)] += weight;
}

static void fold_pending(const int64_t *hist, int64_t lanes,
                         int64_t *insp) {
    for (int64_t l = 0; l < lanes; l++)
        for (int bp = 0; bp < 8; bp++) {
            const int64_t *h = hist + (l * 8 + bp) * 256;
            int64_t *dst = insp + l * 64 + bp * 8;
            for (int v = 1; v < 256; v++) {
                int64_t c = h[v];
                if (!c) continue;
                for (int b = 0; b < 8; b++)
                    if ((v >> b) & 1) dst[b] += c;
            }
        }
}

/* Fallback when the histogram buffer cannot be allocated. */
static inline void tally_pending_w(uint64_t pend, int64_t bit0,
                                   int64_t weight, int64_t *insp) {
    while (pend) {
        int b = __builtin_ctzll(pend);
        insp[bit0 + b] += weight;
        pend &= pend - 1;
    }
}

/* ------------------------------------------------------------------ */
/* Per-vertex bottom-up OR scan — the fused single-pass restatement of */
/* kernels/bottomup.bucketed_or_scan, with true per-vertex early       */
/* termination (break out of the neighbor loop on the first round      */
/* whose accumulated word reaches the target).                         */
/*                                                                    */
/* Outputs and tallies match the vectorized passes exactly:            */
/*   probes[i] = rounds executed; acc[i] = state|contributions at      */
/*   retirement; done[i] = reached the full target; inspections[b] +=  */
/*   one per (position, executed round) whose before-word has bit b    */
/*   unset (masked bits only).  Probes read rows of ``bsa_k``, the     */
/*   level's status-array snapshot.                                    */
/* ------------------------------------------------------------------ */
int64_t repro_or_scan(const int64_t *indices, const int64_t *starts,
                      const int64_t *ends, int64_t m,
                      const uint64_t *state, const uint64_t *lane_mask,
                      const uint64_t *target, int early_termination,
                      const uint64_t *bsa_k, int64_t lanes,
                      int64_t *probes, uint64_t *acc, uint8_t *done,
                      int64_t *inspections) {
    int64_t total = 0;
    int64_t *hist = calloc((size_t)(lanes * 8 * 256), sizeof(int64_t));
    if (lanes == 1) {
        uint64_t mask = lane_mask[0], tgt = target[0];
        for (int64_t i = 0; i < m; i++) {
            uint64_t pre = state[i];
            if (early_termination && pre == tgt) {
                done[i] = 1;
                continue;
            }
            int64_t deg = ends[i] - starts[i];
            if (deg == 0) continue;
            const int64_t *nb = indices + starts[i];
            /* ``pre`` (hence the pending word) only moves when a probe */
            /* contributes new bits, so rounds between changes share    */
            /* one weighted histogram update; the early-exit test also  */
            /* only needs to run on change (pre grows monotonically).   */
            uint64_t pend = mask & ~pre;
            int64_t runw = 0;
            int64_t r = 0;
            for (; r < deg; r++) {
                runw++;
                uint64_t np = pre | (bsa_k[nb[r]] & mask);
                if (np != pre) {
                    if (pend) {
                        if (hist) bin_pending_w(pend, hist, runw);
                        else tally_pending_w(pend, 0, runw, inspections);
                    }
                    runw = 0;
                    pre = np;
                    pend = mask & ~pre;
                    if (early_termination && pre == tgt) {
                        r++;
                        done[i] = 1;
                        break;
                    }
                }
            }
            if (runw && pend) {
                if (hist) bin_pending_w(pend, hist, runw);
                else tally_pending_w(pend, 0, runw, inspections);
            }
            probes[i] = r;
            total += r;
            acc[i] = pre;
        }
        if (hist) {
            fold_pending(hist, 1, inspections);
            free(hist);
        }
        return total;
    }
    uint64_t prebuf[64];
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *st = state + i * lanes;
        int full = 1;
        for (int64_t l = 0; l < lanes; l++) {
            prebuf[l] = st[l];
            if (st[l] != target[l]) full = 0;
        }
        if (early_termination && full) {
            done[i] = 1;
            continue;
        }
        int64_t deg = ends[i] - starts[i];
        if (deg == 0) continue;
        const int64_t *nb = indices + starts[i];
        /* Same run batching as the single-lane loop: pending words are */
        /* recomputed (and flushed with the run length) only on change. */
        uint64_t pendbuf[64];
        for (int64_t l = 0; l < lanes; l++)
            pendbuf[l] = lane_mask[l] & ~prebuf[l];
        int64_t runw = 0;
        int64_t r = 0;
        for (; r < deg; r++) {
            runw++;
            const uint64_t *w = bsa_k + nb[r] * lanes;
            int moved = 0;
            full = 1;
            for (int64_t l = 0; l < lanes; l++) {
                uint64_t np = prebuf[l] | (w[l] & lane_mask[l]);
                if (np != prebuf[l]) {
                    moved = 1;
                    prebuf[l] = np;
                }
                if (prebuf[l] != target[l]) full = 0;
            }
            if (moved) {
                for (int64_t l = 0; l < lanes; l++) {
                    if (!pendbuf[l]) continue;
                    if (hist) bin_pending_w(pendbuf[l], hist + l * 8 * 256,
                                            runw);
                    else tally_pending_w(pendbuf[l], l * 64, runw,
                                         inspections);
                    pendbuf[l] = lane_mask[l] & ~prebuf[l];
                }
                runw = 0;
                if (early_termination && full) {
                    r++;
                    done[i] = 1;
                    break;
                }
            }
        }
        if (runw) {
            for (int64_t l = 0; l < lanes; l++) {
                if (!pendbuf[l]) continue;
                if (hist) bin_pending_w(pendbuf[l], hist + l * 8 * 256,
                                        runw);
                else tally_pending_w(pendbuf[l], l * 64, runw, inspections);
            }
        }
        probes[i] = r;
        total += r;
        uint64_t *dst = acc + i * lanes;
        for (int64_t l = 0; l < lanes; l++) dst[l] = prebuf[l];
    }
    if (hist) {
        fold_pending(hist, lanes, inspections);
        free(hist);
    }
    return total;
}

/* ------------------------------------------------------------------ */
/* Round-major probed-neighbor stream: all round-0 probes in position  */
/* order, then round 1, ... — a counting sort over rounds, replacing   */
/* the stable argsort in kernels/bottomup.round_major_probes.          */
/* ``round_base`` must hold max_rounds zeroed slots.                   */
/* ------------------------------------------------------------------ */
void repro_round_major(const int64_t *indices, const int64_t *starts,
                       const int64_t *probes, int64_t m,
                       int64_t max_rounds, int64_t *round_base,
                       int64_t *out) {
    for (int64_t i = 0; i < m; i++)
        for (int64_t r = 0; r < probes[i]; r++) round_base[r]++;
    int64_t running = 0;
    for (int64_t r = 0; r < max_rounds; r++) {
        int64_t c = round_base[r];
        round_base[r] = running;
        running += c;
    }
    for (int64_t i = 0; i < m; i++) {
        const int64_t *nb = indices + starts[i];
        for (int64_t r = 0; r < probes[i]; r++)
            out[round_base[r]++] = nb[r];
    }
}

/* ------------------------------------------------------------------ */
/* Coalescing of an arbitrary access stream (MemoryModel's hot path):  */
/* indices are unbounded, so the open warp's lines go in the table.    */
/* Returns 0, or -1 when the table cannot be allocated.                */
/* ------------------------------------------------------------------ */
int repro_coalesce(const int64_t *idx, int64_t m, int64_t element_bytes,
                   int64_t txn_bytes, int64_t warp, int64_t *out) {
    int shift = line_shift(element_bytes, txn_bytes);
    line_set acc;
    if (set_open(&acc, warp)) return -1;
    for (int64_t i = 0; i < m; i++)
        set_push(&acc, line_of(idx[i], shift, element_bytes, txn_bytes));
    if (acc.k) {
        acc.txns += acc.nd;
        acc.reqs++;
    }
    out[0] = acc.txns;
    out[1] = acc.reqs;
    free(acc.keys);
    free(acc.gen);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Fused bottom-up probe pricing: the round-major probed-neighbor      */
/* stream (all round-0 probes in position order, then round 1, ...)    */
/* fed straight through a line map over the n vertices' lines, without */
/* materializing the stream.  The live list holds (cursor, remaining)  */
/* pairs, so a round touches only the positions still probing.         */
/* Identical to repro_round_major + repro_coalesce over its output.    */
/* Returns 0, or -1 when scratch cannot be allocated.                  */
/* ------------------------------------------------------------------ */
int repro_round_coalesce(const int64_t *indices, const int64_t *starts,
                         const int64_t *probes, int64_t m, int64_t n,
                         int64_t element_bytes, int64_t txn_bytes,
                         int64_t warp, int64_t *out) {
    int shift = line_shift(element_bytes, txn_bytes);
    line_map acc;
    if (map_open(&acc, line_of(n, shift, element_bytes, txn_bytes), warp))
        return -1;
    int64_t *live = malloc((size_t)(2 * m + 2) * sizeof(int64_t));
    if (!live) {
        map_free(&acc);
        return -1;
    }
    int64_t nlive = 0;
    for (int64_t i = 0; i < m; i++) {
        if (probes[i] > 0) {
            live[2 * nlive] = starts[i];
            live[2 * nlive + 1] = probes[i];
            nlive++;
        }
    }
    while (nlive) {
        int64_t w = 0;
        for (int64_t li = 0; li < nlive; li++) {
            int64_t cursor = live[2 * li], remaining = live[2 * li + 1];
            /* Later rounds read the rows sparsely: fetch ahead. */
            if (li + 16 < nlive)
                __builtin_prefetch(indices + live[2 * (li + 16)]);
            map_push(&acc, line_of(indices[cursor], shift, element_bytes,
                                   txn_bytes));
            if (remaining > 1) {
                live[2 * w] = cursor + 1;
                live[2 * w + 1] = remaining - 1;
                w++;
            }
        }
        nlive = w;
    }
    map_take(&acc, out);
    map_free(&acc);
    free(live);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Vertex-major depth write: for every set bit j of diff row i,        */
/* depths[rows[i], j] += add — the compiled form of the unpack /       */
/* multiply / fancy-add sequence in core/bitwise.py's depth            */
/* extraction.  elem_size selects the dtype rung of the narrow-depth   */
/* ladder; unsigned arithmetic stores the same two's-complement bytes  */
/* the numpy in-place add produces.                                    */
/* ------------------------------------------------------------------ */
void repro_depth_update(const int64_t *rows, const uint64_t *diff,
                        int64_t m, int64_t lanes, int64_t group_size,
                        void *depths, int64_t stride, int elem_size,
                        int64_t add) {
    for (int64_t i = 0; i < m; i++) {
        int64_t row = rows[i];
        for (int64_t l = 0; l < lanes; l++) {
            uint64_t w = diff[i * lanes + l];
            int64_t b0 = l * 64;
            while (w) {
                int b = __builtin_ctzll(w);
                int64_t j = b0 + b;
                if (j < group_size) {
                    if (elem_size == 1)
                        ((uint8_t *)depths)[row * stride + j] +=
                            (uint8_t)add;
                    else if (elem_size == 2)
                        ((uint16_t *)depths)[row * stride + j] +=
                            (uint16_t)add;
                    else
                        ((uint32_t *)depths)[row * stride + j] +=
                            (uint32_t)add;
                }
                w &= w - 1;
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Tiled widening transpose: dst[g*n + v] = (int32)src[v*gs + g] for   */
/* the final (vertices, group) -> (group, vertices) depth              */
/* materialization.  elem_size selects the narrow-dtype rung; values   */
/* are signed (UNVISITED = -1), so the casts sign-extend.              */
/* ------------------------------------------------------------------ */
void repro_transpose_i32(const void *src, int64_t n, int64_t gs,
                         int elem_size, int32_t *dst) {
    const int64_t block = 64;
    for (int64_t v0 = 0; v0 < n; v0 += block) {
        int64_t v1 = v0 + block < n ? v0 + block : n;
        for (int64_t g = 0; g < gs; g++) {
            int32_t *out = dst + g * n;
            if (elem_size == 1) {
                const int8_t *in = (const int8_t *)src;
                for (int64_t v = v0; v < v1; v++)
                    out[v] = (int32_t)in[v * gs + g];
            } else if (elem_size == 2) {
                const int16_t *in = (const int16_t *)src;
                for (int64_t v = v0; v < v1; v++)
                    out[v] = (int32_t)in[v * gs + g];
            } else {
                const int32_t *in = (const int32_t *)src;
                for (int64_t v = v0; v < v1; v++)
                    out[v] = in[v * gs + g];
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* First-hit scan over an int32 depth table: probe in-neighbors until  */
/* one has 0 <= depth <= level (a visited parent from an earlier       */
/* level).  inst == NULL reads the table as a single row.              */
/* ------------------------------------------------------------------ */
int64_t repro_hit_scan_depth(const int64_t *indices, const int64_t *starts,
                             const int64_t *degrees, int64_t m,
                             const int32_t *depths, int64_t row_stride,
                             const int64_t *inst, int64_t level,
                             int64_t *probes, uint8_t *found) {
    int64_t total = 0;
    for (int64_t i = 0; i < m; i++) {
        const int32_t *row =
            depths + (inst ? inst[i] * row_stride : 0);
        const int64_t *nb = indices + starts[i];
        int64_t deg = degrees[i];
        int64_t r = 0;
        for (; r < deg; r++) {
            int32_t d = row[nb[r]];
            if (d >= 0 && d <= level) {
                r++;
                found[i] = 1;
                break;
            }
        }
        probes[i] = r;
        total += r;
    }
    return total;
}

/* ------------------------------------------------------------------ */
/* Packed-bit column sums: out[j] += number of rows with bit j set.    */
/* Byte-histogram formulation (one 256-bin histogram per byte          */
/* position), the same transformation kernels/bookkeeping uses.        */
/* ``hist`` must hold lanes*8*256 zeroed int64 slots.                  */
/* ------------------------------------------------------------------ */
void repro_per_bit_counts(const uint64_t *words, int64_t rows,
                          int64_t lanes, int64_t *hist, int64_t *out) {
    const uint8_t *bytes = (const uint8_t *)words;
    int64_t width = lanes * 8;
    for (int64_t i = 0; i < rows; i++) {
        const uint8_t *row = bytes + i * width;
        for (int64_t j = 0; j < width; j++) hist[j * 256 + row[j]]++;
    }
    for (int64_t j = 0; j < width; j++) {
        const int64_t *h = hist + j * 256;
        for (int b = 0; b < 8; b++) {
            int64_t acc = 0;
            for (int v = 0; v < 256; v++)
                if ((v >> b) & 1) acc += h[v];
            out[j * 8 + b] += acc;
        }
    }
}

/* Weighted variant: out[j] += sum of weights over rows with bit j     */
/* set.  Integer accumulation matches the numpy float64 path exactly   */
/* for any weight total below 2**53 (degree sums always are).          */
void repro_per_bit_weighted(const uint64_t *words, const int64_t *weights,
                            int64_t rows, int64_t lanes, int64_t *hist,
                            int64_t *out) {
    const uint8_t *bytes = (const uint8_t *)words;
    int64_t width = lanes * 8;
    for (int64_t i = 0; i < rows; i++) {
        const uint8_t *row = bytes + i * width;
        int64_t w = weights[i];
        for (int64_t j = 0; j < width; j++) hist[j * 256 + row[j]] += w;
    }
    for (int64_t j = 0; j < width; j++) {
        const int64_t *h = hist + j * 256;
        for (int b = 0; b < 8; b++) {
            int64_t acc = 0;
            for (int v = 0; v < 256; v++)
                if ((v >> b) & 1) acc += h[v];
            out[j * 8 + b] += acc;
        }
    }
}
"""

#: Bump when the C ABI changes so stale cached libraries are rebuilt.
_ABI_VERSION = 4


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-native"


def _source_tag() -> str:
    digest = hashlib.sha256(
        f"{_ABI_VERSION}:{C_SOURCE}".encode()
    ).hexdigest()
    return digest[:16]


def _compiler() -> Optional[str]:
    for cc in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if not cc:
            continue
        try:
            subprocess.run(
                [cc, "--version"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                check=True,
            )
            return cc
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


def build_library() -> Path:
    """Compile (or reuse) the cached shared library.

    Raises :class:`~repro.native.NativeUnavailable` naming the cause
    when there is no C compiler, the compile fails, or the cache
    directory cannot be written.
    """
    cache = _cache_dir()
    lib_path = cache / f"repro_native_{_source_tag()}.so"
    if lib_path.exists():
        return lib_path
    cc = _compiler()
    if cc is None:
        raise NativeUnavailable("no C compiler found ($CC, cc, gcc, clang)")
    try:
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=str(cache)) as tmp:
            src = Path(tmp) / "repro_native.c"
            src.write_text(C_SOURCE)
            tmp_lib = Path(tmp) / lib_path.name
            base_cmd = [cc, "-O3", "-shared", "-fPIC", "-std=c99"]
            for extra in (["-march=native"], []):
                cmd = base_cmd + extra + ["-o", str(tmp_lib), str(src)]
                proc = subprocess.run(
                    cmd,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                )
                if proc.returncode == 0:
                    break
            else:
                errors = [
                    line
                    for line in proc.stderr.decode(errors="replace").splitlines()
                    if "error" in line
                ]
                raise NativeUnavailable(
                    f"{cc} failed to compile the kernels"
                    + (f": {errors[0]}" if errors else "")
                )
            # Atomic publish: another process may be building concurrently.
            os.replace(tmp_lib, lib_path)
    except OSError as exc:
        raise NativeUnavailable(f"cannot build in {cache}: {exc}") from exc
    return lib_path


def load_library() -> ctypes.CDLL:
    """Build if needed, load, and declare prototypes.

    Raises :class:`~repro.native.NativeUnavailable` when the library
    cannot be built or loaded.
    """
    lib_path = build_library()
    try:
        lib = ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise NativeUnavailable(f"cannot load {lib_path}: {exc}") from exc
    i64 = ctypes.c_int64
    p = ctypes.c_void_p
    lib.repro_unique_targets.restype = i64
    lib.repro_unique_targets.argtypes = [
        p, p, p, i64, i64, p, p, i64, i64, i64, p,
    ]
    lib.repro_scatter_or.restype = None
    lib.repro_scatter_or.argtypes = [p, p, p, p, i64, p, i64]
    lib.repro_or_scan.restype = i64
    lib.repro_or_scan.argtypes = [
        p, p, p, i64, p, p, p, ctypes.c_int, p, i64, p, p, p, p,
    ]
    lib.repro_round_major.restype = None
    lib.repro_round_major.argtypes = [p, p, p, i64, i64, p, p]
    lib.repro_coalesce.restype = ctypes.c_int
    lib.repro_coalesce.argtypes = [p, i64, i64, i64, i64, p]
    lib.repro_round_coalesce.restype = ctypes.c_int
    lib.repro_round_coalesce.argtypes = [p, p, p, i64, i64, i64, i64, i64, p]
    lib.repro_depth_update.restype = None
    lib.repro_depth_update.argtypes = [
        p, p, i64, i64, i64, p, i64, ctypes.c_int, i64,
    ]
    lib.repro_transpose_i32.restype = None
    lib.repro_transpose_i32.argtypes = [p, i64, i64, ctypes.c_int, p]
    lib.repro_hit_scan_depth.restype = i64
    lib.repro_hit_scan_depth.argtypes = [p, p, p, i64, p, i64, p, i64, p, p]
    lib.repro_per_bit_counts.restype = None
    lib.repro_per_bit_counts.argtypes = [p, i64, i64, p, p]
    lib.repro_per_bit_weighted.restype = None
    lib.repro_per_bit_weighted.argtypes = [p, p, i64, i64, p, p]
    return lib
