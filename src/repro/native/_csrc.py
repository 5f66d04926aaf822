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
    int shift;       /* line_shift of the stream's element shape */
    int64_t element_bytes, txn_bytes;
} line_map;

/* ``seen`` must be all-zero (it is again after every map_take) and     */
/* hold a bit per line; ``fresh`` must hold ``warp`` slots.             */
static void map_init(line_map *a, uint64_t *seen, int64_t *fresh,
                     int64_t warp, int64_t element_bytes, int64_t txn_bytes) {
    a->seen = seen;
    a->fresh = fresh;
    a->nd = a->k = a->txns = a->reqs = 0;
    a->warp = warp;
    a->shift = line_shift(element_bytes, txn_bytes);
    a->element_bytes = element_bytes;
    a->txn_bytes = txn_bytes;
}

/* Allocating form for the per-op exports: a map over the lines of     */
/* ``n`` elements.                                                     */
static int map_open(line_map *a, int64_t n, int64_t warp,
                    int64_t element_bytes, int64_t txn_bytes) {
    int64_t lines = line_of(n, line_shift(element_bytes, txn_bytes),
                            element_bytes, txn_bytes);
    map_init(a, calloc((size_t)(lines / 64 + 1), sizeof(uint64_t)),
             malloc((size_t)warp * sizeof(int64_t)), warp, element_bytes,
             txn_bytes);
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

/* Element ``idx`` of the stream. */
static inline void map_push(line_map *a, int64_t idx) {
    int64_t line = line_of(idx, a->shift, a->element_bytes, a->txn_bytes);
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

/* Prices a whole stream of element ids: out = (transactions, requests). */
static void map_stream(line_map *a, const int64_t *ids, int64_t m,
                       int64_t *out) {
    for (int64_t i = 0; i < m; i++) map_push(a, ids[i]);
    map_take(a, out);
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

static inline int64_t ceil_div(int64_t a, int64_t b) {
    return (a + b - 1) / b;
}

/* Transactions to load ``entries`` 8-byte entries, ``per_line`` to a  */
/* transaction.  A transaction narrower than one entry has per_line 0, */
/* which the numpy path's integer floor division prices at 0.          */
static inline int64_t entry_lines(int64_t entries, int64_t per_line) {
    return per_line ? ceil_div(entries, per_line) : 0;
}

/* ------------------------------------------------------------------ */
/* The top-down edge map's walk over the frontier's CSR rows in edge   */
/* order (the gather_neighbors stream).  With ``out`` it scatter-ORs:  */
/* out[t] |= words[r] for every target t of frontier[r]; with ``acc``  */
/* it also marks flags[t], tracks the targets' range in [*lo, *hi] and */
/* prices the neighbor stream.                                         */
/* ------------------------------------------------------------------ */
static void edge_walk(const int64_t *offsets, const int64_t *cols,
                      const int64_t *frontier, int64_t rows,
                      uint64_t *out, const uint64_t *words, int64_t lanes,
                      line_map *acc, uint8_t *flags, int64_t *lo,
                      int64_t *hi) {
    int64_t low = 0, high = 0;
    if (acc) {
        low = *lo;
        high = *hi;
    }
    for (int64_t r = 0; r < rows; r++) {
        const int64_t *nb = cols + offsets[frontier[r]];
        const int64_t *end = cols + offsets[frontier[r] + 1];
        const uint64_t *w = out ? words + r * lanes : NULL;
        for (; nb < end; nb++) {
            int64_t t = *nb;
            if (out) {
                if (lanes == 1) {
                    out[t] |= w[0];
                } else {
                    uint64_t *dst = out + t * lanes;
                    for (int64_t l = 0; l < lanes; l++) dst[l] |= w[l];
                }
            }
            if (acc) {
                flags[t] = 1;
                if (t < low) low = t;
                if (t > high) high = t;
                map_push(acc, t);
            }
        }
    }
    if (acc) {
        *lo = low;
        *hi = high;
    }
}

/* ------------------------------------------------------------------ */
/* Fused top-down edge map: mark the unique targets of the frontier's  */
/* CSR rows (scatter-ORing ``words`` into ``status`` on the same walk  */
/* when it is given) and price the level's three access streams into   */
/* ``pricing`` as (transactions, requests) pairs — frontier words in   */
/* frontier order, neighbor words in edge order, and the unique target */
/* stores, priced in the ascending sweep that emits them (sorted       */
/* without a comparison sort).  ``flags`` must be all-zero on entry    */
/* and is left all-zero, so one zeroed buffer serves every call.       */
/* Returns the target count.                                           */
/* ------------------------------------------------------------------ */
static int64_t unique_targets_walk(const int64_t *offsets,
                                   const int64_t *cols,
                                   const int64_t *frontier, int64_t rows,
                                   int64_t n, uint8_t *flags, int64_t *out,
                                   line_map *acc, int64_t *pricing,
                                   uint64_t *status, const uint64_t *words,
                                   int64_t lanes) {
    map_stream(acc, frontier, rows, pricing);
    int64_t lo = n, hi = -1;
    edge_walk(offsets, cols, frontier, rows, status, words, lanes, acc,
              flags, &lo, &hi);
    map_take(acc, pricing + 2);
    int64_t count = 0;
    for (int64_t v = lo; v <= hi; v++) {
        if (flags[v]) {
            flags[v] = 0;
            out[count++] = v;
            map_push(acc, v);
        }
    }
    map_take(acc, pricing + 4);
    return count;
}

/* Returns the target count, or -1 when scratch cannot be allocated.   */
int64_t repro_unique_targets(const int64_t *offsets, const int64_t *cols,
                             const int64_t *frontier, int64_t rows,
                             int64_t n, uint8_t *flags, int64_t *out,
                             int64_t element_bytes, int64_t txn_bytes,
                             int64_t warp, int64_t *pricing) {
    line_map acc;
    if (map_open(&acc, n, warp, element_bytes, txn_bytes)) return -1;
    int64_t count = unique_targets_walk(offsets, cols, frontier, rows, n,
                                        flags, out, &acc, pricing, NULL,
                                        NULL, 1);
    map_free(&acc);
    return count;
}

/* Scatter-OR alone: out[v] |= words[r] for every target v in          */
/* frontier[r]'s CSR row.                                              */
void repro_scatter_or(uint64_t *out, const int64_t *offsets,
                      const int64_t *cols, const int64_t *frontier,
                      int64_t rows, const uint64_t *words, int64_t lanes) {
    edge_walk(offsets, cols, frontier, rows, out, words, lanes, NULL, NULL,
              NULL, NULL);
}

/* ------------------------------------------------------------------ */
/* Per-instance pending tallies of the OR scan: for every tracked bit  */
/* of ``mask`` unset in the before-word, the owning instance inspected */
/* this probe (figure 11's balance attribution).  Incrementing one     */
/* counter per pending bit per probe is the scan's dominant cost on    */
/* early levels (most of 64 bits pending, every probe), so the hot     */
/* loops bin the pending *bytes* into 256-wide histograms — 8          */
/* increments per word per probe regardless of popcount — and          */
/* ``fold_bins`` expands them into per-bit sums afterwards.  Integer   */
/* sums are order-free, so the result is bit-identical to the direct   */
/* tally.  ``hist`` holds lanes*8*256 int64 slots; it must be all-zero */
/* before binning and ``fold_bins`` leaves it all-zero again.          */
/* ------------------------------------------------------------------ */
static inline void bin_word(uint64_t word, int64_t *hist, int64_t weight) {
    for (int bp = 0; bp < 8; bp++)
        hist[bp * 256 + (int)((word >> (bp * 8)) & 0xFF)] += weight;
}

/* out[j] += weighted number of binned words with bit j set. */
static void fold_bins(int64_t *hist, int64_t lanes, int64_t *out) {
    for (int64_t j = 0; j < lanes * 8; j++) {
        int64_t *h = hist + j * 256;
        int64_t *dst = out + j * 8;
        h[0] = 0;
        for (int v = 1; v < 256; v++) {
            int64_t c = h[v];
            if (!c) continue;
            h[v] = 0;
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
/*   retirement (0 for a position that never probes); done[i] =        */
/*   reached the full target; inspections[b] += one per (position,     */
/*   executed round) whose before-word has bit b unset (masked bits    */
/*   only).  Every position's outputs are written, so the buffers need */
/*   no clearing.  Probes read rows of ``bsa_k``, the level's          */
/*   status-array snapshot.                                            */
/*                                                                    */
/* The pending words are binned into ``hist`` and folded once at the   */
/* end (``hist`` NULL tallies bit by bit instead).  The before-word    */
/* changes only when a probe contributes new bits — rare on            */
/* scale-free graphs — so the scan batches runs of unchanged ``pre``   */
/* and adds the run length once per histogram bin instead of binning   */
/* every probe.                                                        */
/* ------------------------------------------------------------------ */
static int64_t or_scan_rows(const int64_t *indices, const int64_t *starts,
                            const int64_t *ends, int64_t m,
                            const uint64_t *state, const uint64_t *lane_mask,
                            const uint64_t *target, int early_termination,
                            const uint64_t *bsa_k, int64_t lanes,
                            int64_t *probes, uint64_t *acc, uint8_t *done,
                            int64_t *hist, int64_t *inspections) {
    int64_t total = 0;
    if (lanes == 1) {
        uint64_t mask = lane_mask[0], tgt = target[0];
        for (int64_t i = 0; i < m; i++) {
            uint64_t pre = state[i];
            probes[i] = 0;
            acc[i] = 0;
            done[i] = 0;
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
                        if (hist) bin_word(pend, hist, runw);
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
                if (hist) bin_word(pend, hist, runw);
                else tally_pending_w(pend, 0, runw, inspections);
            }
            probes[i] = r;
            total += r;
            acc[i] = pre;
        }
        if (hist) fold_bins(hist, 1, inspections);
        return total;
    }
    uint64_t prebuf[64];
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *st = state + i * lanes;
        uint64_t *dst = acc + i * lanes;
        int full = 1;
        for (int64_t l = 0; l < lanes; l++) {
            prebuf[l] = st[l];
            dst[l] = 0;
            if (st[l] != target[l]) full = 0;
        }
        probes[i] = 0;
        done[i] = 0;
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
                    if (hist) bin_word(pendbuf[l], hist + l * 8 * 256, runw);
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
                if (hist) bin_word(pendbuf[l], hist + l * 8 * 256, runw);
                else tally_pending_w(pendbuf[l], l * 64, runw, inspections);
            }
        }
        probes[i] = r;
        total += r;
        for (int64_t l = 0; l < lanes; l++) dst[l] = prebuf[l];
    }
    if (hist) fold_bins(hist, lanes, inspections);
    return total;
}

int64_t repro_or_scan(const int64_t *indices, const int64_t *starts,
                      const int64_t *ends, int64_t m,
                      const uint64_t *state, const uint64_t *lane_mask,
                      const uint64_t *target, int early_termination,
                      const uint64_t *bsa_k, int64_t lanes,
                      int64_t *probes, uint64_t *acc, uint8_t *done,
                      int64_t *inspections) {
    int64_t *hist = calloc((size_t)(lanes * 8 * 256), sizeof(int64_t));
    int64_t total = or_scan_rows(indices, starts, ends, m, state, lane_mask,
                                 target, early_termination, bsa_k, lanes,
                                 probes, acc, done, hist, inspections);
    free(hist);
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
/* materializing the stream.  The live list (``live``: 2*m+2 slots)    */
/* holds (cursor, remaining) pairs, so a round touches only the        */
/* positions still probing.  Identical to repro_round_major +          */
/* repro_coalesce over its output.                                     */
/* ------------------------------------------------------------------ */
static void round_coalesce_rows(const int64_t *indices,
                                const int64_t *starts,
                                const int64_t *probes, int64_t m,
                                line_map *acc, int64_t *live, int64_t *out) {
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
            map_push(acc, indices[cursor]);
            if (remaining > 1) {
                live[2 * w] = cursor + 1;
                live[2 * w + 1] = remaining - 1;
                w++;
            }
        }
        nlive = w;
    }
    map_take(acc, out);
}

/* Returns 0, or -1 when scratch cannot be allocated. */
int repro_round_coalesce(const int64_t *indices, const int64_t *starts,
                         const int64_t *probes, int64_t m, int64_t n,
                         int64_t element_bytes, int64_t txn_bytes,
                         int64_t warp, int64_t *out) {
    line_map acc;
    if (map_open(&acc, n, warp, element_bytes, txn_bytes)) return -1;
    int64_t *live = malloc((size_t)(2 * m + 2) * sizeof(int64_t));
    if (!live) {
        map_free(&acc);
        return -1;
    }
    round_coalesce_rows(indices, starts, probes, m, &acc, live, out);
    map_free(&acc);
    free(live);
    return 0;
}

/* ------------------------------------------------------------------ */
/* One sweep over the set bits of packed rows: for every set bit       */
/* j < group_size of diff row i,                                       */
/*   depths[rows[i], j] += add   (when ``depths`` is given) — the      */
/*     compiled form of the unpack / multiply / fancy-add sequence in  */
/*     core/bitwise.py's depth extraction; elem_size selects the dtype */
/*     rung of the narrow-depth ladder, and unsigned arithmetic stores */
/*     the same two's-complement bytes the numpy in-place add makes;   */
/*   counts[j] += 1              (when ``counts`` is given);           */
/*   fdeg[j] += weights[i]       (when ``fdeg`` is given) — integer    */
/*     sums match the numpy float64 tally exactly for any weight total */
/*     below 2**53 (degree sums always are).                           */
/* ------------------------------------------------------------------ */
static void bit_sweep(const int64_t *rows, const uint64_t *diff, int64_t m,
                      int64_t lanes, int64_t group_size, void *depths,
                      int64_t stride, int elem_size, int64_t add,
                      int64_t *counts, const int64_t *weights,
                      int64_t *fdeg) {
    for (int64_t i = 0; i < m; i++) {
        int64_t base = depths ? rows[i] * stride : 0;
        int64_t weight = fdeg ? weights[i] : 0;
        for (int64_t l = 0; l < lanes; l++) {
            uint64_t w = diff[i * lanes + l];
            int64_t b0 = l * 64;
            while (w) {
                int64_t j = b0 + __builtin_ctzll(w);
                w &= w - 1;
                if (j >= group_size) break;
                if (counts) counts[j]++;
                if (fdeg) fdeg[j] += weight;
                if (!depths) continue;
                if (elem_size == 1)
                    ((uint8_t *)depths)[base + j] += (uint8_t)add;
                else if (elem_size == 2)
                    ((uint16_t *)depths)[base + j] += (uint16_t)add;
                else
                    ((uint32_t *)depths)[base + j] += (uint32_t)add;
            }
        }
    }
}

void repro_depth_update(const int64_t *rows, const uint64_t *diff,
                        int64_t m, int64_t lanes, int64_t group_size,
                        void *depths, int64_t stride, int elem_size,
                        int64_t add) {
    bit_sweep(rows, diff, m, lanes, group_size, depths, stride, elem_size,
              add, NULL, NULL, NULL);
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
/* Packed-bit column sums: out[j] += number of rows with bit j set,    */
/* and the weighted variant: out[j] += sum of weights over rows with   */
/* bit j set (``out`` holds lanes*64 slots).                           */
/* ------------------------------------------------------------------ */
void repro_per_bit_counts(const uint64_t *words, int64_t rows,
                          int64_t lanes, int64_t *out) {
    bit_sweep(NULL, words, rows, lanes, lanes * 64, NULL, 0, 0, 0, out,
              NULL, NULL);
}

void repro_per_bit_weighted(const uint64_t *words, const int64_t *weights,
                            int64_t rows, int64_t lanes, int64_t *out) {
    bit_sweep(NULL, words, rows, lanes, lanes * 64, NULL, 0, 0, 0, NULL,
              weights, out);
}

/* ------------------------------------------------------------------ */
/* One whole BitwiseTraversal level (core/bitwise.py's _level) in one  */
/* call, over buffers the caller allocates once per (n, lanes) shape:  */
/*                                                                    */
/*  1. identification — the top-down frontier is last level's changed  */
/*     rows whose diff meets a top-down lane; the bottom-up frontier   */
/*     is the candidates with unset bottom-up bits.  Candidates are    */
/*     the vertices that may still gain an active instance's bit; the  */
/*     list starts as every vertex and drops, at each bottom-up level, */
/*     every row with no unset active bit (bits never clear and an     */
/*     instance never turns active again), so it shrinks level by      */
/*     level instead of being rescanned over all n rows;               */
/*  2. top-down — unique_targets_walk: one edge walk marks the unique  */
/*     targets, prices its three streams and scatter-ORs BSA_k's       */
/*     frontier words;                                                 */
/*  3. bottom-up — or_scan_rows over BSA_k, the round-major probe      */
/*     pricing and the ``updated`` store stream;                       */
/*  4. extraction — changed rows come from the kernels' touched sets   */
/*     (unique targets merged with updated rows, both ascending), not  */
/*     from a whole-array compare; their diffs feed the per-bit        */
/*     tallies and the depth write, and only those rows are written    */
/*     back, which keeps BSA_k equal to the live array between levels; */
/*  5. the level-wide pricing terms (identification scans, JFQ,        */
/*     instructions), as the numpy path prices them.                   */
/*                                                                    */
/* Every priced stream keeps the numpy path's order (ascending vertex  */
/* ids; probes round-major), because the warp model depends on it.     */
/* ------------------------------------------------------------------ */
typedef struct {
    /* Graph: forward CSR, out-degrees, reverse CSR (NULL until a      */
    /* level goes bottom-up).                                          */
    const int64_t *offsets, *cols, *degrees, *roffsets, *rcols;
    int64_t n, lanes, group_size;
    /* Pricing model. */
    int64_t txn_bytes, warp, reset_per_level;
    int64_t insn_per_inspection, insn_per_vertex;
    /* Live status array, BSA_k, and this level's top-down and         */
    /* bottom-up lane masks (two rows of ``lanes`` words).             */
    uint64_t *bsa, *bsa_k;
    const uint64_t *sel;
    /* Per-instance tallies: counts and fdeg hold the previous level's */
    /* new-frontier sizes and degree sums on entry and this level's on */
    /* return (lanes*64 slots each); inspections accumulates the       */
    /* group's bottom-up inspections (group_size slots).               */
    int64_t *counts, *fdeg, *inspections;
    /* Frontier double buffer: this level reads (changed, diff) and    */
    /* writes the next pair, then swaps the pointers.                  */
    int64_t *changed, *changed_next;
    uint64_t *diff, *diff_next;
    int64_t nchanged;
    /* Bottom-up candidates; ncand < 0 means every vertex. */
    int64_t *cand;
    int64_t ncand;
    /* Scratch: n slots each, ``live`` 2n+2, ``words`` and ``acc``     */
    /* n*lanes, ``hist`` lanes*8*256 (zero between uses), ``pending``  */
    /* lanes*64, ``seen``/``fresh`` the line map's storage.            */
    int64_t *fq_td, *fq_bu, *targets, *starts, *ends, *probes, *updated;
    int64_t *weights, *live, *hist, *pending, *fresh;
    uint64_t *words, *acc, *seen;
    uint8_t *flags, *done;
} level_ws;

int64_t repro_level_ws_bytes(void) { return (int64_t)sizeof(level_ws); }

/* Indices of the stats vector the entry fills. */
enum {
    ST_FQ_TD, ST_TD_VERTICES, ST_FQ_BU, ST_BU_VERTICES, ST_JFQ,
    ST_LOADS, ST_STORES, ST_LOAD_REQUESTS, ST_STORE_REQUESTS, ST_ATOMICS,
    ST_INSTRUCTIONS, ST_INSPECTIONS, ST_EDGES, ST_SHARED, ST_BU_PROBES,
    ST_EARLY, ST_COUNT
};

void repro_bitwise_level(level_ws *ws, void *depths, int64_t elem_size,
                         int64_t level, int64_t vector_width,
                         int64_t early_termination, int64_t *st) {
    const int64_t n = ws->n, lanes = ws->lanes, gs = ws->group_size;
    const int64_t tb = ws->txn_bytes, warp = ws->warp;
    const int64_t word_bytes = lanes * 8, per_line = tb / 8;
    const uint64_t *td_sel = ws->sel, *bu_sel = ws->sel + lanes;
    uint64_t *bsa = ws->bsa, *bsa_k = ws->bsa_k;
    int64_t *fq_td = ws->fq_td, *fq_bu = ws->fq_bu;
    line_map map;
    map_init(&map, ws->seen, ws->fresh, warp, word_bytes, tb);
    memset(st, 0, ST_COUNT * sizeof(int64_t));

    /* --- 1. Frontier identification ------------------------------- */
    int any_td = 0, any_bu = 0;
    for (int64_t l = 0; l < lanes; l++) {
        any_td |= td_sel[l] != 0;
        any_bu |= bu_sel[l] != 0;
    }
    int64_t edges = 0, ntd = 0, nbu = 0;
    if (any_td) {
        /* Last level's per-instance frontier sizes and degree sums. */
        for (int64_t j = 0; j < gs; j++) {
            if ((td_sel[j >> 6] >> (j & 63)) & 1) {
                st[ST_FQ_TD] += ws->counts[j];
                edges += ws->fdeg[j];
            }
        }
        for (int64_t i = 0; i < ws->nchanged; i++) {
            const uint64_t *d = ws->diff + i * lanes;
            uint64_t hit = 0;
            for (int64_t l = 0; l < lanes; l++) hit |= d[l] & td_sel[l];
            if (hit) fq_td[ntd++] = ws->changed[i];
        }
    }
    if (any_bu) {
        if (ws->ncand < 0) {
            for (int64_t v = 0; v < n; v++) ws->cand[v] = v;
            ws->ncand = n;
        }
        int64_t keep = 0;
        for (int64_t c = 0; c < ws->ncand; c++) {
            int64_t v = ws->cand[c];
            const uint64_t *row = bsa_k + v * lanes;
            uint64_t active = 0;
            int64_t unset = 0;
            for (int64_t l = 0; l < lanes; l++) {
                uint64_t u = ~row[l];
                active |= u & (td_sel[l] | bu_sel[l]);
                unset += __builtin_popcountll(u & bu_sel[l]);
            }
            if (unset) {
                fq_bu[nbu++] = v;
                st[ST_FQ_BU] += unset;
            }
            if (active) ws->cand[keep++] = v;
        }
        ws->ncand = keep;
    }
    /* The joint frontier queue: |td ∪ bu| over two ascending lists. */
    int64_t jfq = ntd + nbu;
    for (int64_t i = 0, j = 0; i < ntd && j < nbu;) {
        if (fq_td[i] < fq_bu[j]) i++;
        else if (fq_td[i] > fq_bu[j]) j++;
        else {
            jfq--;
            i++;
            j++;
        }
    }
    st[ST_TD_VERTICES] = ntd;
    st[ST_BU_VERTICES] = nbu;
    st[ST_JFQ] = jfq;
    memset(ws->counts, 0, (size_t)lanes * 64 * sizeof(int64_t));
    memset(ws->fdeg, 0, (size_t)lanes * 64 * sizeof(int64_t));
    if (jfq == 0) {
        ws->nchanged = 0;
        return;
    }

    int64_t loads = 0, stores = 0, load_requests = 0, store_requests = 0;
    int64_t inspections = 0, ntargets = 0, nupd = 0;
    int64_t pricing[6];

    /* --- 2. Top-down: BSA[v] |= BSA_k[f] ---------------------------- */
    if (ntd) {
        uint64_t *words = ws->words;
        int64_t neighbors = 0, adjacency = 0;
        for (int64_t r = 0; r < ntd; r++) {
            int64_t f = fq_td[r];
            for (int64_t l = 0; l < lanes; l++)
                words[r * lanes + l] = bsa_k[f * lanes + l] & td_sel[l];
            neighbors += ws->degrees[f];
            adjacency += entry_lines(ws->degrees[f], per_line);
        }
        ntargets = unique_targets_walk(ws->offsets, ws->cols, fq_td, ntd, n,
                                       ws->flags, ws->targets, &map,
                                       pricing, bsa, words, lanes);
        inspections += neighbors;
        loads += ceil_div(ntd * 8, tb) + pricing[0] + adjacency + pricing[2];
        load_requests += pricing[1] + pricing[3];
        /* Shared-memory merging collapses duplicate neighbor updates; */
        /* only the merged words hit global atomics.                   */
        st[ST_ATOMICS] = ntargets;
        st[ST_SHARED] = neighbors - ntargets;
        stores += pricing[4];
        store_requests += pricing[5];
    }

    /* --- 3. Bottom-up: BSA[f] |= BSA_k[v], early termination -------- */
    if (nbu) {
        uint64_t *state = ws->words, *acc = ws->acc;
        int64_t *starts = ws->starts, *ends = ws->ends, *probes = ws->probes;
        for (int64_t i = 0; i < nbu; i++) {
            int64_t v = fq_bu[i];
            starts[i] = ws->roffsets[v];
            ends[i] = ws->roffsets[v + 1];
            for (int64_t l = 0; l < lanes; l++)
                state[i * lanes + l] = bsa_k[v * lanes + l] & bu_sel[l];
        }
        memset(ws->pending, 0, (size_t)lanes * 64 * sizeof(int64_t));
        int64_t probed = or_scan_rows(ws->rcols, starts, ends, nbu, state,
                                      bu_sel, bu_sel, (int)early_termination,
                                      bsa_k, lanes, probes, acc, ws->done,
                                      ws->hist, ws->pending);
        for (int64_t j = 0; j < gs; j++) {
            ws->inspections[j] += ws->pending[j];
            edges += ws->pending[j];
        }
        int64_t early = 0, probe_lines = 0;
        for (int64_t i = 0; i < nbu; i++) {
            if (ws->done[i] && probes[i] < ends[i] - starts[i]) early++;
            probe_lines += entry_lines(probes[i], per_line);
            /* "Updated" compares against BSA_k's masked word. */
            const uint64_t *a = acc + i * lanes, *s = state + i * lanes;
            uint64_t moved = 0;
            for (int64_t l = 0; l < lanes; l++) moved |= a[l] & ~s[l];
            if (moved) {
                int64_t v = fq_bu[i];
                ws->updated[nupd++] = v;
                for (int64_t l = 0; l < lanes; l++) bsa[v * lanes + l] |= a[l];
            }
        }
        inspections += probed;
        st[ST_BU_PROBES] = probed;
        st[ST_EARLY] = early;
        loads += ceil_div(nbu * 8, tb) + probe_lines;
        round_coalesce_rows(ws->rcols, starts, probes, nbu, &map, ws->live,
                            pricing);
        loads += pricing[0];
        load_requests += pricing[1];
        map_stream(&map, ws->updated, nupd, pricing);
        stores += pricing[0];
        store_requests += pricing[1];
    }

    /* --- 4. Extraction over the touched rows ------------------------ */
    int64_t *cn = ws->changed_next, *targets = ws->targets;
    uint64_t *dn = ws->diff_next;
    int64_t m = 0;
    for (int64_t i = 0, j = 0; i < ntargets || j < nupd;) {
        int64_t v;
        if (j == nupd || (i < ntargets && targets[i] < ws->updated[j])) {
            v = targets[i++];
        } else {
            v = ws->updated[j++];
            if (i < ntargets && targets[i] == v) i++;
        }
        uint64_t *live_row = bsa + v * lanes, *k_row = bsa_k + v * lanes;
        uint64_t *d = dn + m * lanes;
        uint64_t any = 0;
        for (int64_t l = 0; l < lanes; l++) {
            d[l] = live_row[l] ^ k_row[l];
            any |= d[l];
        }
        if (!any) continue;
        for (int64_t l = 0; l < lanes; l++) k_row[l] = live_row[l];
        cn[m] = v;
        ws->weights[m] = ws->degrees[v];
        m++;
    }
    bit_sweep(cn, dn, m, lanes, gs, depths, gs, (int)elem_size, level + 2,
              ws->counts, ws->weights, ws->fdeg);
    ws->changed_next = ws->changed;
    ws->changed = cn;
    ws->diff_next = ws->diff;
    ws->diff = dn;
    ws->nchanged = m;

    /* --- 5. Level-wide pricing -------------------------------------- */
    /* Identification scans BSA_k and BSA_{k+1} (the device does, even */
    /* though the host no longer does); MS-BFS also rewrites its       */
    /* per-level visit array.  Vector loads fetch several lanes per    */
    /* instruction: same bytes, fewer requests and scan instructions.  */
    int64_t words_per_vertex = ceil_div(lanes, vector_width);
    int64_t scan_ops = n * words_per_vertex;
    int64_t sweep = ceil_div(n * word_bytes, tb);
    loads += 2 * sweep;
    load_requests += 2 * ceil_div(scan_ops, warp);
    if (ws->reset_per_level) {
        stores += sweep;
        store_requests += ceil_div(scan_ops, warp);
    }
    stores += ceil_div(jfq * 8, tb);
    store_requests += ceil_div(jfq, warp);
    st[ST_LOADS] = loads;
    st[ST_STORES] = stores;
    st[ST_LOAD_REQUESTS] = load_requests;
    st[ST_STORE_REQUESTS] = store_requests;
    st[ST_INSPECTIONS] = inspections;
    st[ST_EDGES] = edges;
    st[ST_INSTRUCTIONS] =
        inspections * ws->insn_per_inspection * words_per_vertex +
        (jfq + scan_ops) * ws->insn_per_vertex;
}
"""

#: Bump when the C ABI changes so stale cached libraries are rebuilt.
_ABI_VERSION = 5


class LevelState(ctypes.Structure):
    """The C ``level_ws`` struct of :c:func:`repro_bitwise_level`, field
    for field (every field is 8 bytes, so there is no padding to
    mirror); :func:`load_library` checks the two sizes agree."""

    _fields_ = [
        (name, ctypes.c_void_p if kind == "p" else ctypes.c_int64)
        for name, kind in (
            ("offsets", "p"), ("cols", "p"), ("degrees", "p"),
            ("roffsets", "p"), ("rcols", "p"),
            ("n", "i"), ("lanes", "i"), ("group_size", "i"),
            ("txn_bytes", "i"), ("warp", "i"), ("reset_per_level", "i"),
            ("insn_per_inspection", "i"), ("insn_per_vertex", "i"),
            ("bsa", "p"), ("bsa_k", "p"), ("sel", "p"),
            ("counts", "p"), ("fdeg", "p"), ("inspections", "p"),
            ("changed", "p"), ("changed_next", "p"),
            ("diff", "p"), ("diff_next", "p"), ("nchanged", "i"),
            ("cand", "p"), ("ncand", "i"),
            ("fq_td", "p"), ("fq_bu", "p"), ("targets", "p"),
            ("starts", "p"), ("ends", "p"), ("probes", "p"),
            ("updated", "p"), ("weights", "p"), ("live", "p"),
            ("hist", "p"), ("pending", "p"), ("fresh", "p"),
            ("words", "p"), ("acc", "p"), ("seen", "p"),
            ("flags", "p"), ("done", "p"),
        )
    ]


#: Length of the stats vector :c:func:`repro_bitwise_level` fills (its
#: ``ST_*`` enum, in that order).
LEVEL_STATS = (
    "fq_td", "td_vertices", "fq_bu", "bu_vertices", "jfq",
    "loads", "stores", "load_requests", "store_requests", "atomics",
    "instructions", "inspections", "edges", "shared", "bu_probes",
    "early",
)


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
    lib.repro_per_bit_counts.argtypes = [p, i64, i64, p]
    lib.repro_per_bit_weighted.restype = None
    lib.repro_per_bit_weighted.argtypes = [p, p, i64, i64, p]
    lib.repro_level_ws_bytes.restype = i64
    lib.repro_level_ws_bytes.argtypes = []
    lib.repro_bitwise_level.restype = None
    lib.repro_bitwise_level.argtypes = [p, p, i64, i64, i64, i64, p]
    if lib.repro_level_ws_bytes() != ctypes.sizeof(LevelState):
        raise NativeUnavailable(
            f"{lib_path}: level_ws is {lib.repro_level_ws_bytes()} bytes, "
            f"LevelState {ctypes.sizeof(LevelState)}"
        )
    return lib
