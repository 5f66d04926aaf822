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
import time
from pathlib import Path
from typing import Optional

from repro.native import NativeUnavailable

C_SOURCE = r"""
/* -std=c99 hides struct timespec and the pthread declarations. */
#define _POSIX_C_SOURCE 200809L
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

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

/* ------------------------------------------------------------------ */
/* Level threads: one pool per process, started by the first level    */
/* phase whose work crosses its kernel's grain.  A job is ``nt`` tasks */
/* fn(ctx, t, nt).  The calling thread and the workers claim tasks     */
/* from the job's claim word (generation, nt, next task) until none is */
/* left, so a caller never waits for a worker that has not started,   */
/* only for tasks already claimed.  Besides the job the caller waits   */
/* on, one background job may run: workers with no job task claim its */
/* tasks, and the caller claims what is left when it joins it.  What a */
/* task computes depends on (t, nt) alone, so a job's result does not  */
/* depend on which or how many threads ran it, and a caller that finds */
/* the pool owned by another thread runs every task itself.  Idle      */
/* workers spin on the job generation for SPIN_NS, then sleep on a     */
/* condition variable.  The pool is keyed by pid: a forked child never */
/* waits on its parent's threads (it does not have them) and starts    */
/* its own pool.                                                       */
/* ------------------------------------------------------------------ */
typedef void (*task_fn)(void *ctx, int64_t t, int64_t nt);

#define POOL_MAX 64
#define SPIN_NS 20000
#define GEN_MASK 0x7FFFFFFF

typedef struct {
    pid_t pid;
    int busy;              /* atomic: a caller owns the pool */
    int64_t workers;       /* threads besides the caller */
    pthread_mutex_t mu;
    pthread_cond_t wake, done;
    int64_t gen;           /* atomic: moves once per job */
    int64_t sleepers;      /* under mu */
    int caller_waits;      /* under mu */
    /* The job [0] and the background job [1]: claim words             */
    /* (generation << 32 | nt << 16 | next task, atomic), tasks done   */
    /* (atomic), and the task function with its context, written       */
    /* before the claim word.                                          */
    int64_t claim[2], finished[2];
    task_fn fn[2];
    void *ctx[2];
} pool;

typedef struct {
    pool *p;
    int64_t gen;
} pool_arg;

static pool *the_pool;

static int64_t now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Spins until (*word == value) == equal; gives up after SPIN_NS.     */
static int spin_for(int64_t *word, int64_t value, int equal) {
    int64_t start = now_ns();
    for (int64_t i = 1;; i++) {
        if ((__atomic_load_n(word, __ATOMIC_ACQUIRE) == value) == equal)
            return 1;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
        if (!(i & 63) && now_ns() - start > SPIN_NS) return 0;
    }
}

/* Claims the next task of job ``j`` of generation ``gen`` (any        */
/* generation when gen < 0): its index, or -1 when the job has none    */
/* left; reads the job's size.                                         */
static int64_t pool_claim(pool *p, int j, int64_t gen, int64_t *nt) {
    int64_t word = __atomic_load_n(&p->claim[j], __ATOMIC_ACQUIRE);
    for (;;) {
        int64_t next = word & 0xFFFF;
        *nt = (word >> 16) & 0xFFFF;
        if ((gen >= 0 && (word >> 32) != gen) || next >= *nt) return -1;
        if (__atomic_compare_exchange_n(&p->claim[j], &word, word + 1, 1,
                                        __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE))
            return next;
    }
}

/* Runs one claimed task of job j; a worker wakes the caller when it   */
/* finishes the job's last task.                                       */
static void pool_task(pool *p, int j, int64_t t, int64_t nt, int worker) {
    p->fn[j](p->ctx[j], t, nt);
    if (__atomic_add_fetch(&p->finished[j], 1, __ATOMIC_ACQ_REL) == nt &&
        worker) {
        pthread_mutex_lock(&p->mu);
        if (p->caller_waits) pthread_cond_signal(&p->done);
        pthread_mutex_unlock(&p->mu);
    }
}

/* Waits until job j has finished ``nt`` tasks. */
static void pool_wait(pool *p, int j, int64_t nt) {
    if (spin_for(&p->finished[j], nt, 1)) return;
    pthread_mutex_lock(&p->mu);
    p->caller_waits = 1;
    while (__atomic_load_n(&p->finished[j], __ATOMIC_ACQUIRE) != nt)
        pthread_cond_wait(&p->done, &p->mu);
    p->caller_waits = 0;
    pthread_mutex_unlock(&p->mu);
}

static void *pool_main(void *arg) {
    pool_arg a = *(pool_arg *)arg;
    free(arg);
    pool *p = a.p;
    for (;;) {
        if (!spin_for(&p->gen, a.gen, 0)) {
            pthread_mutex_lock(&p->mu);
            p->sleepers++;
            while (__atomic_load_n(&p->gen, __ATOMIC_ACQUIRE) == a.gen)
                pthread_cond_wait(&p->wake, &p->mu);
            p->sleepers--;
            pthread_mutex_unlock(&p->mu);
        }
        a.gen = __atomic_load_n(&p->gen, __ATOMIC_ACQUIRE);
        /* Tasks of the job first, then of the background job. */
        for (;;) {
            int64_t t, nt;
            int j = 0;
            if ((t = pool_claim(p, 0, a.gen, &nt)) < 0) {
                j = 1;
                if ((t = pool_claim(p, 1, -1, &nt)) < 0) break;
            }
            pool_task(p, j, t, nt, 1);
        }
    }
    return NULL;
}

/* This process's pool, grown towards ``want`` threads and owned by    */
/* the caller until pool_release; NULL when another thread owns it.    */
static pool *pool_acquire(int64_t want) {
    pid_t pid = getpid();
    pool *p = __atomic_load_n(&the_pool, __ATOMIC_ACQUIRE);
    if (!p || p->pid != pid) {
        pool *fresh = calloc(1, sizeof *fresh);
        if (!fresh) return NULL;
        fresh->pid = pid;
        pthread_mutex_init(&fresh->mu, NULL);
        pthread_cond_init(&fresh->wake, NULL);
        pthread_cond_init(&fresh->done, NULL);
        /* A parent's pool is left as it is: its threads are not ours. */
        if (__atomic_compare_exchange_n(&the_pool, &p, fresh, 0,
                                        __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE)) {
            p = fresh;
        } else {
            free(fresh);
            if (!p || p->pid != pid) return NULL;
        }
    }
    if (__atomic_exchange_n(&p->busy, 1, __ATOMIC_ACQUIRE)) return NULL;
    if (want > POOL_MAX) want = POOL_MAX;
    if (p->workers + 1 < want) {
        /* Workers block every signal, so the interpreter's main thread */
        /* keeps receiving them.                                       */
        sigset_t all, old;
        sigfillset(&all);
        pthread_sigmask(SIG_SETMASK, &all, &old);
        pthread_attr_t attr;
        pthread_attr_init(&attr);
        pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
        while (p->workers + 1 < want) {
            pool_arg *a = malloc(sizeof *a);
            if (!a) break;
            a->p = p;
            a->gen = __atomic_load_n(&p->gen, __ATOMIC_RELAXED);
            pthread_t thread;
            if (pthread_create(&thread, &attr, pool_main, a)) {
                free(a);
                break;
            }
            p->workers++;
        }
        pthread_attr_destroy(&attr);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    return p;
}

static void pool_release(pool *p) {
    __atomic_store_n(&p->busy, 0, __ATOMIC_RELEASE);
}

/* Publishes ``nt`` tasks of fn as job j (nt = 0: none) and wakes the  */
/* workers; returns the new generation.                                */
static int64_t pool_post(pool *p, int j, int64_t nt, task_fn fn, void *ctx) {
    int64_t gen = (__atomic_load_n(&p->gen, __ATOMIC_RELAXED) + 1) & GEN_MASK;
    p->fn[j] = fn;
    p->ctx[j] = ctx;
    __atomic_store_n(&p->finished[j], 0, __ATOMIC_RELAXED);
    __atomic_store_n(&p->claim[j], gen << 32 | nt << 16, __ATOMIC_RELEASE);
    if (j) __atomic_store_n(&p->claim[0], gen << 32, __ATOMIC_RELEASE);
    pthread_mutex_lock(&p->mu);
    __atomic_store_n(&p->gen, gen, __ATOMIC_RELEASE);
    if (p->sleepers) pthread_cond_broadcast(&p->wake);
    pthread_mutex_unlock(&p->mu);
    return gen;
}

/* Runs the job on the owned pool and returns when every task is done. */
static void pool_run(pool *p, int64_t nt, task_fn fn, void *ctx) {
    int64_t gen = pool_post(p, 0, nt, fn, ctx), t;
    while ((t = pool_claim(p, 0, gen, &nt)) >= 0) pool_task(p, 0, t, nt, 0);
    pool_wait(p, 0, nt);
}

/* Joins the background job: runs its unclaimed tasks, then waits for  */
/* the claimed ones.                                                   */
static void pool_join(pool *p) {
    int64_t t, nt;
    while ((t = pool_claim(p, 1, -1, &nt)) >= 0) pool_task(p, 1, t, nt, 0);
    pool_wait(p, 1, (__atomic_load_n(&p->claim[1], __ATOMIC_ACQUIRE) >> 16) & 0xFFFF);
}

/* Chunk t of nt over ``total`` items; wcut keeps every cut but the    */
/* last on a multiple of ``warp``, so a chunk of a priced stream holds */
/* whole warp windows of the serial stream.                            */
static inline int64_t cut(int64_t total, int64_t t, int64_t nt) {
    return total * t / nt;
}

static inline int64_t wcut(int64_t total, int64_t t, int64_t nt,
                           int64_t warp) {
    return t == nt ? total : cut(total, t, nt) / warp * warp;
}

/* First index i in [0, m) with a[i] >= key (m when none). */
static int64_t lower_bound(const int64_t *a, int64_t m, int64_t key) {
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
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

/* The walk with ``acc`` (scatter-ORing into ``out`` when given), then */
/* an ascending sweep of the marks: the unique targets into            */
/* ``targets`` with their flags cleared again, and the neighbor        */
/* stream's (transactions, requests) into ``pricing``.  Returns the    */
/* target count.                                                       */
static int64_t walk_targets(const int64_t *offsets, const int64_t *cols,
                            const int64_t *frontier, int64_t rows, int64_t n,
                            uint64_t *out, const uint64_t *words,
                            int64_t lanes, line_map *acc, uint8_t *flags,
                            int64_t *targets, int64_t *pricing) {
    int64_t lo = n, hi = -1;
    edge_walk(offsets, cols, frontier, rows, out, words, lanes, acc, flags,
              &lo, &hi);
    map_take(acc, pricing);
    int64_t count = 0;
    for (int64_t v = lo; v <= hi; v++) {
        if (flags[v]) {
            flags[v] = 0;
            targets[count++] = v;
        }
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* Fused top-down edge map: mark the unique targets of the frontier's  */
/* CSR rows and price the level's three access streams into            */
/* ``pricing`` as (transactions, requests) pairs — frontier words in   */
/* frontier order, neighbor words in edge order, and the unique target */
/* stores in the ascending sweep that emits them (sorted without a     */
/* comparison sort).  ``flags`` must be all-zero on entry and is left  */
/* all-zero, so one zeroed buffer serves every call.  Returns the      */
/* target count, or -1 when scratch cannot be allocated.               */
/* ------------------------------------------------------------------ */
int64_t repro_unique_targets(const int64_t *offsets, const int64_t *cols,
                             const int64_t *frontier, int64_t rows,
                             int64_t n, uint8_t *flags, int64_t *out,
                             int64_t element_bytes, int64_t txn_bytes,
                             int64_t warp, int64_t *pricing) {
    line_map acc;
    if (map_open(&acc, n, warp, element_bytes, txn_bytes)) return -1;
    map_stream(&acc, frontier, rows, pricing);
    int64_t count = walk_targets(offsets, cols, frontier, rows, n, NULL, NULL,
                                 1, &acc, flags, out, pricing + 2);
    map_stream(&acc, out, count, pricing + 4);
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
/* every probe.  Wider rows keep their before-word and pending words   */
/* in ``scratch`` (2*lanes words), so any lane count scans.            */
/* ------------------------------------------------------------------ */
static int64_t or_scan_rows(const int64_t *indices, const int64_t *starts,
                            const int64_t *ends, int64_t m,
                            const uint64_t *state, const uint64_t *lane_mask,
                            const uint64_t *target, int early_termination,
                            const uint64_t *bsa_k, int64_t lanes,
                            int64_t *probes, uint64_t *acc, uint8_t *done,
                            int64_t *hist, int64_t *inspections,
                            uint64_t *scratch) {
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
    uint64_t *prebuf = scratch, *pendbuf = scratch + lanes;
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

/* ``scratch`` holds 2*lanes words. */
int64_t repro_or_scan(const int64_t *indices, const int64_t *starts,
                      const int64_t *ends, int64_t m,
                      const uint64_t *state, const uint64_t *lane_mask,
                      const uint64_t *target, int early_termination,
                      const uint64_t *bsa_k, int64_t lanes,
                      int64_t *probes, uint64_t *acc, uint8_t *done,
                      int64_t *inspections, uint64_t *scratch) {
    int64_t *hist = calloc((size_t)(lanes * 8 * 256), sizeof(int64_t));
    int64_t total = or_scan_rows(indices, starts, ends, m, state, lane_mask,
                                 target, early_termination, bsa_k, lanes,
                                 probes, acc, done, hist, inspections,
                                 scratch);
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
/*  2. top-down — one edge walk marks the unique targets, prices the   */
/*     neighbor stream and scatter-ORs BSA_k's frontier words; an      */
/*     ascending sweep of the marks lists the targets (walk_targets,   */
/*     as repro_unique_targets runs it);                               */
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
/*                                                                    */
/* The phases that pay for threads run as ``nt`` tasks on the level   */
/* threads: identification, the two gathers, the OR scan, its post     */
/* pass and the pricing of materialized streams (price_ids).  nt is    */
/* the phase's work over ``grain``, capped at ``nthreads``, so a phase */
/* below the grain runs on the calling thread.  Tasks write disjoint   */
/* outputs or their own scratch slot (``tsum`` sums, line maps, scan   */
/* tallies), which the calling thread adds up: integer sums are        */
/* order-free.  A list a phase compacts (frontiers, candidates,        */
/* updated rows) keeps ascending order through per-task counts and     */
/* their prefix sum.  A priced stream is cut only at item offsets that */
/* are multiples of ``warp``, so each task prices whole warp windows   */
/* of the serial stream and the summed (transactions, requests) are    */
/* the serial ones.  The top-down walk with its sweep and the          */
/* extraction run on the calling thread: split, they saved nothing on  */
/* a 2-core host.  The probe stream, which nothing later in the level  */
/* reads, is priced whole as one background task, in its own slots,   */
/* while the updated-row pricing and the extraction run; it reads     */
/* nothing they write.  Threaded tasks only read BSA_k, so no two      */
/* tasks write one location and counters are bit-identical at any     */
/* thread count.                                                       */
/* ------------------------------------------------------------------ */
typedef struct {
    /* Graph: forward CSR, out-degrees, reverse CSR (NULL until a      */
    /* level goes bottom-up).                                          */
    const int64_t *offsets, *cols, *degrees, *roffsets, *rcols;
    int64_t n, lanes, group_size;
    /* Pricing model. */
    int64_t txn_bytes, warp, reset_per_level;
    int64_t insn_per_inspection, insn_per_vertex;
    /* Threads: at most ``nthreads`` tasks per phase (the slots of the */
    /* per-task scratch below), one per ``grain`` items of work.       */
    int64_t nthreads, grain;
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
    /* Scratch: n slots each, ``prefix`` n+1, ``words`` and ``acc``    */
    /* n*lanes.                                                        */
    int64_t *fq_td, *fq_bu, *targets, *starts, *ends, *probes, *updated;
    int64_t *weights, *prefix;
    uint64_t *words, *acc;
    uint8_t *flags, *done;
    /* Per-task scratch, ``nthreads`` slots of: ``tsum`` TSUM sums;    */
    /* ``hist`` lanes*8*256 and ``pending`` lanes*64 (the OR scan's    */
    /* tallies; ``hist`` zero between uses); ``scan`` 2*lanes (its row */
    /* words); ``seen`` seen_words and ``fresh`` warp (a line map).    */
    /* The background probe pricing has slot ``nthreads`` of ``tsum``, */
    /* ``seen`` and ``fresh``, and ``live`` (2n+2).  Each slot is      */
    /* rounded up to whole 64-byte lines (SLOT), so no two tasks share */
    /* a line.                                                         */
    int64_t *tsum, *hist, *pending, *live, *fresh;
    uint64_t *scan, *seen;
    int64_t seen_words;
} level_ws;

int64_t repro_level_ws_bytes(void) { return (int64_t)sizeof(level_ws); }

/* Indices of the stats vector the entry fills. */
enum {
    ST_FQ_TD, ST_TD_VERTICES, ST_FQ_BU, ST_BU_VERTICES, ST_JFQ,
    ST_LOADS, ST_STORES, ST_LOAD_REQUESTS, ST_STORE_REQUESTS, ST_ATOMICS,
    ST_INSTRUCTIONS, ST_INSPECTIONS, ST_EDGES, ST_SHARED, ST_BU_PROBES,
    ST_EARLY, ST_COUNT
};

/* int64 sums per task slot. */
#define TSUM 16

/* A per-task slot of ``words`` 8-byte words, rounded up to whole     */
/* 64-byte lines.                                                      */
#define SLOT(words) (((words) + 7) & ~(int64_t)7)

/* One level call: the workspace, the pool once a phase takes it, and  */
/* the arguments of the phase being run.                               */
typedef struct {
    level_ws *ws;
    pool *pool;
    int pool_tried;
    void *depths;
    int elem_size;
    int64_t add, early_termination;
    const int64_t *ids;
    int64_t m;
    int64_t ntd, nbu, total;
    int background;
} level_run;

static inline int64_t *task_sums(const level_ws *ws, int64_t t) {
    return ws->tsum + t * TSUM;
}

static void task_map(const level_ws *ws, int64_t t, line_map *map) {
    map_init(map, ws->seen + t * SLOT(ws->seen_words),
             ws->fresh + t * SLOT(ws->warp), ws->warp, ws->lanes * 8,
             ws->txn_bytes);
}

static int64_t tasks_for(const level_ws *ws, int64_t work) {
    int64_t nt = work / ws->grain;
    if (nt > ws->nthreads) nt = ws->nthreads;
    return nt < 1 ? 1 : nt;
}

static int64_t sum_slot(const level_ws *ws, int64_t nt, int slot) {
    int64_t total = 0;
    for (int64_t t = 0; t < nt; t++) total += task_sums(ws, t)[slot];
    return total;
}

/* The level's pool, once a phase needs threads (NULL without one). */
static pool *level_pool(level_run *lr) {
    if (!lr->pool_tried && lr->ws->nthreads > 1) {
        lr->pool_tried = 1;
        lr->pool = pool_acquire(lr->ws->nthreads);
    }
    return lr->pool && lr->pool->workers ? lr->pool : NULL;
}

static void run_tasks(level_run *lr, int64_t nt, task_fn fn) {
    pool *p = nt > 1 ? level_pool(lr) : NULL;
    if (p) {
        pool_run(p, nt, fn, lr);
    } else {
        for (int64_t t = 0; t < nt; t++) fn(lr, t, nt);
    }
}

/* Starts fn as the pool's background job, one task the level joins   */
/* before it returns, when its ``work`` crosses the grain; otherwise   */
/* (or without a pool) it runs here and now.                           */
static void run_background(level_run *lr, int64_t work, task_fn fn) {
    pool *p = tasks_for(lr->ws, work) > 1 ? level_pool(lr) : NULL;
    if (p) {
        pool_post(p, 1, 1, fn, lr);
        lr->background = 1;
    } else {
        fn(lr, 0, 1);
    }
}

/* Task t of a compaction over ``m`` items wrote its sums[slot] kept   */
/* items from list[cut(m, t, nt)]: close the gaps, keeping order, and  */
/* return the kept count.                                              */
static int64_t close_gaps(const level_ws *ws, int64_t *list, int64_t m,
                          int64_t nt, int slot) {
    int64_t kept = 0;
    for (int64_t t = 0; t < nt; t++) {
        int64_t from = cut(m, t, nt), count = task_sums(ws, t)[slot];
        if (from != kept)
            memmove(list + kept, list + from, (size_t)count * sizeof(int64_t));
        kept += count;
    }
    return kept;
}

/* --- Pricing a materialized stream ids[0..m) ----------------------- */
static void price_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    line_map map;
    task_map(ws, t, &map);
    int64_t a = wcut(lr->m, t, nt, ws->warp);
    int64_t b = wcut(lr->m, t + 1, nt, ws->warp);
    map_stream(&map, lr->ids + a, b - a, task_sums(ws, t));
}

static void price_ids(level_run *lr, const int64_t *ids, int64_t m,
                      int64_t *out) {
    lr->ids = ids;
    lr->m = m;
    int64_t nt = tasks_for(lr->ws, m);
    run_tasks(lr, nt, price_task);
    out[0] = sum_slot(lr->ws, nt, 0);
    out[1] = sum_slot(lr->ws, nt, 1);
}

/* --- 1. Identification -------------------------------------------- */
static void td_ident_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes;
    const uint64_t *td_sel = ws->sel;
    int64_t a = cut(ws->nchanged, t, nt), b = cut(ws->nchanged, t + 1, nt);
    int64_t k = a;
    for (int64_t i = a; i < b; i++) {
        const uint64_t *d = ws->diff + i * lanes;
        uint64_t hit = 0;
        for (int64_t l = 0; l < lanes; l++) hit |= d[l] & td_sel[l];
        if (hit) ws->fq_td[k++] = ws->changed[i];
    }
    task_sums(ws, t)[0] = k - a;
}

static void bu_ident_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes;
    const uint64_t *td_sel = ws->sel, *bu_sel = ws->sel + lanes;
    const int every = ws->ncand < 0;
    int64_t m = every ? ws->n : ws->ncand;
    int64_t a = cut(m, t, nt), b = cut(m, t + 1, nt);
    int64_t found = a, keep = a, unset_total = 0;
    for (int64_t c = a; c < b; c++) {
        int64_t v = every ? c : ws->cand[c];
        const uint64_t *row = ws->bsa_k + v * lanes;
        uint64_t active = 0;
        int64_t unset = 0;
        for (int64_t l = 0; l < lanes; l++) {
            uint64_t u = ~row[l];
            active |= u & (td_sel[l] | bu_sel[l]);
            unset += __builtin_popcountll(u & bu_sel[l]);
        }
        if (unset) {
            ws->fq_bu[found++] = v;
            unset_total += unset;
        }
        if (active) ws->cand[keep++] = v;
    }
    int64_t *s = task_sums(ws, t);
    s[0] = found - a;
    s[1] = keep - a;
    s[2] = unset_total;
}

/* --- 2. Top-down ---------------------------------------------------- */
/* words[r] = BSA_k[fq_td[r]] & td_sel; sums: adjacency lines, edges.  */
static void td_gather_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes, per_line = ws->txn_bytes / 8;
    int64_t a = cut(lr->ntd, t, nt), b = cut(lr->ntd, t + 1, nt);
    int64_t adjacency = 0, neighbors = 0;
    for (int64_t r = a; r < b; r++) {
        int64_t f = ws->fq_td[r];
        for (int64_t l = 0; l < lanes; l++)
            ws->words[r * lanes + l] = ws->bsa_k[f * lanes + l] & ws->sel[l];
        neighbors += ws->degrees[f];
        adjacency += ceil_div(ws->degrees[f], per_line);
    }
    int64_t *s = task_sums(ws, t);
    s[0] = adjacency;
    s[1] = neighbors;
}

/* --- 3. Bottom-up --------------------------------------------------- */
/* Scan bounds and masked words of the bottom-up frontier;             */
/* prefix[i + 1] = its in-degree.                                      */
static void bu_gather_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes;
    const uint64_t *bu_sel = ws->sel + lanes;
    int64_t a = cut(lr->nbu, t, nt), b = cut(lr->nbu, t + 1, nt);
    for (int64_t i = a; i < b; i++) {
        int64_t v = ws->fq_bu[i];
        ws->starts[i] = ws->roffsets[v];
        ws->ends[i] = ws->roffsets[v + 1];
        ws->prefix[i + 1] = ws->ends[i] - ws->starts[i];
        for (int64_t l = 0; l < lanes; l++)
            ws->words[i * lanes + l] = ws->bsa_k[v * lanes + l] & bu_sel[l];
    }
}

/* Positions [a, b) of task t: equal shares of the frontier's in-degree */
/* sum, the scan's upper bound on probes.                               */
static int64_t scan_cut(const level_run *lr, int64_t t, int64_t nt) {
    if (t == nt) return lr->nbu;
    return lower_bound(lr->ws->prefix, lr->nbu + 1, cut(lr->total, t, nt));
}

static void or_scan_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes;
    const uint64_t *bu_sel = ws->sel + lanes;
    int64_t a = scan_cut(lr, t, nt), b = scan_cut(lr, t + 1, nt);
    int64_t *pending = ws->pending + t * lanes * 64;
    memset(pending, 0, (size_t)lanes * 64 * sizeof(int64_t));
    task_sums(ws, t)[0] = or_scan_rows(
        ws->rcols, ws->starts + a, ws->ends + a, b - a,
        ws->words + a * lanes, bu_sel, bu_sel, (int)lr->early_termination,
        ws->bsa_k, lanes, ws->probes + a, ws->acc + a * lanes, ws->done + a,
        ws->hist + t * lanes * 8 * 256, pending, ws->scan + t * SLOT(2 * lanes));
}

/* Early exits, probe lines, and the rows whose bottom-up bits moved:  */
/* listed in ``updated`` and written back.                             */
static void bu_post_task(void *ctx, int64_t t, int64_t nt) {
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes, per_line = ws->txn_bytes / 8;
    int64_t a = cut(lr->nbu, t, nt), b = cut(lr->nbu, t + 1, nt);
    int64_t k = a, early = 0, probe_lines = 0;
    for (int64_t i = a; i < b; i++) {
        int64_t p = ws->probes[i];
        if (ws->done[i] && p < ws->ends[i] - ws->starts[i]) early++;
        probe_lines += ceil_div(p, per_line);
        /* "Updated" compares against BSA_k's masked word. */
        const uint64_t *acc = ws->acc + i * lanes, *s = ws->words + i * lanes;
        uint64_t moved = 0;
        for (int64_t l = 0; l < lanes; l++) moved |= acc[l] & ~s[l];
        if (moved) {
            int64_t v = ws->fq_bu[i];
            ws->updated[k++] = v;
            for (int64_t l = 0; l < lanes; l++) ws->bsa[v * lanes + l] |= acc[l];
        }
    }
    int64_t *sums = task_sums(ws, t);
    sums[0] = k - a;
    sums[1] = early;
    sums[2] = probe_lines;
}

/* The round-major probe stream's pricing, as one background task: it  */
/* runs beside the level's later phases, so it keeps to slot nthreads  */
/* of the sums and line maps, and to ``live``.                         */
static void round_price_task(void *ctx, int64_t t, int64_t nt) {
    (void)t;
    (void)nt;
    level_run *lr = ctx;
    const level_ws *ws = lr->ws;
    line_map map;
    task_map(ws, ws->nthreads, &map);
    round_coalesce_rows(ws->rcols, ws->starts, ws->probes, lr->nbu, &map,
                        ws->live, task_sums(ws, ws->nthreads));
}

/* --- 4. Extraction --------------------------------------------------- */
/* The changed rows of the union of targets and updated rows (both     */
/* ascending): their diffs, ids and degrees become the next frontier,  */
/* they are written back into BSA_k, and their bits are swept into the */
/* depths and the per-bit tallies.  Returns their count.               */
static int64_t extract_rows(level_run *lr, int64_t ntargets, int64_t nupd) {
    level_ws *ws = lr->ws;
    const int64_t lanes = ws->lanes;
    const int64_t *targets = ws->targets, *updated = ws->updated;
    int64_t i = 0, j = 0, m = 0;
    while (i < ntargets || j < nupd) {
        int64_t v;
        if (j == nupd || (i < ntargets && targets[i] < updated[j])) {
            v = targets[i++];
        } else {
            v = updated[j++];
            if (i < ntargets && targets[i] == v) i++;
        }
        const uint64_t *live_row = ws->bsa + v * lanes;
        uint64_t *k_row = ws->bsa_k + v * lanes;
        uint64_t any = 0;
        for (int64_t l = 0; l < lanes; l++) any |= live_row[l] ^ k_row[l];
        if (!any) continue;
        uint64_t *d = ws->diff_next + m * lanes;
        for (int64_t l = 0; l < lanes; l++) {
            d[l] = live_row[l] ^ k_row[l];
            k_row[l] = live_row[l];
        }
        ws->changed_next[m] = v;
        ws->weights[m] = ws->degrees[v];
        m++;
    }
    bit_sweep(ws->changed_next, ws->diff_next, m, lanes, ws->group_size,
              lr->depths, ws->group_size, lr->elem_size, lr->add, ws->counts,
              ws->weights, ws->fdeg);
    return m;
}

void repro_bitwise_level(level_ws *ws, void *depths, int64_t elem_size,
                         int64_t level, int64_t vector_width,
                         int64_t early_termination, int64_t *st) {
    const int64_t n = ws->n, lanes = ws->lanes, gs = ws->group_size;
    const int64_t tb = ws->txn_bytes, warp = ws->warp;
    const int64_t word_bytes = lanes * 8;
    const uint64_t *td_sel = ws->sel, *bu_sel = ws->sel + lanes;
    int64_t *fq_td = ws->fq_td, *fq_bu = ws->fq_bu;
    level_run lr = {0};
    lr.ws = ws;
    lr.depths = depths;
    lr.elem_size = (int)elem_size;
    lr.add = level + 2;
    lr.early_termination = early_termination;
    int64_t nt;
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
        nt = tasks_for(ws, ws->nchanged);
        run_tasks(&lr, nt, td_ident_task);
        ntd = close_gaps(ws, fq_td, ws->nchanged, nt, 0);
    }
    if (any_bu) {
        int64_t m = ws->ncand < 0 ? n : ws->ncand;
        nt = tasks_for(ws, m);
        run_tasks(&lr, nt, bu_ident_task);
        nbu = close_gaps(ws, fq_bu, m, nt, 0);
        ws->ncand = close_gaps(ws, ws->cand, m, nt, 1);
        st[ST_FQ_BU] = sum_slot(ws, nt, 2);
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
        if (lr.pool) pool_release(lr.pool);
        return;
    }

    int64_t loads = 0, stores = 0, load_requests = 0, store_requests = 0;
    int64_t inspections = 0, ntargets = 0, nupd = 0;
    int64_t pricing[2];

    /* --- 2. Top-down: BSA[v] |= BSA_k[f] ---------------------------- */
    if (ntd) {
        lr.ntd = ntd;
        nt = tasks_for(ws, ntd);
        run_tasks(&lr, nt, td_gather_task);
        int64_t adjacency = sum_slot(ws, nt, 0);
        int64_t neighbors = sum_slot(ws, nt, 1);
        price_ids(&lr, fq_td, ntd, pricing);
        loads += ceil_div(ntd * 8, tb) + pricing[0] + adjacency;
        load_requests += pricing[1];
        line_map map;
        task_map(ws, 0, &map);
        ntargets = walk_targets(ws->offsets, ws->cols, fq_td, ntd, n, ws->bsa,
                                ws->words, lanes, &map, ws->flags,
                                ws->targets, pricing);
        loads += pricing[0];
        load_requests += pricing[1];
        price_ids(&lr, ws->targets, ntargets, pricing);
        inspections += neighbors;
        /* Shared-memory merging collapses duplicate neighbor updates; */
        /* only the merged words hit global atomics.                   */
        st[ST_ATOMICS] = ntargets;
        st[ST_SHARED] = neighbors - ntargets;
        stores += pricing[0];
        store_requests += pricing[1];
    }

    /* --- 3. Bottom-up: BSA[f] |= BSA_k[v], early termination -------- */
    if (nbu) {
        lr.nbu = nbu;
        nt = tasks_for(ws, nbu);
        run_tasks(&lr, nt, bu_gather_task);
        ws->prefix[0] = 0;
        for (int64_t i = 0; i < nbu; i++) ws->prefix[i + 1] += ws->prefix[i];
        lr.total = ws->prefix[nbu];
        nt = tasks_for(ws, lr.total);
        run_tasks(&lr, nt, or_scan_task);
        int64_t probed = sum_slot(ws, nt, 0);
        for (int64_t j = 0; j < gs; j++) {
            int64_t sum = 0;
            for (int64_t t = 0; t < nt; t++) sum += ws->pending[t * lanes * 64 + j];
            ws->inspections[j] += sum;
            edges += sum;
        }
        nt = tasks_for(ws, nbu);
        run_tasks(&lr, nt, bu_post_task);
        nupd = close_gaps(ws, ws->updated, nbu, nt, 0);
        inspections += probed;
        st[ST_BU_PROBES] = probed;
        st[ST_EARLY] = sum_slot(ws, nt, 1);
        loads += ceil_div(nbu * 8, tb) + sum_slot(ws, nt, 2);
        /* Nothing later in the level reads the probe stream. */
        run_background(&lr, probed, round_price_task);
        price_ids(&lr, ws->updated, nupd, pricing);
        stores += pricing[0];
        store_requests += pricing[1];
    }

    /* --- 4. Extraction over the touched rows ------------------------ */
    int64_t m = extract_rows(&lr, ntargets, nupd);
    if (lr.background) pool_join(lr.pool);
    if (nbu) {
        loads += task_sums(ws, ws->nthreads)[0];
        load_requests += task_sums(ws, ws->nthreads)[1];
    }
    if (lr.pool) pool_release(lr.pool);
    int64_t *cn = ws->changed_next;
    uint64_t *dn = ws->diff_next;
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
_ABI_VERSION = 8

#: A new build evicts the cache's other libraries once nothing has
#: built or loaded them for this long.
_STALE_SECONDS = 7 * 24 * 3600


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
            ("nthreads", "i"), ("grain", "i"),
            ("bsa", "p"), ("bsa_k", "p"), ("sel", "p"),
            ("counts", "p"), ("fdeg", "p"), ("inspections", "p"),
            ("changed", "p"), ("changed_next", "p"),
            ("diff", "p"), ("diff_next", "p"), ("nchanged", "i"),
            ("cand", "p"), ("ncand", "i"),
            ("fq_td", "p"), ("fq_bu", "p"), ("targets", "p"),
            ("starts", "p"), ("ends", "p"), ("probes", "p"),
            ("updated", "p"), ("weights", "p"), ("prefix", "p"),
            ("words", "p"), ("acc", "p"), ("flags", "p"), ("done", "p"),
            ("tsum", "p"), ("hist", "p"), ("pending", "p"), ("live", "p"),
            ("fresh", "p"), ("scan", "p"), ("seen", "p"),
            ("seen_words", "i"),
        )
    ]


#: int64 sums per task slot of ``level_ws.tsum`` (the C ``TSUM``).
TASK_SUMS = 16


#: The stats vector of one bitwise level: what
#: :c:func:`repro_bitwise_level` fills (its ``ST_*`` enum, in that
#: order) and what the numpy level returns.
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


def _evict_stale(cache: Path, keep: Path) -> None:
    """Unlink the cache's other ``repro_native_*.so`` libraries that no
    build or load has touched for :data:`_STALE_SECONDS`.  Best effort:
    a process that already loaded one keeps its mapping."""
    cutoff = time.time() - _STALE_SECONDS
    for path in cache.glob("repro_native_*.so"):
        if path == keep:
            continue
        try:
            if path.stat().st_mtime < cutoff:
                path.unlink()
        except OSError:
            pass


def build_library() -> Path:
    """Compile (or reuse) the cached shared library.

    Reusing a library refreshes its mtime; publishing a new one evicts
    superseded libraries (:func:`_evict_stale`).  Raises
    :class:`~repro.native.NativeUnavailable` naming the cause when there
    is no C compiler, the compile fails, or the cache directory cannot
    be written.
    """
    cache = _cache_dir()
    lib_path = cache / f"repro_native_{_source_tag()}.so"
    if lib_path.exists():
        try:
            os.utime(lib_path)
        except OSError:
            pass
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
            base_cmd = [cc, "-O3", "-shared", "-fPIC", "-std=c99", "-pthread"]
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
    _evict_stale(cache, lib_path)
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
        p, p, p, i64, p, p, p, ctypes.c_int, p, i64, p, p, p, p, p,
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
