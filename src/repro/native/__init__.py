"""Compiled host loops for the traversal hot paths.

``repro.native`` gives the hottest :mod:`repro.kernels` primitives —
the scatter-OR edge map, the bottom-up OR/hit scans and the round-major
probe stream — fused scalar-loop implementations in C
(:mod:`repro.native._csrc`), compiled on demand with the host C
compiler into a cached shared library and called here through
:mod:`ctypes`.  The engines run them whenever the library loaded
(:func:`available`), for any group width, and the numpy kernels
otherwise; plans never name the path.

The bitwise engine runs each level as one call:
:class:`LevelKernel` drives ``repro_bitwise_level``, which strings the
same C loops the per-op functions here call (frontier identification,
top-down edge map, bottom-up OR scan, extraction, tallies, depth write
and pricing) over buffers allocated once per ``(n, lanes)`` shape.
Inside that call each large threaded phase (identification, the
gathers, the OR scan and its post pass, stream pricing) runs on the
level threads: one pthreads pool per process inside the library,
started by the first phase whose work crosses :data:`LEVEL_GRAIN`,
with the calling thread taking tasks beside the workers.  The
top-down edge walk and the extraction stay on the calling thread, and
the probe stream is priced as one background task.  A kernel gets
:func:`level_threads` threads when it is built (the usable CPUs, at
most :data:`MAX_LEVEL_THREADS`; a :class:`~repro.exec.GroupExecutor`
worker gets its share), or one on a graph with fewer than
:data:`LEVEL_MIN_EDGES` edges.  Results and simulated counters do not
depend on the thread count.
:func:`unique_targets`, :func:`scatter_or`, :func:`or_scan`,
:func:`depth_update` and :func:`bottom_up_coalesced` have no engine
caller any more: they are kept because the repository benchmark's
layer trace resolves them by name and the per-op equivalence tests
call them, and :func:`warmup` does not run them.

The library is *optional*: when it does not load (no C compiler, a
failed compile, or the kill switch) the numpy kernels keep running
with zero behavior change.  Both paths are bit-identical in results
and simulated counters — only host wall-clock differs — and the numpy
kernels are the reference every op here is tested against.  Importing
this module compiles nothing; the first call that needs the library
builds or loads it.

Environment knobs:

``REPRO_NATIVE=0``
    Disable the compiled library; every engine runs the numpy kernels.
``REPRO_NATIVE_CACHE=<dir>``
    Where the compiled shared library is cached.  Publishing a new
    build there removes other source revisions' libraries that no
    build or load has touched for 7 days.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import time
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "NativeUnavailable",
    "available",
    "backend_name",
    "disabled_reason",
    "refresh",
    "force_backend",
    "warmup",
    "capability_report",
    "unique_targets",
    "scatter_or",
    "or_scan",
    "round_major_probes",
    "coalesced_transactions",
    "bottom_up_coalesced",
    "depth_update",
    "materialize_depths",
    "hit_scan_depth",
    "LevelKernel",
    "usable_cpus",
    "level_threads",
    "MAX_LEVEL_THREADS",
    "LEVEL_GRAIN",
    "LEVEL_MIN_EDGES",
]


class NativeUnavailable(RuntimeError):
    """Raised when the compiled library cannot be built or loaded, or
    when a native op is invoked without it."""


#: Resolution state: ``_cache["lib"]`` is the loaded library (or None),
#: ``_cache["reason"]`` explains a None.
_cache: Dict[str, object] = {}
#: Test/bench override: None (resolve normally) or ``"off"``.
_override: Optional[str] = None
#: Zeroed uint8 scratch for unique-target flags, keyed by vertex count.
#: Invariant: all-zero between calls (the kernels clear what they set).
_flag_cache: Dict[int, np.ndarray] = {}
_warm_seconds: Optional[float] = None

#: Most level threads one kernel runs, however many CPUs the host has.
#: Throughput and peak RSS were measured at 2 threads only; raise it
#: once larger counts are measured.  Each thread adds about 17 KiB of
#: scratch per 64 sources of a group, whatever the graph.
MAX_LEVEL_THREADS = 2
#: The level-thread budget: None means the usable CPUs, at most
#: :data:`MAX_LEVEL_THREADS`.  A :class:`~repro.exec.GroupExecutor`
#: worker process sets its share of the parent's budget here before it
#: builds its engine.
LEVEL_THREADS: Optional[int] = None
#: Work items (frontier rows, edges, candidates or probes, by phase)
#: each task of a level phase must get: a phase with less than twice
#: this much runs on the calling thread and wakes no other.
LEVEL_GRAIN = 4096
#: Fewest edges a graph needs for its kernels to run on more than one
#: thread.  On smaller graphs (the 2**15-edge R-MAT of the dispatch
#: gate, groups of 8) a level's phases are too short for a worker's
#: wake-up (10-30 us on a 2-vCPU host) to pay; threads only add jitter.
LEVEL_MIN_EDGES = 1 << 17


def _truthy(value: str) -> bool:
    return value.strip().lower() not in ("0", "false", "off", "no", "")


def _resolve():
    if "lib" in _cache:
        return _cache["lib"]
    lib = None
    reason = None
    env = os.environ.get("REPRO_NATIVE")
    if env is not None and not _truthy(env):
        reason = f"disabled via REPRO_NATIVE={env}"
    else:
        from repro.native import _csrc

        try:
            lib = _csrc.load_library()
        except NativeUnavailable as exc:
            reason = str(exc)
    _cache["lib"] = lib
    _cache["reason"] = reason
    return lib


def _library():
    if _override == "off":
        return None
    return _resolve()


def _require():
    lib = _library()
    if lib is None:
        raise NativeUnavailable(
            disabled_reason() or "compiled library not loaded"
        )
    return lib


def available() -> bool:
    """Whether the compiled library loaded (env gates included)."""
    return _library() is not None


def backend_name() -> Optional[str]:
    """``"cext"`` when the compiled library loaded, else None."""
    return "cext" if _library() is not None else None


def disabled_reason() -> Optional[str]:
    """Why the compiled library is not in use (None when it is)."""
    if _override == "off":
        return "disabled via force_backend('off')"
    _resolve()
    return _cache.get("reason")  # type: ignore[return-value]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the host's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def level_threads() -> int:
    """Threads a :class:`LevelKernel` built now runs its level phases on
    (on a graph of at least :data:`LEVEL_MIN_EDGES` edges):
    :data:`LEVEL_THREADS`, or else :func:`usable_cpus`, at most
    :data:`MAX_LEVEL_THREADS`."""
    if LEVEL_THREADS is not None:
        return max(1, int(LEVEL_THREADS))
    return max(1, min(usable_cpus(), MAX_LEVEL_THREADS))


def refresh() -> None:
    """Drop the resolution cache (e.g. after changing REPRO_NATIVE)."""
    _cache.clear()


@contextlib.contextmanager
def force_backend(name: Optional[str]):
    """Pin resolution for the enclosed block.

    ``"off"`` disables the compiled library (the numpy-only behavior);
    None restores normal resolution.  Used by the equivalence tests to
    run the numpy reference beside the compiled ops and by the
    benchmark harness to time the numpy side without uninstalling
    anything.
    """
    global _override
    if name is not None and name != "off":
        raise ValueError(f"unknown native backend {name!r}")
    previous = _override
    _override = name
    try:
        yield
    finally:
        _override = previous


# ----------------------------------------------------------------------
# Array-level ops (callers must have checked ``available``)
#
# Every array handed to the library is bound to a local first: the
# pointer ``_p`` takes is valid only while that array is alive.
# ----------------------------------------------------------------------
def _contig(arr: np.ndarray, dtype) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=dtype)


def _rows2d(words: np.ndarray) -> np.ndarray:
    """``(rows, lanes)`` uint64 view (1-D inputs become one lane)."""
    words = _contig(words, np.uint64)
    return words.reshape(-1, 1) if words.ndim == 1 else words


def _p(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _slots(count: int, items: int, dtype) -> np.ndarray:
    """``count`` zeroed per-thread slots of ``items`` elements each, every
    slot rounded up to whole 64-byte lines and the first one starting
    on a line, so no two threads write one cache line (the C ``SLOT``
    stride)."""
    itemsize = np.dtype(dtype).itemsize
    per_line = 64 // itemsize
    stride = -(-max(items, 1) // per_line) * per_line
    raw = np.zeros(count * stride + per_line, dtype=dtype)
    skip = (-raw.ctypes.data % 64) // itemsize
    return raw[skip : skip + count * stride]


def _checked(status: int) -> int:
    # The pricing kernels allocate their warp sets; -1 means they could not.
    if status < 0:
        raise MemoryError("repro.native: warp set allocation failed")
    return status


def unique_targets(
    row_offsets: np.ndarray,
    col_indices: np.ndarray,
    frontier: np.ndarray,
    element_bytes: int,
    transaction_bytes: int,
    warp_size: int,
) -> Tuple[np.ndarray, Tuple[Tuple[int, int], ...]]:
    """First walk of the fused top-down edge map.

    Walks the ``frontier`` rows of the CSR ``(row_offsets,
    col_indices)`` in place and returns ``(targets, pricing)``:
    ``targets`` are the sorted unique neighbors (``np.unique`` of the
    :func:`~repro.util.gather_neighbors` stream, via flags and an
    ascending sweep, no argsort), and ``pricing`` holds the
    ``(transactions, requests)`` of the level's frontier, neighbor and
    target streams — what
    :meth:`MemoryModel.coalesced_transactions
    <repro.gpusim.memory.MemoryModel.coalesced_transactions>` returns
    for ``frontier``, the neighbor stream and ``targets`` with
    ``element_bytes``-wide elements — each priced by the walk or sweep
    that already touches it, at O(1) per access.
    """
    lib = _require()
    offsets = _contig(row_offsets, np.int64)
    cols = _contig(col_indices, np.int64)
    frontier = _contig(frontier, np.int64)
    num_vertices = offsets.shape[0] - 1
    flags = _flag_cache.get(num_vertices)
    if flags is None:
        flags = np.zeros(num_vertices, dtype=np.uint8)
        _flag_cache[num_vertices] = flags
    out = np.empty(num_vertices, dtype=np.int64)
    pricing = np.zeros((3, 2), dtype=np.int64)
    count = _checked(
        lib.repro_unique_targets(
            _p(offsets),
            _p(cols),
            _p(frontier),
            frontier.shape[0],
            num_vertices,
            _p(flags),
            _p(out),
            int(element_bytes),
            int(transaction_bytes),
            int(warp_size),
            _p(pricing),
        )
    )
    return out[:count], tuple(map(tuple, pricing.tolist()))


def scatter_or(
    out: np.ndarray,
    row_offsets: np.ndarray,
    col_indices: np.ndarray,
    frontier: np.ndarray,
    words: np.ndarray,
) -> None:
    """Second walk of the fused top-down edge map, in place.

    ``out[v] |= words[r]`` for every neighbor ``v`` of ``frontier[r]``
    in the CSR ``(row_offsets, col_indices)`` — the scatter-OR without
    a materialized neighbor array or ``np.repeat`` word index.
    """
    lib = _require()
    out = _rows2d(out)
    offsets = _contig(row_offsets, np.int64)
    cols = _contig(col_indices, np.int64)
    frontier = _contig(frontier, np.int64)
    words = _rows2d(words)
    lib.repro_scatter_or(
        _p(out),
        _p(offsets),
        _p(cols),
        _p(frontier),
        frontier.shape[0],
        _p(words),
        out.shape[1],
    )


def or_scan(
    indices: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    state: np.ndarray,
    lane_mask: np.ndarray,
    target: np.ndarray,
    early_termination: bool,
    bsa_k: np.ndarray,
    inspections_out: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused bottom-up OR scan; returns ``(probes, acc, done)``.

    Probes read rows of ``bsa_k``, the level's status-array snapshot
    (:attr:`LevelWorkspace.snapshot
    <repro.kernels.workspace.LevelWorkspace.snapshot>`).  Per-instance
    inspection tallies are added to ``inspections_out`` exactly as the
    numpy scan counts them.
    """
    lib = _require()
    indices = _contig(indices, np.int64)
    starts = _contig(starts, np.int64)
    ends = _contig(ends, np.int64)
    state = _rows2d(state)
    lane_mask = _contig(lane_mask, np.uint64)
    target = _contig(target, np.uint64)
    bsa_k = _rows2d(bsa_k)
    lanes = state.shape[1]
    m = starts.shape[0]
    probes = np.zeros(m, dtype=np.int64)
    acc = np.zeros((m, lanes), dtype=np.uint64)
    done = np.zeros(m, dtype=bool)
    pending = np.zeros(lanes * 64, dtype=np.int64)
    scratch = np.zeros(2 * lanes, dtype=np.uint64)
    lib.repro_or_scan(
        _p(indices),
        _p(starts),
        _p(ends),
        m,
        _p(state),
        _p(lane_mask),
        _p(target),
        1 if early_termination else 0,
        _p(bsa_k),
        lanes,
        _p(probes),
        _p(acc),
        _p(done),
        _p(pending),
        _p(scratch),
    )
    np.add(
        inspections_out,
        pending[: inspections_out.size],
        out=inspections_out,
    )
    return probes, acc, done


def round_major_probes(
    indices: np.ndarray, starts: np.ndarray, probes: np.ndarray
) -> np.ndarray:
    """Round-major probed-neighbor stream (counting sort, no argsort)."""
    lib = _require()
    probes = _contig(probes, np.int64)
    total = int(probes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    indices = _contig(indices, np.int64)
    starts = _contig(starts, np.int64)
    out = np.empty(total, dtype=np.int64)
    round_base = np.zeros(int(probes.max()), dtype=np.int64)
    lib.repro_round_major(
        _p(indices),
        _p(starts),
        _p(probes),
        probes.shape[0],
        round_base.shape[0],
        _p(round_base),
        _p(out),
    )
    return out


def coalesced_transactions(
    element_indices: np.ndarray,
    element_bytes: int,
    transaction_bytes: int,
    warp_size: int,
) -> Tuple[int, int]:
    """Warp-coalesced ``(transactions, requests)`` for an access stream.

    The compiled restatement of
    :meth:`repro.gpusim.memory.MemoryModel.coalesced_transactions` —
    distinct ``transaction_bytes`` segments per ``warp_size`` thread
    group — counting the same values without materializing, padding,
    and sorting the per-warp line grid.  Indices are unbounded, so the
    open warp's lines go in a hash set of at least ``2 * warp_size``
    slots: O(1) per access for any warp size.
    """
    lib = _require()
    indices = _contig(element_indices, np.int64)
    out = np.zeros(2, dtype=np.int64)
    _checked(
        lib.repro_coalesce(
            _p(indices),
            indices.shape[0],
            int(element_bytes),
            int(transaction_bytes),
            int(warp_size),
            _p(out),
        )
    )
    return int(out[0]), int(out[1])


def bottom_up_coalesced(
    indices: np.ndarray,
    starts: np.ndarray,
    probes: np.ndarray,
    num_vertices: int,
    element_bytes: int,
    transaction_bytes: int,
    warp_size: int,
) -> Tuple[int, int]:
    """Price the round-major probe stream without materializing it.

    ``(transactions, requests)`` identical to
    :func:`round_major_probes` followed by
    :func:`coalesced_transactions` on its output — the stream is
    generated round-by-round inside the kernel and fed straight
    through a warp set over the ``num_vertices`` vertices' lines, at
    O(1) per probe.  ``warp_size == 1`` (the CPU model) short-circuits
    to one transaction per probe, matching
    :meth:`MemoryModel.coalesced_transactions
    <repro.gpusim.memory.MemoryModel.coalesced_transactions>`.
    """
    lib = _require()
    probes = _contig(probes, np.int64)
    total = int(probes.sum())
    if total == 0:
        return 0, 0
    if warp_size == 1:
        return total, total
    indices = _contig(indices, np.int64)
    starts = _contig(starts, np.int64)
    out = np.zeros(2, dtype=np.int64)
    _checked(
        lib.repro_round_coalesce(
            _p(indices),
            _p(starts),
            _p(probes),
            probes.shape[0],
            int(num_vertices),
            int(element_bytes),
            int(transaction_bytes),
            int(warp_size),
            _p(out),
        )
    )
    return int(out[0]), int(out[1])


def depth_update(
    depths_vm: np.ndarray,
    changed: np.ndarray,
    diff: np.ndarray,
    value: int,
) -> None:
    """``depths_vm[changed[i], j] += value`` for each set bit j of diff.

    The depth-extraction write of ``core/bitwise.py`` without the
    materialized unpack/astype/multiply temporaries; ``depths_vm``
    stays on whatever rung of the narrow-dtype ladder it is on.
    """
    lib = _require()
    rows = _contig(changed, np.int64)
    diff = _rows2d(diff)
    lib.repro_depth_update(
        _p(rows),
        _p(diff),
        rows.shape[0],
        diff.shape[1],
        int(depths_vm.shape[1]),
        _p(depths_vm),
        depths_vm.shape[1],
        depths_vm.dtype.itemsize,
        int(value),
    )


def materialize_depths(depths_vm: np.ndarray) -> np.ndarray:
    """Widening ``(vertices, group) -> (group, vertices)`` transpose.

    The final depth materialization: returns a C-contiguous int32
    matrix with ``out[g, v] = depths_vm[v, g]``, sign-extending
    whatever rung of the narrow-dtype ladder ``depths_vm`` is on.
    """
    lib = _require()
    src = np.ascontiguousarray(depths_vm)
    out = np.empty((src.shape[1], src.shape[0]), dtype=np.int32)
    lib.repro_transpose_i32(
        _p(src), src.shape[0], src.shape[1], src.dtype.itemsize, _p(out)
    )
    return out


def hit_scan_depth(
    indices: np.ndarray,
    starts: np.ndarray,
    degrees: np.ndarray,
    depths: np.ndarray,
    level: int,
    inst: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """First-hit scan against a depth table; ``(probes, found)``.

    A probe hits when the neighbor's depth satisfies ``0 <= depth <=
    level``.  ``depths`` is ``(group_size, n)`` with ``inst[i]``
    selecting position ``i``'s row, or 1-D for single-source tables.
    """
    lib = _require()
    indices = _contig(indices, np.int64)
    starts = _contig(starts, np.int64)
    degrees = _contig(degrees, np.int64)
    depths = _contig(depths, np.int32)
    if depths.ndim == 1:
        depths = depths.reshape(1, -1)
    if inst is not None:
        inst = _contig(inst, np.int64)
    m = starts.shape[0]
    probes = np.zeros(m, dtype=np.int64)
    found = np.zeros(m, dtype=bool)
    lib.repro_hit_scan_depth(
        _p(indices),
        _p(starts),
        _p(degrees),
        m,
        _p(depths),
        depths.shape[1],
        None if inst is None else _p(inst),
        int(level),
        _p(probes),
        _p(found),
    )
    return probes, found


# ----------------------------------------------------------------------
# The fused bitwise level
# ----------------------------------------------------------------------
class LevelKernel:
    """One :class:`~repro.core.bitwise.BitwiseTraversal` level per call.

    :meth:`run_level` runs a whole level — frontier identification, the
    top-down edge map, the bottom-up OR scan, changed-row extraction,
    the per-bit tallies, the depth write and every pricing term — as
    one call into the library (``repro_bitwise_level``), built from the
    same C loops as the per-op functions above.  Every buffer is
    allocated here, once per ``(num_vertices, lanes)`` shape, and the C
    struct holding their addresses is built once, so a level allocates
    nothing and crosses ctypes once.

    The kernel reads :func:`level_threads`, :data:`LEVEL_GRAIN` and
    :data:`LEVEL_MIN_EDGES` when it is built and sizes one slot of
    per-task scratch (a line map, scan tallies, partial sums: about
    17 KiB per 64 sources of a group) per thread, of which only the line
    map grows with n, by a bit per 128-byte line of the status array;
    plus sums, a line map and a probe live list for the background
    probe pricing.  Each threaded phase of a
    level splits into one task per ``LEVEL_GRAIN`` items, up to that
    many tasks; priced streams are cut only at multiples of the warp
    size, so every counter is the serial one.

    Between levels the kernel holds the group's traversal state:
    ``BSA_k``, kept equal to the live array by writing back only the
    rows that changed (the numpy path copies the whole array per
    level); the last level's ``(changed, diff)`` frontier with each
    instance's frontier size and degree sum, as
    :class:`~repro.kernels.workspace.LevelWorkspace` holds them; and the
    bottom-up candidates, the vertices that may still gain an active
    instance's bit, which shrink level by level.  Results and simulated
    counters are bit-identical to the numpy path.
    """

    def __init__(
        self,
        row_offsets: np.ndarray,
        col_indices: np.ndarray,
        out_degrees: np.ndarray,
        lanes: int,
        transaction_bytes: int,
        warp_size: int,
        instructions_per_inspection: int,
        instructions_per_vertex: int,
    ) -> None:
        from repro.native._csrc import LEVEL_STATS, TASK_SUMS, LevelState

        _require()
        n = row_offsets.shape[0] - 1
        self.num_vertices = n
        self.lanes = lanes
        #: Level threads, hence slots of per-task scratch.
        self.threads = threads = (
            level_threads() if row_offsets[-1] >= LEVEL_MIN_EDGES else 1
        )
        seen_words = n * 8 * lanes // transaction_bytes // 64 + 1

        def ints(size):
            return np.zeros(size, dtype=np.int64)

        def words(size):
            return np.zeros(size, dtype=np.uint64)

        self._buffers = buffers = {
            "offsets": _contig(row_offsets, np.int64),
            "cols": _contig(col_indices, np.int64),
            "degrees": _contig(out_degrees, np.int64),
            "bsa_k": words((n, lanes)),
            "sel": words((2, lanes)),
            "counts": ints(lanes * 64),
            "fdeg": ints(lanes * 64),
            "changed": ints(n),
            "changed_next": ints(n),
            "diff": words((n, lanes)),
            "diff_next": words((n, lanes)),
            "cand": ints(n),
            "fq_td": ints(n),
            "fq_bu": ints(n),
            "targets": ints(n),
            "starts": ints(n),
            "ends": ints(n),
            "probes": ints(n),
            "updated": ints(n),
            "weights": ints(n),
            "prefix": ints(n + 1),
            "words": words((n, lanes)),
            "acc": words((n, lanes)),
            "flags": np.zeros(n, dtype=np.uint8),
            "done": np.zeros(n, dtype=np.uint8),
            # One slot per thread each, and sums, a line map and the
            # live list for the background probe pricing, which runs
            # beside other phases.
            "tsum": _slots(threads + 1, TASK_SUMS, np.int64),
            "hist": _slots(threads, lanes * 8 * 256, np.int64),
            "pending": _slots(threads, lanes * 64, np.int64),
            "live": ints(2 * n + 2),
            "fresh": _slots(threads + 1, warp_size, np.int64),
            "scan": _slots(threads, 2 * lanes, np.uint64),
            "seen": _slots(threads + 1, seen_words, np.uint64),
        }
        self._state = LevelState(
            n=n,
            lanes=lanes,
            txn_bytes=transaction_bytes,
            warp=warp_size,
            insn_per_inspection=instructions_per_inspection,
            insn_per_vertex=instructions_per_vertex,
            nthreads=threads,
            grain=max(1, int(LEVEL_GRAIN)),
            seen_words=seen_words,
            **{name: _p(array) for name, array in buffers.items()},
        )
        self._address = ctypes.addressof(self._state)
        self._stats = np.zeros(len(LEVEL_STATS), dtype=np.int64)
        self._stats_address = _p(self._stats)
        self._group_size = 0
        #: Arrays the struct points into besides the buffers above.
        self._group: Tuple[np.ndarray, ...] = ()
        self._reverse: Tuple[np.ndarray, ...] = ()

    def bind_reverse(self, row_offsets: np.ndarray, col_indices: np.ndarray) -> None:
        """Point the bottom-up scan at the reverse CSR (once per graph)."""
        if self._reverse and self._reverse[0] is row_offsets:
            return
        offsets = _contig(row_offsets, np.int64)
        cols = _contig(col_indices, np.int64)
        self._reverse = (row_offsets, offsets, cols)
        self._state.roffsets = _p(offsets)
        self._state.rcols = _p(cols)

    def begin_group(
        self,
        bsa: np.ndarray,
        rows: np.ndarray,
        diff: np.ndarray,
        counts: np.ndarray,
        frontier_edges: np.ndarray,
        inspections: np.ndarray,
        reset_per_level: bool,
    ) -> None:
        """Start a group on the live C-contiguous ``(n, lanes)`` uint64
        ``bsa``: level 0's frontier is ``(rows, diff)`` with per-instance
        sizes ``counts`` and degree sums ``frontier_edges``; bottom-up
        inspections accumulate into the int64 ``inspections``."""
        buffers = self._buffers
        state = self._state
        group_size = inspections.shape[0]
        np.copyto(buffers["bsa_k"], bsa)
        size = rows.shape[0]
        buffers["changed"][:size] = rows
        buffers["diff"][:size] = diff
        buffers["counts"][:group_size] = counts
        buffers["fdeg"][:group_size] = frontier_edges
        for name in ("changed", "changed_next", "diff", "diff_next"):
            setattr(state, name, _p(buffers[name]))
        state.nchanged = size
        state.ncand = -1
        state.group_size = group_size
        state.reset_per_level = int(reset_per_level)
        state.bsa = _p(bsa)
        state.inspections = _p(inspections)
        self._group = (bsa, inspections)
        self._group_size = group_size

    def run_level(
        self,
        depths_vm: np.ndarray,
        td_lanes: np.ndarray,
        bu_lanes: np.ndarray,
        level: int,
        vector_width: int,
        early_termination: bool,
    ) -> list:
        """Run level ``level`` with the top-down instances' lane mask
        ``td_lanes`` and the bottom-up ones' ``bu_lanes``, writing new
        depths into the C-contiguous ``(n, group)`` ``depths_vm`` on
        whatever rung of the narrow-dtype ladder it is on.  Returns the
        stats vector, named by ``repro.native._csrc.LEVEL_STATS``."""
        sel = self._buffers["sel"]
        sel[0] = td_lanes
        sel[1] = bu_lanes
        _require().repro_bitwise_level(
            self._address,
            _p(depths_vm),
            depths_vm.dtype.itemsize,
            level,
            vector_width,
            1 if early_termination else 0,
            self._stats_address,
        )
        return self._stats.tolist()

    def new_frontier(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-instance ``(sizes, degree sums)`` of the frontier the last
        level found (fresh arrays)."""
        size = self._group_size
        return (
            self._buffers["counts"][:size].copy(),
            self._buffers["fdeg"][:size].copy(),
        )


# ----------------------------------------------------------------------
# Warm-up and capability reporting
# ----------------------------------------------------------------------
def warmup() -> float:
    """Exercise the ops the engines call; returns (cached) elapsed seconds.

    Compiles (or loads from the cache) the shared library and runs each
    op an engine calls on a tiny input (not the per-op forms of the
    fused level, which only the tests call).  Call once per process
    before timing anything — exec workers warm up on spawn, and the
    benchmark harness excludes this cost explicitly.  Idempotent; a
    no-op when the library does not load.
    """
    global _warm_seconds
    if _library() is None:
        return 0.0
    if _warm_seconds is not None:
        return _warm_seconds
    began = time.perf_counter()
    # A 4-vertex cycle: enough structure to touch every op once.
    indices = np.array([1, 3, 0, 2, 1, 3, 0, 2], dtype=np.int64)
    starts = np.array([0, 2, 4, 6], dtype=np.int64)
    degrees = np.full(4, 2, dtype=np.int64)
    offsets = np.append(starts, indices.size)
    round_major_probes(indices, starts, np.array([1, 2, 0, 2], dtype=np.int64))
    coalesced_transactions(indices, 8, 128, 2)
    for dtype in (np.int8, np.int16, np.int32):
        materialize_depths(np.full((4, 2), -1, dtype=dtype))
    depth_rows = np.zeros((2, 4), dtype=np.int32)
    hit_scan_depth(indices, starts, degrees, depth_rows, 0)
    hit_scan_depth(
        indices, starts, degrees, depth_rows, 0,
        inst=np.zeros(4, dtype=np.int64),
    )
    # Two instances from vertices 0 and 1: a mixed level (instance 0
    # top-down, 1 bottom-up), then an all-bottom-up one, on every rung.
    kernel = LevelKernel(offsets, indices, degrees, 1, 128, 2, 6, 6)
    kernel.bind_reverse(offsets, indices)
    for dtype in (np.int8, np.int16, np.int32):
        depths = np.full((4, 2), -1, dtype=dtype)
        depths[[0, 1], [0, 1]] = 0
        status = np.array([[1], [2], [0], [0]], dtype=np.uint64)
        kernel.begin_group(
            status, np.array([0, 1], dtype=np.int64), status[:2].copy(),
            np.ones(2, dtype=np.int64), degrees[:2].copy(),
            np.zeros(2, dtype=np.int64), False,
        )
        for level, td_lanes, bu_lanes in ((0, 1, 2), (1, 0, 3)):
            kernel.run_level(
                depths, np.array([td_lanes], dtype=np.uint64),
                np.array([bu_lanes], dtype=np.uint64), level, 1, True,
            )
            kernel.new_frontier()
    _warm_seconds = time.perf_counter() - began
    return _warm_seconds


def capability_report() -> Dict[str, object]:
    """What the native backend resolved to on this host."""
    from repro.native import _csrc

    enabled = available()
    return {
        "enabled": enabled,
        "backend": backend_name(),
        "reason": None if enabled else disabled_reason(),
        "compiler": _csrc._compiler(),
        "warmup_seconds": _warm_seconds,
        "level_threads": level_threads(),
        "level_grain": LEVEL_GRAIN,
        "level_min_edges": LEVEL_MIN_EDGES,
    }
