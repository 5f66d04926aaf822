"""Optional compiled backend for the traversal hot loops.

``repro.native`` gives the hottest :mod:`repro.kernels` primitives —
the scatter-OR edge map, the bottom-up OR/hit scans, the round-major
probe stream, and the per-bit bookkeeping tallies — fused scalar-loop
implementations that run outside the interpreter.  The engines run them
whenever :func:`effective` says a provider resolves for the group's
lane count, and the numpy kernels otherwise; plans never name the path.

Three interchangeable providers implement one raw interface:

``numba``
    :mod:`repro.native._numba` — ``@njit(cache=True)`` over the Python
    kernels; preferred when Numba is installed.
``cext``
    :mod:`repro.native._cext` — the same loops as a C translation unit
    compiled on demand with the host C compiler and bound via ctypes;
    the fallback when Numba is absent but a compiler exists.
``python``
    :mod:`repro.native._pykernels` — the uncompiled Numba source;
    never auto-selected (slower than numpy), but selectable for tests
    so the exact loops the JIT compiles are exercised everywhere.

Everything is *optional*: when no provider resolves (pure-python
install, no compiler) the numpy kernels keep running with zero
behavior change, and all variants are bit-identical in results and
simulated counters — only host wall-clock differs.

Environment knobs:

``REPRO_NATIVE=0``
    Disable the native backend entirely; every engine runs the numpy
    kernels.
``REPRO_NATIVE_BACKEND={numba,cext,python}``
    Force one provider instead of the ``numba`` → ``cext`` default
    resolution order.
``REPRO_NATIVE_CACHE=<dir>``
    Where the C provider caches its compiled shared library.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "NativeUnavailable",
    "available",
    "enabled",
    "backend_name",
    "disabled_reason",
    "refresh",
    "force_backend",
    "effective",
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
    "per_bit_counts",
    "per_bit_weighted",
]


class NativeUnavailable(RuntimeError):
    """Raised when a native op is invoked with no resolved provider."""


_BACKENDS = ("numba", "cext", "python")

#: Resolution state: ``_cache["provider"]`` is the resolved provider
#: module (or None), ``_cache["reason"]`` explains a None.
_cache: Dict[str, object] = {}
#: Loaded provider modules by name (independent of resolution).
_loaded: Dict[str, object] = {}
#: Test/bench override: None (resolve normally), ``"off"``, or a name.
_override: Optional[str] = None
#: Zeroed uint8 scratch for unique-target flags, keyed by vertex count.
#: Invariant: all-zero between calls (the kernels clear what they set).
_flag_cache: Dict[int, np.ndarray] = {}
_warm_seconds: Optional[float] = None

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _truthy(value: str) -> bool:
    return value.strip().lower() not in ("0", "false", "off", "no", "")


def _load_backend(name: str):
    if name in _loaded:
        return _loaded[name]
    if name == "numba":
        from repro.native import _numba as mod
    elif name == "cext":
        from repro.native import _cext as mod
    elif name == "python":
        from repro.native import _pykernels as mod
    else:
        raise ImportError(f"unknown native backend {name!r}")
    _loaded[name] = mod
    return mod


def _resolve():
    if "provider" in _cache:
        return _cache["provider"]
    provider = None
    reason = None
    env = os.environ.get("REPRO_NATIVE")
    if env is not None and not _truthy(env):
        reason = f"disabled via REPRO_NATIVE={env}"
    else:
        forced = os.environ.get("REPRO_NATIVE_BACKEND")
        order = (forced,) if forced else ("numba", "cext")
        errors = []
        for name in order:
            try:
                provider = _load_backend(name)
                break
            except ImportError as exc:
                errors.append(f"{name}: {exc}")
        if provider is None:
            reason = "no provider available ({})".format("; ".join(errors))
    _cache["provider"] = provider
    _cache["reason"] = reason
    return provider


def _provider():
    if _override is not None:
        if _override == "off":
            return None
        return _load_backend(_override)
    return _resolve()


def _require():
    provider = _provider()
    if provider is None:
        raise NativeUnavailable(
            disabled_reason() or "no native backend resolved"
        )
    return provider


def available() -> bool:
    """Whether a compiled provider resolved (env gates included)."""
    return _provider() is not None


#: ``enabled`` is the public name engines test; identical to
#: :func:`available` (the env escape hatch folds into resolution).
enabled = available


def backend_name() -> Optional[str]:
    """Resolved provider name (``numba``/``cext``/``python``) or None."""
    provider = _provider()
    return provider.name if provider is not None else None


def disabled_reason() -> Optional[str]:
    """Why no provider resolved (None when one did)."""
    if _override == "off":
        return "disabled via force_backend('off')"
    _resolve()
    return _cache.get("reason")  # type: ignore[return-value]


def refresh() -> None:
    """Drop the resolution cache (e.g. after changing REPRO_NATIVE)."""
    _cache.clear()


@contextlib.contextmanager
def force_backend(name: Optional[str]):
    """Pin provider resolution for the enclosed block.

    ``name`` is a provider (``"numba"``/``"cext"``/``"python"``),
    ``"off"`` to disable the backend entirely (the numpy-only
    behavior), or None to restore normal resolution.  Used by the
    equivalence tests to run one suite per provider and by the
    benchmark harness to time the numpy side without uninstalling
    anything.
    """
    global _override
    if name is not None and name != "off" and name not in _BACKENDS:
        raise ValueError(f"unknown native backend {name!r}")
    previous = _override
    _override = name
    try:
        yield
    finally:
        _override = previous


def effective(lanes: int = 1) -> bool:
    """Whether a group of ``lanes`` status words runs natively here.

    True when a provider resolves, except that the C provider's scan
    prefix buffer is fixed at 64 lanes (4096 instances): wider groups
    run the numpy kernels.  Either path gives bit-identical results and
    simulated counters.
    """
    provider = _provider()
    if provider is None:
        return False
    return provider.name != "cext" or lanes <= 64


# ----------------------------------------------------------------------
# Array-level ops (callers must have checked ``effective``/``enabled``)
# ----------------------------------------------------------------------
def _contig(arr: np.ndarray, dtype) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=dtype)


def _rows2d(words: np.ndarray) -> np.ndarray:
    """``(rows, lanes)`` uint64 view (1-D inputs become one lane)."""
    words = _contig(words, np.uint64)
    return words.reshape(-1, 1) if words.ndim == 1 else words


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
    provider = _require()
    num_vertices = row_offsets.shape[0] - 1
    flags = _flag_cache.get(num_vertices)
    if flags is None:
        flags = np.zeros(num_vertices, dtype=np.uint8)
        _flag_cache[num_vertices] = flags
    out = np.empty(num_vertices, dtype=np.int64)
    pricing = np.zeros((3, 2), dtype=np.int64)
    count = provider.unique_targets(
        _contig(row_offsets, np.int64),
        _contig(col_indices, np.int64),
        _contig(frontier, np.int64),
        flags,
        out,
        int(element_bytes),
        int(transaction_bytes),
        int(warp_size),
        pricing,
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
    provider = _require()
    provider.scatter_or(
        _rows2d(out),
        _contig(row_offsets, np.int64),
        _contig(col_indices, np.int64),
        _contig(frontier, np.int64),
        _rows2d(words),
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
    provider = _require()
    state = _rows2d(state)
    lanes = state.shape[1]
    m = starts.shape[0]
    probes = np.zeros(m, dtype=np.int64)
    acc = np.zeros((m, lanes), dtype=np.uint64)
    done = np.zeros(m, dtype=bool)
    pending = np.zeros(lanes * 64, dtype=np.int64)
    provider.or_scan(
        _contig(indices, np.int64),
        _contig(starts, np.int64),
        _contig(ends, np.int64),
        state,
        _contig(lane_mask, np.uint64),
        _contig(target, np.uint64),
        1 if early_termination else 0,
        _rows2d(bsa_k),
        probes,
        acc,
        done,
        pending,
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
    provider = _require()
    probes = _contig(probes, np.int64)
    total = int(probes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.empty(total, dtype=np.int64)
    round_base = np.zeros(int(probes.max()), dtype=np.int64)
    provider.round_major(
        _contig(indices, np.int64),
        _contig(starts, np.int64),
        probes,
        round_base,
        out,
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
    provider = _require()
    indices = _contig(element_indices, np.int64)
    out = np.zeros(2, dtype=np.int64)
    provider.coalesce(
        indices, int(element_bytes), int(transaction_bytes),
        int(warp_size), out,
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
    provider = _require()
    probes = _contig(probes, np.int64)
    total = int(probes.sum())
    if total == 0:
        return 0, 0
    if warp_size == 1:
        return total, total
    out = np.zeros(2, dtype=np.int64)
    provider.round_coalesce(
        _contig(indices, np.int64),
        _contig(starts, np.int64),
        probes,
        int(num_vertices),
        int(element_bytes),
        int(transaction_bytes),
        int(warp_size),
        out,
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
    provider = _require()
    diff2d = _rows2d(diff)
    rows = _contig(changed, np.int64)
    provider.depth_update(
        rows, diff2d, int(depths_vm.shape[1]), depths_vm, int(value)
    )


def materialize_depths(depths_vm: np.ndarray) -> np.ndarray:
    """Widening ``(vertices, group) -> (group, vertices)`` transpose.

    The final depth materialization: returns a C-contiguous int32
    matrix with ``out[g, v] = depths_vm[v, g]``, sign-extending
    whatever rung of the narrow-dtype ladder ``depths_vm`` is on.
    """
    provider = _require()
    src = np.ascontiguousarray(depths_vm)
    out = np.empty((src.shape[1], src.shape[0]), dtype=np.int32)
    provider.transpose_i32(src, out)
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
    provider = _require()
    depths = _contig(depths, np.int32)
    if depths.ndim == 1:
        depths = depths.reshape(1, -1)
    if inst is None:
        inst_arr, use_inst = _EMPTY_I64, 0
    else:
        inst_arr, use_inst = _contig(inst, np.int64), 1
    m = starts.shape[0]
    probes = np.zeros(m, dtype=np.int64)
    found = np.zeros(m, dtype=bool)
    provider.hit_scan_depth(
        _contig(indices, np.int64),
        _contig(starts, np.int64),
        _contig(degrees, np.int64),
        depths,
        inst_arr,
        use_inst,
        int(level),
        probes,
        found,
    )
    return probes, found


def per_bit_counts(words: np.ndarray, group_size: int) -> np.ndarray:
    """Column sums of the packed bit matrix (instance ``j`` → bit ``j``)."""
    provider = _require()
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
    words2d = _rows2d(words)
    out = np.zeros(words2d.shape[1] * 64, dtype=np.int64)
    provider.per_bit_counts(words2d, out)
    return out[:group_size]


def per_bit_weighted(
    words: np.ndarray, weights: np.ndarray, group_size: int
) -> np.ndarray:
    """Weighted column sums: ``out[j] = weights[bit j set].sum()``."""
    provider = _require()
    if words.size == 0:
        return np.zeros(group_size, dtype=np.int64)
    words2d = _rows2d(words)
    out = np.zeros(words2d.shape[1] * 64, dtype=np.int64)
    provider.per_bit_weighted(
        words2d, _contig(weights, np.int64), out
    )
    return out[:group_size]


# ----------------------------------------------------------------------
# Warm-up and capability reporting
# ----------------------------------------------------------------------
def warmup() -> float:
    """Exercise every native op once; returns (cached) elapsed seconds.

    For the Numba provider this triggers (or loads from cache) the JIT
    compilation of every kernel; for the C provider it compiles and
    loads the shared library.  Call once per process before timing
    anything — exec workers warm up on spawn, and the benchmark
    harness excludes this cost explicitly.  Idempotent; a no-op when
    no provider resolves.
    """
    global _warm_seconds
    if _provider() is None:
        return 0.0
    if _warm_seconds is not None:
        return _warm_seconds
    began = time.perf_counter()
    # A 4-vertex cycle: enough structure to touch every code path's
    # signature once (compilation is per-signature, not per-shape).
    indices = np.array([1, 3, 0, 2, 1, 3, 0, 2], dtype=np.int64)
    starts = np.array([0, 2, 4, 6], dtype=np.int64)
    ends = starts + 2
    degrees = np.full(4, 2, dtype=np.int64)
    bsa = np.zeros((4, 1), dtype=np.uint64)
    lane_mask = np.array([3], dtype=np.uint64)
    inspections = np.zeros(2, dtype=np.int64)
    offsets = np.append(starts, indices.size)
    frontier = np.arange(4, dtype=np.int64)
    unique_targets(offsets, indices, frontier, 8, 128, 2)
    scatter_or(bsa, offsets, indices, frontier, np.ones((4, 1), dtype=np.uint64))
    for early_termination in (False, True):
        probes, _, _ = or_scan(
            indices, starts, ends, bsa.copy(), lane_mask, lane_mask,
            early_termination, bsa, inspections,
        )
    round_major_probes(indices, starts, probes)
    coalesced_transactions(indices, 8, 128, 2)
    bottom_up_coalesced(indices, starts, probes, 4, 8, 128, 2)
    for dtype in (np.int8, np.int16, np.int32):
        depth_update(
            np.full((4, 2), -1, dtype=dtype),
            np.array([0, 2], dtype=np.int64),
            np.array([[1], [2]], dtype=np.uint64),
            3,
        )
        materialize_depths(np.full((4, 2), -1, dtype=dtype))
    depth_rows = np.zeros((2, 4), dtype=np.int32)
    hit_scan_depth(indices, starts, degrees, depth_rows, 0)
    hit_scan_depth(
        indices, starts, degrees, depth_rows, 0,
        inst=np.zeros(4, dtype=np.int64),
    )
    per_bit_counts(bsa, 2)
    per_bit_weighted(bsa, degrees, 2)
    _warm_seconds = time.perf_counter() - began
    return _warm_seconds


def capability_report() -> Dict[str, object]:
    """What the native backend resolved to on this host."""
    from repro.native import _csrc

    try:
        import numba  # noqa: F401

        numba_version: Optional[str] = getattr(
            numba, "__version__", "unknown"
        )
    except ImportError:
        numba_version = None
    provider = _provider()
    return {
        "enabled": provider is not None,
        "backend": provider.name if provider is not None else None,
        "reason": None if provider is not None else disabled_reason(),
        "numba": numba_version,
        "compiler": _csrc._compiler(),
        "warmup_seconds": _warm_seconds,
    }
