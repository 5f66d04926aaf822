"""C-extension provider: ctypes bindings over the cached shared library.

Importing this module raises :class:`ImportError` when no C compiler
is available (or compilation fails); provider resolution in
:mod:`repro.native` treats that as "cext unavailable".  The binding
functions present exactly the raw interface of
:mod:`repro.native._pykernels` — caller-allocated outputs, sentinel
arrays instead of ``None`` — so the allocation layer above is
provider-agnostic.

All array arguments must be C-contiguous with the canonical dtypes
(int64 indices/counts, uint64 status words, int32 depths, bool
``done``/``found``); the ops layer in :mod:`repro.native` guarantees
this before calling down.
"""

from __future__ import annotations

import numpy as np

from repro.native import _csrc

name = "cext"

_lib = _csrc.load_library()
if _lib is None:
    raise ImportError(
        "repro.native C extension unavailable: no working C compiler "
        "or compilation failed"
    )


def _p(arr: np.ndarray) -> int:
    return arr.ctypes.data


def _checked(status: int) -> int:
    # The pricing kernels allocate their warp sets; -1 means they could not.
    if status < 0:
        raise MemoryError("repro.native: warp set allocation failed")
    return status


def unique_targets(
    offsets, cols, frontier, flags, out, element_bytes, txn_bytes, warp,
    pricing,
):
    return _checked(
        _lib.repro_unique_targets(
            _p(offsets),
            _p(cols),
            _p(frontier),
            frontier.shape[0],
            flags.shape[0],
            _p(flags),
            _p(out),
            int(element_bytes),
            int(txn_bytes),
            int(warp),
            _p(pricing),
        )
    )


def scatter_or(out, offsets, cols, frontier, words):
    _lib.repro_scatter_or(
        _p(out),
        _p(offsets),
        _p(cols),
        _p(frontier),
        frontier.shape[0],
        _p(words),
        out.shape[1],
    )


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
    return _lib.repro_or_scan(
        _p(indices),
        _p(starts),
        _p(ends),
        starts.shape[0],
        _p(state),
        _p(lane_mask),
        _p(target),
        int(early_termination),
        _p(bsa_k),
        state.shape[1],
        _p(probes),
        _p(acc),
        _p(done),
        _p(inspections),
    )


def coalesce(indices, element_bytes, txn_bytes, warp, out):
    _checked(
        _lib.repro_coalesce(
            _p(indices),
            indices.shape[0],
            int(element_bytes),
            int(txn_bytes),
            int(warp),
            _p(out),
        )
    )


def round_coalesce(
    indices, starts, probes, num_vertices, element_bytes, txn_bytes, warp,
    out,
):
    _checked(
        _lib.repro_round_coalesce(
            _p(indices),
            _p(starts),
            _p(probes),
            probes.shape[0],
            int(num_vertices),
            int(element_bytes),
            int(txn_bytes),
            int(warp),
            _p(out),
        )
    )


def depth_update(rows, diff, group_size, depths, add):
    _lib.repro_depth_update(
        _p(rows),
        _p(diff),
        rows.shape[0],
        diff.shape[1],
        int(group_size),
        _p(depths),
        depths.shape[1],
        depths.dtype.itemsize,
        int(add),
    )


def transpose_i32(src, dst):
    _lib.repro_transpose_i32(
        _p(src),
        src.shape[0],
        src.shape[1],
        src.dtype.itemsize,
        _p(dst),
    )


def round_major(indices, starts, probes, round_base, out):
    _lib.repro_round_major(
        _p(indices),
        _p(starts),
        _p(probes),
        probes.shape[0],
        round_base.shape[0],
        _p(round_base),
        _p(out),
    )


def hit_scan_depth(
    indices, starts, degrees, depths, inst, use_inst, level, probes, found
):
    return _lib.repro_hit_scan_depth(
        _p(indices),
        _p(starts),
        _p(degrees),
        starts.shape[0],
        _p(depths),
        depths.shape[1],
        _p(inst) if use_inst else None,
        int(level),
        _p(probes),
        _p(found),
    )


def per_bit_counts(words, out):
    hist = np.zeros(words.shape[1] * 8 * 256, dtype=np.int64)
    _lib.repro_per_bit_counts(
        _p(words), words.shape[0], words.shape[1], _p(hist), _p(out)
    )


def per_bit_weighted(words, weights, out):
    hist = np.zeros(words.shape[1] * 8 * 256, dtype=np.int64)
    _lib.repro_per_bit_weighted(
        _p(words),
        _p(weights),
        words.shape[0],
        words.shape[1],
        _p(hist),
        _p(out),
    )
