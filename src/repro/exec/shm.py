"""Zero-copy CSR graph publication over POSIX shared memory.

The execution backend runs BFS groups in separate worker processes, but
every group traverses the *same* immutable graph.  Instead of pickling
O(|V| + |E|) arrays into each worker, the parent publishes the CSR
arrays (forward and reverse, plus the cached outdegree vector) into
``multiprocessing.shared_memory`` segments once per graph; workers map
the segments read-only and wrap them in a :class:`~repro.graph.csr.CSRGraph`
without copying a byte.

Publication is keyed by the graph's content fingerprint
(:func:`repro.service.cache.graph_cache_id`, memoized on the graph's
``_cache_id`` slot) and refcounted: two executors over the same graph
share one set of segments, and the segments are unlinked when the last
publisher releases them.

A second, smaller facility ships *results* back: :func:`push_array`
copies one ndarray into a fresh segment and returns a compact spec;
:func:`pop_array` reclaims it on the other side (attach, copy out,
unlink).  Depth matrices are by far the largest part of a task result,
so routing them around the pickle pipe keeps worker round-trips cheap.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import secrets
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ExecutorError
from repro.graph.csr import CSRGraph
from repro.service.cache import graph_cache_id

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can be used here."""
    return _shared_memory is not None


def _require_shm():
    if _shared_memory is None:  # pragma: no cover - exotic platforms
        raise ExecutorError(
            "multiprocessing.shared_memory is unavailable on this platform"
        )
    return _shared_memory


@contextlib.contextmanager
def _untracked():
    """Suppress resource-tracker registration for segments made/attached
    inside the block.

    Attaching to an existing segment registers it with the resource
    tracker (bpo-38119), which would unlink it when the attaching
    process exits — destroying a segment the publisher still owns; and
    concurrent register/unregister pairs for one name race inside the
    tracker.  Segment lifetime here is managed explicitly (refcounts +
    atexit for graphs, pop/discard for task results), so registration
    is suppressed at the source.  Python 3.13's ``track=False`` makes
    this shim unnecessary.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - exotic platforms
        yield
        return
    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister

    def register(name, rtype):
        if rtype != "shared_memory":
            original_register(name, rtype)

    def unregister(name, rtype):
        if rtype != "shared_memory":
            original_unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister
    try:
        yield
    finally:
        resource_tracker.register = original_register
        resource_tracker.unregister = original_unregister


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything needed to re-materialize one ndarray from a segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable description of one published graph.

    Workers receive this instead of the graph itself and call
    :func:`attach_graph` to map the segments.
    """

    graph_id: str
    num_vertices: int
    num_edges: int
    arrays: Dict[str, SharedArraySpec]

    @property
    def has_reverse(self) -> bool:
        return "rev_row_offsets" in self.arrays


def _segment_name(tag: str) -> str:
    # Globally unique: shared-memory names are a system-wide namespace.
    return f"repro-{tag}-{os.getpid():x}-{secrets.token_hex(4)}"


def _create_segment(arr: np.ndarray, tag: str, name: str = None):
    shm_mod = _require_shm()
    arr = np.ascontiguousarray(arr)
    nbytes = max(int(arr.nbytes), 1)
    with _untracked():
        shm = shm_mod.SharedMemory(
            name=name or _segment_name(tag), create=True, size=nbytes
        )
    if arr.nbytes:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
    spec = SharedArraySpec(name=shm.name, shape=tuple(arr.shape), dtype=str(arr.dtype))
    return shm, spec


def _map_segment(spec: SharedArraySpec, writeable: bool = False):
    shm_mod = _require_shm()
    with _untracked():
        shm = shm_mod.SharedMemory(name=spec.name, create=False)
    arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    arr.flags.writeable = writeable
    return shm, arr


# ----------------------------------------------------------------------
# Graph publication (refcounted, keyed by content fingerprint)
# ----------------------------------------------------------------------
@dataclass
class _Publication:
    handle: SharedGraphHandle
    segments: List[object]
    refcount: int = 0


_REGISTRY: Dict[str, _Publication] = {}
_REGISTRY_LOCK = threading.Lock()


def publish_graph(graph: CSRGraph) -> SharedGraphHandle:
    """Publish a graph's CSR arrays into shared memory (refcounted).

    Repeated publication of the same graph content returns the existing
    handle and bumps its refcount; every :func:`publish_graph` must be
    paired with one :func:`release_graph`.

    The transpose CSR is published too, so workers can run bottom-up
    levels without an O(|E| log |E|) per-process rebuild.
    """
    graph_id = graph_cache_id(graph)
    with _REGISTRY_LOCK:
        pub = _REGISTRY.get(graph_id)
        if pub is not None:
            pub.refcount += 1
            return pub.handle

        rev = graph.reverse()
        arrays: Dict[str, np.ndarray] = {
            "row_offsets": graph.row_offsets,
            "col_indices": graph.col_indices,
            "out_degrees": graph.out_degrees(),
            "rev_row_offsets": rev.row_offsets,
            "rev_col_indices": rev.col_indices,
        }

        segments: List[object] = []
        specs: Dict[str, SharedArraySpec] = {}
        try:
            for key, arr in arrays.items():
                shm, spec = _create_segment(arr, graph_id[-12:])
                segments.append(shm)
                specs[key] = spec
        except Exception:
            for shm in segments:
                _destroy_segment(shm)
            raise

        handle = SharedGraphHandle(
            graph_id=graph_id,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            arrays=specs,
        )
        _REGISTRY[graph_id] = _Publication(handle=handle, segments=segments, refcount=1)
        return handle


def release_graph(handle: SharedGraphHandle) -> None:
    """Drop one reference; unlink the segments when none remain."""
    with _REGISTRY_LOCK:
        pub = _REGISTRY.get(handle.graph_id)
        if pub is None:
            return
        pub.refcount -= 1
        if pub.refcount > 0:
            return
        del _REGISTRY[handle.graph_id]
        segments = pub.segments
    for shm in segments:
        _destroy_segment(shm)


def published_refcount(graph: CSRGraph) -> int:
    """Current refcount of a graph's publication (0 = not published)."""
    graph_id = graph_cache_id(graph)
    with _REGISTRY_LOCK:
        pub = _REGISTRY.get(graph_id)
        return pub.refcount if pub is not None else 0


def _destroy_segment(shm) -> None:
    try:
        shm.close()
    except Exception:  # pragma: no cover - best effort cleanup
        pass
    try:
        # unlink() would unregister a name this process never
        # registered (registration is suppressed), confusing the
        # tracker; suppress the matching unregister too.
        with _untracked():
            shm.unlink()
    except Exception:  # pragma: no cover - already unlinked
        pass


@atexit.register
def _cleanup_registry() -> None:  # pragma: no cover - interpreter shutdown
    with _REGISTRY_LOCK:
        pubs = list(_REGISTRY.values())
        _REGISTRY.clear()
    for pub in pubs:
        for shm in pub.segments:
            _destroy_segment(shm)


# ----------------------------------------------------------------------
# Worker-side attachment
# ----------------------------------------------------------------------
@dataclass
class AttachedGraph:
    """A worker's zero-copy view of a published graph.

    Keeps the mapped segments alive for as long as the graph is in use
    (``CSRGraph`` uses ``__slots__``, so the references cannot ride on
    the graph object itself).
    """

    graph: CSRGraph
    segments: List[object] = field(default_factory=list)

    def close(self) -> None:
        for shm in self.segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - best effort cleanup
                pass
        self.segments = []

    def __enter__(self) -> "AttachedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_graph(handle: SharedGraphHandle) -> AttachedGraph:
    """Map a published graph read-only in the current process.

    The returned graph has its outdegree cache and content fingerprint
    pre-installed, and — when the publisher included the transpose —
    its reverse CSR pre-wired, so no derived structure is recomputed in
    the worker.
    """
    segments: List[object] = []
    mapped: Dict[str, np.ndarray] = {}
    try:
        for key, spec in handle.arrays.items():
            shm, arr = _map_segment(spec)
            segments.append(shm)
            mapped[key] = arr
    except Exception:
        for shm in segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass
        raise

    graph = CSRGraph(mapped["row_offsets"], mapped["col_indices"], validate=False)
    graph._out_degrees = mapped["out_degrees"]
    graph._cache_id = handle.graph_id
    if handle.has_reverse:
        graph.link_reverse(
            CSRGraph(
                mapped["rev_row_offsets"],
                mapped["rev_col_indices"],
                validate=False,
            )
        )
    return AttachedGraph(graph=graph, segments=segments)


# ----------------------------------------------------------------------
# One-shot array transport (task results)
# ----------------------------------------------------------------------
def result_segment_name() -> str:
    """Pre-allocate a segment name for :func:`push_array`.

    Generated by the *receiver* before the sender runs, so a sender
    that dies between creating the segment and reporting its spec
    cannot orphan a segment nobody can name — the receiver reclaims it
    with :func:`discard_segment` unconditionally.
    """
    return _segment_name("out")


def push_array(arr: np.ndarray, name: str = None) -> SharedArraySpec:
    """Copy one array into a fresh segment; the receiver owns cleanup.

    ``name`` pins the segment name (see :func:`result_segment_name`);
    without it a fresh unique name is generated.
    """
    shm, spec = _create_segment(np.ascontiguousarray(arr), "out", name=name)
    # Close our mapping but do NOT unlink: pop_array() unlinks after
    # copying the payload out on the receiving side.
    shm.close()
    return spec


def pop_array(spec: SharedArraySpec) -> np.ndarray:
    """Reclaim an array pushed by :func:`push_array` (copy + unlink)."""
    shm, view = _map_segment(spec)
    try:
        return np.array(view, copy=True)
    finally:
        _destroy_segment(shm)


def discard_array(spec: SharedArraySpec) -> None:
    """Unlink a pushed array without reading it (stale/duplicate result)."""
    discard_segment(spec.name)


def discard_segment(name: str) -> None:
    """Unlink a segment by name alone; a no-op when it does not exist.

    This is the crash-cleanup path: the receiver knows the names it
    pre-allocated (:func:`result_segment_name`) even when the sender
    died before shipping the spec back.
    """
    shm_mod = _require_shm()
    try:
        with _untracked():
            shm = shm_mod.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return
    _destroy_segment(shm)
