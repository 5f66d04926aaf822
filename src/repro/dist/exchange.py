"""Frontier-exchange wire formats and the per-level format policy.

Each level of the partitioned engine ends with an exchange: every edge
block ships the status-word updates it produced to the partitions that
own the destination vertices.  Two wire formats exist, and the choice
between them is the communication counterpart of the paper's
top-down/bottom-up direction switch:

``"sparse"``
    ``(vertex, mask)`` pairs — 16 bytes per *touched* destination
    vertex.  Cheap while frontiers are small (the first and last levels
    of any BFS), degenerate when most of a range is touched.
``"dense"``
    one ``uint64`` status word per vertex of the destination range —
    8 bytes per range vertex regardless of the frontier, the broadcast
    format that wins on the two or three peak levels of a small-world
    graph.

:class:`ExchangePolicy` picks the format *before* a level executes from
the previous level's observed frontier (mirroring how the direction
policy consumes trailing level stats), so the inline and process
backends — and a recorded plan replayed later — all resolve the same
format and account the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import TraversalError
from repro.plan.types import EXCHANGE_FORMATS

#: Bytes per sparse entry: one int64 vertex id + one uint64 mask word.
SPARSE_ENTRY_BYTES = 16
#: Bytes per dense slot: one uint64 mask word.
DENSE_SLOT_BYTES = 8


@dataclass(frozen=True)
class ExchangePayload:
    """One sender→owner message of status-word updates.

    ``start``/``stop`` bound the (global) destination vertices covered.
    Dense payloads carry ``words[stop - start]``; sparse payloads carry
    parallel ``vertices``/``masks`` arrays.  The payload *is* the wire
    format whose bytes the engine accounts.
    """

    fmt: str
    start: int
    stop: int
    vertices: Optional[np.ndarray]
    masks: np.ndarray

    @property
    def nbytes(self) -> int:
        """Accounted wire bytes (headers excluded by convention)."""
        if self.fmt == "dense":
            return DENSE_SLOT_BYTES * (self.stop - self.start)
        return SPARSE_ENTRY_BYTES * int(self.masks.shape[0])

    @property
    def entries(self) -> int:
        """Touched destination vertices carried by this payload."""
        if self.fmt == "dense":
            return int(np.count_nonzero(self.masks))
        return int(self.masks.shape[0])


def encode_updates(
    vertices: np.ndarray,
    masks: np.ndarray,
    start: int,
    stop: int,
    fmt: str,
) -> ExchangePayload:
    """Encode aggregated ``(vertex, mask)`` updates for the owner range
    ``[start, stop)`` in the resolved wire format."""
    if fmt == "sparse":
        return ExchangePayload(
            fmt="sparse",
            start=start,
            stop=stop,
            vertices=np.ascontiguousarray(vertices, dtype=np.int64),
            masks=np.ascontiguousarray(masks, dtype=np.uint64),
        )
    if fmt == "dense":
        words = np.zeros(stop - start, dtype=np.uint64)
        if vertices.size:
            words[np.asarray(vertices, dtype=np.int64) - start] = masks
        return ExchangePayload(
            fmt="dense", start=start, stop=stop, vertices=None, masks=words
        )
    raise TraversalError(
        f"cannot encode exchange format {fmt!r} "
        f"(expected a resolved format, not 'auto')"
    )


def merge_payload(
    payload: ExchangePayload, acc: np.ndarray, acc_start: int
) -> None:
    """OR one payload into an owner's accumulator (indexed from
    ``acc_start``); both formats merge to identical accumulators."""
    if payload.fmt == "dense":
        lo = payload.start - acc_start
        acc[lo : lo + payload.masks.shape[0]] |= payload.masks
        return
    if payload.vertices is not None and payload.vertices.size:
        np.bitwise_or.at(
            acc, payload.vertices - acc_start, payload.masks
        )


@dataclass(frozen=True)
class ExchangePolicy:
    """Per-level wire-format selection.

    ``default`` forces one format for every level; ``"auto"`` predicts
    from the previous level's frontier: the coming exchange touches at
    most one destination per scanned frontier edge, so sparse is
    predicted to cost ``16 * frontier_edges`` bytes against the
    layout's fixed dense broadcast cost.  ``threshold`` scales the
    comparison (above 1.0 biases toward sparse).
    """

    default: str = "auto"
    threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.default not in EXCHANGE_FORMATS:
            raise TraversalError(
                f"exchange format must be one of {EXCHANGE_FORMATS}; "
                f"got {self.default!r}"
            )
        if self.threshold <= 0:
            raise TraversalError("threshold must be positive")

    def decide(self, frontier_edges: int, dense_bytes: int) -> str:
        """Resolved format for the level about to execute."""
        if self.default != "auto":
            return self.default
        sparse_estimate = SPARSE_ENTRY_BYTES * int(frontier_edges)
        if sparse_estimate <= self.threshold * dense_bytes:
            return "sparse"
        return "dense"

    @property
    def name(self) -> str:
        if self.default != "auto":
            return f"exchange-{self.default}"
        return f"exchange-auto@{self.threshold:g}"
