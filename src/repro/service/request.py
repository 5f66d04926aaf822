"""Request/response model of the online serving layer.

A :class:`Request` is one client question about one source vertex —
the unit the paper batches ``i`` of.  Three kinds are served, matching
the applications of section 8:

* ``"bfs"`` — full (or depth-limited) BFS from ``source``; the answer
  is the number of reached vertices and, on demand, the depth row;
* ``"reachability"`` — is ``target`` within ``max_depth`` hops of
  ``source`` (the Table 1 k-hop query); the answer is the depth of the
  target, or -1;
* ``"closeness"`` — Wasserman–Faust closeness centrality of
  ``source`` (the section 1 application).

All timing fields are *simulated* seconds, consistent with the rest of
the repository: the server is a discrete-event system driven by
explicit arrival times, so identical request streams produce
bit-identical latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ServiceError

#: Request kinds the server understands.
REQUEST_KINDS = ("bfs", "reachability", "closeness")

#: Response terminal states.
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class Request:
    """One single-source query submitted to the server."""

    #: Source vertex of the traversal.
    source: int
    #: One of :data:`REQUEST_KINDS`.
    kind: str = "bfs"
    #: Target vertex (``"reachability"`` only).
    target: Optional[int] = None
    #: Depth limit; ``None`` traverses to exhaustion.  ``"closeness"``
    #: requires ``None`` (the score needs the full depth row).
    max_depth: Optional[int] = None
    #: Per-request timeout in simulated seconds (``None`` = server
    #: default; 0 or negative is rejected).
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ServiceError(
                f"unknown request kind {self.kind!r}; expected one of "
                f"{REQUEST_KINDS}"
            )
        if self.kind == "reachability" and self.target is None:
            raise ServiceError("reachability requests need a target vertex")
        if self.kind == "closeness" and self.max_depth is not None:
            raise ServiceError(
                "closeness requires a full traversal (max_depth=None)"
            )
        if self.max_depth is not None and self.max_depth <= 0:
            raise ServiceError("max_depth must be positive when given")
        if self.timeout is not None and self.timeout <= 0:
            raise ServiceError("timeout must be positive when given")


@dataclass
class Response:
    """Terminal outcome of one request."""

    #: Server-assigned id (submission order).
    request_id: int
    #: The request this answers.
    request: Request
    #: :data:`STATUS_OK`, :data:`STATUS_TIMEOUT`, or :data:`STATUS_FAILED`.
    status: str
    #: Kind-specific scalar answer (reached count / target depth /
    #: closeness score); ``None`` unless status is ``"ok"``.
    value: Optional[float] = None
    #: Simulated completion time.
    completion_time: float = 0.0
    #: Simulated seconds from arrival to completion.
    latency: float = 0.0
    #: True when the answer came from the result cache (no traversal).
    cached: bool = False
    #: Id of the batch that served this request; -1 for cache hits.
    batch_id: int = -1
    #: Execution attempts consumed (1 = first try; 2 = retried once).
    attempts: int = 1
    #: Human-readable failure detail for non-ok statuses.
    error: Optional[str] = None
    #: The served depth row as the result cache holds it (kind
    #: ``"bfs"`` with ``return_depths`` serving enabled): read-only, in
    #: the narrow dtype its engine returned.  :attr:`depths` widens it.
    row: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def depths(self) -> Optional[np.ndarray]:
        """Full depth row as int32 (``None`` when no row was served): a
        fresh array on each read, so writing to it changes neither this
        response nor the cache."""
        if self.row is None:
            return None
        return self.row.astype(np.int32)

    @depths.setter
    def depths(self, value: Optional[np.ndarray]) -> None:
        self.row = None if value is None else np.asarray(value)


@dataclass
class PendingRequest:
    """Server-internal envelope: an admitted request waiting in the pool."""

    request_id: int
    request: Request
    #: Simulated arrival time (set by the server at admission).
    arrival_time: float
    #: Effective timeout in simulated seconds (``inf`` = none).
    deadline: float = field(default=float("inf"))
    #: Execution attempts already started.
    attempts: int = 0

    @property
    def source(self) -> int:
        return self.request.source

    @property
    def max_depth(self) -> Optional[int]:
        return self.request.max_depth
