"""Closed-loop load generation for the serving layer.

Models the workload an online graph service actually sees: a fixed
fleet of clients, each keeping one request in flight (closed loop —
issue, wait, think, reissue), with sources drawn from a Zipf
distribution over vertices ranked by outdegree.  The rank-by-degree
choice makes the popularity skew line up with the structural skew of
power-law graphs: hot queries hit hub vertices, which is both where
the cache earns its keep and where GroupBy finds shared frontiers.

Optional churn rides along: every ``mutate_every`` completed queries,
one random edge batch (inserts and/or deletes, drawn from a seeded RNG)
hits a :class:`~repro.stream.service.DynamicBFSServer`, publishing a
new epoch mid-workload.  Mutations fire at simulated-time barriers
decided by the request stream, not by wall-clock.

The generator co-simulates with :class:`~repro.service.server.BFSServer`
in simulated time, so a (graph, workload, churn, config) tuple is fully
deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import QueueFullError, ServiceError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE
from repro.runtime import SubstrateSpec
from repro.service.request import Request, Response
from repro.service.server import BFSServer, ServingConfig


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the generated request stream."""

    #: Total requests the clients issue.
    num_requests: int = 512
    #: Concurrent closed-loop clients.
    num_clients: int = 32
    #: Zipf exponent of source popularity (higher = more skew; the
    #: classic web-trace value is ~1).
    zipf_exponent: float = 1.1
    #: Request kind issued by every client.
    kind: str = "bfs"
    #: Depth limit carried by every request.
    max_depth: Optional[int] = None
    #: Simulated seconds a client waits between completion and reissue.
    think_time: float = 0.0
    #: Client backoff after a shed (queue-full) submission.
    shed_backoff: float = 5e-5
    #: Seed for source sampling.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ServiceError("num_requests must be positive")
        if self.num_clients <= 0:
            raise ServiceError("num_clients must be positive")
        if self.zipf_exponent < 0:
            raise ServiceError("zipf_exponent must be non-negative")
        if self.think_time < 0:
            raise ServiceError("think_time must be non-negative")
        if self.shed_backoff <= 0:
            raise ServiceError("shed_backoff must be positive")


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of the mutation stream riding along a workload."""

    #: One mutation batch per this many completed queries (0 = never).
    mutate_every: int = 64
    #: Edge inserts per batch.
    inserts_per_batch: int = 8
    #: Edge deletes per batch (deletes force full cache recomputation,
    #: so insert-only churn is the repair-path benchmark).
    deletes_per_batch: int = 0
    #: Seed for edge sampling (independent of the query-source seed).
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mutate_every < 0:
            raise ServiceError("mutate_every must be non-negative")
        if self.inserts_per_batch < 0:
            raise ServiceError("inserts_per_batch must be non-negative")
        if self.deletes_per_batch < 0:
            raise ServiceError("deletes_per_batch must be non-negative")
        if self.inserts_per_batch == 0 and self.deletes_per_batch == 0:
            raise ServiceError(
                "churn needs inserts_per_batch or deletes_per_batch > 0"
            )


@dataclass
class LoadResult:
    """Outcome of one closed-loop run against one server."""

    #: Requests successfully answered (ok status, incl. cache hits).
    completed: int
    #: Requests shed by admission control.
    shed: int
    #: Requests that timed out or failed.
    errored: int
    #: Simulated seconds from first arrival to last completion.
    elapsed: float
    #: Completed requests per simulated second.
    throughput: float
    #: Full metrics snapshot (includes cache stats).
    metrics: dict
    #: Every terminal response, in completion order.
    responses: List[Response] = field(default_factory=list)


def sample_sources(
    graph: CSRGraph, count: int, zipf_exponent: float, seed: int = 0
) -> List[int]:
    """Draw ``count`` sources Zipf-distributed over degree rank.

    Vertex popularity follows ``(rank + 1) ** -s`` with vertices ranked
    by descending outdegree, so the hottest sources are the hubs.
    ``s = 0`` degenerates to uniform.
    """
    degrees = graph.out_degrees()
    ranked = np.argsort(-degrees, kind="stable")
    weights = (np.arange(1, graph.num_vertices + 1, dtype=np.float64)
               ** -float(zipf_exponent))
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(graph.num_vertices, size=count, p=weights)
    return [int(ranked[i]) for i in picks]


def random_insert_batch(
    num_vertices: int, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` random directed edges over ``[0, num_vertices)``."""
    src = rng.integers(0, num_vertices, size=count, dtype=VERTEX_DTYPE)
    dst = rng.integers(0, num_vertices, size=count, dtype=VERTEX_DTYPE)
    return src, dst


def random_delete_batch(
    graph: CSRGraph, count: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` existing edges sampled uniformly from ``graph``
    (fewer when the graph has fewer edges)."""
    m = graph.num_edges
    if m == 0 or count == 0:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return empty, empty
    picks = rng.choice(m, size=min(count, m), replace=False)
    src_all = np.repeat(
        np.arange(graph.num_vertices, dtype=VERTEX_DTYPE),
        graph.out_degrees(),
    )
    return src_all[picks], graph.col_indices[picks]


def run_closed_loop(
    server: BFSServer,
    workload: WorkloadConfig,
    churn: Optional[ChurnConfig] = None,
) -> LoadResult:
    """Drive ``server`` with closed-loop clients; returns aggregates.

    Each client keeps exactly one request outstanding.  The simulation
    interleaves client issue events with the server's internal flush
    events, so batch formation sees exactly the concurrency a real
    deployment would.

    With ``churn``, ``server`` must be a
    :class:`~repro.stream.service.DynamicBFSServer`: one mutation batch
    goes through its ``mutate()`` after every ``churn.mutate_every``
    completions, and the epoch records it produced are in
    ``server.epoch_records``.
    """
    sources = sample_sources(
        server.graph,
        workload.num_requests,
        workload.zipf_exponent,
        workload.seed,
    )
    mutate_every = churn.mutate_every if churn is not None else 0
    rng = np.random.default_rng(churn.seed) if mutate_every else None
    n = server.graph.num_vertices

    tiebreak = itertools.count()
    issue_events: List[tuple] = []
    for client in range(min(workload.num_clients, workload.num_requests)):
        heapq.heappush(issue_events, (0.0, next(tiebreak), client))

    owners: Dict[int, int] = {}
    responses: List[Response] = []
    issued = 0
    shed = 0
    completions_since_mutation = 0
    start_clock = server.clock

    def maybe_mutate() -> None:
        nonlocal completions_since_mutation
        if not mutate_every or completions_since_mutation < mutate_every:
            return
        completions_since_mutation = 0
        inserts = (
            random_insert_batch(n, churn.inserts_per_batch, rng)
            if churn.inserts_per_batch
            else None
        )
        deletes = (
            random_delete_batch(server.graph, churn.deletes_per_batch, rng)
            if churn.deletes_per_batch
            else None
        )
        server.mutate(inserts=inserts, deletes=deletes)

    def absorb(done: List[Response]) -> None:
        nonlocal completions_since_mutation
        for response in done:
            responses.append(response)
            completions_since_mutation += 1
            client = owners.pop(response.request_id)
            if issued < workload.num_requests or owners or issue_events:
                heapq.heappush(
                    issue_events,
                    (
                        response.completion_time + workload.think_time,
                        next(tiebreak),
                        client,
                    ),
                )
        maybe_mutate()

    def collect() -> None:
        absorb(server.take_completed())

    while issued < workload.num_requests or owners:
        if issue_events and issued < workload.num_requests:
            at, _, client = heapq.heappop(issue_events)
            at = max(at, server.clock)
            request = Request(
                source=sources[issued],
                kind=workload.kind,
                max_depth=workload.max_depth,
            )
            try:
                request_id = server.submit(request, arrival_time=at)
            except QueueFullError:
                shed += 1
                issued += 1
                heapq.heappush(
                    issue_events,
                    (at + workload.shed_backoff, next(tiebreak), client),
                )
                collect()
                continue
            owners[request_id] = client
            issued += 1
            collect()
        elif owners:
            # All clients are waiting: let the server reach its next
            # flush (deadline or freed device).  A mutation barrier
            # inside absorb() may have flushed responses already;
            # drain()'s returns go through the same bookkeeping so none
            # are dropped on the floor.
            if not server.step():
                absorb(server.drain())
            collect()
        else:
            break

    absorb(server.drain())
    collect()

    elapsed = server.clock - start_clock
    completed = sum(1 for r in responses if r.ok)
    errored = sum(1 for r in responses if not r.ok)
    return LoadResult(
        completed=completed,
        shed=shed,
        errored=errored,
        elapsed=elapsed,
        throughput=completed / elapsed if elapsed > 0 else 0.0,
        metrics=server.metrics_snapshot(elapsed=elapsed),
        responses=responses,
    )


def naive_config(serving: ServingConfig) -> ServingConfig:
    """The one-request-one-traversal baseline: no batching, no cache,
    no grouping — every request is its own kernel launch."""
    return replace(
        serving,
        batch_size=1,
        cache_capacity=0,
        groupby=False,
    )


def compare_serving(
    graph: CSRGraph,
    workload: WorkloadConfig,
    serving: Optional[ServingConfig] = None,
    planner=None,
    substrate: Optional[SubstrateSpec] = None,
    churn: Optional[ChurnConfig] = None,
) -> dict:
    """Run the same workload through micro-batched and naive serving.

    Returns ``{"batched": LoadResult, "naive": LoadResult,
    "speedup": float}`` where speedup is the throughput ratio.  Both
    servers traverse under the optional planner
    :class:`~repro.plan.policy.Policy` on the ``substrate`` placement;
    with ``churn`` both are
    :class:`~repro.stream.service.DynamicBFSServer` instances mutated
    by the same edge stream.
    """
    serving = serving or ServingConfig()
    server_cls = BFSServer
    if churn is not None:
        from repro.stream.service import DynamicBFSServer as server_cls
    results = {}
    for label, config in (
        ("batched", serving), ("naive", naive_config(serving))
    ):
        with server_cls(
            graph, config, planner=planner, substrate=substrate
        ) as server:
            results[label] = run_closed_loop(server, workload, churn)
    naive_tput = results["naive"].throughput
    results["speedup"] = (
        results["batched"].throughput / naive_tput if naive_tput > 0 else 0.0
    )
    return results
