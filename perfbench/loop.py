"""Closed-loop traffic: simulated clients, host wall-clock timing.

The 64 clients are simulated users inside the server's discrete-event
loop, not threads: each sends its next request at the simulated time
its previous reply completed.  The loop runs in one thread and times
every request on the host clock, from the ``submit()`` call to the
moment its response comes out of ``take_completed()`` or ``drain()``.
All timestamps come from a :class:`repro.obs.tracing.Tracer`'s clock.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import QueueFullError
from repro.service.request import Request

from perfbench.workloads import CLIENTS, MUTATE_EVERY, MutationStream, SourceStream

#: Simulated seconds a shed client waits before resending.
SHED_BACKOFF = 5e-5


class Epoch:
    """The graph a request was admitted against, and the repair decision
    that produced it (``"base"`` before any mutation)."""

    __slots__ = ("graph", "decision")

    def __init__(self, graph, decision: str) -> None:
        self.graph = graph
        self.decision = decision


@dataclass
class PhaseResult:
    """Everything one phase of the loop observed."""

    host_start: float = 0.0
    #: When sending stopped; after it the loop only drains the clients.
    host_stop: float = 0.0
    sim_start: float = 0.0
    submitted: int = 0
    shed: int = 0
    #: Responses with a non-ok status (timeout or failure).
    errored: int = 0
    #: Ok responses answered from the result cache.
    cached: int = 0
    #: Host completion time, host latency and simulated completion time
    #: of every ok response, in the order the loop saw them.
    done_at: array = field(default_factory=lambda: array("d"))
    latency: array = field(default_factory=lambda: array("d"))
    sim_done: array = field(default_factory=lambda: array("d"))
    #: Host start time and duration of every ``mutate()`` call.
    mutate_at: array = field(default_factory=lambda: array("d"))
    mutate_seconds: array = field(default_factory=lambda: array("d"))

    @property
    def completed(self) -> int:
        return len(self.latency)

    @property
    def mutations(self) -> int:
        return len(self.mutate_seconds)


class ClosedLoop:
    """Drives a ``BFSServer`` (or ``DynamicBFSServer`` with mutations)."""

    def __init__(
        self,
        server,
        sources: SourceStream,
        now: Callable[[], float],
        mutations: Optional[MutationStream] = None,
        on_response: Optional[Callable] = None,
    ) -> None:
        self.server = server
        self.sources = sources
        self.now = now
        self.mutations = mutations
        self.on_response = on_response
        self.epoch = Epoch(server.graph, "base")

    def run(
        self,
        seconds: Optional[float] = None,
        requests: Optional[int] = None,
        poll: Optional[Callable[[float], None]] = None,
    ) -> PhaseResult:
        """Serve until ``seconds`` of host time pass or ``requests`` are
        sent, then let every outstanding request finish.

        ``poll`` is called with the host time once per loop step.
        """
        server, now = self.server, self.now
        result = PhaseResult()
        tiebreak = itertools.count()
        events = [(server.clock, next(tiebreak), c) for c in range(CLIENTS)]
        inflight = {}
        since_mutation = 0
        result.sim_start = server.clock
        result.host_start = start = now()
        deadline = start + seconds if seconds is not None else float("inf")
        budget = requests if requests is not None else float("inf")

        def collect(done, stopping: bool) -> None:
            nonlocal since_mutation
            if not done:
                return
            t = now()
            for response in done:
                client, t0, epoch = inflight.pop(response.request_id)
                if response.ok:
                    result.done_at.append(t)
                    result.latency.append(t - t0)
                    result.sim_done.append(response.completion_time)
                    result.cached += response.cached
                else:
                    result.errored += 1
                if self.on_response is not None:
                    self.on_response(response, epoch)
                if not stopping:
                    heapq.heappush(
                        events, (response.completion_time, next(tiebreak), client)
                    )
            since_mutation += len(done)
            if self.mutations is not None and not stopping and (
                since_mutation >= MUTATE_EVERY
            ):
                since_mutation = 0
                self._mutate(result)

        while True:
            t = now()
            if poll is not None:
                poll(t)
            if t < deadline and result.submitted < budget:
                if not events:
                    if not server.step():
                        collect(server.drain(), False)
                    collect(server.take_completed(), False)
                    continue
                at, _, client = heapq.heappop(events)
                at = max(at, server.clock)
                request = Request(source=self.sources.next())
                t0 = now()
                try:
                    request_id = server.submit(request, arrival_time=at)
                except QueueFullError:
                    result.shed += 1
                    heapq.heappush(
                        events, (at + SHED_BACKOFF, next(tiebreak), client)
                    )
                    continue
                result.submitted += 1
                inflight[request_id] = (client, t0, self.epoch)
                collect(server.take_completed(), False)
            elif inflight:
                if not result.host_stop:
                    result.host_stop = t
                collect(server.drain(), True)
            else:
                break
        result.host_stop = result.host_stop or now()
        return result

    def _mutate(self, result: PhaseResult) -> None:
        inserts, deletes = self.mutations.next(self.server.graph)
        t0 = self.now()
        record = self.server.mutate(inserts=inserts, deletes=deletes)
        result.mutate_seconds.append(self.now() - t0)
        result.mutate_at.append(t0)
        self.epoch = Epoch(self.server.graph, record.decision)

