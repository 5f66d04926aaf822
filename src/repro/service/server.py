"""The online concurrent-BFS server.

``BFSServer`` accepts a stream of single-source requests and serves
them through the existing :class:`~repro.core.engine.IBFS` engine via
its re-entrant :meth:`~repro.core.engine.IBFS.run_group` hook.  The
pipeline per request:

1. **admission** — the bounded pending queue either admits the request
   or sheds it with :class:`~repro.errors.QueueFullError`
   (backpressure toward the client);
2. **cache** — an LRU of depth rows keyed by
   ``(graph_id, source, engine_key, max_depth)`` answers repeat
   sources without traversal;
3. **micro-batching** — misses pool in a :class:`MicroBatcher` that
   flushes GroupBy-formed batches on size or deadline;
4. **execution** — every batch launchable at one instant (one per free
   simulated device) forms a wave that the substrate runs through
   :meth:`~repro.runtime.Substrate.map_groups`, each batch as one joint
   kernel; a failed kernel is retried once per request before a
   :data:`~repro.service.request.STATUS_FAILED` response;
5. **completion** — per-request latency, batch occupancy, sharing
   degree, and cache statistics land in a :class:`MetricsRegistry`.

Like every engine in this repository, the server runs in *simulated*
time: it is a discrete-event system driven by explicit arrival
timestamps, so a given (graph, request stream, config) triple always
produces bit-identical depths, latencies, and metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.exec.executor import GroupExecutor
    from repro.obs.slo import SLOEngine

import numpy as np

from repro.errors import QueueFullError, ReproError, ServiceError
from repro.graph.csr import CSRGraph
from repro.obs import tracing as obs_tracing
from repro.obs.slo import (
    SIGNAL_ERROR_RATE,
    SIGNAL_QUEUE_DEPTH,
    SIGNAL_WAVE_LATENCY,
)
from repro.gpusim.device import Device
from repro.plan.policy import Policy
from repro.core.engine import IBFSConfig
from repro.core.groupby import GroupByConfig
from repro.runtime import SubstrateSpec, make_substrate
from repro.runtime.spec import engine_key as substrate_engine_key
from repro.service.batcher import MicroBatcher
from repro.service.cache import (
    PlanCache,
    ResultCache,
    graph_cache_id,
)
from repro.service.metrics import MetricsRegistry
from repro.service.request import (
    PendingRequest,
    Request,
    Response,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
)


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of a :class:`BFSServer`.

    Attributes
    ----------
    batch_size:
        Maximum traversal sources per batch (the paper's N); clamped by
        the device capacity rule at server construction.
    flush_deadline:
        Simulated seconds the oldest pending request may wait before a
        partial batch is flushed anyway.  Simulated kernels run in
        microseconds at laptop scale, so the default is 20 µs — pick a
        value a small multiple of one batch's simulated seconds.
    queue_capacity:
        Bound on the pending pool; submissions beyond it are shed with
        :class:`~repro.errors.QueueFullError`.
    cache_capacity:
        LRU result-cache entries (0 disables caching).
    plan_cache_capacity:
        LRU plan-cache entries (0 disables plan caching).  A repeated
        batch — same ordered sources, same graph, same engine key —
        replays its recorded :class:`~repro.plan.types.RunPlan` instead
        of re-running the planner heuristics; depths and counters are
        bit-identical either way.
    num_devices:
        Simulated devices executing batches (a small device pool; the
        queue backs up — and sheds — when all are busy).
    default_timeout:
        Per-request timeout in simulated seconds for requests that do
        not carry their own (``None`` = no timeout).
    max_attempts:
        Execution attempts per request (2 = the contract's
        retry-once-on-failure).
    cache_hit_latency:
        Simulated seconds charged to a cache hit (index lookup cost).
    groupby:
        Apply the GroupBy rules to the pending pool when forming
        batches; off, batches are FIFO chunks (the random baseline).
    return_depths:
        Attach full depth rows to ``"bfs"`` responses.

    Placement (serial, executor, partitioned, stream) is not a serving
    option: it comes only from the server's ``substrate=``
    :class:`~repro.runtime.SubstrateSpec`.
    """

    batch_size: int = 32
    flush_deadline: float = 2e-5
    queue_capacity: int = 256
    cache_capacity: int = 4096
    plan_cache_capacity: int = 256
    num_devices: int = 1
    default_timeout: Optional[float] = None
    max_attempts: int = 2
    cache_hit_latency: float = 1e-7
    groupby: bool = True
    return_depths: bool = False

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ServiceError("batch_size must be positive")
        if self.flush_deadline <= 0:
            raise ServiceError("flush_deadline must be positive")
        if self.queue_capacity <= 0:
            raise ServiceError("queue_capacity must be positive")
        if self.cache_capacity < 0:
            raise ServiceError("cache_capacity must be non-negative")
        if self.plan_cache_capacity < 0:
            raise ServiceError("plan_cache_capacity must be non-negative")
        if self.num_devices <= 0:
            raise ServiceError("num_devices must be positive")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ServiceError("default_timeout must be positive when given")
        if self.max_attempts <= 0:
            raise ServiceError("max_attempts must be positive")
        if self.cache_hit_latency < 0:
            raise ServiceError("cache_hit_latency must be non-negative")


class BFSServer:
    """Online serving front-end over one graph and one engine config.

    ``substrate`` is the placement (default: the serial engine); a
    caller-owned ``executor`` can back an ``executor`` placement.
    """

    def __init__(
        self,
        graph: CSRGraph,
        serving: Optional[ServingConfig] = None,
        engine_config: Optional[IBFSConfig] = None,
        device: Optional[Device] = None,
        groupby_config: Optional[GroupByConfig] = None,
        fault_injector: Optional[Callable[[Sequence[int]], None]] = None,
        executor: Optional["GroupExecutor"] = None,
        planner: Optional[Policy] = None,
        slo: Optional["SLOEngine"] = None,
        substrate: Optional[SubstrateSpec] = None,
    ) -> None:
        self.graph = graph
        self.serving = serving or ServingConfig()
        engine_config = engine_config or IBFSConfig(
            group_size=self.serving.batch_size
        )
        #: The placement decision; nothing else selects the substrate.
        substrate = substrate or SubstrateSpec()
        self.substrate_spec = substrate
        if executor is not None and substrate.kind == "executor":
            # An executor over a different graph or engine config would
            # compute depths the server's cache keys misattribute.
            self._check_executor(executor, engine_config, planner)
        #: The one execution substrate every wave dispatches through —
        #: serial engine, worker-process executor, partitioned engine,
        #: or the epoch-swapping stream wrapper.  Bit-identical depths
        #: on all of them; only placement (and the metrics it emits)
        #: changes.  Construction and capability validation live in
        #: :func:`repro.runtime.make_substrate`.
        self.substrate = make_substrate(
            substrate,
            graph,
            engine_config=engine_config,
            device=device,
            planner=planner,
            executor=executor,
        )
        #: Effective max batch size (configured, clamped by capacity).
        self.batch_size = min(
            self.serving.batch_size,
            self.substrate.effective_group_size(),
        )
        self.batcher = MicroBatcher(
            graph,
            self.batch_size,
            self.serving.flush_deadline,
            groupby=self.serving.groupby,
            groupby_config=groupby_config,
        )
        self.cache = ResultCache(self.serving.cache_capacity)
        self.plan_cache = PlanCache(self.serving.plan_cache_capacity)
        self.metrics = MetricsRegistry()
        #: Optional :class:`~repro.obs.slo.SLOEngine`: when given, the
        #: server feeds it wave latency, per-response error, and queue
        #: depth samples on the simulated clock and evaluates specs
        #: after each sample — alerts land on the engine (and its hub)
        #: and in :meth:`metrics_snapshot`.  ``None`` keeps the serving
        #: hot path free of SLO work.
        self.slo = slo
        #: Test/chaos hook: called with the batch sources before each
        #: kernel; raising a ReproError fails the batch.
        self.fault_injector = fault_injector

        self.clock = 0.0
        self._graph_id = graph_cache_id(graph)
        self._engine_key = self.substrate.engine_key
        self._device_free = [0.0] * self.serving.num_devices
        self._completed: List[Response] = []
        self._next_id = 0
        self._next_batch_id = 0

    def _check_executor(
        self,
        executor: "GroupExecutor",
        engine_config: IBFSConfig,
        planner: Optional[Policy],
    ) -> None:
        """An executor over a different graph or engine configuration
        would compute depths the server's cache keys misattribute —
        refuse it up front."""
        if graph_cache_id(executor.graph) != graph_cache_id(self.graph):
            raise ServiceError(
                "executor graph does not match the server graph"
            )
        if substrate_engine_key(
            executor.engine.config, executor.engine.planner
        ) != substrate_engine_key(engine_config, planner):
            raise ServiceError(
                "executor engine config does not match the server's; "
                "batches would traverse under a different configuration "
                "than responses are cached and keyed for"
            )

    def close(self) -> None:
        """Release the substrate's owned resources (a caller-owned
        ``executor`` is left alone)."""
        self.substrate.close()

    def __enter__(self) -> "BFSServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, request: Request, arrival_time: Optional[float] = None) -> int:
        """Admit one request; returns its id.

        ``arrival_time`` is the simulated arrival (default: the current
        clock); arrivals must be non-decreasing.  Raises
        :class:`~repro.errors.QueueFullError` when the pending queue is
        at capacity and :class:`~repro.errors.ServiceError` for
        malformed requests.
        """
        now = self.clock if arrival_time is None else float(arrival_time)
        if now < self.clock:
            raise ServiceError(
                f"arrival {now} is before the server clock {self.clock}"
            )
        self._validate(request)
        self.advance_to(now)
        self.metrics.record_submit(queue_depth=len(self.batcher))
        self._observe_slo(SIGNAL_QUEUE_DEPTH, float(len(self.batcher)))

        request_id = self._next_id
        self._next_id += 1

        key = self.cache.key(
            self._graph_id, request.source, self._engine_key, request.max_depth
        )
        row = self.cache.get(key)
        if row is not None:
            latency = self.serving.cache_hit_latency
            self._finish(
                Response(
                    request_id=request_id,
                    request=request,
                    status=STATUS_OK,
                    value=self._hit_answer(key, request, row),
                    completion_time=now + latency,
                    latency=latency,
                    cached=True,
                    row=self._maybe_depths(request, row),
                )
            )
            return request_id

        if len(self.batcher) >= self.serving.queue_capacity:
            self.metrics.shed += 1
            raise QueueFullError(
                f"pending queue at capacity "
                f"({self.serving.queue_capacity}); request shed"
            )
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.serving.default_timeout
        )
        deadline = now + timeout if timeout is not None else float("inf")
        self.batcher.add(
            PendingRequest(
                request_id=request_id,
                request=request,
                arrival_time=now,
                deadline=deadline,
            )
        )
        self._dispatch(self.clock)
        return request_id

    def take_completed(self) -> List[Response]:
        """Responses finished since the last call, in completion order."""
        done, self._completed = self._completed, []
        return done

    def drain(self) -> List[Response]:
        """Flush everything pending (ignoring deadlines) and return all
        completed responses; the clock advances to the last completion."""
        while len(self.batcher) > 0:
            free = min(self._device_free)
            self.clock = max(self.clock, free)
            self._dispatch(self.clock, draining=True)
        self.clock = max(self.clock, max(self._device_free))
        return self.take_completed()

    # ------------------------------------------------------------------
    # Simulated-time machinery
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance the clock to the next internal flush event and
        process it; returns False when nothing is pending."""
        event = self._next_event()
        if event is None:
            return False
        self.clock = max(self.clock, event)
        self._dispatch(self.clock)
        return True

    def advance_to(self, t: float) -> None:
        """Process every flush that triggers at or before time ``t``."""
        while True:
            event = self._next_event()
            if event is None or event > t:
                break
            self.clock = max(self.clock, event)
            self._dispatch(self.clock)
        self.clock = max(self.clock, t)

    def _next_event(self) -> Optional[float]:
        """Earliest simulated time a batch can launch; None when idle."""
        if len(self.batcher) == 0:
            return None
        free = min(self._device_free)
        if self.batcher.size_ready():
            return max(self.clock, free)
        deadline = self.batcher.deadline_at()
        expiry = self.batcher.earliest_deadline()
        return max(min(deadline, expiry), free)

    def _dispatch(self, now: float, draining: bool = False) -> None:
        """Launch batches while a device is free and a trigger holds.

        Every batch that becomes launchable at this instant (one per
        free device) joins one wave; the substrate runs the wave through
        :meth:`~repro.runtime.Substrate.map_groups` (concurrently on a
        worker pool, in order elsewhere), then bookkeeping applies in
        formation order, so batch ids, cache puts, responses and
        metrics are identical on every placement.
        """
        self._expire(now)
        tracer = obs_tracing.get_tracer()
        while True:
            queue_depth = len(self.batcher)
            wave = []
            progressed = False
            while len(self.batcher) > 0:
                device = int(np.argmin(self._device_free))
                if self._device_free[device] > now:
                    break
                if self.batcher.size_ready():
                    trigger = "size"
                elif self.batcher.deadline_ready(now):
                    trigger = "deadline"
                elif draining:
                    trigger = "drain"
                else:
                    break
                sources, batch = self.batcher.take_batch()
                for item in batch:
                    item.attempts += 1
                max_depth = batch[0].max_depth
                # The chaos hook runs *during* formation so a failed
                # batch's retries rejoin the pool before the next batch
                # forms; its launch still traces as a failed wave.
                if self.fault_injector is not None:
                    try:
                        self.fault_injector(sources)
                    except ReproError as exc:
                        tracer.finish_span(tracer.start_span(
                            "serve.wave",
                            substrate=self.substrate.telemetry_kind,
                            batches=1,
                            sources=len(sources),
                            queue_depth=queue_depth,
                            failed=1,
                        ), status="error")
                        self._handle_failure(batch, exc)
                        self._expire(now)
                        progressed = True
                        continue
                prior_free = self._device_free[device]
                # Provisionally busy until the wave resolves.
                self._device_free[device] = float("inf")
                wave.append(
                    (device, prior_free, sources, batch, trigger, max_depth)
                )
                self._expire(now)
            if not wave:
                if not progressed:
                    return
                continue
            specs = [
                (
                    entry[2],
                    entry[5],
                    self.plan_cache.get(self._plan_key(entry[2], entry[5])),
                )
                for entry in wave
            ]
            with tracer.span(
                "serve.wave",
                substrate=self.substrate.telemetry_kind,
                batches=len(wave),
                sources=sum(len(entry[2]) for entry in wave),
                plans_cached=sum(1 for s in specs if s[2] is not None),
                queue_depth=queue_depth,
            ) as wave_span:
                results = self.substrate.map_groups(specs, return_errors=True)
                if wave_span is not None:
                    self._annotate_wave(wave_span, results)
            for entry, result in zip(wave, results):
                device, prior_free, sources, batch, trigger, max_depth = entry
                if isinstance(result, ReproError):
                    self._device_free[device] = prior_free
                    self._handle_failure(batch, result)
                    continue
                self._commit_batch(
                    device, now, trigger, sources, batch, max_depth, result
                )
            self._expire(now)

    @staticmethod
    def _annotate_wave(span, results) -> None:
        """Stamp a wave's simulated makespan and failures on its span.

        ``sim_seconds`` is the slowest batch (devices run the wave's
        batches concurrently), so SLO replay from the trace sees the
        latency signal the live engine did — span start/end are wall
        clock, not simulated.  A wave with a failed batch ends in error
        status, which replay counts as an error sample.
        """
        sims = [r.seconds for r in results if not isinstance(r, ReproError)]
        if sims:
            span.annotate(sim_seconds=max(sims))
        failed = len(results) - len(sims)
        if failed:
            span.annotate(failed=failed)
            span.status = "error"

    def _expire(self, now: float) -> None:
        """Time out requests whose deadline passed while still queued."""
        for item in self.batcher.expire(now):
            self.metrics.timeouts += 1
            self._finish(
                Response(
                    request_id=item.request_id,
                    request=item.request,
                    status=STATUS_TIMEOUT,
                    completion_time=item.deadline,
                    latency=item.deadline - item.arrival_time,
                    attempts=item.attempts + 1,
                    error="timed out in queue",
                ),
                successful=False,
            )

    # ------------------------------------------------------------------
    # Batch bookkeeping
    # ------------------------------------------------------------------
    def _commit_batch(
        self,
        device: int,
        now: float,
        trigger: str,
        sources: Sequence[int],
        batch: List[PendingRequest],
        max_depth: Optional[int],
        result,
    ) -> None:
        """Apply one successful batch's bookkeeping: clocks, metrics,
        cache population, and per-request responses."""
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        completion = now + result.seconds
        self._device_free[device] = completion
        stats = result.groups[0]
        self.metrics.record_batch(
            num_requests=len(batch),
            num_sources=len(sources),
            batch_limit=self.batch_size,
            sharing_degree=stats.sharing_degree,
            trigger=trigger,
        )
        self._observe_slo(SIGNAL_WAVE_LATENCY, result.seconds)

        if stats.plan is not None:
            self.plan_cache.put(
                self._plan_key(sources, max_depth), stats.plan
            )

        # Responses carry the rows as the cache stores them.
        rows = {
            source: self.cache.put(
                self.cache.key(
                    self._graph_id, source, self._engine_key, max_depth
                ),
                result.depths[i],
            )
            for i, source in enumerate(sources)
        }
        for item in batch:
            row = rows[item.source]
            if completion > item.deadline:
                self.metrics.timeouts += 1
                self._finish(
                    Response(
                        request_id=item.request_id,
                        request=item.request,
                        status=STATUS_TIMEOUT,
                        completion_time=completion,
                        latency=completion - item.arrival_time,
                        batch_id=batch_id,
                        attempts=item.attempts,
                        error="deadline exceeded during execution",
                    ),
                    successful=False,
                )
                continue
            self._finish(
                Response(
                    request_id=item.request_id,
                    request=item.request,
                    status=STATUS_OK,
                    value=self._answer(item.request, row),
                    completion_time=completion,
                    latency=completion - item.arrival_time,
                    batch_id=batch_id,
                    attempts=item.attempts,
                    row=self._maybe_depths(item.request, row),
                )
            )

    def _handle_failure(
        self, batch: List[PendingRequest], exc: ReproError
    ) -> None:
        """Retry each request once; fail those out of attempts."""
        retry: List[PendingRequest] = []
        for item in batch:
            if item.attempts < self.serving.max_attempts:
                self.metrics.retries += 1
                retry.append(item)
            else:
                self.metrics.failures += 1
                self._finish(
                    Response(
                        request_id=item.request_id,
                        request=item.request,
                        status=STATUS_FAILED,
                        completion_time=self.clock,
                        latency=self.clock - item.arrival_time,
                        attempts=item.attempts,
                        error=str(exc),
                    ),
                    successful=False,
                )
        self.batcher.requeue_front(retry)

    # ------------------------------------------------------------------
    # Answers and bookkeeping
    # ------------------------------------------------------------------
    def _plan_key(self, sources: Sequence[int], max_depth: Optional[int]):
        return PlanCache.key(
            self._graph_id, sources, self._engine_key, max_depth
        )

    def _validate(self, request: Request) -> None:
        n = self.graph.num_vertices
        if not 0 <= request.source < n:
            raise ServiceError(f"source {request.source} out of range [0, {n})")
        if request.target is not None and not 0 <= request.target < n:
            raise ServiceError(f"target {request.target} out of range [0, {n})")

    def _hit_answer(self, key, request: Request, row: np.ndarray) -> float:
        """:meth:`_answer` for a cache hit: the kinds that reduce the
        whole row are computed on the row's first hit and kept beside
        it in the cache."""
        if request.kind == "reachability":
            return self._answer(request, row)
        memo = self.cache.answers(key)
        value = memo.get(request.kind)
        if value is None:
            value = memo[request.kind] = self._answer(request, row)
        return value

    def _answer(self, request: Request, row: np.ndarray) -> float:
        if request.kind == "reachability":
            return float(row[request.target])
        if request.kind == "closeness":
            reached_mask = row > 0
            reached = int(np.count_nonzero(reached_mask))
            total = int(row[reached_mask].sum())
            n = self.graph.num_vertices
            if reached == 0 or total == 0 or n <= 1:
                return 0.0
            return (reached / (n - 1)) * (reached / total)
        return float(np.count_nonzero(row >= 0))

    def _maybe_depths(
        self, request: Request, row: np.ndarray
    ) -> Optional[np.ndarray]:
        if self.serving.return_depths and request.kind == "bfs":
            return row
        return None

    def _finish(self, response: Response, successful: bool = True) -> None:
        if successful:
            self.metrics.record_completion(response.latency, response.cached)
        self._observe_slo(
            SIGNAL_ERROR_RATE, 0.0 if successful else 1.0
        )
        self._completed.append(response)

    def _observe_slo(self, signal: str, value: float) -> None:
        """Feed one SLO sample at the server clock and re-evaluate.

        Samples ride the simulated clock (arrival/launch instants are
        non-decreasing even when completions land in the future), so
        burn rates and alert times are bit-reproducible per run.
        """
        if self.slo is None:
            return
        self.slo.observe(signal, value, self.clock)
        self.slo.evaluate(self.clock)

    def metrics_snapshot(self, elapsed: Optional[float] = None) -> dict:
        """Metrics JSON payload including cache statistics."""
        if elapsed is None:
            elapsed = self.clock
        payload = self.metrics.snapshot(
            elapsed=elapsed, cache_stats=self.cache.stats()
        )
        payload["plan_cache"] = self.plan_cache.stats()
        payload["substrate"] = self.substrate.describe()
        if self.slo is not None:
            self.slo.evaluate(self.clock)
            payload["slo"] = self.slo.snapshot()
        return payload


class InProcessClient:
    """Synchronous convenience client: each call submits one request at
    the server's current clock and drains it to completion."""

    def __init__(self, server: BFSServer) -> None:
        self.server = server

    def _ask(self, request: Request) -> Response:
        request_id = self.server.submit(request)
        for response in self.server.drain():
            if response.request_id == request_id:
                return response
        raise ServiceError(f"request {request_id} produced no response")

    def bfs(self, source: int, max_depth: Optional[int] = None) -> Response:
        return self._ask(Request(source=source, kind="bfs", max_depth=max_depth))

    def reachable(
        self, source: int, target: int, k: Optional[int] = None
    ) -> bool:
        response = self._ask(
            Request(source=source, kind="reachability", target=target,
                    max_depth=k)
        )
        if not response.ok:
            raise ServiceError(response.error or "reachability query failed")
        return response.value >= 0

    def closeness(self, source: int) -> float:
        response = self._ask(Request(source=source, kind="closeness"))
        if not response.ok:
            raise ServiceError(response.error or "closeness query failed")
        return float(response.value)
