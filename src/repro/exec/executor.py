"""The multi-process group executor.

:class:`GroupExecutor` is the real-parallelism counterpart of the
simulated cluster (section 8.3): iBFS groups are independent, so the
only problems worth solving are placement and failure — exactly what
this module does.  The parent process

1. publishes the CSR graph into shared memory once
   (:mod:`repro.exec.shm`),
2. forms groups with the *same* GroupBy code the serial engine uses,
3. pre-assigns them to persistent worker processes by predicted cost
   (LPT, :mod:`repro.exec.scheduler`) and hands idle workers work one
   task at a time, stealing from loaded peers' deques,
4. watches for worker crashes and hangs, retrying tasks within the
   :class:`~repro.exec.faults.FaultPolicy` budget and rebuilding the
   whole pool on fresh queues when a worker is lost, degrading to
   in-process execution once the respawn budget is spent,
5. merges per-group results *in group order*, which makes the final
   :class:`~repro.core.result.ConcurrentResult` bit-identical to a
   serial :meth:`IBFS.run` no matter how completion interleaved.

``seconds`` on returned results stays *simulated* time (identical to
the serial engine); real wall-clock time and dispatch/fault behavior
land in :class:`ExecStats` (``last_stats``).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExecutorError, ReproError, TraversalError
from repro.graph.csr import CSRGraph
from repro.gpusim.cluster import schedule_lpt
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.plan.policy import Policy
from repro.plan.types import RunPlan
from repro.core.engine import IBFS, IBFSConfig, check_group
from repro.core.result import ConcurrentResult
from repro.exec.faults import (
    FaultEvent,
    FaultLog,
    FaultPlan,
    FaultPolicy,
    crash_error,
    task_error,
    timeout_error,
)
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import tracing as obs_tracing
from repro.exec.scheduler import CostModel, TaskBoard
from repro.exec.shm import (
    discard_array,
    discard_segment,
    pop_array,
    publish_graph,
    release_graph,
    result_segment_name,
    shared_memory_available,
)
from repro.exec.worker import EngineSpec, ObsSpec, worker_main

#: Seconds the parent blocks on the result queue per scheduling pass;
#: bounds crash/hang detection latency, not throughput.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class ExecConfig:
    """Configuration of a :class:`GroupExecutor`.

    Attributes
    ----------
    num_workers:
        Persistent worker processes; ``0`` means execute in-process
        (no pool, no shared memory — the degraded mode, explicitly).
    faults:
        Retry/timeout/respawn budget (see
        :class:`~repro.exec.faults.FaultPolicy`).
    fault_plan:
        Deterministic fault injection shipped to workers (tests/chaos).

    Workers start with ``fork`` where available, else ``spawn``, and
    attach the shared graph either way.  A pool that cannot be started
    degrades to in-process execution.
    """

    num_workers: int = 2
    faults: FaultPolicy = FaultPolicy()
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_workers < 0:
            raise ExecutorError("num_workers must be non-negative")


@dataclass
class ExecStats:
    """Observability for one executor run (wall-clock, not simulated)."""

    backend: str
    num_workers: int
    tasks: int
    wall_seconds: float = 0.0
    steals: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    task_errors: int = 0
    respawns: int = 0
    degraded: bool = False
    per_worker_tasks: Dict[int, int] = field(default_factory=dict)
    events: List[FaultEvent] = field(default_factory=list)
    #: Diagnostics of every failed attempt — exception text, worker
    #: traceback, and the in-flight task id — in observation order
    #: (:meth:`FaultEvent.last_words` payloads).
    last_words: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        payload = {
            "backend": self.backend,
            "num_workers": self.num_workers,
            "tasks": self.tasks,
            "wall_seconds": self.wall_seconds,
            "steals": self.steals,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "task_errors": self.task_errors,
            "respawns": self.respawns,
            "degraded": self.degraded,
            "per_worker_tasks": dict(self.per_worker_tasks),
            "last_words": [dict(w) for w in self.last_words],
        }
        return payload

    def publish(self, hub: Optional[obs_metrics.MetricsHub] = None) -> None:
        """Fold this run's outcome into the process-wide metrics hub."""
        # Explicit None test: an empty MetricsHub is falsy (len 0).
        hub = hub if hub is not None else obs_metrics.get_hub()
        pairs = (
            ("exec_tasks_total", "Group tasks executed", self.tasks),
            ("exec_steals_total", "Tasks stolen across workers", self.steals),
            ("exec_retries_total", "Task attempts retried", self.retries),
            ("exec_crashes_total", "Worker crashes observed", self.crashes),
            ("exec_timeouts_total", "Task watchdog timeouts", self.timeouts),
            ("exec_task_errors_total", "Task errors raised in workers",
             self.task_errors),
            ("exec_respawns_total", "Worker pools rebuilt", self.respawns),
        )
        for name, help_text, value in pairs:
            hub.counter(name, help_text).inc(value)
        hub.counter(
            "exec_degraded_runs_total",
            "Runs that lost the pool and finished in-process",
        ).inc(1 if self.degraded else 0)
        hub.histogram(
            "exec_run_wall_seconds", "Wall-clock seconds per executor run"
        ).observe(self.wall_seconds)


@dataclass
class _Task:
    group: List[int]
    max_depth: Optional[int]
    want_depths: bool
    plan: Optional[RunPlan] = None


class _Worker:
    """Parent-side record of one worker incarnation."""

    def __init__(self, worker_id: int, process, task_queue) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue

    def alive(self) -> bool:
        return self.process.is_alive()


class GroupExecutor:
    """Runs iBFS groups concurrently across worker processes.

    Construct it over the same graph and engine configuration as the
    serial engine it replaces; results are bit-identical.  Use as a
    context manager (or call :meth:`close`) to tear the pool and the
    shared-memory segments down deterministically.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Optional[IBFSConfig] = None,
        exec_config: Optional[ExecConfig] = None,
        device_config: Optional[DeviceConfig] = None,
        planner: Optional[Policy] = None,
    ) -> None:
        self.graph = graph
        self.exec_config = exec_config or ExecConfig()
        self._device_config = device_config
        self._planner = planner
        device = Device(device_config) if device_config else None
        #: Local engine: grouping, capacity checks, and the in-process
        #: execution path all run through it.
        self.engine = IBFS(graph, config, device=device, planner=planner)
        self.cost_model = CostModel(graph)
        self._handle = None
        self._ctx = None
        self._workers: Dict[int, _Worker] = {}
        self._result_queue = None
        self._respawns_left = self.exec_config.faults.respawn_limit
        self._pool_broken = False
        self._closed = False
        #: Run sequence number: task ids restart at zero every run, so
        #: a straggler reply from an earlier run is identified (and its
        #: shared-memory payload reclaimed) by its epoch alone.
        self._epoch = 0
        #: Result-segment names allocated for in-flight dispatches.
        #: Names are parent-generated (:func:`result_segment_name`), so
        #: a worker that dies after pushing its depth matrix but before
        #: replying cannot orphan a segment — whatever is still listed
        #: here is reclaimed on fault resolution and pool teardown.
        self._pending_segments: set = set()
        #: Stats of the most recent run/map_groups call.
        self.last_stats: Optional[ExecStats] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """``"process"`` when the pool is usable, else ``"inprocess"``."""
        if (
            self.exec_config.num_workers <= 0
            or self._pool_broken
            or not shared_memory_available()
        ):
            return "inprocess"
        return "process"

    def __enter__(self) -> "GroupExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop workers, drain queues, release the shared graph."""
        if self._closed:
            return
        self._closed = True
        self._teardown_pool()

    def rebind_graph(self, graph: CSRGraph) -> None:
        """Re-point the executor at a new graph (an epoch swap).

        Workers map one published shm graph for their whole lifetime,
        so the swap tears the pool down; the next dispatch republishes
        the new graph and respawns workers against it.  The respawn
        budget resets — a fresh pool over a fresh graph is not a fault
        recovery.
        """
        if self._closed:
            raise ExecutorError("executor is closed")
        self._teardown_pool()
        self._pool_broken = False
        self._respawns_left = self.exec_config.faults.respawn_limit
        self.graph = graph
        device = Device(self._device_config) if self._device_config else None
        self.engine = IBFS(
            graph,
            self.engine.config,
            device=device,
            planner=self._planner,
        )
        self.cost_model = CostModel(graph)

    def _teardown_pool(self) -> None:
        for worker in self._workers.values():
            try:
                worker.task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
        deadline = time.perf_counter() + 2.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.perf_counter()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        for worker in self._workers.values():
            try:
                worker.task_queue.close()
            except Exception:  # pragma: no cover
                pass
        self._workers = {}
        if self._result_queue is not None:
            self._drain_result_queue()
            try:
                self._result_queue.close()
            except Exception:  # pragma: no cover
                pass
            self._result_queue = None
        # Workers are dead and the queue is drained: any name still
        # pending belongs to a reply that never arrived — a crash
        # between push_array and the reply put — so unlink it now,
        # before the graph segments go, to leave /dev/shm clean.
        for name in list(self._pending_segments):
            self._reclaim_segment(name)
        if self._handle is not None:
            release_graph(self._handle)
            self._handle = None

    def _drain_result_queue(self) -> None:
        """Reclaim shared-memory payloads of unread replies.

        Workers killed mid-teardown (or outlived by a raised failure)
        may have pushed depth segments whose replies were never read;
        dropping the queue without unlinking them would leak
        ``/dev/shm`` space for the life of the machine.
        """
        while True:
            try:
                message = self._result_queue.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            if message and message[0] == "ok" and message[5] is not None:
                self._pending_segments.discard(message[5].name)
                try:
                    discard_array(message[5])
                except Exception:  # pragma: no cover - best effort
                    pass

    def _ensure_pool(self) -> bool:
        """Start the pool if needed; False means run in-process."""
        if self._closed:
            raise ExecutorError("executor is closed")
        if self.backend != "process":
            return False
        if self._workers:
            return True
        try:
            self._start_pool()
            return True
        except ReproError:
            raise
        except Exception:
            self._pool_broken = True
            self._teardown_pool()
            return False

    def _start_pool(self) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._handle = publish_graph(self.graph)
        self._result_queue = self._ctx.Queue()
        for worker_id in range(self.exec_config.num_workers):
            self._spawn_worker(worker_id)

    def _spawn_worker(self, worker_id: int) -> None:
        task_queue = self._ctx.Queue()
        spec = EngineSpec(
            config=self.engine.config,
            device_config=self._device_config,
            planner=self._planner,
        )
        profile_config = obs_profile.get_config()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                self._handle,
                spec,
                task_queue,
                self._result_queue,
                self.exec_config.fault_plan,
                ObsSpec(
                    profile=profile_config.enabled,
                    sample_every=profile_config.sample_every,
                ),
            ),
            daemon=True,
            name=f"repro-exec-{worker_id}",
        )
        process.start()
        self._workers[worker_id] = _Worker(worker_id, process, task_queue)

    # ------------------------------------------------------------------
    # Public execution surface
    # ------------------------------------------------------------------
    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> ConcurrentResult:
        """Traverse from all sources; same contract and bit-identical
        output as :meth:`repro.core.engine.IBFS.run`."""
        sources = [int(s) for s in sources]
        if not sources:
            raise TraversalError("at least one source is required")
        groups = self.engine.make_groups(sources)
        tasks = [_Task(list(g), max_depth, store_depths) for g in groups]
        outcomes = self._execute(tasks, collect_errors=False)
        return ConcurrentResult.from_groups(
            self.engine.name,
            sources,
            self.graph.num_vertices,
            [(task.group, *outcome) for task, outcome in zip(tasks, outcomes)],
        )

    def run_group(
        self,
        group: Sequence[int],
        max_depth: Optional[int] = None,
        plan: Optional[RunPlan] = None,
    ) -> ConcurrentResult:
        """Execute one pre-formed group (the serving layer's unit)."""
        results = self.map_groups([(group, max_depth, plan)])
        return results[0]

    def map_groups(
        self,
        specs: Sequence[Tuple],
        return_errors: bool = False,
    ) -> List[Union[ConcurrentResult, ReproError]]:
        """Execute many pre-formed groups concurrently.

        Each spec is ``(group, max_depth)`` or ``(group, max_depth,
        plan)`` — the optional :class:`~repro.plan.types.RunPlan` ships
        to the worker and replays there instead of re-running the
        planner heuristics.  Returns one :class:`ConcurrentResult` per
        spec, in spec order.  With ``return_errors`` a failed group
        yields its error object in place of a result (so callers with
        their own retry policy — the serving layer — handle failures
        per batch); otherwise the first failure raises.
        """
        if not specs:
            return []
        tasks = []
        for spec in specs:
            group, max_depth = spec[0], spec[1]
            replay = spec[2] if len(spec) > 2 else None
            # The serial engine's checks, in the parent: a malformed
            # group fails with the same typed error, untried.
            group = check_group(
                group,
                self.graph.num_vertices,
                self.engine.effective_group_size,
            )
            tasks.append(_Task(group, max_depth, True, replay))
        outcomes = self._execute(tasks, collect_errors=return_errors)
        results: List[Union[ConcurrentResult, ReproError]] = []
        for task, outcome in zip(tasks, outcomes):
            if isinstance(outcome, ReproError):
                results.append(outcome)
                continue
            results.append(
                ConcurrentResult.from_groups(
                    self.engine.name,
                    task.group,
                    self.graph.num_vertices,
                    [(task.group, *outcome)],
                )
            )
        return results

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------
    def _execute(self, tasks: List[_Task], collect_errors: bool):
        start = time.perf_counter()
        tracer = obs_tracing.get_tracer()
        if not self._ensure_pool():
            stats = ExecStats(
                backend="inprocess", num_workers=0, tasks=len(tasks)
            )
            with tracer.span(
                "exec.run", backend="inprocess", tasks=len(tasks)
            ):
                outcomes = [self._run_local(t) for t in tasks]
            stats.wall_seconds = time.perf_counter() - start
            self.last_stats = stats
            stats.publish()
            return outcomes
        stats = ExecStats(
            backend="process",
            num_workers=len(self._workers),
            tasks=len(tasks),
        )
        try:
            with tracer.span(
                "exec.run", backend="process", tasks=len(tasks),
                num_workers=len(self._workers),
            ):
                outcomes = self._execute_pool(tasks, collect_errors, stats)
        except BaseException:
            # A raised failure can leave workers mid-task; reset so the
            # next call starts from a clean pool.
            self._teardown_pool()
            raise
        stats.wall_seconds = time.perf_counter() - start
        self.last_stats = stats
        stats.publish()
        return outcomes

    def _run_local(self, task: _Task) -> tuple:
        wall_start = time.perf_counter()
        with obs_tracing.get_tracer().span(
            "exec.local_task", group_size=len(task.group),
            replay=task.plan is not None,
        ):
            result = self.engine.run_group(
                task.group, max_depth=task.max_depth, plan=task.plan
            )
        self._task_wall_histogram().observe(time.perf_counter() - wall_start)
        depths = result.depths if task.want_depths else None
        return depths, result.counters, result.groups[0]

    def _task_wall_histogram(self) -> obs_metrics.Histogram:
        """Per-task wall-clock distribution in the process-wide hub;
        looked up per call so a test that swaps the hub is honored."""
        return obs_metrics.get_hub().histogram(
            "exec_task_wall_seconds",
            "Wall-clock seconds per group task (any backend)",
        )

    def _execute_pool(self, tasks: List[_Task], collect_errors: bool, stats: ExecStats):
        policy = self.exec_config.faults
        self._epoch += 1
        log = FaultLog()
        n = len(tasks)
        costs = [self.cost_model.predict(t.group) for t in tasks]
        board = TaskBoard(
            schedule_lpt(costs, len(self._workers)),
            costs,
            len(self._workers),
        )
        outcomes: List[Optional[object]] = [None] * n
        attempts = [0] * n
        pending = set(range(n))
        #: worker_id -> (task_id, attempt, started, dispatch_span,
        #: result_name).
        busy: Dict[
            int, Tuple[int, int, float, Optional[object], Optional[str]]
        ] = {}

        def fail_task(task_id: int, error: ReproError) -> None:
            if policy.fail_fast or not collect_errors:
                raise error
            outcomes[task_id] = error
            pending.discard(task_id)

        def task_failed(task_id: int, attempt: int, make_error) -> None:
            attempts[task_id] = attempt + 1
            if policy.fail_fast:
                raise make_error()
            if policy.exhausted(attempts[task_id]):
                fail_task(task_id, make_error())
            else:
                stats.retries += 1
                log.record("retry", task_id=task_id, attempt=attempts[task_id])
                board.requeue(task_id)

        while pending:
            self._reap_dead(busy, board, stats, log, task_failed)
            self._watchdog(busy, board, policy, stats, log, task_failed)
            self._hand_out(board, busy, tasks, attempts, stats)
            if not pending:
                break
            if not busy:
                # Nothing in flight yet work remains: the pool is gone
                # (a worker lost past the respawn budget).
                self._degrade(tasks, pending, outcomes, stats, log)
                break
            message = self._next_message()
            if message is None:
                continue
            self._handle_message(
                message, tasks, outcomes, attempts, pending, busy, stats, log,
                task_failed,
            )

        stats.steals += board.steals
        stats.events = log.events
        return outcomes

    # -- pool mechanics ------------------------------------------------
    def _hand_out(self, board, busy, tasks, attempts, stats) -> None:
        tracer = obs_tracing.get_tracer()
        for worker_id in sorted(self._workers):
            if worker_id in busy or not self._workers[worker_id].alive():
                continue
            task_id = board.next_task(worker_id)
            if task_id is None:
                continue
            task = tasks[task_id]
            # One detached (overlapping) span per in-flight dispatch;
            # its context rides the task message so the worker's spans
            # parent onto it, and it closes when the reply (or the
            # fault handler) resolves the attempt.
            span = tracer.start_span(
                "exec.dispatch",
                detached=True,
                task_id=task_id,
                worker_id=worker_id,
                attempt=attempts[task_id],
                group_size=len(task.group),
            )
            # Name the result segment in the parent so it survives —
            # and can be reclaimed after — a worker crash between
            # push_array and the reply.
            result_name = None
            if task.want_depths:
                result_name = result_segment_name()
                self._pending_segments.add(result_name)
            self._workers[worker_id].task_queue.put(
                (
                    self._epoch,
                    task_id,
                    attempts[task_id],
                    task.group,
                    task.max_depth,
                    task.want_depths,
                    task.plan,
                    span.context if span is not None else None,
                    result_name,
                )
            )
            busy[worker_id] = (
                task_id, attempts[task_id], time.perf_counter(), span,
                result_name,
            )
            stats.per_worker_tasks[worker_id] = (
                stats.per_worker_tasks.get(worker_id, 0) + 1
            )

    @staticmethod
    def _finish_dispatch(entry, status: str = "ok", **attrs) -> None:
        """Close the dispatch span of a resolved busy entry."""
        if entry is None:
            return
        span = entry[3]
        if span is not None:
            span.attrs.update(attrs)
            obs_tracing.get_tracer().finish_span(span, status=status)

    def _next_message(self):
        try:
            return self._result_queue.get(timeout=_POLL_SECONDS)
        except queue_mod.Empty:
            return None

    def _handle_message(
        self, message, tasks, outcomes, attempts, pending, busy, stats, log,
        task_failed,
    ) -> None:
        kind = message[0]
        tracer = obs_tracing.get_tracer()
        if kind == "ok":
            (_, worker_id, epoch, task_id, attempt, depth_spec, counters,
             gstats, wall, spans) = message
            stale = (
                epoch != self._epoch
                or task_id not in pending
                or attempt != attempts[task_id]
            )
            if stale:
                # A straggler's spans (like its depths) belong to a
                # finished attempt; ingesting them would duplicate the
                # retry's — drop the whole reply.
                if depth_spec is not None:
                    self._pending_segments.discard(depth_spec.name)
                    discard_array(depth_spec)
                return
            depths = None
            if depth_spec is not None:
                self._pending_segments.discard(depth_spec.name)
                depths = pop_array(depth_spec)
            outcomes[task_id] = (depths, counters, gstats)
            pending.discard(task_id)
            self._finish_dispatch(busy.pop(worker_id, None))
            tracer.ingest(spans)
            self._task_wall_histogram().observe(wall)
            return
        if kind == "error":
            (_, worker_id, epoch, task_id, attempt, detail, worker_tb,
             spans) = message
            if (
                epoch != self._epoch
                or task_id not in pending
                or attempt != attempts[task_id]
            ):
                return
            entry = busy.pop(worker_id, None)
            self._finish_dispatch(entry, status="error", error=detail)
            if entry is not None:
                self._reclaim_segment(entry[4])
            tracer.ingest(spans)
            stats.task_errors += 1
            event = log.record(
                "task_error",
                task_id=task_id,
                worker_id=worker_id,
                attempt=attempt,
                detail=detail,
                traceback=worker_tb,
            )
            stats.last_words.append(event.last_words())
            task_failed(
                task_id,
                attempt,
                lambda: task_error(
                    task_id, worker_id, attempt, detail, worker_tb
                ),
            )

    def _reap_dead(self, busy, board, stats, log, task_failed) -> None:
        lost = [
            worker_id
            for worker_id, worker in sorted(self._workers.items())
            if not worker.alive()
        ]
        for worker_id in lost:
            entry = busy.pop(worker_id, None)
            if entry is None:
                continue
            task_id, attempt = entry[0], entry[1]
            stats.crashes += 1
            detail = f"exitcode {self._workers[worker_id].process.exitcode}"
            self._finish_dispatch(entry, status="error", error=detail)
            event = log.record(
                "crash",
                task_id=task_id,
                worker_id=worker_id,
                attempt=attempt,
                detail=detail,
            )
            stats.last_words.append(event.last_words())
            task_failed(
                task_id,
                attempt,
                lambda: crash_error(task_id, worker_id, attempt, detail),
            )
        if lost:
            self._rebuild_pool(lost[0], busy, board, stats, log)

    def _watchdog(self, busy, board, policy, stats, log, task_failed) -> None:
        if policy.task_timeout is None:
            return
        now = time.perf_counter()
        killed = []
        for worker_id in list(busy):
            task_id, attempt, started = busy[worker_id][:3]
            if now - started <= policy.task_timeout:
                continue
            entry = busy.pop(worker_id)
            stats.timeouts += 1
            detail = f"exceeded {policy.task_timeout:.3f}s"
            self._finish_dispatch(entry, status="error", error=detail)
            event = log.record(
                "timeout",
                task_id=task_id,
                worker_id=worker_id,
                attempt=attempt,
                detail=detail,
            )
            stats.last_words.append(event.last_words())
            worker = self._workers[worker_id]
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            killed.append(worker_id)
            task_failed(
                task_id,
                attempt,
                lambda: timeout_error(task_id, worker_id, attempt),
            )
        if killed:
            self._rebuild_pool(killed[0], busy, board, stats, log)

    def _reclaim_segment(self, name: Optional[str]) -> None:
        """Unlink one pre-allocated result segment and forget it; a
        no-op when the worker never got as far as creating it."""
        if not name:
            return
        self._pending_segments.discard(name)
        try:
            discard_segment(name)
        except Exception:  # pragma: no cover - best effort
            pass

    def _rebuild_pool(self, worker_id: int, busy, board, stats, log) -> None:
        """Replace the whole pool after losing a worker.

        A worker killed while its feeder thread holds the shared reply
        queue's write lock leaves that lock held forever, and one killed
        inside ``get()`` holds its task queue's read lock, so no worker
        is respawned onto the old queues: every worker goes, and a fresh
        pool starts on fresh queues.  Attempts in flight on the
        survivors go back on the board without being charged.  Each
        rebuild spends one unit of the respawn budget; once it is spent
        the pool stays down and the run finishes in-process.  Result
        segments of the discarded attempts are reclaimed by the
        teardown.
        """
        for entry in busy.values():
            self._finish_dispatch(entry, status="error", error="pool rebuilt")
            board.requeue(entry[0])
        busy.clear()
        self._teardown_pool()
        if self._respawns_left == 0:
            log.record("worker_lost", worker_id=worker_id)
            return
        self._respawns_left -= 1
        stats.respawns += 1
        log.record("respawn", worker_id=worker_id)
        self._ensure_pool()

    def _degrade(self, tasks, pending, outcomes, stats, log) -> None:
        """Pool lost: finish the remaining tasks in-process, correctly."""
        stats.degraded = True
        log.record(
            "degraded",
            detail=f"{len(pending)} tasks completed in-process",
        )
        for task_id in sorted(pending):
            outcomes[task_id] = self._run_local(tasks[task_id])
        pending.clear()
