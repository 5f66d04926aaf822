"""Process backend of the partitioned engine.

One worker process per partition: each attaches its published partition
(:func:`repro.dist.partition.attach_partition`) and runs the *same*
:class:`~repro.dist.engine.PartitionState` the inline backend uses, so
the two backends cannot diverge.  The parent drives the level loop in
lock step —

``("init", epoch, attempt, group_size)`` →
``("apply", epoch, level, payloads)`` / ``("expand", epoch, attempt,
level, fmt, vertices, masks)`` alternating per level →
``("collect", epoch)`` —

and gathers one reply per partition per step off a shared result queue.
``epoch`` bumps on every group attempt, so stragglers from an aborted
attempt are identified and dropped by epoch alone (the exec backend's
staleness rule).  A worker death surfaces as :class:`PartitionCrash`;
the engine closes the backend and retries the whole group from level 0
on a fresh one within the :class:`~repro.exec.faults.FaultPolicy`
respawn budget — restarts are safe because the traversal is
deterministic, so a re-run is bit-identical.  The whole pool is rebuilt
rather than one worker respawned: a worker killed while its reply
thread held the shared result queue's write lock leaves that lock held
forever, and every live worker's replies would block behind it.

:class:`DistFaultPlan` injects deterministic crashes for tests: worker
``part_id`` kills itself (``os._exit``) while expanding a given level
for the plan's leading attempts, mirroring
:class:`~repro.exec.faults.FaultPlan`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback as traceback_mod
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutorError
from repro.exec.faults import CRASH_EXIT_CODE
from repro.exec.shm import shared_memory_available
from repro.dist.partition import (
    PartitionHandle,
    PartitionSet,
    attach_partition,
    publish_partition,
    release_partition,
)

#: Seconds the parent blocks on the result queue per poll; bounds crash
#: detection latency.
_POLL_SECONDS = 0.05


class PartitionCrash(Exception):
    """Internal signal: a partition worker died mid-step.  The engine
    translates it into retry/rebuild/degrade per the fault policy."""

    def __init__(self, part_id: int, detail: str) -> None:
        super().__init__(f"partition {part_id} worker died ({detail})")
        self.part_id = part_id
        self.detail = detail


@dataclass(frozen=True)
class DistFaultPlan:
    """Deterministic crash injection for partition workers.

    ``crash[part_id]`` kills that partition's worker during its
    ``expand`` of ``level`` for the given number of *leading group
    attempts* — attempt numbers beyond the count run clean, exactly
    like :class:`~repro.exec.faults.FaultPlan`.
    """

    crash: Mapping[int, int] = field(default_factory=dict)
    level: int = 1

    def apply(self, part_id: int, level: int, attempt: int) -> None:
        if level == self.level and attempt < self.crash.get(part_id, 0):
            os._exit(CRASH_EXIT_CODE)

    @property
    def empty(self) -> bool:
        return not self.crash


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def partition_worker_main(
    part_id: int,
    handle: PartitionHandle,
    own_bounds: np.ndarray,
    task_queue,
    result_queue,
    fault_plan: Optional[DistFaultPlan],
) -> None:
    """Worker loop: attach the partition, serve steps until the ``None``
    sentinel."""
    from repro.dist.engine import PartitionState

    plan = fault_plan or DistFaultPlan()
    attached = attach_partition(handle)
    state = PartitionState(attached.partition, own_bounds)
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            kind, epoch = message[0], message[1]
            try:
                if kind == "init":
                    state.init_group(message[3])
                    result_queue.put(("ready", part_id, epoch))
                elif kind == "expand":
                    _, _, attempt, level, fmt, vertices, masks = message
                    plan.apply(part_id, level, attempt)
                    payloads, edges = state.expand(vertices, masks, fmt)
                    result_queue.put(
                        ("updates", part_id, epoch, payloads, edges)
                    )
                elif kind == "apply":
                    _, _, level, payloads = message
                    new_vertices, new_masks = state.apply(level, payloads)
                    result_queue.put(
                        ("new", part_id, epoch, new_vertices, new_masks)
                    )
                elif kind == "collect":
                    result_queue.put(
                        ("depths", part_id, epoch, state.collect())
                    )
                else:  # pragma: no cover - protocol error
                    raise ExecutorError(f"unknown step {kind!r}")
            except Exception as exc:
                result_queue.put(
                    (
                        "error",
                        part_id,
                        epoch,
                        str(exc),
                        traceback_mod.format_exc(),
                    )
                )
    finally:
        attached.close()


# ----------------------------------------------------------------------
# Parent-side backend
# ----------------------------------------------------------------------
class _PartitionWorker:
    def __init__(self, part_id: int, process, task_queue) -> None:
        self.part_id = part_id
        self.process = process
        self.task_queue = task_queue

    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessBackend:
    """One worker per partition over shared-memory partition segments."""

    kind = "process"

    def __init__(
        self,
        pset: PartitionSet,
        fault_plan: Optional[DistFaultPlan] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if not shared_memory_available():  # pragma: no cover - exotic
            raise ExecutorError(
                "process backend needs multiprocessing.shared_memory"
            )
        self.pset = pset
        self.fault_plan = fault_plan
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._handles: List[PartitionHandle] = [
            publish_partition(p) for p in pset.parts
        ]
        self._result_queue = self._ctx.Queue()
        self._workers: Dict[int, _PartitionWorker] = {}
        self._epoch = 0
        self._closed = False
        for part_id in range(pset.num_partitions):
            self._spawn(part_id)

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, part_id: int) -> None:
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=partition_worker_main,
            args=(
                part_id,
                self._handles[part_id],
                self.pset.own_bounds,
                task_queue,
                self._result_queue,
                self.fault_plan,
            ),
            daemon=True,
            name=f"repro-dist-{part_id}",
        )
        process.start()
        self._workers[part_id] = _PartitionWorker(part_id, process, task_queue)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.task_queue.put(None)
            except Exception:  # pragma: no cover
                pass
        deadline = time.perf_counter() + 2.0
        for worker in self._workers.values():
            worker.process.join(
                timeout=max(0.0, deadline - time.perf_counter())
            )
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        for worker in self._workers.values():
            try:
                worker.task_queue.close()
            except Exception:  # pragma: no cover
                pass
        self._workers = {}
        # Partition payloads travel inline (plain pickles), so draining
        # is only about emptying the queue, not reclaiming segments.
        while True:
            try:
                self._result_queue.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                break
        try:
            self._result_queue.close()
        except Exception:  # pragma: no cover
            pass
        for handle in self._handles:
            release_partition(handle)
        self._handles = []

    # -- lock-step protocol --------------------------------------------
    def _broadcast(self, make_message) -> None:
        for part_id in sorted(self._workers):
            self._workers[part_id].task_queue.put(make_message(part_id))

    def _gather(self, expected_kind: str) -> List[Tuple]:
        want = self.pset.num_partitions
        replies: Dict[int, Tuple] = {}
        while len(replies) < want:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                self._check_liveness(replies)
                continue
            kind, part_id, epoch = message[0], message[1], message[2]
            if epoch != self._epoch:
                continue
            if kind == "error":
                raise ExecutorError(
                    f"partition {part_id} step failed: {message[3]}\n"
                    f"{message[4]}"
                )
            if kind != expected_kind:  # pragma: no cover - protocol bug
                raise ExecutorError(
                    f"expected {expected_kind!r} reply; got {kind!r}"
                )
            replies[part_id] = message
        return [replies[p] for p in range(want)]

    def _check_liveness(self, replies: Dict[int, Tuple]) -> None:
        for part_id, worker in self._workers.items():
            if part_id not in replies and not worker.alive():
                raise PartitionCrash(
                    part_id, f"exitcode {worker.process.exitcode}"
                )

    # -- backend surface (mirrors _InlineBackend) ----------------------
    def init_group(self, group_size: int, attempt: int) -> None:
        if self._closed:
            raise ExecutorError("backend is closed")
        self._epoch += 1
        self._broadcast(
            lambda part_id: ("init", self._epoch, attempt, group_size)
        )
        self._gather("ready")

    def expand(
        self,
        level: int,
        attempt: int,
        fmt: str,
        frontier_slices: Sequence[Tuple[np.ndarray, np.ndarray]],
    ):
        self._broadcast(
            lambda part_id: (
                "expand",
                self._epoch,
                attempt,
                level,
                fmt,
                frontier_slices[part_id][0],
                frontier_slices[part_id][1],
            )
        )
        return [
            (payloads, edges)
            for _, _, _, payloads, edges in self._gather("updates")
        ]

    def apply(self, level: int, payloads_per_part) -> List[Tuple]:
        self._broadcast(
            lambda part_id: (
                "apply",
                self._epoch,
                level,
                payloads_per_part[part_id],
            )
        )
        return [
            (vertices, masks)
            for _, _, _, vertices, masks in self._gather("new")
        ]

    def collect(self) -> List[np.ndarray]:
        self._broadcast(lambda part_id: ("collect", self._epoch))
        return [block for _, _, _, block in self._gather("depths")]
