"""Worker fault model: injection, detection policy, and the event log.

Failure handling in the executor is deliberately split three ways:

* :class:`FaultPlan` — a *deterministic* injection spec shipped to the
  workers.  Faults key on ``(task_id, attempt)``, so "crash the first
  attempt of task 3" reproduces identically across schedulers, worker
  counts, and reruns — which is what lets the determinism suite assert
  bit-identical results *through* a crash.
* :class:`FaultPolicy` — the parent's tolerance budget: how many times
  a task may be rescheduled, how long a task may run before the worker
  is presumed hung, how many pool rebuilds after a lost worker are
  allowed before the executor degrades to in-process execution, and
  whether the first failure should abort the run (``fail_fast``).
* :class:`FaultLog` — an append-only record of every crash, timeout,
  task error, retry, and respawn, surfaced through
  :class:`~repro.exec.executor.ExecStats`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.errors import (
    ExecutorError,
    TraversalError,
    WorkerCrashError,
    WorkerTimeoutError,
)

#: Exit code used by injected crashes, so tests can tell a planned
#: os._exit from an organic segfault.
CRASH_EXIT_CODE = 43


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection, evaluated inside the worker.

    Each mapping sends ``task_id -> number of leading attempts to
    fault``: ``crash={3: 1}`` kills the worker on task 3's first
    attempt and lets the retry through; ``crash={3: 99}`` keeps killing
    until the retry budget is spent.
    """

    #: Attempts to terminate the worker process abruptly (os._exit).
    crash: Mapping[int, int] = field(default_factory=dict)
    #: Attempts to raise a TraversalError inside the task.
    error: Mapping[int, int] = field(default_factory=dict)
    #: Attempts to hang (sleep) so the parent's task timeout fires.
    hang: Mapping[int, int] = field(default_factory=dict)
    #: Attempts to terminate the worker *after* it has pushed its
    #: result segment but before the reply is enqueued — the window
    #: where a crash would orphan shared memory the parent has no spec
    #: for (the teardown-reclamation regression).
    crash_after_result: Mapping[int, int] = field(default_factory=dict)
    #: How long a hung attempt sleeps; keep above the task timeout.
    hang_seconds: float = 30.0

    def apply(self, task_id: int, attempt: int) -> None:
        """Run in the worker immediately before the task executes."""
        if attempt < self.crash.get(task_id, 0):
            os._exit(CRASH_EXIT_CODE)
        if attempt < self.hang.get(task_id, 0):
            time.sleep(self.hang_seconds)
        if attempt < self.error.get(task_id, 0):
            raise TraversalError(
                f"injected fault: task {task_id} attempt {attempt}"
            )

    def apply_after_result(self, task_id: int, attempt: int) -> None:
        """Run in the worker between result publication and the reply."""
        if attempt < self.crash_after_result.get(task_id, 0):
            os._exit(CRASH_EXIT_CODE)

    @property
    def empty(self) -> bool:
        return not (
            self.crash or self.error or self.hang or self.crash_after_result
        )


@dataclass(frozen=True)
class FaultPolicy:
    """The parent's failure budget."""

    #: Reschedules allowed per task beyond the first attempt.
    max_retries: int = 2
    #: Wall seconds a task may run before its worker is presumed hung
    #: and killed (``None`` disables the watchdog).
    task_timeout: Optional[float] = None
    #: Pool rebuilds allowed after lost workers; once spent, a lost
    #: worker takes the pool down and the run finishes in-process.
    respawn_limit: int = 4
    #: Abort the whole run on the first task failure instead of
    #: retrying (the CLI's ``--fail-fast``).
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExecutorError("max_retries must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ExecutorError("task_timeout must be positive when given")
        if self.respawn_limit < 0:
            raise ExecutorError("respawn_limit must be non-negative")

    def exhausted(self, attempts: int) -> bool:
        """True when ``attempts`` executions used up the retry budget."""
        return attempts > self.max_retries


@dataclass(frozen=True)
class FaultEvent:
    """One observed failure or recovery action."""

    #: ``"crash"``, ``"timeout"``, ``"task_error"``, ``"retry"``,
    #: ``"respawn"``, ``"worker_lost"``, or ``"degraded"``.
    kind: str
    task_id: Optional[int] = None
    worker_id: Optional[int] = None
    attempt: Optional[int] = None
    detail: str = ""
    #: The failed attempt's last words: the worker-side formatted
    #: traceback for task errors (empty for crashes — an ``os._exit``
    #: or segfault leaves none).
    traceback: str = ""

    def last_words(self) -> dict:
        """Diagnostic payload surfaced through ``ExecStats.last_words``."""
        return {
            "kind": self.kind,
            "task_id": self.task_id,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "error": self.detail,
            "traceback": self.traceback,
        }


@dataclass
class FaultLog:
    """Append-only fault history for one executor run."""

    events: List[FaultEvent] = field(default_factory=list)

    def record(self, kind: str, **kwargs) -> FaultEvent:
        event = FaultEvent(kind=kind, **kwargs)
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


def crash_error(
    task_id: int, worker_id: int, attempt: int, detail: str = ""
) -> WorkerCrashError:
    message = (
        f"worker {worker_id} died executing task {task_id} "
        f"(attempt {attempt}); retry budget exhausted"
    )
    if detail:
        message += f" [{detail}]"
    return WorkerCrashError(message)


def timeout_error(task_id: int, worker_id: int, attempt: int) -> WorkerTimeoutError:
    return WorkerTimeoutError(
        f"task {task_id} timed out on worker {worker_id} "
        f"(attempt {attempt}); retry budget exhausted"
    )


def task_error(
    task_id: int, worker_id: int, attempt: int, detail: str, traceback: str = ""
) -> ExecutorError:
    """The parent-side error for a task that raised in a worker; carries
    the worker's last words so ``--fail-fast`` failures are debuggable."""
    message = f"task {task_id} failed on worker {worker_id}: {detail}"
    if traceback:
        message += f"\nworker traceback (attempt {attempt}):\n{traceback.rstrip()}"
    return ExecutorError(message)
