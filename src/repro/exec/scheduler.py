"""Task placement for the process executor.

Scheduling happens in two stages, mirroring how the cluster study
(figure 17) separates *static assignment* from *runtime balance*:

1. a :class:`DispatchPolicy` pre-assigns tasks to per-worker deques
   using predicted costs — the LPT and round-robin policies are the
   exact functions the simulated cluster uses
   (:mod:`repro.gpusim.cluster`), so the simulated and real backends
   share one scheduling vocabulary;
2. at runtime the parent hands each idle worker the next task from its
   own deque; under the work-stealing policy an idle worker with an
   empty deque steals from the *back* of the most loaded peer's deque
   (classic steal-from-the-tail, taking the victim's cheapest pending
   work last-assigned first).

Costs come from :class:`CostModel`: the degree-sum heuristic (a group's
joint kernel inspects the union of its sources' neighborhoods, so the
sum of source outdegrees plus a per-level |V| term tracks its work).
Only the relative order of the predicted costs matters to the dispatch
policies, so the model is never rescaled to wall-clock time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.errors import ExecutorError
from repro.graph.csr import CSRGraph
from repro.gpusim.cluster import schedule_lpt, schedule_round_robin

#: Scheduler names accepted by the executor/CLI.
SCHEDULER_NAMES = ("steal", "lpt", "round_robin")


class CostModel:
    """Predicts per-group execution cost in abstract units."""

    def __init__(self, graph: CSRGraph) -> None:
        self._degrees = graph.out_degrees()
        #: Per-level fixed cost: a joint kernel touches status words for
        #: every vertex regardless of frontier size.
        self._base = float(max(graph.num_vertices, 1))

    def predict(self, group: Sequence[int]) -> float:
        """Degree-sum heuristic cost of one group, in abstract units."""
        degree_sum = float(self._degrees[np.asarray(group, dtype=np.int64)].sum())
        return self._base + degree_sum


class DispatchPolicy:
    """Static pre-assignment of tasks to workers (no runtime stealing)."""

    name = "base"
    allow_stealing = False

    def assign(self, costs: Sequence[float], num_workers: int) -> np.ndarray:
        """Worker id per task (same contract as the cluster schedulers)."""
        raise NotImplementedError


class RoundRobinDispatch(DispatchPolicy):
    """Cost-blind striping; the paper's static-split baseline."""

    name = "round_robin"

    def assign(self, costs: Sequence[float], num_workers: int) -> np.ndarray:
        return schedule_round_robin(costs, num_workers)


class LPTDispatch(DispatchPolicy):
    """Longest-predicted-task-first onto the least loaded worker."""

    name = "lpt"

    def assign(self, costs: Sequence[float], num_workers: int) -> np.ndarray:
        return schedule_lpt(costs, num_workers)


class WorkStealingDispatch(LPTDispatch):
    """LPT pre-assignment plus runtime stealing from loaded peers.

    Static LPT balances *predicted* cost; stealing repairs whatever the
    prediction got wrong once real completion times skew the deques.
    """

    name = "steal"
    allow_stealing = True


_POLICIES = {
    RoundRobinDispatch.name: RoundRobinDispatch,
    LPTDispatch.name: LPTDispatch,
    WorkStealingDispatch.name: WorkStealingDispatch,
}


def get_policy(name: str) -> DispatchPolicy:
    """Dispatch policy by CLI name (``steal``, ``lpt``, ``round_robin``)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ExecutorError(
            f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}"
        ) from None


class TaskBoard:
    """Parent-side per-worker deques with optional work stealing.

    The parent mediates all placement (workers never see each other),
    so "stealing" is the parent popping from the back of the richest
    victim's deque when an idle worker's own deque is empty.  All
    tie-breaks are by lowest worker id, keeping placement — though not
    completion order — deterministic for a fixed policy and worker
    count.
    """

    def __init__(
        self,
        assignment: Sequence[int],
        costs: Sequence[float],
        num_workers: int,
        allow_stealing: bool,
    ) -> None:
        if num_workers <= 0:
            raise ExecutorError("num_workers must be positive")
        if len(assignment) != len(costs):
            raise ExecutorError("assignment and costs must align")
        self._costs = list(costs)
        self._deques: List[Deque[int]] = [deque() for _ in range(num_workers)]
        self._loads = [0.0] * num_workers
        self.allow_stealing = allow_stealing
        self.steals = 0
        for task_id, worker in enumerate(assignment):
            worker = int(worker)
            if not 0 <= worker < num_workers:
                raise ExecutorError(
                    f"task {task_id} assigned to worker {worker} out of range"
                )
            self._deques[worker].append(task_id)
            self._loads[worker] += self._costs[task_id]

    def remaining(self) -> int:
        """Tasks still queued (excludes tasks already handed out)."""
        return sum(len(d) for d in self._deques)

    def load(self, worker: int) -> float:
        return self._loads[worker]

    def next_task(self, worker: int) -> Optional[int]:
        """Next task for ``worker``: own deque front, else steal."""
        own = self._deques[worker]
        if own:
            task_id = own.popleft()
            self._loads[worker] -= self._costs[task_id]
            return task_id
        if not self.allow_stealing:
            return None
        victim = self._richest_victim()
        if victim is None:
            return None
        task_id = self._deques[victim].pop()
        self._loads[victim] -= self._costs[task_id]
        self.steals += 1
        return task_id

    def _richest_victim(self) -> Optional[int]:
        best: Optional[int] = None
        best_load = 0.0
        for worker, d in enumerate(self._deques):
            if not d:
                continue
            load = self._loads[worker]
            if best is None or load > best_load:
                best = worker
                best_load = load
        return best

    def requeue(self, task_id: int) -> None:
        """Put a failed task back at the front of the lightest deque so a
        retry runs at the next dispatch opportunity."""
        worker = int(np.argmin(self._loads))
        self._deques[worker].appendleft(task_id)
        self._loads[worker] += self._costs[task_id]
