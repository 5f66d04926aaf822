"""Task placement for the process executor.

Scheduling happens in two stages, mirroring how the cluster study
(figure 17) separates *static assignment* from *runtime balance*:

1. the parent pre-assigns tasks to per-worker deques by predicted cost
   with :func:`~repro.gpusim.cluster.schedule_lpt`, the function the
   simulated cluster uses, so the simulated and real backends balance
   groups the same way;
2. at runtime the parent hands each idle worker the next task from its
   own deque; an idle worker with an empty deque steals from the
   *back* of the most loaded peer's deque (classic steal-from-the-tail,
   taking the victim's cheapest pending work last-assigned first), so
   stealing repairs whatever the prediction got wrong.

Costs come from :class:`CostModel`: the degree-sum heuristic (a group's
joint kernel inspects the union of its sources' neighborhoods, so the
sum of source outdegrees plus a per-level |V| term tracks its work).
Only the relative order of the predicted costs matters to placement,
so the model is never rescaled to wall-clock time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.errors import ExecutorError
from repro.graph.csr import CSRGraph


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


class TaskBoard:
    """Parent-side per-worker deques with work stealing.

    The parent mediates all placement (workers never see each other),
    so "stealing" is the parent popping from the back of the richest
    victim's deque when an idle worker's own deque is empty.  All
    tie-breaks are by lowest worker id, keeping placement — though not
    completion order — deterministic for a fixed assignment and worker
    count.
    """

    def __init__(
        self,
        assignment: Sequence[int],
        costs: Sequence[float],
        num_workers: int,
    ) -> None:
        if num_workers <= 0:
            raise ExecutorError("num_workers must be positive")
        if len(assignment) != len(costs):
            raise ExecutorError("assignment and costs must align")
        self._costs = list(costs)
        self._deques: List[Deque[int]] = [deque() for _ in range(num_workers)]
        self._loads = [0.0] * num_workers
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
