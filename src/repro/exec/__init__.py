"""repro.exec — multi-process execution backend for iBFS groups.

The paper's multi-GPU observation (section 8.3) — independent BFS
groups need no communication, so scaling is purely a placement problem
— is simulated by :mod:`repro.gpusim.cluster` and made *real* here:

* :mod:`repro.exec.shm` — zero-copy CSR graph publication over
  ``multiprocessing.shared_memory`` (refcounted, fingerprint-keyed);
* :mod:`repro.exec.scheduler` — the degree-sum cost model and the
  work-stealing task board the cluster's LPT pre-assignment fills;
* :mod:`repro.exec.worker` — the persistent worker process loop;
* :mod:`repro.exec.faults` — deterministic fault injection, the
  crash/timeout/retry budget, and the fault event log;
* :mod:`repro.exec.executor` — :class:`GroupExecutor`, which merges
  per-group results bit-identically to serial :meth:`IBFS.run`.
"""

from repro.exec.executor import ExecConfig, ExecStats, GroupExecutor
from repro.exec.faults import FaultEvent, FaultLog, FaultPlan, FaultPolicy
from repro.exec.scheduler import CostModel, TaskBoard
from repro.exec.shm import (
    AttachedGraph,
    SharedArraySpec,
    SharedGraphHandle,
    attach_graph,
    publish_graph,
    published_refcount,
    release_graph,
    shared_memory_available,
)
from repro.exec.worker import EngineSpec, ObsSpec

__all__ = [
    "ExecConfig",
    "ExecStats",
    "GroupExecutor",
    "FaultEvent",
    "FaultLog",
    "FaultPlan",
    "FaultPolicy",
    "CostModel",
    "TaskBoard",
    "AttachedGraph",
    "SharedArraySpec",
    "SharedGraphHandle",
    "attach_graph",
    "publish_graph",
    "published_refcount",
    "release_graph",
    "shared_memory_available",
    "EngineSpec",
    "ObsSpec",
]
