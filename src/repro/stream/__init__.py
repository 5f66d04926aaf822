"""Dynamic graphs: epoch-tagged snapshots and incremental BFS repair.

The iBFS paper serves concurrent BFS over a static graph; this package
grows the reproduction toward the online reality where the graph
mutates while queries run.  Four layers:

* :mod:`repro.stream.overlay` — batched edge inserts/deletes on a
  frozen CSR, folded into a fresh CSR bit-identically to a
  from-scratch rebuild;
* :mod:`repro.stream.epoch` — epoch-tagged immutable snapshots, each
  with its own graph id (derived from its parent's id and the batch)
  so cache invalidation falls out of keying;
* :mod:`repro.stream.repair` — incremental depth-matrix repair for
  insert-only batches, bit-identical to re-traversal;
* :mod:`repro.stream.service` — an epoch-aware
  :class:`~repro.stream.service.DynamicBFSServer`; churn load comes
  from :func:`repro.service.loadgen.run_closed_loop`.
"""

from repro.stream.overlay import GraphOverlay, MutationBatch, apply_batch
from repro.stream.epoch import EpochStore, Snapshot
from repro.stream.repair import (
    NOOP,
    RECOMPUTE,
    REPAIR,
    RepairConfig,
    RepairPlan,
    plan_repair,
    repair_depth_matrix,
)
from repro.stream.service import DynamicBFSServer, EpochRecord

__all__ = [
    "GraphOverlay",
    "MutationBatch",
    "apply_batch",
    "EpochStore",
    "Snapshot",
    "NOOP",
    "RECOMPUTE",
    "REPAIR",
    "RepairConfig",
    "RepairPlan",
    "plan_repair",
    "repair_depth_matrix",
    "DynamicBFSServer",
    "EpochRecord",
]
