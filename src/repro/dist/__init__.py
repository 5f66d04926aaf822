"""Partitioned distributed traversal.

Splits a CSR graph into 1D vertex-range or 2D edge-block partitions
(:mod:`repro.dist.partition`), runs level-synchronous multi-source BFS
across them with a per-level frontier exchange whose wire format —
dense bitmask vs sparse list — is chosen per level and recorded into
the run plan (:mod:`repro.dist.exchange`, :mod:`repro.dist.engine`),
and prices the communication with the cost model of
:mod:`repro.dist.comm`.  Every partition runs in this process, so the
model prices the exchange a real cluster would make.  Depth matrices
are bit-identical to serial :meth:`repro.core.engine.IBFS.run` under
every layout, partition count and wire format.
"""

from repro.dist.comm import CommCostModel, LevelCost
from repro.dist.engine import (
    MAX_GROUP_SIZE,
    DistConfig,
    DistStats,
    LevelTrace,
    PartitionedEngine,
    PartitionState,
)
from repro.dist.exchange import (
    ExchangePayload,
    ExchangePolicy,
    encode_updates,
    merge_payload,
)
from repro.dist.partition import (
    BALANCE_MODES,
    LAYOUTS,
    GraphPartition,
    GraphPartitioner,
    PartitionSet,
    check_partition_cover,
    grid_shape,
)

__all__ = [
    "BALANCE_MODES",
    "CommCostModel",
    "DistConfig",
    "DistStats",
    "ExchangePayload",
    "ExchangePolicy",
    "GraphPartition",
    "GraphPartitioner",
    "LAYOUTS",
    "LevelCost",
    "LevelTrace",
    "MAX_GROUP_SIZE",
    "PartitionSet",
    "PartitionState",
    "PartitionedEngine",
    "check_partition_cover",
    "encode_updates",
    "grid_shape",
    "merge_payload",
]
