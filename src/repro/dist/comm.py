"""Communication cost model for the partitioned engine.

Prices each level the way the executor's
:class:`~repro.exec.scheduler.CostModel` prices group compute: a simple
closed-form model whose terms are the quantities the engine actually
measured.  A level costs

``max_p(compute_p) + messages * latency + bytes / bandwidth``

— per-partition edge scans overlap, the exchange is a synchronous
barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SimulationError


@dataclass(frozen=True)
class LevelCost:
    """Priced outcome of one level."""

    compute_seconds: float
    exchange_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.exchange_seconds


@dataclass(frozen=True)
class CommCostModel:
    """Closed-form per-level pricing of partitioned traversal.

    Attributes
    ----------
    latency_seconds:
        Fixed cost per exchange message (the per-transfer launch/sync
        overhead that makes many small messages lose to one broadcast).
    bytes_per_second:
        Interconnect bandwidth the exchange bytes stream at.
    edges_per_second:
        Per-partition edge-scan throughput.
    base_level_seconds:
        Fixed per-partition per-level cost (kernel launch, frontier
        bookkeeping) so empty levels are not free.
    """

    latency_seconds: float = 2e-6
    bytes_per_second: float = 12e9
    edges_per_second: float = 2.5e9
    base_level_seconds: float = 5e-6

    def __post_init__(self) -> None:
        if self.bytes_per_second <= 0 or self.edges_per_second <= 0:
            raise SimulationError("cost-model rates must be positive")
        if self.latency_seconds < 0 or self.base_level_seconds < 0:
            raise SimulationError("cost-model overheads must be >= 0")

    def compute_seconds(self, edges_scanned: int) -> float:
        return self.base_level_seconds + edges_scanned / self.edges_per_second

    def exchange_seconds(self, nbytes: int, messages: int) -> float:
        return messages * self.latency_seconds + nbytes / self.bytes_per_second

    def price_level(
        self,
        per_partition_edges: Sequence[int],
        nbytes: int,
        messages: int,
    ) -> LevelCost:
        compute = max(
            (self.compute_seconds(e) for e in per_partition_edges),
            default=0.0,
        )
        return LevelCost(
            compute_seconds=compute,
            exchange_seconds=self.exchange_seconds(nbytes, messages),
        )
