"""Serving metrics registry.

Records what a production BFS service would export: request counts by
outcome, latency percentiles, batch occupancy and realized sharing
degree (the paper's figure 6 metric, observed per served batch), cache
effectiveness, and queue depth.  Everything is a plain counter, a
running aggregate, or the latency histogram's reservoir over simulated
seconds, so snapshots are deterministic and JSON-serializable.

Latency distribution math routes through
:class:`repro.obs.metrics.Histogram` — the same fixed bucket
boundaries and the same percentile implementation the executor's task
wall-clock distribution uses — so serving and exec latencies are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram

__all__ = ["MetricsRegistry"]


@dataclass
class MetricsRegistry:
    """Accumulates serving metrics; snapshot with :meth:`snapshot`.

    Batch and queue aggregates are running sums accumulated in arrival
    order, so each mean is bit-identical to summing the full history.
    """

    submitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    shed: int = 0
    timeouts: int = 0
    failures: int = 0
    retries: int = 0
    #: Executed batches (one joint kernel launch each).
    batch_count: int = 0
    #: Sum over batches of the slot fill fraction (sources / limit).
    occupancy_sum: float = 0.0
    #: Sum over batches of the joint kernel's realized sharing degree.
    sharing_degree_sum: float = 0.0
    #: Requests served by batches (>= sources when coalesced).
    batched_requests: int = 0
    #: Batches per flush trigger (``"size"``, ``"deadline"``, ``"drain"``).
    flush_triggers: Dict[str, int] = field(default_factory=dict)
    #: Sum and max of the pending-queue depth seen at each submission.
    queue_depth_sum: int = 0
    queue_depth_max: int = 0

    def __post_init__(self) -> None:
        #: Fixed-bucket latency distribution (simulated seconds) and the
        #: only latency store; the same bucket boundaries as
        #: ``exec_task_wall_seconds``, so the two diff bucket by bucket.
        self.latency_histogram = Histogram(
            "serving_latency_seconds",
            "Per-request serving latency (simulated seconds)",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_submit(self, queue_depth: int) -> None:
        self.submitted += 1
        self.queue_depth_sum += queue_depth
        self.queue_depth_max = max(self.queue_depth_max, queue_depth)

    def record_completion(self, latency: float, cached: bool) -> None:
        self.completed += 1
        if cached:
            self.cache_hits += 1
        self.latency_histogram.observe(latency)

    def record_batch(
        self,
        num_requests: int,
        num_sources: int,
        batch_limit: int,
        sharing_degree: float,
        trigger: str,
    ) -> None:
        """One executed batch: ``num_sources`` distinct traversal
        sources serving ``num_requests`` requests under a configured
        limit of ``batch_limit``."""
        self.batch_count += 1
        self.occupancy_sum += (
            num_sources / batch_limit if batch_limit else 0.0
        )
        self.sharing_degree_sum += sharing_degree
        self.batched_requests += num_requests
        self.flush_triggers[trigger] = self.flush_triggers.get(trigger, 0) + 1

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def latency_percentiles(self) -> Dict[str, float]:
        # One sort covers every quantile; the histogram's retained
        # reservoir keeps completion order (it is a log, not a scratch
        # buffer) and the quantile math is obs.metrics' — shared with
        # every other latency distribution in the system.
        hist = self.latency_histogram
        quantiles = hist.quantiles((50.0, 90.0, 99.0))
        return {
            "p50": quantiles[50.0],
            "p90": quantiles[90.0],
            "p99": quantiles[99.0],
            "mean": hist.mean,
            "max": hist.max,
        }

    def _per_batch(self, total: float) -> float:
        return total / self.batch_count if self.batch_count else 0.0

    @property
    def mean_occupancy(self) -> float:
        return self._per_batch(self.occupancy_sum)

    @property
    def mean_sharing_degree(self) -> float:
        return self._per_batch(self.sharing_degree_sum)

    @property
    def mean_queue_depth(self) -> float:
        if not self.submitted:
            return 0.0
        return self.queue_depth_sum / self.submitted

    def throughput(self, elapsed: float) -> float:
        """Completed requests per simulated second over ``elapsed``."""
        return self.completed / elapsed if elapsed > 0 else 0.0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(
        self, elapsed: Optional[float] = None, cache_stats: Optional[dict] = None
    ) -> dict:
        """JSON-serializable summary of everything recorded so far."""
        payload = {
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "cache_hits": self.cache_hits,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "failures": self.failures,
                "retries": self.retries,
            },
            "latency_seconds": self.latency_percentiles(),
            "batches": {
                "count": self.batch_count,
                "mean_occupancy": self.mean_occupancy,
                "mean_sharing_degree": self.mean_sharing_degree,
                "flush_triggers": dict(self.flush_triggers),
                "mean_requests_per_batch": self._per_batch(
                    self.batched_requests
                ),
            },
            "queue": {
                "mean_depth": self.mean_queue_depth,
                "max_depth": self.queue_depth_max,
            },
        }
        if elapsed is not None:
            payload["elapsed_seconds"] = elapsed
            payload["requests_per_second"] = self.throughput(elapsed)
        if cache_stats is not None:
            payload["cache"] = dict(cache_stats)
        return payload
