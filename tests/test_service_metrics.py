"""MetricsRegistry: percentiles, running aggregates, snapshot non-mutation."""

import pytest

from repro.obs.metrics import percentile
from repro.service.metrics import MetricsRegistry


def registry_with(latencies):
    registry = MetricsRegistry()
    for latency in latencies:
        registry.record_completion(latency, cached=False)
    return registry


class TestPercentile:
    """The registry's latency percentiles are obs.metrics' percentile
    math over the histogram reservoir."""

    def test_empty(self):
        stats = registry_with([]).latency_percentiles()
        assert stats == {"p50": 0.0, "p90": 0.0, "p99": 0.0,
                         "mean": 0.0, "max": 0.0}

    def test_single_value(self):
        stats = registry_with([3.0]).latency_percentiles()
        assert stats["p50"] == stats["p99"] == stats["max"] == 3.0

    def test_interpolation(self):
        stats = registry_with([4.0, 1.0, 3.0, 2.0]).latency_percentiles()
        assert stats["p50"] == pytest.approx(2.5)
        assert stats["p90"] == pytest.approx(3.7)

    def test_out_of_range_rejected(self):
        hist = registry_with([1.0]).latency_histogram
        with pytest.raises(ValueError):
            hist.quantile(101.0)
        with pytest.raises(ValueError):
            hist.quantile(-1.0)

    def test_presorted_matches_unsorted(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        stats = registry_with(values).latency_percentiles()
        for q, key in ((50.0, "p50"), (90.0, "p90"), (99.0, "p99")):
            assert stats[key] == percentile(values, q)

    def test_input_never_mutated(self):
        registry = registry_with([5.0, 1.0, 4.0])
        registry.latency_percentiles()
        assert registry.latency_histogram.samples == [5.0, 1.0, 4.0]


class TestRegistrySnapshots:
    def make_registry(self):
        registry = MetricsRegistry()
        for i, latency in enumerate([5e-6, 1e-6, 9e-6, 3e-6, 7e-6]):
            registry.record_submit(queue_depth=i)
            registry.record_completion(latency, cached=(i == 0))
        registry.record_batch(
            num_requests=4, num_sources=4, batch_limit=8,
            sharing_degree=2.0, trigger="size",
        )
        return registry

    def test_snapshot_does_not_mutate_recorded_values(self):
        # Regression: latency_percentiles() used to be fed by repeated
        # per-quantile sorts; the reservoir must stay a completion-order
        # log no matter how many snapshots are taken.
        registry = self.make_registry()
        before = list(registry.latency_histogram.samples)
        assert before != sorted(before)
        registry.snapshot(elapsed=1.0)
        registry.latency_percentiles()
        registry.snapshot(elapsed=2.0)
        assert registry.latency_histogram.samples == before

    def test_repeated_snapshots_identical(self):
        registry = self.make_registry()
        assert registry.snapshot(elapsed=1.0) == registry.snapshot(elapsed=1.0)

    def test_percentile_values(self):
        registry = self.make_registry()
        stats = registry.latency_percentiles()
        assert stats["p50"] == pytest.approx(5e-6)
        assert stats["max"] == pytest.approx(9e-6)
        assert stats["mean"] == pytest.approx(5e-6)

    def test_histogram_and_reservoir_agree(self):
        # The histogram's reservoir is the only latency store: every
        # completion lands in it, in completion order.
        registry = self.make_registry()
        assert registry.latency_histogram.samples == [
            5e-6, 1e-6, 9e-6, 3e-6, 7e-6
        ]
        assert registry.latency_histogram.count == registry.completed
        stats = registry.latency_percentiles()
        assert stats["p99"] == registry.latency_histogram.quantile(99.0)

    def test_running_aggregates_match_full_history_sums(self):
        # Running sums in arrival order give the same bits as summing
        # every batch and submission after the fact.
        batches = [(3, 3, 8, 1.5, "size"), (7, 5, 8, 2.25, "deadline"),
                   (1, 1, 8, 1.0, "drain"), (9, 8, 8, 3.125, "size")]
        registry = MetricsRegistry()
        for depth in (0, 4, 2, 7, 1):
            registry.record_submit(queue_depth=depth)
        for requests, sources, limit, sharing, trigger in batches:
            registry.record_batch(requests, sources, limit, sharing, trigger)
        snap = registry.snapshot()
        n = len(batches)
        assert snap["batches"] == {
            "count": n,
            "mean_occupancy": sum(b[1] / b[2] for b in batches) / n,
            "mean_sharing_degree": sum(b[3] for b in batches) / n,
            "flush_triggers": {"size": 2, "deadline": 1, "drain": 1},
            "mean_requests_per_batch": sum(b[0] for b in batches) / n,
        }
        assert snap["queue"] == {"mean_depth": 14 / 5, "max_depth": 7}

    def test_empty_registry_snapshot(self):
        snap = MetricsRegistry().snapshot()
        assert snap["batches"]["count"] == 0
        assert snap["batches"]["mean_occupancy"] == 0.0
        assert snap["batches"]["mean_requests_per_batch"] == 0.0
        assert snap["queue"] == {"mean_depth": 0.0, "max_depth": 0}
