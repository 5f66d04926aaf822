"""Metrics facade: counters, gauges, fixed-bucket histograms, the hub."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsHub,
    percentile,
)


@pytest.fixture(autouse=True)
def _isolate_module_hub():
    yield
    obs_metrics.set_hub(None)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.5
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_presorted_matches_unsorted(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(sorted(values), 90, presorted=True) == percentile(
            values, 90
        )

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_input_never_mutated(self):
        values = [5.0, 1.0, 4.0]
        percentile(values, 50)
        assert values == [5.0, 1.0, 4.0]


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_is_monotone(self):
        with pytest.raises(ObservabilityError):
            Counter("x").inc(-1)

    def test_gauge_sets_and_moves(self):
        g = Gauge("depth")
        g.set(4)
        g.inc(-1)
        assert g.value == 3.0

    def test_records_are_jsonl_shaped(self):
        c = Counter("n", help="things", labels={"site": "a"})
        c.inc(2)
        record = c.record()
        assert record == {
            "kind": "metric", "type": "counter", "name": "n",
            "help": "things", "labels": {"site": "a"}, "value": 2.0,
        }


class TestHistogram:
    def test_bucket_counts_follow_le_semantics(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        # le=1: {0.5, 1.0}; le=2: {1.5}; le=4: {3.0}; +Inf: {100.0}
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.cumulative_counts() == [2, 3, 4, 5]
        assert h.count == 5
        assert h.sum == pytest.approx(106.0)

    def test_inf_bucket_auto_appended(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        assert h.bounds[-1] == math.inf
        assert len(h.bounds) == 3

    def test_bounds_must_ascend(self):
        with pytest.raises(ObservabilityError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("empty", buckets=())

    def test_quantiles_are_exact_over_samples(self):
        h = Histogram("lat", buckets=(10.0,))
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.quantile(50) == percentile([1.0, 2.0, 3.0, 4.0], 50)
        qs = h.quantiles((50.0, 100.0))
        assert qs[50.0] == 2.5
        assert qs[100.0] == 4.0
        assert h.mean == 2.5
        assert h.max == 4.0

    def test_max_samples_bounds_reservoir_not_counts(self):
        h = Histogram("lat", buckets=(10.0,), max_samples=2)
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert len(h.samples) == 2
        assert h.count == 3

    def test_record_serializes_inf_bound(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        record = h.record()
        assert record["bounds"] == [1.0, "+Inf"]
        assert record["cumulative_counts"] == [1, 1]

    def test_default_buckets_end_at_inf(self):
        assert DEFAULT_LATENCY_BUCKETS[-1] == math.inf
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestMetricsHub:
    def test_get_or_create_returns_same_instance(self):
        hub = MetricsHub()
        assert hub.counter("a") is hub.counter("a")
        assert hub.histogram("h") is hub.histogram("h")

    def test_type_conflict_raises(self):
        hub = MetricsHub()
        hub.counter("a")
        with pytest.raises(ObservabilityError, match="already registered"):
            hub.gauge("a")

    def test_histogram_bounds_conflict_raises(self):
        hub = MetricsHub()
        hub.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError, match="bucket bounds"):
            hub.histogram("h", buckets=(1.0, 4.0))

    def test_labels_distinguish_series(self):
        hub = MetricsHub()
        a = hub.counter("n", labels={"site": "a"})
        b = hub.counter("n", labels={"site": "b"})
        assert a is not b
        assert len(hub) == 2

    def test_register_adopts_external_metric(self):
        hub = MetricsHub()
        h = Histogram("serving_latency_seconds")
        assert hub.register(h) is h
        assert hub.register(h) is h  # idempotent for the same object
        with pytest.raises(ObservabilityError):
            hub.register(Histogram("serving_latency_seconds"))

    def test_records_cover_all_metrics(self):
        hub = MetricsHub()
        hub.counter("a").inc()
        hub.gauge("b").set(2)
        names = {r["name"] for r in hub.records()}
        assert names == {"a", "b"}

    def test_module_hub_reset(self):
        hub = obs_metrics.get_hub()
        hub.counter("x").inc()
        fresh = obs_metrics.set_hub(None)
        assert fresh is obs_metrics.get_hub()
        assert fresh.get("x") is None
