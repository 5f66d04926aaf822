"""SLO engine: specs, rolling windows, burn rates, alert edges.

The precision bar from the issue: a seeded breach produces *exactly*
the expected alert events — breaches alert once on the rising edge,
resolves once on the falling edge, steady states stay silent — and
the server wiring surfaces them in ``metrics_snapshot()["slo"]``.
"""

import pytest

from repro.errors import ObservabilityError, TraversalError
from repro.obs import tracing
from repro.obs import profile as obs_profile
from repro.obs.metrics import MetricsHub
from repro.obs.slo import (
    SIGNAL_CACHE_STALENESS,
    SIGNAL_ERROR_RATE,
    SIGNAL_QUEUE_DEPTH,
    SIGNAL_WAVE_LATENCY,
    RollingWindow,
    SLOEngine,
    SLOSpec,
    default_slos,
    load_slo_specs,
    reduce_samples,
    render_slo_report,
    replay_trace,
)
from repro.service import (
    BFSServer,
    ChurnConfig,
    ServingConfig,
    WorkloadConfig,
    run_closed_loop,
)
from repro.stream import DynamicBFSServer


@pytest.fixture(autouse=True)
def _isolate_obs():
    yield
    tracing.set_tracer(None)
    obs_profile.disable()


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestSLOSpec:
    def test_valid_spec_round_trips(self):
        spec = SLOSpec(
            name="lat", signal=SIGNAL_WAVE_LATENCY, objective=1e-3,
            reduce="p95", window_seconds=10.0, min_samples=3,
        )
        assert SLOSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kwargs,match", [
        (dict(name=""), "needs a name"),
        (dict(objective=0.0), "objective"),
        (dict(reduce="median"), "reducer"),
        (dict(window_seconds=0.0), "window_seconds"),
        (dict(burn_threshold=0.0), "burn_threshold"),
        (dict(min_samples=0), "min_samples"),
    ])
    def test_validation(self, kwargs, match):
        base = dict(name="x", signal="s", objective=1.0)
        base.update(kwargs)
        with pytest.raises(ObservabilityError, match=match):
            SLOSpec(**base)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ObservabilityError, match="unknown SLO spec"):
            SLOSpec.from_dict(
                {"name": "x", "signal": "s", "objective": 1.0,
                 "threshold": 2.0}
            )

    def test_default_slos_cover_all_signals(self):
        signals = {s.signal for s in default_slos()}
        assert signals == {
            SIGNAL_WAVE_LATENCY, SIGNAL_ERROR_RATE,
            SIGNAL_QUEUE_DEPTH, SIGNAL_CACHE_STALENESS,
        }

    def test_load_slo_specs_list_and_wrapped(self, tmp_path):
        import json

        payload = [
            {"name": "a", "signal": "s", "objective": 1.0},
            {"name": "b", "signal": "t", "objective": 2.0, "reduce": "max"},
        ]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(payload))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"slos": payload}))
        assert load_slo_specs(str(flat)) == load_slo_specs(str(wrapped))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps("nope"))
        with pytest.raises(ObservabilityError, match="list of specs"):
            load_slo_specs(str(bad))


class TestReduceSamples:
    def test_reducers(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert reduce_samples(values, "mean") == pytest.approx(2.5)
        assert reduce_samples(values, "rate") == pytest.approx(2.5)
        assert reduce_samples(values, "max") == pytest.approx(4.0)
        assert reduce_samples(values, "p50") == pytest.approx(2.5)
        assert reduce_samples([], "p99") == 0.0

    def test_unknown_reducer(self):
        with pytest.raises(ObservabilityError, match="unknown SLO reducer"):
            reduce_samples([1.0], "median")


class TestRollingWindow:
    def test_evicts_expired_prefix(self):
        window = RollingWindow(10.0)
        for ts in (0.0, 5.0, 12.0):
            window.observe(ts, ts)
        assert window.values(now=14.0) == [5.0, 12.0]
        # Eviction is in place: the expired sample is gone for good.
        assert len(window) == 2

    def test_boundary_sample_exactly_at_cutoff_drops(self):
        window = RollingWindow(10.0)
        window.observe(0.0, 1.0)
        assert window.values(now=10.0) == []

    def test_out_of_order_rejected(self):
        window = RollingWindow(10.0)
        window.observe(5.0, 1.0)
        with pytest.raises(ObservabilityError, match="time order"):
            window.observe(4.0, 1.0)


# ----------------------------------------------------------------------
# Engine: burn rates and alert edges
# ----------------------------------------------------------------------
def _latency_spec(**kwargs):
    base = dict(
        name="lat", signal=SIGNAL_WAVE_LATENCY, objective=1.0,
        reduce="max", window_seconds=10.0,
    )
    base.update(kwargs)
    return SLOSpec(**base)


class TestSLOEngine:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ObservabilityError, match="duplicate"):
            SLOEngine(specs=[_latency_spec(), _latency_spec()])

    def test_unwatched_signal_dropped(self):
        engine = SLOEngine(specs=[_latency_spec()])
        engine.observe("unwatched", 99.0, timestamp=0.0)
        (status,) = engine.evaluate(0.0)
        assert status.samples == 0 and not status.breached

    def test_breach_and_resolve_alert_exactly_once(self):
        engine = SLOEngine(specs=[_latency_spec()])
        engine.observe(SIGNAL_WAVE_LATENCY, 2.0, timestamp=0.0)
        (status,) = engine.evaluate(0.0)
        assert status.breached and status.burn == pytest.approx(2.0)
        # Steady-state breach: further evaluations add no alerts.
        engine.evaluate(1.0)
        engine.evaluate(2.0)
        assert [a.kind for a in engine.alerts] == ["breach"]
        # Window slides past the bad sample -> resolve edge, once.
        engine.evaluate(11.0)
        engine.evaluate(12.0)
        assert [a.kind for a in engine.alerts] == ["breach", "resolve"]
        breach, resolve = engine.alerts
        assert breach.slo == "lat" and breach.time == 0.0
        assert resolve.time == 11.0 and resolve.value == 0.0

    def test_min_samples_guards_cold_start(self):
        engine = SLOEngine(specs=[_latency_spec(min_samples=3)])
        engine.observe(SIGNAL_WAVE_LATENCY, 5.0, timestamp=0.0)
        engine.observe(SIGNAL_WAVE_LATENCY, 5.0, timestamp=1.0)
        (status,) = engine.evaluate(1.0)
        assert not status.breached and status.burn > 1.0
        engine.observe(SIGNAL_WAVE_LATENCY, 5.0, timestamp=2.0)
        (status,) = engine.evaluate(2.0)
        assert status.breached

    def test_shared_signal_specs_refilter_to_own_window(self):
        short = _latency_spec(name="short", window_seconds=5.0)
        long = _latency_spec(name="long", window_seconds=100.0)
        engine = SLOEngine(specs=[short, long])
        engine.observe(SIGNAL_WAVE_LATENCY, 9.0, timestamp=0.0)
        engine.observe(SIGNAL_WAVE_LATENCY, 0.5, timestamp=8.0)
        by_name = {s.spec.name: s for s in engine.evaluate(10.0)}
        # The old bad sample is outside short's window but inside long's.
        assert by_name["short"].value == pytest.approx(0.5)
        assert not by_name["short"].breached
        assert by_name["long"].value == pytest.approx(9.0)
        assert by_name["long"].breached

    def test_hub_mirrors_alerts_and_burn(self):
        hub = MetricsHub()
        engine = SLOEngine(specs=[_latency_spec()], hub=hub)
        engine.observe(SIGNAL_WAVE_LATENCY, 2.0, timestamp=0.0)
        engine.evaluate(0.0)
        engine.evaluate(11.0)
        counter_breach = hub.counter(
            "slo_alerts_total", labels={"slo": "lat", "kind": "breach"}
        )
        counter_resolve = hub.counter(
            "slo_alerts_total", labels={"slo": "lat", "kind": "resolve"}
        )
        assert counter_breach.value == 1.0
        assert counter_resolve.value == 1.0
        burn = hub.gauge("slo_burn_rate", labels={"slo": "lat"})
        assert burn.value == pytest.approx(0.0)  # last evaluation

    def test_snapshot_shape(self):
        engine = SLOEngine(specs=[_latency_spec()])
        engine.observe(SIGNAL_WAVE_LATENCY, 2.0, timestamp=0.0)
        engine.evaluate(0.0)
        snap = engine.snapshot()
        assert [s["name"] for s in snap["specs"]] == ["lat"]
        assert snap["status"][0]["breached"] is True
        assert [a["kind"] for a in snap["alerts"]] == ["breach"]

    def test_render_report_lists_state_and_alerts(self):
        engine = SLOEngine(specs=[_latency_spec()])
        engine.observe(SIGNAL_WAVE_LATENCY, 2.0, timestamp=0.0)
        engine.evaluate(0.0)
        report = render_slo_report(engine)
        assert "BREACHED" in report
        assert "alerts (1)" in report


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def _wave_record(sid, start, end, status="ok", queue_depth=None):
    attrs = {}
    if queue_depth is not None:
        attrs["queue_depth"] = queue_depth
    return {
        "kind": "span", "name": "serve.wave", "span_id": sid,
        "parent_id": None, "start": start, "end": end,
        "process": "serve", "attrs": attrs, "status": status,
    }


class TestReplayTrace:
    def test_replays_latency_errors_and_depth(self):
        spec_lat = SLOSpec(
            name="lat", signal=SIGNAL_WAVE_LATENCY, objective=1.0,
            reduce="max", window_seconds=100.0,
        )
        spec_err = SLOSpec(
            name="err", signal=SIGNAL_ERROR_RATE, objective=0.5,
            reduce="rate", window_seconds=100.0,
        )
        spec_depth = SLOSpec(
            name="depth", signal=SIGNAL_QUEUE_DEPTH, objective=10.0,
            reduce="max", window_seconds=100.0,
        )
        engine = SLOEngine(specs=[spec_lat, spec_err, spec_depth])
        records = [
            _wave_record("s1", 0.0, 0.5, queue_depth=2),
            _wave_record("s2", 1.0, 3.0, status="error", queue_depth=20),
        ]
        statuses = {
            s.spec.name: s for s in replay_trace(records, engine)
        }
        assert statuses["lat"].value == pytest.approx(2.0)
        assert statuses["lat"].breached
        assert statuses["err"].value == pytest.approx(0.5)
        assert statuses["depth"].value == pytest.approx(20.0)
        kinds = [(a.slo, a.kind) for a in engine.alerts]
        assert ("lat", "breach") in kinds and ("depth", "breach") in kinds

    def test_replays_cache_staleness_from_mutate_spans(self):
        spec = SLOSpec(
            name="stale", signal=SIGNAL_CACHE_STALENESS, objective=0.5,
            reduce="mean", window_seconds=100.0,
        )
        engine = SLOEngine(specs=[spec])
        records = [{
            "kind": "span", "name": "stream.mutate", "span_id": "m1",
            "parent_id": None, "start": 0.0, "end": 1.0,
            "process": "serve", "attrs": {"cache_staleness": 0.9},
            "status": "ok",
        }]
        (status,) = replay_trace(records, engine)
        assert status.value == pytest.approx(0.9)
        assert status.breached

    def test_sim_seconds_attr_preferred_over_wall_duration(self):
        """Serve spans carry their simulated cost; wall-clock span
        bounds must not leak into the latency signal when present."""
        engine = SLOEngine(specs=[_latency_spec()])
        record = _wave_record("s1", 0.0, 50.0)  # huge wall duration
        record["attrs"]["sim_seconds"] = 0.25
        (status,) = replay_trace([record], engine)
        assert status.value == pytest.approx(0.25)
        assert not status.breached

    def test_open_spans_skipped(self):
        engine = SLOEngine(specs=[_latency_spec()])
        record = _wave_record("s1", 0.0, 0.5)
        record["end"] = None
        assert replay_trace([record], engine) == []

    @pytest.mark.parametrize("where", ["injector", "substrate"])
    def test_failed_batches_replay_as_error_samples(self, kron_graph, where):
        # A batch failed by the chaos hook (during wave formation) or by
        # the substrate (inside map_groups) traces as a serve.wave in
        # error status, and replay counts each as an error sample.
        calls = {"n": 0}

        def fail_second(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise TraversalError("injected")

        tracer = tracing.configure(process="serve")
        server = BFSServer(
            kron_graph, ServingConfig(batch_size=8),
            fault_injector=fail_second if where == "injector" else None,
        )
        if where == "substrate":
            run_group = server.substrate.run_group

            def flaky_run_group(*args, **kwargs):
                fail_second()
                return run_group(*args, **kwargs)

            server.substrate.run_group = flaky_run_group
        try:
            result = run_closed_loop(server, WorkloadConfig(
                num_requests=24, num_clients=4, seed=3,
            ))
        finally:
            server.close()
        assert result.metrics["requests"]["retries"] > 0
        records = tracer.export_dicts()
        waves = [r for r in records if r["name"] == "serve.wave"]
        failed = [w for w in waves if w["status"] == "error"]
        assert len(failed) == 1
        assert failed[0]["attrs"]["failed"] == 1
        assert failed[0]["attrs"]["substrate"] == "serial"
        engine = SLOEngine(specs=[SLOSpec(
            name="err", signal=SIGNAL_ERROR_RATE, objective=1.0,
            reduce="rate", window_seconds=1e9,
        )])
        (status,) = replay_trace(records, engine)
        assert status.value == pytest.approx(1 / len(waves))


# ----------------------------------------------------------------------
# Server wiring
# ----------------------------------------------------------------------
def test_bfs_server_feeds_engine_and_snapshots(kron_graph):
    hub = MetricsHub()
    engine = SLOEngine(hub=hub)
    server = BFSServer(kron_graph, ServingConfig(batch_size=8), slo=engine)
    try:
        run_closed_loop(server, WorkloadConfig(
            num_requests=24, num_clients=4, seed=3,
        ))
        snap = server.metrics_snapshot()
    finally:
        server.close()
    slo = snap["slo"]
    by_name = {s["name"]: s for s in slo["status"]}
    # The healthy defaults never breach on a healthy run...
    assert not any(s["breached"] for s in slo["status"])
    assert slo["alerts"] == []
    # ...but the signals did flow.
    assert by_name["wave-p99-latency"]["samples"] > 0
    assert by_name["queue-depth"]["samples"] > 0
    assert by_name["error-rate"]["samples"] > 0


def test_seeded_breach_emits_exact_alerts(kron_graph):
    """A latency objective below any possible wave cost breaches on the
    first committed wave and never resolves: exactly one alert."""
    spec = SLOSpec(
        name="impossible-latency", signal=SIGNAL_WAVE_LATENCY,
        objective=1e-12, reduce="p99", window_seconds=1e9,
    )
    engine = SLOEngine(specs=[spec])
    server = BFSServer(kron_graph, ServingConfig(batch_size=8), slo=engine)
    try:
        run_closed_loop(server, WorkloadConfig(
            num_requests=24, num_clients=4, seed=3,
        ))
        snap = server.metrics_snapshot()
    finally:
        server.close()
    alerts = snap["slo"]["alerts"]
    assert len(alerts) == 1
    (alert,) = alerts
    assert alert["kind"] == "breach"
    assert alert["slo"] == "impossible-latency"
    assert alert["signal"] == SIGNAL_WAVE_LATENCY
    assert alert["burn"] > 1.0
    assert snap["slo"]["status"][0]["breached"] is True


def test_churn_staleness_breach_in_snapshot(kron_graph):
    """Delete churn forces full recompute (every cached row dropped,
    none repaired), so mean staleness pins at 1.0 and the staleness
    objective breaches exactly once."""
    spec = SLOSpec(
        name="staleness", signal=SIGNAL_CACHE_STALENESS, objective=0.5,
        reduce="mean", window_seconds=1e9,
    )
    engine = SLOEngine(specs=[spec])
    server = DynamicBFSServer(
        kron_graph, ServingConfig(batch_size=8), slo=engine
    )
    try:
        run_closed_loop(
            server,
            WorkloadConfig(num_requests=48, num_clients=4, seed=3),
            ChurnConfig(mutate_every=8, inserts_per_batch=0,
                        deletes_per_batch=2, seed=7),
        )
        snap = server.metrics_snapshot()
    finally:
        server.close()
    (status,) = snap["slo"]["status"]
    assert status["breached"] is True
    assert status["value"] == pytest.approx(1.0)
    alerts = snap["slo"]["alerts"]
    assert [a["kind"] for a in alerts] == ["breach"]
    assert alerts[0]["slo"] == "staleness"


def test_insert_only_churn_stays_healthy(kron_graph):
    """Insert churn repairs rows instead of dropping them: staleness
    stays at 0.0 and the default objective never breaches."""
    engine = SLOEngine()
    server = DynamicBFSServer(
        kron_graph, ServingConfig(batch_size=8), slo=engine
    )
    try:
        run_closed_loop(
            server,
            WorkloadConfig(num_requests=48, num_clients=4, seed=3),
            ChurnConfig(mutate_every=8, inserts_per_batch=4, seed=7),
        )
        snap = server.metrics_snapshot()
    finally:
        server.close()
    by_name = {s["name"]: s for s in snap["slo"]["status"]}
    stale = by_name["cache-staleness"]
    assert stale["samples"] > 0
    assert not stale["breached"]
