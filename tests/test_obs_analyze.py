"""Trace analytics: forests, critical paths, wave attribution.

The acceptance bar from the issue, pinned as tests:

* ``render_trace_report`` is byte-identical across two fresh serve
  runs under a deterministic tracer clock;
* every wave's additive components sum to within 1% of the wave
  duration on all four substrates (serial, executor, partitioned,
  stream);
* critical-path step seconds telescope to exactly the root duration.
"""

import pytest

from repro import IBFSConfig
from repro.errors import ObservabilityError
from repro.exec import ExecConfig, GroupExecutor
from repro.obs import profile as obs_profile
from repro.obs import tracing
from repro.obs.analyze import (
    SpanNode,
    aggregate_spans,
    analyze_waves,
    build_forest,
    categorize,
    compare_substrates,
    critical_path,
    detect_substrate,
    level_waterfall,
    render_trace_report,
    wave_attribution,
)
from repro.obs.tracing import Tracer
from repro.runtime import SubstrateSpec
from repro.service import (
    BFSServer,
    ChurnConfig,
    ServingConfig,
    WorkloadConfig,
    run_closed_loop,
)
from repro.stream import DynamicBFSServer


class FakeClock:
    def __init__(self, start=100.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        current = self.now
        self.now += self.step
        return current


@pytest.fixture(autouse=True)
def _isolate_obs():
    yield
    tracing.set_tracer(None)
    obs_profile.disable()


def span(name, sid, parent=None, start=0.0, end=1.0, process="serve",
         attrs=None, status="ok"):
    return {
        "kind": "span",
        "name": name,
        "trace_id": "trace-t",
        "span_id": sid,
        "parent_id": parent,
        "start": start,
        "end": end,
        "process": process,
        "attrs": attrs or {},
        "status": status,
    }


# ----------------------------------------------------------------------
# Synthetic forests
# ----------------------------------------------------------------------
class TestBuildForest:
    def test_links_children_and_sorts(self):
        records = [
            span("root", "s1", start=0.0, end=10.0),
            span("late", "s3", parent="s1", start=5.0, end=8.0),
            span("early", "s2", parent="s1", start=1.0, end=4.0),
        ]
        roots = build_forest(records)
        assert len(roots) == 1
        assert [c.name for c in roots[0].children] == ["early", "late"]

    def test_ignores_non_span_records(self):
        records = [
            {"kind": "metric", "name": "x", "value": 1},
            span("root", "s1"),
        ]
        assert len(build_forest(records)) == 1

    def test_orphan_roots_its_own_tree(self):
        records = [span("orphan", "s9", parent="missing")]
        roots = build_forest(records)
        assert len(roots) == 1 and roots[0].name == "orphan"

    def test_duplicate_span_id_rejected(self):
        records = [span("a", "s1"), span("b", "s1")]
        with pytest.raises(ObservabilityError, match="duplicate span id"):
            build_forest(records)

    def test_self_seconds_excludes_overlapping_children(self):
        records = [
            span("exec.run", "s1", start=0.0, end=10.0),
            span("exec.dispatch", "s2", parent="s1", start=0.0, end=9.0),
            span("exec.collect", "s3", parent="s1", start=9.0, end=10.0),
        ]
        (root,) = build_forest(records)
        # Only the non-overlapping child is subtracted.
        assert root.self_seconds() == pytest.approx(9.0)

    def test_cross_process_child_absorbed(self):
        records = [
            span("serve.wave", "s1", start=0.0, end=4.0),
            span("worker.task", "s2", parent="s1", start=0.0, end=3.0,
                 process="worker-0"),
        ]
        (root,) = build_forest(records)
        assert root.self_seconds() == pytest.approx(4.0)


class TestCategorize:
    @pytest.mark.parametrize("name,expected", [
        ("serve.batch", "other"),
        ("serve.wave", "batching"),
        ("exec.dispatch", "dispatch"),
        ("exchange.level", "exchange"),
        ("dist.run_group", "exchange"),
        ("profile.kernels.expand", "kernel"),
        ("profile.level", "level"),
        ("profile.engine.bitwise", "engine"),
        ("stream.mutate", "stream"),
        ("sim.kernel", "sim"),
        ("run", "run"),
        ("mystery.span", "other"),
    ])
    def test_rules(self, name, expected):
        assert categorize(name) == expected


class TestCriticalPath:
    def _tree(self):
        records = [
            span("root", "s1", start=0.0, end=10.0),
            span("fast", "s2", parent="s1", start=0.0, end=3.0),
            span("slow", "s3", parent="s1", start=3.0, end=9.0),
            span("leaf", "s4", parent="s3", start=3.0, end=7.0),
        ]
        (root,) = build_forest(records)
        return root

    def test_follows_longest_child(self):
        steps = critical_path(self._tree())
        assert [s.name for s in steps] == ["root", "slow", "leaf"]

    def test_steps_telescope_to_root_duration(self):
        root = self._tree()
        steps = critical_path(root)
        assert sum(s.step_seconds for s in steps) == pytest.approx(
            root.duration
        )

    def test_deterministic_tie_break_by_start(self):
        records = [
            span("root", "s1", start=0.0, end=10.0),
            span("b", "s3", parent="s1", start=5.0, end=8.0),
            span("a", "s2", parent="s1", start=1.0, end=4.0),
        ]
        (root,) = build_forest(records)
        steps = critical_path(root)
        # Equal durations: the earlier-starting child wins.
        assert [s.name for s in steps] == ["root", "a"]

    def test_skew_clamps_to_zero(self):
        records = [
            span("root", "s1", start=0.0, end=2.0),
            span("child", "s2", parent="s1", start=0.0, end=5.0),
        ]
        (root,) = build_forest(records)
        steps = critical_path(root)
        assert steps[0].step_seconds == 0.0


class TestWaveAttributionSynthetic:
    def test_components_sum_to_wave_duration(self):
        records = [
            span("serve.wave", "w1", start=0.0, end=10.0),
            span("profile.engine.bitwise", "e1", parent="w1",
                 start=1.0, end=9.0),
            span("profile.level", "l1", parent="e1", start=1.0, end=5.0,
                 attrs={"depth": 0}),
            span("profile.level", "l2", parent="e1", start=5.0, end=9.0,
                 attrs={"depth": 1}),
        ]
        (root,) = build_forest(records)
        wave = wave_attribution(root)
        assert wave.component_total == pytest.approx(wave.seconds)
        assert wave.components == {
            "batching": 2.0, "engine": 0.0, "level": 8.0,
        } or wave.components.get("level") == pytest.approx(8.0)

    def test_substrate_detection(self):
        # Every placement's waves are serve.wave spans, so only the
        # stamped substrate attribute names the placement; structure
        # (dist/exchange children, stream spans) is never guessed from.
        for kind in ("serial", "executor", "partitioned", "stream"):
            wave = build_forest([
                span("serve.wave", "w1", attrs={"substrate": kind})
            ])[0]
            assert detect_substrate(wave) == kind
        unstamped = build_forest([
            span("serve.wave", "w2", start=0.0, end=4.0),
            span("dist.run_group", "d1", parent="w2", start=0.0, end=3.0),
        ])[0]
        assert detect_substrate(unstamped) == "unknown"

    def test_level_waterfall_orders_by_depth(self):
        records = [
            span("serve.wave", "w1", start=0.0, end=10.0),
            span("profile.level", "l2", parent="w1", start=5.0, end=9.0,
                 attrs={"depth": 1}),
            span("profile.level", "l1", parent="w1", start=1.0, end=5.0,
                 attrs={"depth": 0}),
            span("profile.kernels.expand", "k1", parent="l1",
                 start=1.0, end=3.0),
        ]
        (root,) = build_forest(records)
        rows = level_waterfall(root)
        assert [r.depth for r in rows] == [0, 1]
        assert rows[0].kernel_seconds == pytest.approx(2.0)

    def test_compare_substrates_rolls_up(self):
        serial = {"substrate": "serial"}
        records = [
            span("serve.wave", "w1", start=0.0, end=4.0, attrs=serial),
            span("serve.wave", "w2", start=4.0, end=10.0, attrs=serial),
        ]
        waves = analyze_waves(records)
        (summary,) = compare_substrates(waves)
        assert summary.substrate == "serial"
        assert summary.waves == 2
        assert summary.total_seconds == pytest.approx(10.0)
        assert summary.mean_seconds == pytest.approx(5.0)


class TestAggregateSpans:
    def test_rollup_and_order(self):
        records = [
            span("root", "s1", start=0.0, end=10.0),
            span("work", "s2", parent="s1", start=0.0, end=6.0),
            span("work", "s3", parent="s1", start=6.0, end=9.0),
        ]
        aggs = aggregate_spans(records)
        assert [a.name for a in aggs] == ["work", "root"]
        work = aggs[0]
        assert work.count == 2
        assert work.total_seconds == pytest.approx(9.0)
        assert work.self_seconds == pytest.approx(9.0)
        assert work.max_seconds == pytest.approx(6.0)
        assert work.mean_seconds == pytest.approx(4.5)
        root = aggs[1]
        assert root.self_seconds == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Real traces, all four substrates
# ----------------------------------------------------------------------
def _install_tracer():
    tracer = Tracer(process="serve", clock=FakeClock(), enabled=True)
    tracing.set_tracer(tracer)
    obs_profile.configure(enabled=True, sample_every=1)
    return tracer


def _trace_serial(graph):
    _install_tracer()
    server = BFSServer(graph, ServingConfig(batch_size=8))
    try:
        run_closed_loop(server, WorkloadConfig(
            num_requests=24, num_clients=4, seed=3,
        ))
    finally:
        server.close()
    return tracing.get_tracer().export_dicts()


def _trace_executor(graph):
    _install_tracer()
    serving = ServingConfig(batch_size=8)
    executor = GroupExecutor(
        graph,
        IBFSConfig(group_size=serving.batch_size),
        exec_config=ExecConfig(num_workers=0),
    )
    server = BFSServer(
        graph, serving, executor=executor,
        substrate=SubstrateSpec(kind="executor"),
    )
    try:
        run_closed_loop(server, WorkloadConfig(
            num_requests=24, num_clients=4, seed=3,
        ))
    finally:
        server.close()
        executor.close()
    return tracing.get_tracer().export_dicts()


def _trace_partitioned(graph):
    _install_tracer()
    server = BFSServer(
        graph, ServingConfig(batch_size=8),
        substrate=SubstrateSpec(kind="partitioned", partitions=2),
    )
    try:
        run_closed_loop(server, WorkloadConfig(
            num_requests=24, num_clients=4, seed=3,
        ))
    finally:
        server.close()
    return tracing.get_tracer().export_dicts()


def _trace_stream(graph):
    _install_tracer()
    server = DynamicBFSServer(graph, ServingConfig(batch_size=8))
    try:
        run_closed_loop(
            server,
            WorkloadConfig(num_requests=24, num_clients=4, seed=3),
            ChurnConfig(mutate_every=8, inserts_per_batch=4, seed=7),
        )
    finally:
        server.close()
    return tracing.get_tracer().export_dicts()


SUBSTRATES = {
    "serial": _trace_serial,
    "executor": _trace_executor,
    "partitioned": _trace_partitioned,
    "stream": _trace_stream,
}


@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_wave_components_additive_on_substrate(kron_graph, substrate):
    """Per-wave component buckets sum to within 1% of the wave
    duration — the additivity bar from the issue, on every substrate."""
    records = SUBSTRATES[substrate](kron_graph)
    waves = analyze_waves(records)
    assert waves, f"no waves recorded on {substrate}"
    assert all(w.substrate == substrate for w in waves)
    for wave in waves:
        assert wave.seconds > 0.0
        assert wave.component_total == pytest.approx(
            wave.seconds, rel=0.01
        )


def test_wave_critical_path_telescopes_on_real_trace(kron_graph):
    records = _trace_serial(kron_graph)
    for wave in analyze_waves(records):
        assert sum(s.step_seconds for s in wave.path) == pytest.approx(
            wave.seconds
        )


def test_partitioned_waves_carry_exchange_levels(kron_graph):
    records = _trace_partitioned(kron_graph)
    forest = build_forest(records)
    wave_nodes = [
        n for root in forest for n in root.walk()
        if n.name == "serve.wave"
    ]
    rows = [r for w in wave_nodes for r in level_waterfall(w)]
    assert any(r.source == "exchange" for r in rows)


def test_render_trace_report_byte_identical_across_runs(kron_graph):
    """Two fresh runs under the deterministic clock render the exact
    same report — the reproducibility bar from the issue."""
    first = render_trace_report(_trace_serial(kron_graph))
    tracing.set_tracer(None)
    obs_profile.disable()
    second = render_trace_report(_trace_serial(kron_graph))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")


def test_render_trace_report_sections(kron_graph):
    report = render_trace_report(_trace_serial(kron_graph))
    assert "trace report" in report
    assert "top spans" in report
    assert "substrate comparison" in report
    assert "serial" in report


def test_walk_is_depth_first_deterministic():
    records = [
        span("root", "s1", start=0.0, end=10.0),
        span("a", "s2", parent="s1", start=1.0, end=4.0),
        span("a.child", "s3", parent="s2", start=2.0, end=3.0),
        span("b", "s4", parent="s1", start=5.0, end=6.0),
    ]
    (root,) = build_forest(records)
    assert [n.name for n in root.walk()] == ["root", "a", "a.child", "b"]


def test_open_span_duration_falls_back_to_zero():
    node = SpanNode({
        "kind": "span", "name": "open", "span_id": "s1",
        "parent_id": None, "start": 5.0, "end": None,
    })
    assert node.duration == 0.0
