"""Profiling hooks: gating, sampling, and hot-path integration."""

import pytest

import repro.native as native
from repro.errors import ObservabilityError
from repro.core.engine import IBFS, IBFSConfig
from repro.obs import profile as obs_profile
from repro.obs import tracing
from repro.obs.profile import OVERHEAD_BUDGET, ProfileConfig


@pytest.fixture(autouse=True)
def _isolate():
    yield
    obs_profile.disable()
    tracing.set_tracer(None)


@pytest.fixture
def tracer():
    return tracing.configure(process="test")


class TestGating:
    def test_disabled_by_default_yields_null_context(self):
        with obs_profile.span("level", depth=0) as span:
            assert span is None
        assert not obs_profile.enabled()

    def test_disabled_tracer_also_gates(self):
        obs_profile.configure(enabled=True)
        with obs_profile.span("level") as span:
            assert span is None

    def test_enabled_records_prefixed_span(self, tracer):
        obs_profile.configure(enabled=True)
        with obs_profile.span("level", depth=2) as span:
            assert span is not None
        assert tracer.finished[0].name == "profile.level"
        assert tracer.finished[0].attrs == {"depth": 2}

    def test_sample_every_validation(self):
        with pytest.raises(ObservabilityError):
            ProfileConfig(sample_every=0)

    def test_budget_constant_documented(self):
        assert OVERHEAD_BUDGET == 0.05


class TestSampling:
    def test_sample_every_n_keeps_first_hit(self, tracer):
        obs_profile.configure(enabled=True, sample_every=3)
        for _ in range(7):
            with obs_profile.span("level"):
                pass
        # Hits 0, 3, 6 record: the first always does.
        assert len(tracer.finished) == 3

    def test_sites_sample_independently(self, tracer):
        obs_profile.configure(enabled=True, sample_every=2)
        with obs_profile.span("a"):
            pass
        with obs_profile.span("b"):
            pass
        names = {s.name for s in tracer.finished}
        assert names == {"profile.a", "profile.b"}

    def test_reconfigure_resets_site_counters(self, tracer):
        obs_profile.configure(enabled=True, sample_every=2)
        with obs_profile.span("a"):
            pass
        obs_profile.configure(enabled=True, sample_every=2)
        with obs_profile.span("a"):
            pass
        assert len(tracer.finished) == 2


class TestEngineIntegration:
    def test_run_emits_level_and_group_spans(self, tracer, kron_graph):
        obs_profile.configure(enabled=True)
        IBFS(kron_graph, IBFSConfig(group_size=8)).run(
            list(range(8)), store_depths=False
        )
        names = [s.name for s in tracer.finished]
        assert "profile.engine.run_group" in names
        levels = [s for s in tracer.finished if s.name == "profile.level"]
        assert levels
        depths = [s.attrs["depth"] for s in levels]
        assert depths == sorted(depths)
        assert all(s.duration > 0 for s in levels)

    def test_profiling_off_leaves_trace_empty(self, tracer, kron_graph):
        IBFS(kron_graph, IBFSConfig(group_size=8)).run(
            list(range(8)), store_depths=False
        )
        assert tracer.finished == []

    def test_results_identical_with_profiling(self, kron_graph):
        import numpy as np

        engine = IBFS(kron_graph, IBFSConfig(group_size=8))
        plain = engine.run(list(range(16)), store_depths=True)
        obs_profile.configure(enabled=True)
        tracing.configure(process="p")
        profiled = engine.run(list(range(16)), store_depths=True)
        assert np.array_equal(plain.depths, profiled.depths)
        assert plain.seconds == profiled.seconds
        assert plain.counters.__dict__ == profiled.counters.__dict__

    def test_bottomup_kernel_spans_tagged_with_positions(
        self, tracer, kron_graph
    ):
        obs_profile.configure(enabled=True)
        # The numpy level's bucketed scan emits the kernel span; the
        # compiled level is one library call inside its level span.
        with native.force_backend("off"):
            IBFS(kron_graph, IBFSConfig(group_size=8)).run(
                list(range(8)), store_depths=False
            )
        spans = [s for s in tracer.finished
                 if s.name == "profile.kernels.bottomup_or_scan"]
        assert spans  # the bitwise engine goes bottom-up on this graph
        assert all(s.attrs["positions"] > 0 for s in spans)
        levels = [s for s in tracer.finished if s.name == "profile.level"]
        bu = sum(s.attrs["bu_instances"] > 0 for s in levels)
        assert bu > 0
