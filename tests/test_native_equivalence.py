"""Engine-matrix bit-identity of the native backend.

The acceptance bar for :mod:`repro.native`: simulated counters, depth
matrices and recorded plans identical between the numpy kernels and
the compiled library across engines (bitwise/joint/single), vector
widths, and fresh or reused level workspaces — plus plans recorded on
the compiled library replaying bit-identically without it, through the
exec task protocol and the service-layer
:class:`~repro.service.cache.PlanCache`.  Every case skips when the
library does not load.
"""

import dataclasses

import numpy as np
import pytest

import repro.native as native
from repro.bfs.single import SingleBFS
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.errors import SimulationError
from repro.gpusim.config import KEPLER_K40
from repro.gpusim.device import Device
from repro.graph.generators import rmat, uniform_random
from repro.plan import HeuristicPolicy, make_policy
from repro.service.cache import PlanCache, graph_cache_id

RNG = np.random.default_rng(23)


#: The compiled provider, run under default resolution.
PROVIDERS = ["cext"]


@pytest.fixture(scope="module")
def graphs():
    return {
        "rmat9": rmat(9, edge_factor=8, seed=1),
        "uni350": uniform_random(350, 4, seed=4),
    }


def _run(graph, mode, group_size, vector_width, sources, workspace="full"):
    planner = HeuristicPolicy(vector_width=vector_width)
    engine = IBFS(
        graph,
        IBFSConfig(group_size=group_size, mode=mode, groupby=False),
        planner=planner,
    )
    if workspace == "dirty":
        # Another group of the same shape first: the engine's reused
        # buffers start the measured group holding that group's arrays.
        other = np.random.default_rng(group_size).choice(
            graph.num_vertices, size=group_size, replace=False
        )
        engine.run(other.tolist())
    return engine.run(sources)


def _assert_identical(a, b, label):
    assert np.array_equal(a.depths, b.depths), f"{label}: depths"
    assert a.counters.__dict__ == b.counters.__dict__, (
        f"{label}: counters\n{a.counters.__dict__}\n{b.counters.__dict__}"
    )
    # The host's kernels never enter a plan.
    assert a.plans == b.plans, f"{label}: plans"
    assert [p.to_json() for p in a.plans] == [
        p.to_json() for p in b.plans
    ], f"{label}: plan JSON"


# ----------------------------------------------------------------------
# Engines x vector widths x workspaces x providers
# ----------------------------------------------------------------------
class TestEngineMatrix:
    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("mode", ["bitwise", "joint"])
    @pytest.mark.parametrize(
        "group_size,vector_width", [(32, 1), (70, 2), (130, 4)]
    )
    @pytest.mark.parametrize("workspace", ["dirty", "full"])
    def test_group_engines(
        self, compiled, graphs, provider, mode, group_size, vector_width,
        workspace,
    ):
        # "full": a fresh engine, whose first level snapshot fills a newly
        # allocated LevelWorkspace.  "dirty": the engine already ran
        # another group, so the reused workspace starts out holding that
        # group's last BSA_k (joint groups keep no workspace; there the
        # case checks the reused engine carries nothing over).  Either is
        # compared with a fresh engine on the numpy kernels.
        graph = graphs["rmat9"]
        sources = RNG.choice(
            graph.num_vertices, size=group_size, replace=False
        ).tolist()
        with native.force_backend("off"):
            baseline = _run(graph, mode, group_size, vector_width, sources)
        got = _run(graph, mode, group_size, vector_width, sources, workspace)
        _assert_identical(
            baseline, got,
            f"{mode}/gs{group_size}/vw{vector_width}/{workspace}/{provider}",
        )

    @pytest.mark.parametrize("provider", PROVIDERS)
    @pytest.mark.parametrize("name", ["rmat9", "uni350"])
    def test_single_source(self, compiled, graphs, provider, name):
        graph = graphs[name]
        source = int(RNG.integers(0, graph.num_vertices))
        with native.force_backend("off"):
            baseline = SingleBFS(graph).run(source)
        got = SingleBFS(graph).run(source)
        assert np.array_equal(baseline.depths, got.depths)
        assert (
            baseline.record.counters.__dict__
            == got.record.counters.__dict__
        )
        assert baseline.plan.to_json() == got.plan.to_json()

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_msbfs_configuration(self, compiled, graphs, provider):
        # No early termination + per-level reset rides the same engine;
        # the native scan must honor early_termination=False exactly.
        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=64, replace=False).tolist()
        planner = HeuristicPolicy(early_termination=False)
        config = IBFSConfig(group_size=64, mode="bitwise", groupby=False)
        with native.force_backend("off"):
            baseline = IBFS(graph, config, planner=planner).run(sources)
        got = IBFS(graph, config, planner=planner).run(sources)
        _assert_identical(baseline, got, f"msbfs/{provider}")


# ----------------------------------------------------------------------
# Plans recorded on the compiled library: replay, exec protocol, PlanCache
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("compiled")
class TestNativePlanReplay:
    def _native_plan(self, graph, sources, group_size):
        # Recorded on the compiled library; the in-process replays below
        # run on the numpy kernels.
        engine = IBFS(
            graph,
            IBFSConfig(group_size=group_size, mode="bitwise", groupby=False),
        )
        result = engine.run_group(sources)
        return result, result.groups[0].plan

    def test_replay_identical_with_and_without_backend(self, graphs):
        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=48, replace=False).tolist()
        recorded, plan = self._native_plan(graph, sources, 48)
        config = IBFSConfig(group_size=48, mode="bitwise", groupby=False)
        with native.force_backend("off"):
            fresh = IBFS(graph, config).run_group(sources)
            replayed = IBFS(graph, config).run_group(sources, plan=plan)
        assert fresh.groups[0].plan == plan
        for run in (fresh, replayed):
            assert np.array_equal(recorded.depths, run.depths)
            assert recorded.counters.__dict__ == run.counters.__dict__

    def test_plan_survives_plan_cache(self, graphs):
        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=32, replace=False).tolist()
        recorded, plan = self._native_plan(graph, sources, 32)
        cache = PlanCache(capacity=4)
        key = PlanCache.key(
            graph_cache_id(graph), sources, "bitwise/gs32", None
        )
        cache.put(key, plan)
        cached = cache.get(key)
        assert cached == plan
        config = IBFSConfig(group_size=32, mode="bitwise", groupby=False)
        with native.force_backend("off"):
            replayed = IBFS(graph, config).run_group(sources, plan=cached)
        assert np.array_equal(recorded.depths, replayed.depths)
        assert recorded.counters.__dict__ == replayed.counters.__dict__

    def test_exec_protocol_replays_native_plan(self, graphs):
        # The full worker path: plan pickles over the task queue, the
        # worker warms the backend on spawn and replays bit-identically.
        from repro.exec import ExecConfig, GroupExecutor

        graph = graphs["rmat9"]
        sources = RNG.choice(graph.num_vertices, size=32, replace=False).tolist()
        recorded, plan = self._native_plan(graph, sources, 32)
        config = IBFSConfig(group_size=32, mode="bitwise", groupby=False)
        with GroupExecutor(
            graph, config, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            via_exec = executor.run_group(sources, plan=plan)
        assert np.array_equal(recorded.depths, via_exec.depths)
        assert recorded.counters.__dict__ == via_exec.counters.__dict__


# ----------------------------------------------------------------------
# Adaptive policy through a full run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("provider", PROVIDERS)
def test_adaptive_policy_identical_across_backends(compiled, graphs, provider):
    graph = graphs["rmat9"]
    sources = RNG.choice(graph.num_vertices, size=64, replace=False).tolist()
    config = IBFSConfig(group_size=64, mode="bitwise", groupby=False)
    with native.force_backend("off"):
        baseline = IBFS(
            graph, config, planner=make_policy("adaptive")
        ).run(sources)
    got = IBFS(graph, config, planner=make_policy("adaptive")).run(sources)
    _assert_identical(baseline, got, f"adaptive/{provider}")


# ----------------------------------------------------------------------
# Device shapes the compiled level prices like numpy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transaction_bytes", [4, 64])
def test_bitwise_level_on_narrow_transactions(compiled, graphs, transaction_bytes):
    # A transaction narrower than one 8-byte entry is no device: the
    # config refuses it, so no level prices a zero-entry line.
    if transaction_bytes < 8:
        with pytest.raises(SimulationError, match="8-byte entry"):
            dataclasses.replace(KEPLER_K40, transaction_bytes=transaction_bytes)
        return
    graph = graphs["rmat9"]
    device_config = dataclasses.replace(
        KEPLER_K40, transaction_bytes=transaction_bytes
    )
    planner = HeuristicPolicy(alpha=1e-9, beta=1e9)  # every level bottom-up
    sources = list(range(0, 150, 3))
    with native.force_backend("off"):
        expected = BitwiseTraversal(
            graph, device=Device(device_config), planner=planner
        ).run_group(sources)
    got = BitwiseTraversal(
        graph, device=Device(device_config), planner=planner
    ).run_group(sources)
    assert np.array_equal(got[0], expected[0])
    assert got[1].counters == expected[1].counters
    assert got[1].levels == expected[1].levels
