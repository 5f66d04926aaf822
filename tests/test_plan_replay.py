"""Record/replay bit-identity of traversal plans, end to end.

The planner's core contract: every run emits a
:class:`~repro.plan.RunPlan`, and replaying a recorded plan — directly
on an engine, through the process executor, or via the service layer's
plan cache — produces the same depths, the same simulated counters, and
the same per-level records, while skipping the heuristic evaluation
entirely.
"""

import json

import numpy as np
import pytest

from repro.bfs import reference_bfs_multi
from repro.bfs.single import SingleBFS
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.core.joint import JointTraversal
from repro.exec import ExecConfig, GroupExecutor
from repro.exec.shm import shared_memory_available
from repro.graph.generators import rmat, star
from repro.plan import AdaptivePolicy, FixedPolicy, RunPlan
from repro.service import BFSServer, Request, ServingConfig
from repro.runtime.spec import engine_key

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)

RNG = np.random.default_rng(31)

#: An adaptive plan for sources [0, 5, 17, 99] of rmat(8, 8, seed=3),
#: exported by a build whose decisions still carried the host-only
#: ``kernel`` and ``snapshot`` fields, and the counters it recorded.
_LEGACY_EXPORT = """{"policy": "adaptive", "engine": "bitwise", "group_size": 4,
 "decisions": [
  {"directions": ["td", "td", "td", "td"], "kernel": "native", "vector_width": 1,
   "snapshot": "dirty", "early_termination": true, "exchange": "auto"},
  {"directions": ["td", "td", "td", "bu"], "kernel": "native", "vector_width": 1,
   "snapshot": "dirty", "early_termination": true, "exchange": "auto"},
  {"directions": ["bu", "bu", "bu", "bu"], "kernel": "native", "vector_width": 1,
   "snapshot": "full", "early_termination": true, "exchange": "auto"},
  {"directions": ["bu", "bu", "bu", "bu"], "kernel": "native", "vector_width": 1,
   "snapshot": "full", "early_termination": true, "exchange": "auto"},
  {"directions": ["bu", "bu", "bu", "bu"], "kernel": "native", "vector_width": 1,
   "snapshot": "dirty", "early_termination": true, "exchange": "auto"},
  {"directions": ["bu", "bu", "bu", "bu"], "kernel": "native", "vector_width": 1,
   "snapshot": "dirty", "early_termination": true, "exchange": "auto"}]}"""
_LEGACY_COUNTERS = {
    "global_load_transactions": 1716, "global_store_transactions": 134,
    "global_load_requests": 175, "global_store_requests": 45,
    "atomic_operations": 233, "shared_memory_accesses": 312,
    "warp_votes": 0, "kernel_launches": 1, "levels": 6,
    "inspections": 2869, "bottom_up_inspections": 2324,
    "edges_traversed": 3439, "frontier_enqueues": 516,
    "early_terminations": 400, "instructions": 27990,
}


@pytest.fixture(scope="module")
def graph():
    return rmat(9, edge_factor=8, seed=3)


def group_of(graph, size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(graph.num_vertices, size=size, replace=False).tolist()


def assert_group_runs_equal(run_a, run_b):
    depths_a, record_a, stats_a = run_a
    depths_b, record_b, stats_b = run_b
    assert np.array_equal(depths_a, depths_b)
    assert record_a.counters.__dict__ == record_b.counters.__dict__
    assert record_a.levels == record_b.levels
    assert stats_a == stats_b  # GroupStats.plan is excluded from eq


# ----------------------------------------------------------------------
# Engines: record once, replay bit-identically
# ----------------------------------------------------------------------
class TestEngineReplay:
    def test_bitwise_replay(self, graph):
        engine = BitwiseTraversal(graph)
        group = group_of(graph, 32, seed=1)
        recorded = engine.run_group(group)
        plan = recorded[2].plan
        assert isinstance(plan, RunPlan)
        assert len(plan) == len(recorded[1].levels)
        replayed = engine.run_group(group, plan=plan)
        assert_group_runs_equal(recorded, replayed)
        # A replayed run re-records the same plan.
        assert replayed[2].plan == plan

    def test_bitwise_replay_json_round_trip(self, graph):
        engine = BitwiseTraversal(graph)
        group = group_of(graph, 16, seed=2)
        recorded = engine.run_group(group)
        plan = RunPlan.from_json(recorded[2].plan.to_json())
        replayed = engine.run_group(group, plan=plan)
        assert_group_runs_equal(recorded, replayed)

    def test_bitwise_replay_on_fresh_engine(self, graph):
        """A plan replays on an engine that never ran the heuristics —
        including one built over a planner that never goes bottom-up
        (the reverse CSR is built lazily for the replay)."""
        group = group_of(graph, 32, seed=3)
        recorded = BitwiseTraversal(graph).run_group(group)
        fresh = BitwiseTraversal(graph, planner=FixedPolicy(direction="td"))
        replayed = fresh.run_group(group, plan=recorded[2].plan)
        assert_group_runs_equal(recorded, replayed)

    def test_joint_replay(self, graph):
        engine = JointTraversal(graph)
        group = group_of(graph, 16, seed=4)
        recorded = engine.run_group(group)
        replayed = engine.run_group(group, plan=recorded[2].plan)
        assert_group_runs_equal(recorded, replayed)

    def test_single_replay(self, graph):
        engine = SingleBFS(graph)
        source = int(group_of(graph, 1, seed=5)[0])
        recorded = engine.run(source)
        assert recorded.plan is not None and len(recorded.plan) > 0
        replayed = engine.run(source, plan=recorded.plan)
        assert np.array_equal(recorded.depths, replayed.depths)
        assert (
            recorded.record.counters.__dict__
            == replayed.record.counters.__dict__
        )
        assert recorded.seconds == replayed.seconds
        assert replayed.plan == recorded.plan

    def test_ibfs_plans_property(self, graph):
        engine = IBFS(graph, IBFSConfig(group_size=16))
        sources = group_of(graph, 40, seed=6)
        result = engine.run(sources)
        plans = result.plans
        assert len(plans) == len(result.groups)
        assert all(isinstance(p, RunPlan) for p in plans)

    def test_ibfs_run_group_replay(self, graph):
        engine = IBFS(graph, IBFSConfig(group_size=16))
        group = group_of(graph, 16, seed=7)
        recorded = engine.run_group(group)
        replayed = engine.run_group(
            group, plan=recorded.groups[0].plan
        )
        assert np.array_equal(recorded.depths, replayed.depths)
        assert recorded.counters.__dict__ == replayed.counters.__dict__
        assert recorded.seconds == replayed.seconds

    def test_legacy_export_replays(self):
        # The removed kernel/snapshot keys are ignored; the plan is the
        # one this build records and replays to the exported counters.
        g = rmat(8, edge_factor=8, seed=3)
        group = [0, 5, 17, 99]
        plan = RunPlan.from_json(_LEGACY_EXPORT)
        engine = IBFS(g, IBFSConfig(group_size=4), planner=AdaptivePolicy())
        recorded = engine.run_group(group)
        replayed = engine.run_group(group, plan=plan)
        assert recorded.groups[0].plan == plan
        assert np.array_equal(replayed.depths, reference_bfs_multi(g, group))
        assert np.array_equal(replayed.depths, recorded.depths)
        assert replayed.counters.__dict__ == _LEGACY_COUNTERS
        assert recorded.counters.__dict__ == _LEGACY_COUNTERS


# ----------------------------------------------------------------------
# Cost-only knobs: the former host keys in exported plans, and the
# adaptive policy
# ----------------------------------------------------------------------
def with_legacy_key(plan, key, value):
    """``plan`` re-loaded from JSON with ``key: value`` on every level."""
    payload = json.loads(plan.to_json())
    for decision in payload["decisions"]:
        decision[key] = value
    return RunPlan.from_json(json.dumps(payload))


class TestCostOnlyKnobs:
    @pytest.mark.parametrize("make_graph", [lambda: rmat(8, 8, seed=5),
                                            lambda: star(200)])
    def test_full_snapshot_bit_identical(self, make_graph):
        # A plan exported with ``"snapshot": "full"`` on every level
        # loads as the plan this build records and replays to it.
        g = make_graph()
        group = group_of(g, 32, seed=8)
        recorded = BitwiseTraversal(g).run_group(group)
        plan = with_legacy_key(recorded[2].plan, "snapshot", "full")
        assert plan == recorded[2].plan
        replayed = BitwiseTraversal(g).run_group(group, plan=plan)
        assert_group_runs_equal(recorded, replayed)

    def test_generic_kernel_bit_identical(self, graph):
        group = group_of(graph, 32, seed=9)
        recorded = BitwiseTraversal(graph).run_group(group)
        plan = with_legacy_key(recorded[2].plan, "kernel", "generic")
        assert plan == recorded[2].plan
        replayed = BitwiseTraversal(graph).run_group(group, plan=plan)
        assert_group_runs_equal(recorded, replayed)

    def test_adaptive_policy_depths_correct(self, graph):
        group = group_of(graph, 32, seed=10)
        depths, _, stats = BitwiseTraversal(
            graph, planner=AdaptivePolicy()
        ).run_group(group)
        assert np.array_equal(depths, reference_bfs_multi(graph, group))
        assert stats.plan.policy == "adaptive"


# ----------------------------------------------------------------------
# Through the process executor
# ----------------------------------------------------------------------
class TestExecutorReplay:
    def test_inprocess_replay(self, graph):
        group = group_of(graph, 16, seed=11)
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=16),
            exec_config=ExecConfig(num_workers=0),
        ) as executor:
            recorded = executor.run_group(group)
            plan = recorded.groups[0].plan
            assert isinstance(plan, RunPlan)
            replayed = executor.run_group(group, plan=plan)
        assert np.array_equal(recorded.depths, replayed.depths)
        assert recorded.counters.__dict__ == replayed.counters.__dict__
        assert replayed.groups[0].plan == plan

    @needs_shm
    def test_worker_replay(self, graph):
        group = group_of(graph, 16, seed=12)
        serial = IBFS(graph, IBFSConfig(group_size=16)).run_group(group)
        plan = serial.groups[0].plan
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=16),
            exec_config=ExecConfig(num_workers=2),
        ) as executor:
            results = executor.map_groups(
                [(group, None), (group, None, plan)]
            )
        for result in results:
            assert np.array_equal(result.depths, serial.depths)
            assert result.counters.__dict__ == serial.counters.__dict__
            # The plan ships back with the worker's GroupStats.
            assert result.groups[0].plan == plan


# ----------------------------------------------------------------------
# Through the service layer's plan cache
# ----------------------------------------------------------------------
class TestServicePlanCache:
    def make_server(self, graph, **serving_kwargs):
        serving = ServingConfig(
            batch_size=4,
            cache_capacity=0,  # force every request through traversal
            plan_cache_capacity=64,
            **serving_kwargs,
        )
        return BFSServer(
            graph, serving, engine_config=IBFSConfig(group_size=4)
        )

    def test_repeat_batches_hit_plan_cache(self, graph):
        server = self.make_server(graph)
        sources = group_of(graph, 4, seed=13)
        for _ in range(2):
            for source in sources:
                server.submit(Request(source=int(source)))
            server.drain()
        assert server.plan_cache.hits >= 1
        assert len(server.plan_cache) >= 1
        snapshot = server.metrics_snapshot()
        assert snapshot["plan_cache"]["hits"] == server.plan_cache.hits

    def test_replayed_batch_answers_identically(self, graph):
        server = self.make_server(graph)
        source = int(group_of(graph, 1, seed=14)[0])
        a = server.submit(Request(source=source, kind="closeness"))
        first = {r.request_id: r for r in server.drain()}
        b = server.submit(Request(source=source, kind="closeness"))
        second = {r.request_id: r for r in server.drain()}
        assert server.plan_cache.hits >= 1
        assert second[b].cached is False  # re-traversed, not result-cached
        assert first[a].status == second[b].status == "ok"
        assert first[a].value == second[b].value

    def test_plan_cache_capacity_zero_disables(self, graph):
        serving = ServingConfig(
            batch_size=4, cache_capacity=0, plan_cache_capacity=0
        )
        server = BFSServer(
            graph, serving, engine_config=IBFSConfig(group_size=4)
        )
        source = int(group_of(graph, 1, seed=15)[0])
        for _ in range(2):
            server.submit(Request(source=source))
            server.drain()
        assert server.plan_cache.hits == 0
        assert len(server.plan_cache) == 0

    def test_engine_key_carries_policy_name(self):
        config = IBFSConfig(group_size=8)
        base = engine_key(config)
        heuristic = engine_key(config, "heuristic")
        adaptive = engine_key(config, "adaptive")
        assert base != heuristic
        assert heuristic != adaptive
        assert heuristic.endswith("-polheuristic")

    def test_servers_with_different_policies_do_not_share_keys(self, graph):
        plain = BFSServer(graph, engine_config=IBFSConfig(group_size=4))
        adaptive = BFSServer(
            graph,
            engine_config=IBFSConfig(group_size=4),
            planner=AdaptivePolicy(),
        )
        assert plain._engine_key != adaptive._engine_key
