"""PartitionedEngine equivalence, replay, cost models, and stats.

The partitioned engine's contract is the executor's: partitioning,
layout, wire format, and cost model may change *how* the traversal runs
and what the communication costs, but the depth matrix must stay
bit-identical to the serial :class:`repro.core.engine.IBFS`.
"""

import numpy as np
import pytest

from repro.errors import SimulationError, TraversalError
from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.obs import profile as obs_profile
from repro.obs import tracing
from repro.obs.metrics import MetricsHub
from repro.plan import FixedPolicy
from repro.plan.types import Direction, LevelDecision, RunPlan
from repro.dist.comm import CommCostModel
from repro.dist.engine import DistConfig, DistStats, PartitionedEngine
from repro.dist.exchange import (
    DENSE_SLOT_BYTES,
    SPARSE_ENTRY_BYTES,
    ExchangePolicy,
)

GROUP_SIZE = 8


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


@pytest.fixture(scope="module")
def serial(graph):
    return IBFS(graph, IBFSConfig(group_size=GROUP_SIZE))


@pytest.fixture(scope="module")
def group(graph, serial):
    return serial.make_groups(list(range(24)))[0]


def dist_engine(
    graph, num_partitions, layout="1d", group_size=GROUP_SIZE,
    groupby=True, seed=0, **overrides,
):
    return PartitionedEngine(
        graph,
        DistConfig(
            num_partitions=num_partitions, layout=layout, **overrides
        ),
        IBFSConfig(group_size=group_size, groupby=groupby, seed=seed),
    )


class TestEquivalence:
    @pytest.mark.parametrize("layout", ["1d", "2d"])
    @pytest.mark.parametrize("num_partitions", [1, 2, 4])
    def test_group_matches_serial(
        self, graph, serial, group, layout, num_partitions
    ):
        expected = serial.run_group(group)
        engine = dist_engine(graph, num_partitions, layout)
        result = engine.run_group(group)
        assert np.array_equal(result.depths, expected.depths)

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_forced_formats_match_serial(self, graph, serial, group, fmt):
        expected = serial.run_group(group)
        engine = dist_engine(graph, 4, "2d", exchange=fmt)
        result = engine.run_group(group)
        assert np.array_equal(result.depths, expected.depths)
        assert set(engine.last_stats.formats()) == {fmt}

    @pytest.mark.parametrize("max_depth", [0, 1, 3])
    def test_max_depth_matches_serial(
        self, graph, serial, group, max_depth
    ):
        expected = serial.run_group(group, max_depth=max_depth)
        result = dist_engine(graph, 2).run_group(group, max_depth=max_depth)
        assert np.array_equal(result.depths, expected.depths)

    # The plain full-run-matches-serial loop lives in the shared
    # substrate matrix (tests/test_runtime_substrates.py) now, across
    # every registered substrate × planner × mutation.

    def test_random_grouping_matches_serial(self, graph):
        sources = list(range(20))
        expected = IBFS(
            graph, IBFSConfig(group_size=GROUP_SIZE, groupby=False, seed=7)
        ).run(sources, store_depths=True)
        engine = dist_engine(graph, 2, groupby=False, seed=7)
        result = engine.run(sources, store_depths=True)
        assert np.array_equal(result.depths, expected.depths)


class TestReplay:
    def test_recorded_plan_is_resolved(self, graph, group):
        engine = dist_engine(graph, 2)
        result = engine.run_group(group)
        plan = result.groups[0].plan
        assert len(plan.decisions) == len(engine.last_stats.levels)
        for decision in plan.decisions:
            assert decision.exchange in ("dense", "sparse")

    def test_replay_resends_recorded_bytes(self, graph, group):
        engine = dist_engine(graph, 2)
        first = engine.run_group(group)
        recorded = first.groups[0].plan
        original = [
            (t.fmt, t.update_bytes, t.broadcast_bytes, t.messages)
            for t in engine.last_stats.levels
        ]
        replay = engine.run_group(group, plan=recorded)
        assert np.array_equal(replay.depths, first.depths)
        assert original == [
            (t.fmt, t.update_bytes, t.broadcast_bytes, t.messages)
            for t in engine.last_stats.levels
        ]

    def test_plan_overrides_policy(self, graph, group):
        """A plan forcing dense on every level beats an all-sparse
        policy — replay follows the recording, not the live policy."""
        engine = dist_engine(graph, 2, exchange="sparse")
        baseline = engine.run_group(group)
        levels = len(engine.last_stats.levels)
        forced = RunPlan(policy="forced", engine=engine.name,
                         group_size=len(group))
        for _ in range(levels):
            forced.append(
                LevelDecision(
                    directions=baseline.groups[0].plan.decisions[0].directions,
                    exchange="dense",
                )
            )
        replayed = engine.run_group(group, plan=forced)
        assert np.array_equal(replayed.depths, baseline.depths)
        assert set(engine.last_stats.formats()) == {"dense"}


    def test_bottom_up_plan_is_refused(self, graph, group):
        """Every partitioned level runs top-down, so a serial plan that
        sends an instance bottom-up raises before any level runs."""
        serial = IBFS(
            graph, IBFSConfig(group_size=GROUP_SIZE),
            planner=FixedPolicy(switch_level=2),
        )
        plan = serial.run_group(group).groups[0].plan
        assert plan.needs_bottom_up
        assert plan.decisions[0].bottom_up == 0
        engine = dist_engine(graph, 2)
        with pytest.raises(TraversalError, match="bottom-up"):
            engine.run_group(group, plan=plan)
        assert engine.last_stats is None


class TestLevelLoop:
    def test_profiled_group_emits_one_level_span_per_level(
        self, graph, group
    ):
        tracer = tracing.configure(process="test")
        obs_profile.configure(enabled=True)
        try:
            engine = dist_engine(graph, 2)
            result = engine.run_group(group)
        finally:
            obs_profile.disable()
            tracing.set_tracer(None)
        levels = [s for s in tracer.finished if s.name == "profile.level"]
        exchanges = [
            s for s in tracer.finished if s.name == "exchange.level"
        ]
        assert len(levels) == result.counters.levels
        assert len(levels) == len(engine.last_stats.levels)
        assert sorted(s.attrs["depth"] for s in levels) == list(
            range(len(levels))
        )
        # Each level's exchange runs inside that level's span.
        parents = {s.span_id: s.attrs["depth"] for s in levels}
        assert [parents[s.parent_id] for s in exchanges] == [
            s.attrs["level"] for s in exchanges
        ]
        assert all(
            d.directions == (Direction.TOP_DOWN,) * len(group)
            for d in result.groups[0].plan
        )


class TestExchangeAccounting:
    def test_dense_levels_cost_fixed_bytes(self, graph, group):
        engine = dist_engine(graph, 2, exchange="dense")
        engine.run_group(group)
        fixed = engine.partitions.dense_bytes_per_level()
        for trace in engine.last_stats.levels:
            assert trace.update_bytes == fixed

    def test_sparse_bytes_scale_with_entries(self, graph, group):
        engine = dist_engine(graph, 2, exchange="sparse")
        engine.run_group(group)
        for trace in engine.last_stats.levels:
            assert trace.update_bytes == SPARSE_ENTRY_BYTES * trace.entries

    def test_1d_has_no_frontier_broadcast(self, graph, group):
        engine = dist_engine(graph, 4, "1d")
        engine.run_group(group)
        assert all(
            t.broadcast_bytes == 0 for t in engine.last_stats.levels
        )

    def test_2d_broadcasts_frontier_to_sibling_blocks(self, graph, group):
        engine = dist_engine(graph, 4, "2d")
        engine.run_group(group)
        stats = engine.last_stats
        assert any(t.broadcast_bytes > 0 for t in stats.levels)
        for trace in stats.levels:
            # cols - 1 == 1 remote copy per frontier entry on a 2x2 grid.
            assert trace.broadcast_bytes == (
                SPARSE_ENTRY_BYTES * trace.frontier_vertices
            )

    def test_level0_format_follows_policy_prediction(self, graph, group):
        """Auto resolves level 0 from the source frontier's out-degree
        sum — the same prediction a replaying backend would make."""
        engine = dist_engine(graph, 2)
        frontier_edges = int(
            graph.out_degrees()[np.asarray(group, dtype=np.int64)].sum()
        )
        expected = engine.exchange_policy.decide(
            frontier_edges, engine.partitions.dense_bytes_per_level()
        )
        engine.run_group(group)
        assert engine.last_stats.levels[0].fmt == expected

    def test_auto_levels_price_like_the_forced_format(self, graph, group):
        """Each auto level's bytes equal the corresponding forced run's
        bytes for whichever format auto resolved — the policy changes
        the choice, never the per-format price."""
        runs = {}
        for fmt in ("auto", "dense", "sparse"):
            engine = dist_engine(graph, 2, exchange=fmt)
            engine.run_group(group)
            runs[fmt] = engine.last_stats.levels
        assert len(runs["auto"]) == len(runs["dense"]) == len(runs["sparse"])
        for auto, dense, sparse in zip(
            runs["auto"], runs["dense"], runs["sparse"]
        ):
            expected = dense if auto.fmt == "dense" else sparse
            assert auto.update_bytes == expected.update_bytes


class TestValidation:
    def test_rejects_bad_config(self, graph):
        with pytest.raises(TraversalError):
            DistConfig(num_partitions=0)
        with pytest.raises(TraversalError):
            DistConfig(layout="ring")
        with pytest.raises(TraversalError):
            DistConfig(exchange="brotli")
        with pytest.raises(TraversalError):
            DistConfig(exchange_threshold=0.0)

    def test_rejects_bad_groups(self, graph):
        engine = dist_engine(graph, 2)
        with pytest.raises(TraversalError):
            engine.run_group([])
        with pytest.raises(TraversalError):
            engine.run_group([1, 1])
        with pytest.raises(TraversalError):
            engine.run_group([graph.num_vertices])
        with pytest.raises(TraversalError):
            engine.run_group(list(range(GROUP_SIZE + 1)))

    def test_effective_group_size_clamps_to_status_word(self, graph):
        engine = dist_engine(graph, 2, group_size=128)
        assert engine.effective_group_size() == 64

    def test_closed_engine_refuses_to_run(self, graph, group):
        engine = dist_engine(graph, 2)
        engine.close()
        with pytest.raises(TraversalError):
            engine.run_group(group)

    def test_name_encodes_layout_and_partitions(self, graph):
        assert dist_engine(graph, 4, "2d").name == "dist-2dx4+groupby"
        assert (
            dist_engine(graph, 2, groupby=False).name == "dist-1dx2+random"
        )


class TestCostModels:
    def test_comm_model_rejects_bad_rates(self):
        with pytest.raises(SimulationError):
            CommCostModel(bytes_per_second=0)
        with pytest.raises(SimulationError):
            CommCostModel(latency_seconds=-1)

    def test_price_level_arithmetic(self):
        model = CommCostModel(
            latency_seconds=1e-6,
            bytes_per_second=1e9,
            edges_per_second=1e9,
            base_level_seconds=0.0,
        )
        cost = model.price_level([1000, 4000], nbytes=2000, messages=3)
        assert cost.compute_seconds == pytest.approx(4000 / 1e9)
        assert cost.exchange_seconds == pytest.approx(3e-6 + 2000 / 1e9)
        assert cost.total_seconds == pytest.approx(
            cost.compute_seconds + cost.exchange_seconds
        )


class TestStats:
    def test_stats_shape(self, graph, group):
        engine = dist_engine(graph, 2)
        engine.run_group(group)
        stats = engine.last_stats
        assert stats.groups == 1
        assert stats.num_partitions == 2
        assert stats.layout == "1d"
        assert stats.bytes_total == sum(t.nbytes for t in stats.levels)
        assert stats.messages_total == sum(
            t.messages for t in stats.levels
        )
        payload = stats.to_dict()
        assert payload["levels"][0]["bytes"] == stats.levels[0].nbytes
        assert sum(payload["formats"].values()) == len(stats.levels)

    def test_run_merges_group_stats(self, graph):
        engine = dist_engine(graph, 2)
        engine.run(list(range(24)), store_depths=False)
        groups = engine.last_stats.groups
        assert groups == len(engine.make_groups(list(range(24))))
        assert len(engine.last_stats.levels) > 0

    def test_publish_exports_counters(self, graph, group):
        hub = MetricsHub()
        engine = dist_engine(graph, 2)
        engine.run_group(group)
        stats = engine.last_stats
        stats.publish(hub)
        assert (
            hub.counter("exchange_bytes_total").value == stats.bytes_total
        )
        assert hub.counter("dist_levels_total").value == len(stats.levels)
        assert (
            hub.histogram("exchange_level_seconds").count
            == len(stats.levels)
        )

    def test_dense_slot_price_documented(self):
        # The stats layer prices dense slots at one status word.
        assert DENSE_SLOT_BYTES == 8
        policy = ExchangePolicy()
        assert policy.decide(frontier_edges=0, dense_bytes=100) == "sparse"
        assert policy.decide(frontier_edges=10**9, dense_bytes=100) == "dense"

    def test_empty_stats(self):
        stats = DistStats(layout="1d", num_partitions=1)
        assert stats.bytes_total == 0
        assert stats.formats() == {}
