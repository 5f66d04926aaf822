"""GroupExecutor: bit-identical determinism, merging, lifecycle."""

import numpy as np
import pytest

from repro.errors import ExecutorError, TraversalError
from repro.graph.generators import kronecker
from repro.gpusim.cluster import Cluster
from repro.core.engine import IBFS, IBFSConfig
from repro.exec import ExecConfig, FaultPlan, FaultPolicy, GroupExecutor
from repro.exec.shm import shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)

CONFIG = IBFSConfig(group_size=8)
SOURCES = list(range(0, 96, 2))


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=8, edge_factor=8, seed=17)


@pytest.fixture(scope="module")
def serial(graph):
    return IBFS(graph, CONFIG).run(SOURCES, store_depths=True)


def assert_identical(a, b):
    assert a.engine == b.engine
    assert a.sources == b.sources
    assert a.seconds == b.seconds
    assert a.counters.__dict__ == b.counters.__dict__
    assert [g.__dict__ for g in a.groups] == [g.__dict__ for g in b.groups]
    assert (a.depths is None) == (b.depths is None)
    if a.depths is not None:
        assert np.array_equal(a.depths, b.depths)
        assert a.depths.dtype == b.depths.dtype


@needs_shm
class TestDeterminism:
    """The tentpole contract: bit-identical to serial IBFS.run across
    every worker count and injected fault."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_identical_across_pool_sizes(self, graph, serial, workers):
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=workers)
        ) as executor:
            result = executor.run(SOURCES, store_depths=True)
        assert_identical(result, serial)

    def test_identical_through_faults(self, graph, serial):
        with GroupExecutor(
            graph,
            CONFIG,
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash={0: 1}, error={2: 1}),
            ),
        ) as executor:
            result = executor.run(SOURCES, store_depths=True)
            stats = executor.last_stats
        assert_identical(result, serial)
        assert stats.crashes == 1
        assert stats.task_errors == 1

    # The generic repeat-runs-match-serial loop lives in the shared
    # substrate matrix (tests/test_runtime_substrates.py) now, across
    # every registered substrate × planner × mutation.

    def test_inprocess_mode_identical(self, graph, serial):
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        ) as executor:
            result = executor.run(SOURCES, store_depths=True)
            assert executor.backend == "inprocess"
            assert executor.last_stats.backend == "inprocess"
        assert_identical(result, serial)

    def test_store_depths_false(self, graph, serial):
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            result = executor.run(SOURCES, store_depths=False)
        assert result.depths is None
        assert result.counters.__dict__ == serial.counters.__dict__

    def test_cluster_pricing_matches_serial(self, graph):
        cluster = Cluster(2)
        expected = cluster.run(
            IBFS(graph, CONFIG).run(SOURCES, store_depths=False).group_times()
        )
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            result = executor.run(SOURCES, store_depths=False)
        assert cluster.run(result.group_times()).makespan == expected.makespan


@needs_shm
class TestMapGroups:
    def test_map_groups_matches_run_group(self, graph):
        engine = IBFS(graph, CONFIG)
        specs = [([0, 1, 2], None), ([5, 9], 3), ([7], None)]
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            results = executor.map_groups(specs)
        for (group, max_depth), result in zip(specs, results):
            expected = engine.run_group(group, max_depth=max_depth)
            assert result.seconds == expected.seconds
            assert np.array_equal(result.depths, expected.depths)
            assert result.counters.__dict__ == expected.counters.__dict__

    def test_empty_specs(self, graph):
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        ) as executor:
            assert executor.map_groups([]) == []

    def test_invalid_group_fails_typed(self, graph):
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        ) as executor:
            with pytest.raises(TraversalError):
                executor.map_groups([([0, 0], None)])
            with pytest.raises(TraversalError):
                executor.map_groups([([graph.num_vertices + 5], None)])
            with pytest.raises(TraversalError):
                executor.map_groups([([], None)])

    def test_return_errors_collects_per_group(self, graph):
        with GroupExecutor(
            graph,
            CONFIG,
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(error={1: 99}),
                faults=FaultPolicy(max_retries=1),
            ),
        ) as executor:
            results = executor.map_groups(
                [([0], None), ([1], None), ([2], None)], return_errors=True
            )
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], ExecutorError)
        assert not isinstance(results[2], Exception)


class TestLifecycle:
    def test_no_sources_rejected(self, graph):
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        ) as executor:
            with pytest.raises(TraversalError):
                executor.run([])

    def test_closed_executor_rejects_runs(self, graph):
        executor = GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        )
        executor.close()
        with pytest.raises(ExecutorError, match="closed"):
            executor.run([0])

    def test_close_idempotent(self, graph):
        executor = GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        )
        executor.close()
        executor.close()

    def test_negative_workers_rejected(self):
        with pytest.raises(ExecutorError):
            ExecConfig(num_workers=-1)

    @needs_shm
    def test_shared_segments_released_on_close(self, graph):
        from repro.exec.shm import published_refcount

        executor = GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=1)
        )
        executor.run(SOURCES[:8], store_depths=False)
        assert published_refcount(graph) == 1
        executor.close()
        assert published_refcount(graph) == 0
