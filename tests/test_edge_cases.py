"""Edge-case sweep across subsystems."""

import numpy as np
import pytest

from repro.errors import GroupingError, TraversalError
from repro.graph.builders import from_edges
from repro.graph.csr import empty_graph
from repro.graph.generators import kronecker, path
from repro.gpusim.cluster import Cluster
from repro.gpusim.config import KEPLER_K40
from repro.gpusim.counters import RunRecord
from repro.gpusim.device import Device
from repro.gpusim.energy import EnergyModel
from repro.gpusim.timing import CostModel, teps
from repro.gpusim.trace import summarize_record
from repro.bfs.naive import NaiveConcurrentBFS
from repro.bfs.reference import reference_bfs_multi
from repro.baselines import MSBFS, SpMMBC
from repro.core.engine import IBFS, IBFSConfig
from repro.core.groupby import GroupByConfig, group_sources


class TestDegenerateGraphs:
    def test_single_vertex_graph(self):
        g = empty_graph(1)
        result = IBFS(g, IBFSConfig(group_size=1)).run([0])
        assert result.depth(0, 0) == 0
        assert result.reached(0) == 1

    def test_single_self_loop(self):
        g = from_edges([(0, 0)])
        result = IBFS(g, IBFSConfig(group_size=1)).run([0])
        assert result.depth_row(0).tolist() == [0]

    def test_all_isolated_vertices(self):
        g = empty_graph(6)
        sources = [0, 3, 5]
        result = IBFS(g, IBFSConfig(group_size=2)).run(sources)
        assert np.array_equal(
            result.depths, reference_bfs_multi(g, sources)
        )

    def test_two_vertex_cycle(self):
        g = from_edges([(0, 1), (1, 0)])
        result = IBFS(g, IBFSConfig(group_size=2)).run([0, 1])
        assert result.depth(0, 1) == 1
        assert result.depth(1, 0) == 1


class TestEngineOptionCombos:
    @pytest.fixture(scope="class")
    def kron(self):
        return kronecker(scale=7, edge_factor=6, seed=191)

    def test_max_depth_with_groupby_and_cluster(self, kron):
        engine = IBFS(kron, IBFSConfig(group_size=8, groupby=True))
        result = engine.run(list(range(24)), max_depth=2)
        assert result.depths.max() <= 2
        assert Cluster(3).run(result.group_times()).makespan > 0

    def test_naive_with_max_depth(self, kron):
        result = NaiveConcurrentBFS(kron).run(list(range(8)), max_depth=1)
        assert result.depths.max() <= 1

    def test_msbfs_store_depths_false(self, kron):
        result = MSBFS(kron, group_size=4).run(
            list(range(8)), store_depths=False
        )
        assert result.depths is None
        assert result.teps > 0

    def test_spmm_on_disconnected(self):
        g = from_edges([(0, 1), (3, 4)], num_vertices=6, undirected=True)
        result = SpMMBC(g, group_size=3).run([0, 2, 3])
        assert np.array_equal(
            result.depths, reference_bfs_multi(g, [0, 2, 3])
        )

    def test_group_size_one_equals_sequential_depths(self, kron):
        sources = [1, 2, 3]
        one = IBFS(kron, IBFSConfig(group_size=1, groupby=False)).run(sources)
        assert np.array_equal(one.depths, reference_bfs_multi(kron, sources))


class TestGroupByEdgeCases:
    def test_more_group_size_than_sources(self):
        g = path(10)
        groups = group_sources(g, [0, 5], 64)
        assert groups == [[0, 5]] or groups == [[5, 0]]

    def test_single_source(self):
        g = path(10)
        assert group_sources(g, [3], 4) == [[3]]

    def test_p_sequence_ordering_enforced(self):
        with pytest.raises(GroupingError):
            GroupByConfig(p_sequence=(64, 4, 16))


class TestCostModelEdges:
    def test_teps_helper(self):
        assert teps(0, 1.0) == 0.0
        assert teps(10, 0.0) == 0.0

    def test_overlapped_with_empty_kernels(self):
        cost = CostModel(KEPLER_K40)
        assert cost.overlapped_time([[], []]) > 0  # launch waves only

    def test_serial_time_empty(self):
        cost = CostModel(KEPLER_K40)
        assert cost.serial_time([]) == 0.0

    def test_summarize_empty_record(self):
        summary = summarize_record(RunRecord(), CostModel(KEPLER_K40))
        assert summary["levels"] == 0
        assert summary["peak_frontier"] == 0

    def test_energy_custom_parameters(self):
        from repro.gpusim.counters import ProfilerCounters

        model = EnergyModel(
            dram_joules_per_byte=1.0,
            instruction_joules=0.0,
            atomic_joules=0.0,
            static_watts=0.0,
        )
        counters = ProfilerCounters(global_load_transactions=2)
        expected = 2 * KEPLER_K40.transaction_bytes
        assert model.total_energy(counters, KEPLER_K40, 1.0) == expected


class TestDeviceEdges:
    def test_zero_vertex_graph_capacity(self):
        g = empty_graph(0)
        device = Device()
        # Zero vertices -> zero per-instance storage; the engine layer
        # never runs on it (no sources exist), but the rule must not
        # divide by zero.
        assert device.max_group_size(g) == 0 or device.max_group_size(g) > 0

    def test_run_requires_sources(self):
        g = path(4)
        with pytest.raises(TraversalError):
            IBFS(g, IBFSConfig(group_size=2)).run([])
