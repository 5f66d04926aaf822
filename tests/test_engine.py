"""IBFS orchestrator: configuration, grouping, capacity, aggregation."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.graph.generators import kronecker
from repro.gpusim.cluster import Cluster
from repro.gpusim.config import KEPLER_K40
from repro.gpusim.device import Device
from repro.bfs.reference import reference_bfs_multi
from repro.core.engine import IBFS, IBFSConfig


@pytest.fixture(scope="module")
def kron():
    return kronecker(scale=8, edge_factor=8, seed=11)


class TestConfig:
    def test_defaults(self):
        config = IBFSConfig()
        assert config.group_size == 128
        assert config.mode == "bitwise"
        assert config.groupby

    def test_invalid_mode(self):
        with pytest.raises(TraversalError):
            IBFSConfig(mode="quantum")

    def test_invalid_group_size(self):
        with pytest.raises(TraversalError):
            IBFSConfig(group_size=0)

    def test_engine_name_reflects_config(self, kron):
        assert IBFS(kron).name == "ibfs-bitwise+groupby"
        assert (
            IBFS(kron, IBFSConfig(mode="joint", groupby=False)).name
            == "ibfs-joint+random"
        )


class TestGrouping:
    def test_make_groups_partitions(self, kron):
        engine = IBFS(kron, IBFSConfig(group_size=16))
        sources = list(range(50))
        groups = engine.make_groups(sources)
        assert sorted(s for g in groups for s in g) == sources
        assert all(len(g) <= 16 for g in groups)

    def test_effective_group_size_clamped_by_memory(self, kron):
        budget = kron.memory_bytes() + kron.num_vertices * 8 + kron.num_vertices * 4
        tight = Device(KEPLER_K40.with_memory(budget))
        engine = IBFS(kron, IBFSConfig(group_size=128, mode="joint"), device=tight)
        assert engine.effective_group_size() < 128

    def test_no_capacity_raises(self, kron):
        tiny = Device(KEPLER_K40.with_memory(kron.memory_bytes()))
        engine = IBFS(kron, device=tiny)
        with pytest.raises(TraversalError):
            engine.effective_group_size()


class TestRun:
    def test_depths_match_reference(self, kron):
        sources = [0, 9, 100, 40, 77]
        result = IBFS(kron, IBFSConfig(group_size=4)).run(sources)
        assert np.array_equal(result.depths, reference_bfs_multi(kron, sources))

    def test_row_order_matches_sources(self, kron):
        sources = [100, 0, 55]
        result = IBFS(kron, IBFSConfig(group_size=2)).run(sources)
        for s in sources:
            assert result.depth(s, s) == 0

    def test_empty_sources_rejected(self, kron):
        with pytest.raises(TraversalError):
            IBFS(kron).run([])

    def test_seconds_is_sum_of_groups(self, kron):
        result = IBFS(kron, IBFSConfig(group_size=8)).run(list(range(32)))
        assert result.seconds == pytest.approx(sum(result.group_times()))

    def test_cluster_uses_makespan(self, kron):
        engine = IBFS(kron, IBFSConfig(group_size=8))
        sources = list(range(64))
        serial = engine.run(sources, store_depths=False)
        makespan = Cluster(4).run(serial.group_times()).makespan
        assert makespan < serial.seconds
        assert makespan >= serial.seconds / 4

    def test_run_all_covers_every_vertex(self):
        small = kronecker(scale=5, edge_factor=4, seed=12)
        result = IBFS(small, IBFSConfig(group_size=16)).run_all(store_depths=True)
        assert result.num_instances == small.num_vertices
        assert np.array_equal(
            result.depths,
            reference_bfs_multi(small, range(small.num_vertices)),
        )

    def test_store_depths_false(self, kron):
        result = IBFS(kron).run(range(16), store_depths=False)
        assert result.depths is None
        assert result.teps > 0
