"""GroupBy rules: partitioning invariants and sharing improvement, and
the batch-wide neighbor summary against a per-source rule."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.groupby as groupby
from repro.errors import GroupingError
from repro.graph.builders import from_edge_arrays, from_edges
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import kronecker, scale_free, star, uniform_random
from repro.core.engine import IBFS, IBFSConfig
from repro.core.groupby import (
    DEFAULT_Q,
    GroupByConfig,
    group_sources,
    random_groups,
)


def _is_partition(groups, sources):
    flat = [s for g in groups for s in g]
    return sorted(flat) == sorted(sources)


class TestRandomGroups:
    def test_partition(self):
        groups = random_groups(range(10), 3, seed=1)
        assert _is_partition(groups, list(range(10)))
        assert max(len(g) for g in groups) == 3

    def test_deterministic(self):
        assert random_groups(range(10), 3, seed=1) == random_groups(
            range(10), 3, seed=1
        )

    def test_invalid_group_size(self):
        with pytest.raises(GroupingError):
            random_groups(range(4), 0)

    def test_duplicate_sources_rejected(self):
        with pytest.raises(GroupingError):
            random_groups([1, 1, 2], 2)


class TestGroupByConfig:
    def test_defaults(self):
        config = GroupByConfig()
        assert config.q == DEFAULT_Q
        assert config.p_sequence == (4, 16, 64, 128)

    def test_descending_p_rejected(self):
        with pytest.raises(GroupingError):
            GroupByConfig(p_sequence=(16, 4))

    def test_negative_q_rejected(self):
        with pytest.raises(GroupingError):
            GroupByConfig(q=-1)

    def test_empty_p_rejected(self):
        with pytest.raises(GroupingError):
            GroupByConfig(p_sequence=())


class TestGroupSources:
    @pytest.fixture(scope="class")
    def kron(self):
        return kronecker(scale=9, edge_factor=8, seed=6)

    def test_partition_property(self, kron):
        sources = list(range(0, 128, 2))
        groups = group_sources(kron, sources, 16)
        assert _is_partition(groups, sources)
        assert all(len(g) <= 16 for g in groups)

    def test_out_of_range_source_rejected(self, kron):
        with pytest.raises(GroupingError):
            group_sources(kron, [kron.num_vertices], 4)

    def test_duplicates_rejected(self, kron):
        with pytest.raises(GroupingError):
            group_sources(kron, [0, 0], 4)

    def test_invalid_group_size(self, kron):
        with pytest.raises(GroupingError):
            group_sources(kron, [0, 1], 0)

    def test_star_leaves_share_the_hub(self):
        # All leaves connect to the hub (outdegree = leaves count), so
        # Rule 2 puts leaf sources into the same bucket.
        g = star(200)
        leaves = list(range(1, 33))
        groups = group_sources(g, leaves, 8, GroupByConfig(q=100))
        assert _is_partition(groups, leaves)
        assert all(len(g_) == 8 for g_ in groups)

    def test_uniform_graph_falls_back_gracefully(self):
        g = uniform_random(256, 4, seed=7)
        sources = list(range(0, 64))
        groups = group_sources(g, sources, 16)
        assert _is_partition(groups, sources)

    def test_isolated_sources_grouped_randomly(self):
        g = from_edges([(0, 1)], num_vertices=8, undirected=True)
        groups = group_sources(g, list(range(8)), 4)
        assert _is_partition(groups, list(range(8)))

    def test_groupby_raises_sharing_on_power_law(self):
        """The headline claim of section 5: GroupBy groups share more."""
        g = scale_free(600, 4, seed=8)
        sources = list(range(0, 256))
        grouped = IBFS(
            g, IBFSConfig(group_size=32, groupby=True)
        ).run(sources, store_depths=False)
        randomized = IBFS(
            g, IBFSConfig(group_size=32, groupby=False, seed=13)
        ).run(sources, store_depths=False)
        assert grouped.sharing_degree >= randomized.sharing_degree


def per_source_summary(graph, degrees, sources, q):
    """Rule 2's hub and the smallest neighbor, one source at a time:
    the first neighbor of maximum outdegree if that degree is above q,
    and ``None`` for both on an empty row."""
    hubs, lowest = [], []
    for s in sources:
        neighbors = graph.neighbors(s)
        if neighbors.size == 0:
            hubs.append(None)
            lowest.append(None)
            continue
        neighbor_degrees = degrees[neighbors]
        best = int(np.argmax(neighbor_degrees))
        hubs.append(
            int(neighbors[best]) if neighbor_degrees[best] > q else None
        )
        lowest.append(int(neighbors.min()))
    return hubs, lowest


@st.composite
def summary_cases(draw, max_vertices=16, max_edges=40):
    """Small multigraphs: many empty rows and tied degrees, and a q that
    often equals some vertex's degree exactly."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    graph = from_edge_arrays(
        np.asarray(draw(ends), dtype=VERTEX_DTYPE),
        np.asarray(draw(ends), dtype=VERTEX_DTYPE),
        num_vertices=n,
    )
    degrees = sorted(set(graph.out_degrees().tolist()))
    q = draw(st.one_of(st.sampled_from(degrees), st.integers(0, 6)))
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    group_size = draw(st.integers(min_value=1, max_value=5))
    return graph, sources, q, group_size


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(summary_cases())
def test_batch_summary_matches_per_source_rule(case):
    graph, sources, q, group_size = case
    degrees = graph.out_degrees()
    want = per_source_summary(graph, degrees, sources, q)
    assert groupby._neighbor_summary(graph, degrees, sources, q) == want
    # The groups follow from the summary alone, so they are the same
    # with the per-source rule in its place.
    config = GroupByConfig(q=q, p_sequence=(1, 2, 4))
    got = group_sources(graph, sources, group_size, config)
    original = groupby._neighbor_summary
    groupby._neighbor_summary = per_source_summary
    try:
        assert group_sources(graph, sources, group_size, config) == got
    finally:
        groupby._neighbor_summary = original
