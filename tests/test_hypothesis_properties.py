"""Property-based tests (hypothesis) on core invariants.

Random graphs and random source sets probe:

* every engine equals the oracle depth-for-depth;
* CSR structural invariants survive building and reversal;
* GroupBy always produces a partition;
* sharing degree is bounded by [1, N];
* BSA bits are monotone under traversal semantics.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.bfs.reference import reference_bfs_multi
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.core.groupby import GroupByConfig, group_sources
from repro.core.joint import JointTraversal
from repro.plan import HeuristicPolicy

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_vertices=40, max_edges=120):
    """Arbitrary directed graph with self-loops and multi-edges allowed."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    undirected = draw(st.booleans())
    graph = from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=n,
        undirected=undirected,
    )
    return graph


@st.composite
def graphs_with_sources(draw, max_sources=8):
    graph = draw(random_graphs())
    n = graph.num_vertices
    k = draw(st.integers(min_value=1, max_value=min(max_sources, n)))
    sources = draw(
        st.lists(
            st.integers(0, n - 1), min_size=k, max_size=k, unique=True
        )
    )
    return graph, sources


@SETTINGS
@given(graphs_with_sources())
def test_bitwise_matches_reference(case):
    graph, sources = case
    depths, _, _ = BitwiseTraversal(graph).run_group(sources)
    assert np.array_equal(depths, reference_bfs_multi(graph, sources))


@SETTINGS
@given(graphs_with_sources())
def test_joint_matches_reference(case):
    graph, sources = case
    depths, _, _ = JointTraversal(graph).run_group(sources)
    assert np.array_equal(depths, reference_bfs_multi(graph, sources))


@SETTINGS
@given(graphs_with_sources())
def test_full_ibfs_matches_reference(case):
    graph, sources = case
    result = IBFS(graph, IBFSConfig(group_size=4)).run(sources)
    assert np.array_equal(result.depths, reference_bfs_multi(graph, sources))


@SETTINGS
@given(random_graphs())
def test_csr_invariants(graph):
    assert graph.row_offsets[0] == 0
    assert graph.row_offsets[-1] == graph.num_edges
    assert (np.diff(graph.row_offsets) >= 0).all()
    assert int(graph.out_degrees().sum()) == graph.num_edges


@SETTINGS
@given(random_graphs())
def test_reverse_is_involution(graph):
    rev = graph.reverse()
    assert rev.num_edges == graph.num_edges
    src, dst = graph.edge_array()
    rsrc, rdst = rev.edge_array()
    fwd = sorted(zip(src.tolist(), dst.tolist()))
    bwd = sorted(zip(rdst.tolist(), rsrc.tolist()))
    assert fwd == bwd


@SETTINGS
@given(graphs_with_sources())
def test_groupby_is_partition(case):
    graph, sources = case
    groups = group_sources(graph, sources, 3, GroupByConfig(q=2))
    flat = sorted(s for g in groups for s in g)
    assert flat == sorted(sources)
    assert all(1 <= len(g) <= 3 for g in groups)


@SETTINGS
@given(graphs_with_sources())
def test_sharing_degree_bounds(case):
    graph, sources = case
    _, _, stats = BitwiseTraversal(graph).run_group(sources)
    if stats.sharing_degree:
        assert 1.0 <= stats.sharing_degree <= len(sources) + 1e-9
        assert stats.sharing_ratio <= 1.0 + 1e-9


@SETTINGS
@given(graphs_with_sources())
def test_early_termination_never_increases_work(case):
    graph, sources = case
    _, fast, _ = BitwiseTraversal(graph).run_group(sources)
    _, slow, _ = BitwiseTraversal(
        graph, planner=HeuristicPolicy(early_termination=False)
    ).run_group(sources)
    assert (
        fast.counters.bottom_up_inspections
        <= slow.counters.bottom_up_inspections
    )


@SETTINGS
@given(graphs_with_sources())
def test_depth_limited_prefix_consistency(case):
    """Depths computed with max_depth=k agree with the unlimited run on
    every vertex within k, and mark everything else unvisited."""
    graph, sources = case
    engine = IBFS(graph, IBFSConfig(group_size=4))
    full = engine.run(sources).depths
    limited = engine.run(sources, max_depth=2).depths
    within = (full >= 0) & (full <= 2)
    assert np.array_equal(limited[within], full[within])
    assert (limited[~within] == -1).all()
