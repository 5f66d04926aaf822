"""Differential property tests: every engine option combination must
produce identical depth matrices on arbitrary graphs.

The options under test change *how* the traversal executes (vector
loads, direction granularity, early termination, per-level resets, the
JSA vs BSA representation) but never *what* it computes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.bfs.bidirectional import bidirectional_distance
from repro.bfs.reference import reference_bfs, reference_bfs_multi
from repro.core.bitwise import BitwiseTraversal
from repro.core.joint import JointTraversal
from repro.plan import HeuristicPolicy

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cases(draw, max_vertices=28, max_edges=80, max_sources=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    graph = from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=n,
        undirected=draw(st.booleans()),
    )
    k = draw(st.integers(min_value=1, max_value=min(max_sources, n)))
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    )
    return graph, sources


ENGINE_VARIANTS = [
    dict(),
    dict(planner=HeuristicPolicy(early_termination=False)),
    dict(
        reset_per_level=True,
        planner=HeuristicPolicy(early_termination=False),
    ),
    dict(planner=HeuristicPolicy(vector_width=4)),
    dict(planner=HeuristicPolicy(direction_mode="per-group")),
    dict(
        planner=HeuristicPolicy(direction_mode="per-group", vector_width=2)
    ),
    dict(thread_per_instance=True),
]


@SETTINGS
@given(cases())
def test_all_bitwise_variants_agree(case):
    graph, sources = case
    expected = reference_bfs_multi(graph, sources)
    for options in ENGINE_VARIANTS:
        depths, _, _ = BitwiseTraversal(graph, **options).run_group(sources)
        assert np.array_equal(depths, expected), options


@SETTINGS
@given(cases())
def test_joint_and_bitwise_agree(case):
    graph, sources = case
    joint, _, _ = JointTraversal(graph).run_group(sources)
    bitwise, _, _ = BitwiseTraversal(graph).run_group(sources)
    assert np.array_equal(joint, bitwise)


@SETTINGS
@given(cases(), st.integers(0, 10**6))
def test_bidirectional_matches_reference(case, seed):
    graph, sources = case
    rng = np.random.default_rng(seed)
    s = sources[0]
    t = int(rng.integers(graph.num_vertices))
    expected = int(reference_bfs(graph, s)[t])
    assert bidirectional_distance(graph, s, t).distance == expected


@SETTINGS
@given(cases())
def test_sharing_stats_consistent_across_variants(case):
    """Queue-derived sharing statistics depend only on the traversal's
    frontier structure, not on the execution options."""
    graph, sources = case
    _, _, plain = BitwiseTraversal(graph).run_group(sources)
    _, _, vectored = BitwiseTraversal(
        graph, planner=HeuristicPolicy(vector_width=4)
    ).run_group(sources)
    assert plain.jfq_sizes == vectored.jfq_sizes
    assert plain.sharing_degree == vectored.sharing_degree
