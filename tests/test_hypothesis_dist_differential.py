"""Differential property tests for the partitioned engine.

Companion of ``test_hypothesis_differential.py``: on arbitrary random
graphs, every (partition count, layout, wire format) combination of
:class:`repro.dist.engine.PartitionedEngine` must produce the depth
matrix of the serial :class:`repro.core.engine.IBFS` bit-for-bit — the
decomposition and the exchange change only communication, never depths.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.core.engine import IBFS, IBFSConfig
from repro.dist.engine import DistConfig, PartitionedEngine

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PARTITION_COUNTS = (1, 2, 4)
LAYOUTS = ("1d", "2d")
FORMATS = ("auto", "dense", "sparse")


@st.composite
def cases(draw, max_vertices=24, max_edges=70, max_sources=6):
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
    group = draw(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    )
    return graph, group


@SETTINGS
@given(cases())
def test_all_partitionings_match_serial(case):
    graph, group = case
    expected = IBFS(
        graph, IBFSConfig(group_size=len(group))
    ).run_group(group)
    for num_partitions in PARTITION_COUNTS:
        for layout in LAYOUTS:
            engine = PartitionedEngine(
                graph,
                DistConfig(num_partitions=num_partitions, layout=layout),
                IBFSConfig(group_size=len(group)),
            )
            result = engine.run_group(group)
            assert np.array_equal(result.depths, expected.depths), (
                num_partitions,
                layout,
            )


@SETTINGS
@given(cases(), st.sampled_from(FORMATS))
def test_wire_formats_match_serial(case, fmt):
    graph, group = case
    expected = IBFS(
        graph, IBFSConfig(group_size=len(group))
    ).run_group(group)
    engine = PartitionedEngine(
        graph,
        DistConfig(num_partitions=2, layout="2d", exchange=fmt),
        IBFSConfig(group_size=len(group)),
    )
    result = engine.run_group(group)
    assert np.array_equal(result.depths, expected.depths), fmt


@SETTINGS
@given(cases())
def test_replay_is_bit_identical(case):
    graph, group = case
    engine = PartitionedEngine(
        graph,
        DistConfig(num_partitions=2),
        IBFSConfig(group_size=len(group)),
    )
    first = engine.run_group(group)
    original = [
        (t.fmt, t.nbytes, t.messages) for t in engine.last_stats.levels
    ]
    replay = engine.run_group(group, plan=first.groups[0].plan)
    assert np.array_equal(replay.depths, first.depths)
    assert original == [
        (t.fmt, t.nbytes, t.messages) for t in engine.last_stats.levels
    ]


@SETTINGS
@given(cases())
def test_balance_modes_match(case):
    graph, group = case
    results = []
    for balance in ("edges", "vertices"):
        engine = PartitionedEngine(
            graph,
            DistConfig(num_partitions=3, balance=balance),
            IBFSConfig(group_size=len(group)),
        )
        results.append(engine.run_group(group).depths)
    assert np.array_equal(results[0], results[1])
