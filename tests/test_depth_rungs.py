"""Long traversals cross the vertex-major depth matrix's dtype rungs.

``BitwiseTraversal`` keeps depths in int8 until level 120 and widens
them to int16 there (int32 past level 32000).  A 300-vertex path and a
128 x 128 grid run 300 and 255 levels, so both cross the first rung.  On
each path (compiled level and numpy kernels) the depths must equal the
reference BFS, and the two paths must give equal counters and level
records.  The same holds for a group wider than 64 lanes.

Every engine and placement returns its depth matrix in
:func:`~repro.core.result.depth_dtype` of its deepest depth: int8 up
to 120, int16 up to 32,000, else int32.  A multi-group result takes the
widest group's dtype, and stream repair narrows what it returns.
"""

import dataclasses

import numpy as np
import pytest

import repro.native as native
from repro.bfs.reference import reference_bfs
from repro.bfs.single import SingleBFS
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.core.joint import JointTraversal
from repro.core.result import INT16_DEPTH_MAX, INT8_DEPTH_MAX, depth_dtype
from repro.exec import ExecConfig, GroupExecutor
from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import grid_2d, path, rmat
from repro.runtime import SubstrateSpec, make_substrate
from repro.stream import MutationBatch, apply_batch, repair_depth_matrix

CASES = {
    "path300": (lambda: path(300), [0, 5, 299]),
    "grid128": (lambda: grid_2d(128, 128), [0]),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    build, sources = CASES[request.param]
    graph = build()
    expected = np.stack([reference_bfs(graph, s) for s in sources])
    assert expected.max() >= 120
    return graph, sources, expected


def _run(graph, sources):
    depths, record, stats = BitwiseTraversal(graph).run_group(sources)
    return depths, record, stats


def _records(record):
    return (
        dataclasses.asdict(record.counters),
        [dataclasses.astuple(level) for level in record.levels],
    )


def test_numpy_path_matches_reference(case):
    graph, sources, expected = case
    with native.force_backend("off"):
        depths, record, _ = _run(graph, sources)
    assert np.array_equal(depths, expected)
    assert len(record.levels) > 120


def test_compiled_path_matches_reference_and_numpy(compiled, case):
    graph, sources, expected = case
    depths, record, stats = _run(graph, sources)
    assert np.array_equal(depths, expected)
    with native.force_backend("off"):
        _, numpy_record, numpy_stats = _run(graph, sources)
    assert _records(record) == _records(numpy_record)
    assert stats == numpy_stats


def test_compiled_path_matches_numpy_past_64_lanes(compiled):
    # 4,100 instances need 65 lanes; repeated sources are allowed.
    graph = rmat(9, edge_factor=8, seed=1)
    sources = [s % graph.num_vertices for s in range(0, 5 * 4100, 5)]
    depths, record, stats = _run(graph, sources)
    with native.force_backend("off"):
        numpy_depths, numpy_record, numpy_stats = _run(graph, sources)
    assert np.array_equal(depths, numpy_depths)
    assert _records(record) == _records(numpy_record)
    assert stats == numpy_stats
    rows = {s: reference_bfs(graph, s) for s in set(sources)}
    assert np.array_equal(depths, np.stack([rows[s] for s in sources]))


# ----------------------------------------------------------------------
# The dtype rule, on every engine and placement
# ----------------------------------------------------------------------
def test_depth_dtype_rungs():
    assert depth_dtype(0) == np.int8
    assert depth_dtype(INT8_DEPTH_MAX) == np.int8
    assert depth_dtype(INT8_DEPTH_MAX + 1) == np.int16
    assert depth_dtype(INT16_DEPTH_MAX) == np.int16
    assert depth_dtype(INT16_DEPTH_MAX + 1) == np.int32


#: ``(vertices, max_depth, dtype)``: ``path(n)`` from vertex 0 reaches
#: depth n - 1.  On ``path(121)`` the bitwise ladder widens when level
#: 120 runs, though it finds nothing; on ``path(122)`` capped at 120 that
#: level never runs.  Both come out int8.
RULE_CASES = [
    (120, None, np.int8),
    (121, None, np.int8),
    (300, None, np.int16),
    (122, 120, np.int8),
]
CONFIG = IBFSConfig(group_size=4, groupby=False)


def _engine_depths(make):
    def run(graph, sources, max_depth, config):
        return make(graph).run_group(sources, max_depth=max_depth)[0]

    return run


def _bitwise_numpy(graph, sources, max_depth, config):
    with native.force_backend("off"):
        return _engine_depths(BitwiseTraversal)(
            graph, sources, max_depth, config
        )


def _single(graph, sources, max_depth, config):
    (source,) = sources
    return SingleBFS(graph).run(source, max_depth=max_depth).depths


def _inprocess_executor(graph, sources, max_depth, config):
    with GroupExecutor(
        graph, config, exec_config=ExecConfig(num_workers=0)
    ) as executor:
        return executor.run(sources, max_depth=max_depth).depths


def _placement(**spec):
    def run(graph, sources, max_depth, config):
        substrate = make_substrate(
            SubstrateSpec(**spec), graph, engine_config=config
        )
        with substrate:
            return substrate.run(sources, max_depth=max_depth).depths

    return run


PRODUCERS = {
    "bitwise-numpy": _bitwise_numpy,
    "joint": _engine_depths(JointTraversal),
    "single": _single,
    "serial": _placement(kind="serial"),
    "partitioned": _placement(kind="partitioned", partitions=2),
    "executor-inprocess": _inprocess_executor,
    "stream": _placement(kind="stream"),
    # The TSan job deselects forking executors by this name.
    "forked_executor": _placement(kind="executor", workers=2),
}


def _check_rule(run):
    for n, max_depth, dtype in RULE_CASES:
        graph = path(n)
        depths = run(graph, [0], max_depth, CONFIG)
        expected = reference_bfs(graph, 0)
        if max_depth is not None:
            expected[expected > max_depth] = -1
        assert depths.dtype == dtype, (n, max_depth)
        assert np.array_equal(depths.reshape(-1), expected)


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_every_producer_applies_the_rule(producer):
    _check_rule(PRODUCERS[producer])


def test_compiled_bitwise_applies_the_rule(compiled):
    _check_rule(_engine_depths(BitwiseTraversal))


def _two_paths():
    """``path(300)`` beside ``path(50)``: from vertex 0 the deepest depth
    is 299 (int16), from vertex 300 it is 49 (int8)."""
    src = np.concatenate([np.arange(299), np.arange(300, 349)])
    return from_edge_arrays(
        src.astype(VERTEX_DTYPE), (src + 1).astype(VERTEX_DTYPE),
        num_vertices=350, undirected=True,
    )


@pytest.mark.parametrize(
    "producer",
    ["serial", "partitioned", "executor-inprocess", "stream",
     "forked_executor"],
)
def test_multi_group_results_stack_to_the_widest_group(producer):
    graph = _two_paths()
    assert IBFS(graph, CONFIG).run_group([300]).depths.dtype == np.int8
    # One source a group: an int8 group, then an int16 one.
    config = IBFSConfig(group_size=1, groupby=False)
    depths = PRODUCERS[producer](graph, [300, 0], None, config)
    assert depths.dtype == np.int16
    expected = np.stack([reference_bfs(graph, s) for s in (300, 0)])
    assert np.array_equal(depths, expected)


def test_repair_narrows_when_inserts_pull_the_deepest_depth_under():
    graph = path(122)
    old = IBFS(graph, CONFIG).run_group([0]).depths
    assert old.max() == INT8_DEPTH_MAX + 1 and old.dtype == np.int16
    batch = MutationBatch.make(
        graph.num_vertices,
        inserts=(np.array([0], dtype=VERTEX_DTYPE),
                 np.array([60], dtype=VERTEX_DTYPE)),
    )
    new_graph = apply_batch(graph, batch)
    repaired, _ = repair_depth_matrix(new_graph, batch, old)
    scratch = IBFS(new_graph, CONFIG).run_group([0]).depths
    assert repaired.dtype == scratch.dtype == np.int8
    assert np.array_equal(repaired, scratch)
