"""Long traversals cross the vertex-major depth matrix's dtype rungs.

``BitwiseTraversal`` keeps depths in int8 until level 120 and widens
them to int16 there (int32 past level 32000).  A 300-vertex path and a
128 x 128 grid run 300 and 255 levels, so both cross the first rung.  On
each path (compiled level and numpy kernels) the depths must equal the
reference BFS, and the two paths must give equal counters and level
records.  The same holds for a group wider than 64 lanes.
"""

import dataclasses

import numpy as np
import pytest

import repro.native as native
from repro.bfs.reference import reference_bfs
from repro.core.bitwise import BitwiseTraversal
from repro.graph.generators import grid_2d, path, rmat

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
