"""Level-by-level differential: the compiled bitwise level vs numpy.

On arbitrary graphs (isolated vertices, self-loops, duplicate edges),
groups of 1-130 sources drawn with repeats (1-3 lanes), every planner
shape, the MS-BFS machine switches and ``max_depth``, the compiled level
(:class:`repro.native.LevelKernel`) and the numpy kernels must agree on
the depths, every ``LevelRecord``, the counters and the ``GroupStats``
(sharing, JFQ sizes, bottom-up inspections, plan), also when each
recorded plan is replayed.  Each path keeps one engine across an
example's groups and replays, so its level buffers are reused across
groups of one shape and rebuilt when the lane count changes.  The
same cases run again at 1, 2 and 4 level threads with the grain forced
to 1 and no edge floor, so every threaded phase of every level splits
into tasks (the graphs have at most 45 vertices, so at the real
settings nothing would).  Skips when the library does not load.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.native as native
from repro.bfs.reference import reference_bfs_multi
from repro.core.bitwise import BitwiseTraversal
from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.plan import AdaptivePolicy, FixedPolicy, HeuristicPolicy

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PLANNERS = {
    "default": HeuristicPolicy(),
    "no-earlyterm": HeuristicPolicy(early_termination=False),
    "vec2": HeuristicPolicy(vector_width=2),
    "vec4": HeuristicPolicy(vector_width=4),
    "per-group": HeuristicPolicy(direction_mode="per-group"),
    # Switches to bottom-up as soon as a frontier has any out-edge.
    "eager-bu": HeuristicPolicy(alpha=1e-9, beta=1e9),
    "fixed-bu": FixedPolicy(direction="bu"),
    "adaptive": AdaptivePolicy(),
}


@st.composite
def graphs(draw, max_vertices=40, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    loops = draw(st.lists(st.integers(0, n - 1), max_size=4))
    repeats = draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=6)) if m else []
    src = src + loops + [src[i] for i in repeats]
    dst = dst + loops + [dst[i] for i in repeats]
    isolated = draw(st.integers(min_value=0, max_value=5))
    return from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=n + isolated,
        undirected=draw(st.booleans()),
    )


@st.composite
def cases(draw):
    graph = draw(graphs())
    n = graph.num_vertices
    groups = draw(
        st.lists(
            st.integers(min_value=1, max_value=130).flatmap(
                lambda k: st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
            ),
            min_size=1,
            max_size=3,
        )
    )
    options = dict(
        planner=PLANNERS[draw(st.sampled_from(sorted(PLANNERS)))],
        reset_per_level=draw(st.booleans()),
        thread_per_instance=draw(st.booleans()),
    )
    max_depth = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    return graph, groups, options, max_depth


def _observed(run):
    depths, record, stats = run
    return (
        depths,
        dataclasses.asdict(record.counters),
        [dataclasses.astuple(level) for level in record.levels],
        stats,
        stats.plan,
    )


def _assert_same(native_run, numpy_run, label):
    a, b = _observed(native_run), _observed(numpy_run)
    assert np.array_equal(a[0], b[0]), f"{label}: depths"
    for name, x, y in zip(("counters", "levels", "stats", "plan"), a[1:], b[1:]):
        assert x == y, f"{label}: {name}\n{x}\n{y}"


def _differential(case):
    graph, groups, options, max_depth = case
    native_engine = BitwiseTraversal(graph, **options)
    numpy_engine = BitwiseTraversal(graph, **options)
    for i, sources in enumerate(groups):
        compiled = native_engine.run_group(sources, max_depth=max_depth)
        assert isinstance(native_engine._workspace, native.LevelKernel)
        with native.force_backend("off"):
            reference = numpy_engine.run_group(sources, max_depth=max_depth)
        _assert_same(compiled, reference, f"group {i}")
        if max_depth is None:
            assert np.array_equal(
                compiled[0], reference_bfs_multi(graph, sources)
            )
        plan = compiled[2].plan
        if not len(plan):
            continue  # max_depth=0 executes no level
        replayed = native_engine.run_group(sources, max_depth=max_depth, plan=plan)
        with native.force_backend("off"):
            numpy_replayed = numpy_engine.run_group(
                sources, max_depth=max_depth, plan=plan
            )
        _assert_same(replayed, compiled, f"group {i} native replay")
        _assert_same(numpy_replayed, compiled, f"group {i} numpy replay")


@pytest.mark.usefixtures("compiled")
@SETTINGS
@given(cases())
def test_compiled_level_matches_numpy(case):
    _differential(case)


@pytest.mark.usefixtures("compiled")
@pytest.mark.parametrize("threads", [1, 2, 4])
@SETTINGS
@given(case=cases())
def test_threaded_level_matches_numpy(threads, case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "LEVEL_THREADS", threads)
        patch.setattr(native, "LEVEL_GRAIN", 1)
        patch.setattr(native, "LEVEL_MIN_EDGES", 0)
        _differential(case)
