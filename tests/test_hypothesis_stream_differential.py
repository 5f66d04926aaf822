"""Differential property tests for the dynamic-graph layer.

Two equivalences pinned on arbitrary random graphs and mutation
batches:

* **Compaction** — folding a batch through
  :func:`repro.stream.overlay.apply_batch` is bit-identical to
  rebuilding the equivalent edge list from scratch with the stable
  :func:`~repro.graph.builders.from_edge_arrays` builder.
* **Repair** — for insert-only batches, patching a cached depth matrix
  with :func:`~repro.stream.repair.repair_depth_matrix` is
  bit-identical to re-running BFS from scratch on the post-mutation
  graph, with and without a ``max_depth`` cap, and regardless of the
  execution substrate (serial engine, partitioned engine, worker
  pool): the deterministic cross-backend checks live at the bottom.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.stream import MutationBatch, apply_batch, repair_depth_matrix

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mutation_cases(draw, max_vertices=24, max_edges=60, max_batch=16):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    graph = from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=n,
    )
    ni = draw(st.integers(min_value=0, max_value=max_batch))
    inserts = (
        np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=ni,
                                 max_size=ni)), dtype=VERTEX_DTYPE),
        np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=ni,
                                 max_size=ni)), dtype=VERTEX_DTYPE),
    )
    nd = draw(st.integers(min_value=0, max_value=max_batch))
    # Deletes mix real edges (sampled from the graph) with arbitrary
    # pairs that may not exist — both must behave.
    dsrc, ddst = [], []
    for _ in range(nd):
        if m and draw(st.booleans()):
            idx = draw(st.integers(0, m - 1))
            dsrc.append(src[idx])
            ddst.append(dst[idx])
        else:
            dsrc.append(draw(st.integers(0, n - 1)))
            ddst.append(draw(st.integers(0, n - 1)))
    deletes = (
        np.asarray(dsrc, dtype=VERTEX_DTYPE),
        np.asarray(ddst, dtype=VERTEX_DTYPE),
    )
    return graph, inserts, deletes


def reference_fold(graph, inserts, deletes):
    n = graph.num_vertices
    src, dst = graph.edge_array()
    keys = src * np.int64(n) + dst
    dkeys = deletes[0] * np.int64(n) + deletes[1]
    keep = ~np.isin(keys, dkeys)
    src = np.concatenate([src[keep], inserts[0]])
    dst = np.concatenate([dst[keep], inserts[1]])
    return from_edge_arrays(src, dst, num_vertices=n)


def assert_same_csr(got, want):
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_indices, want.col_indices)
    assert got.row_offsets.dtype == want.row_offsets.dtype
    assert got.col_indices.dtype == want.col_indices.dtype


@SETTINGS
@given(mutation_cases(), st.booleans())
def test_apply_batch_matches_scratch_rebuild(case, with_reverse):
    graph, inserts, deletes = case
    if with_reverse:
        graph.reverse()
    batch = MutationBatch.make(
        graph.num_vertices, inserts=inserts, deletes=deletes
    )
    folded = apply_batch(graph, batch)
    ref = reference_fold(graph, inserts, deletes)
    assert_same_csr(folded, ref)
    if with_reverse:
        # The fold carries the reverse along; it must equal an
        # independent transpose of the rebuilt edge list.
        assert folded.cached_reverse is not None
        ref_src, ref_dst = ref.edge_array()
        assert_same_csr(
            folded.cached_reverse,
            from_edge_arrays(ref_dst, ref_src, num_vertices=graph.num_vertices),
        )
    else:
        assert folded.cached_reverse is None


@st.composite
def repair_cases(draw, max_vertices=20, max_edges=50, max_inserts=10):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    graph = from_edge_arrays(
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        num_vertices=n,
    )
    ni = draw(st.integers(min_value=0, max_value=max_inserts))
    inserts = (
        np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=ni,
                                 max_size=ni)), dtype=VERTEX_DTYPE),
        np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=ni,
                                 max_size=ni)), dtype=VERTEX_DTYPE),
    )
    k = draw(st.integers(min_value=1, max_value=min(5, n)))
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    )
    max_depth = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=6))
    )
    return graph, inserts, sources, max_depth


@SETTINGS
@given(repair_cases())
def test_repair_matches_scratch_traversal(case):
    graph, inserts, sources, max_depth = case
    old = IBFS(graph, IBFSConfig(group_size=len(sources))).run_group(
        sources, max_depth=max_depth
    ).depths
    batch = MutationBatch.make(graph.num_vertices, inserts=inserts)
    new_graph = apply_batch(graph, batch)
    repaired, _ = repair_depth_matrix(
        new_graph, batch, old, max_depth=max_depth
    )
    scratch = IBFS(
        new_graph, IBFSConfig(group_size=len(sources))
    ).run_group(sources, max_depth=max_depth).depths
    assert repaired.dtype == scratch.dtype
    assert np.array_equal(repaired, scratch)


class TestRepairAcrossBackends:
    """The repaired matrix equals a from-scratch run on *every*
    execution substrate, not just the serial engine — deterministic
    (non-hypothesis) because the heavier backends dominate runtime."""

    @pytest.fixture(scope="class")
    def fixture(self):
        base = kronecker(scale=7, edge_factor=6, seed=21)
        n = base.num_vertices
        sources = list(range(12))
        old = IBFS(base, IBFSConfig(group_size=12)).run_group(
            sources
        ).depths
        rng = np.random.default_rng(3)
        batch = MutationBatch.make(
            n,
            inserts=(rng.integers(0, n, 10, dtype=VERTEX_DTYPE),
                     rng.integers(0, n, 10, dtype=VERTEX_DTYPE)),
        )
        new_graph = apply_batch(base, batch)
        repaired, _ = repair_depth_matrix(new_graph, batch, old)
        return new_graph, sources, repaired

    def test_matches_serial_backend(self, fixture):
        new_graph, sources, repaired = fixture
        scratch = IBFS(
            new_graph, IBFSConfig(group_size=len(sources))
        ).run_group(sources).depths
        assert np.array_equal(repaired, scratch)

    def test_matches_partitioned_backend(self, fixture):
        from repro.dist.engine import DistConfig, PartitionedEngine

        new_graph, sources, repaired = fixture
        for layout in ("1d", "2d"):
            engine = PartitionedEngine(
                new_graph,
                DistConfig(
                    num_partitions=2,
                    layout=layout,
                    group_size=len(sources),
                ),
            )
            try:
                scratch = engine.run_group(sources).depths
            finally:
                engine.close()
            assert np.array_equal(repaired, scratch)

    def test_matches_executor_backend(self, fixture):
        from repro.exec import ExecConfig, GroupExecutor

        new_graph, sources, repaired = fixture
        with GroupExecutor(
            new_graph,
            IBFSConfig(group_size=len(sources)),
            exec_config=ExecConfig(num_workers=2),
        ) as executor:
            scratch = executor.run_group(sources).depths
        assert np.array_equal(repaired, scratch)
