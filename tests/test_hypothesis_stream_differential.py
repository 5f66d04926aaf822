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
  graph, dtype included, with and without a ``max_depth`` cap, also
  when the inserts pull the deepest depth across the int8 rung, and
  regardless of the execution substrate (serial engine, partitioned
  engine, worker pool): the deterministic cross-backend checks live at
  the bottom.
* **Serving swaps** — across insert-only batches with cache hits in
  between, a dynamic server's cached rows equal a scratch traversal of
  the current epoch after every swap; a row the batch did not change
  is carried as the same array with its memoized answers, and the
  swap's record equals that of a dense repair of every cached row.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import kronecker, path
from repro.core.engine import IBFS, IBFSConfig
from repro.core.result import INT8_DEPTH_MAX
from repro.bfs.reference import reference_bfs
from repro.service import ServingConfig
from repro.service.request import Request
from repro.stream import (
    DynamicBFSServer,
    MutationBatch,
    apply_batch,
    repair_depth_matrix,
)
from repro.stream.repair import REPAIR, RepairConfig

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


@st.composite
def rung_repair_cases(draw, max_inserts=3):
    """A path whose deepest depth from vertex 0 sits just past the int8
    rung, and inserts that may pull it back under."""
    n = draw(st.integers(INT8_DEPTH_MAX + 2, INT8_DEPTH_MAX + 12))
    ni = draw(st.integers(min_value=1, max_value=max_inserts))
    endpoints = st.lists(st.integers(0, n - 1), min_size=ni, max_size=ni)
    inserts = (
        np.asarray(draw(endpoints), dtype=VERTEX_DTYPE),
        np.asarray(draw(endpoints), dtype=VERTEX_DTYPE),
    )
    others = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True))
    max_depth = draw(
        st.one_of(st.none(), st.integers(INT8_DEPTH_MAX - 2, n))
    )
    return path(n), inserts, [0] + others, max_depth


def _check_repair(case):
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


@SETTINGS
@given(repair_cases())
def test_repair_matches_scratch_traversal(case):
    _check_repair(case)


@SETTINGS
@given(rung_repair_cases())
def test_repair_across_the_int8_rung_matches_scratch_traversal(case):
    _check_repair(case)


@st.composite
def serving_swap_cases(draw, max_vertices=20, max_edges=40, max_batches=4):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    graph = from_edge_arrays(
        np.asarray(draw(ends), dtype=VERTEX_DTYPE),
        np.asarray(draw(ends), dtype=VERTEX_DTYPE),
        num_vertices=n,
    )
    sources = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(6, n),
                 unique=True)
    )
    # One or two depth limits: each is its own repair bucket.
    limits = draw(
        st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1,
                 max_size=2, unique=True)
    )
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_batches))):
        ni = draw(st.integers(min_value=1, max_value=4))
        batch_ends = st.lists(st.integers(0, n - 1), min_size=ni,
                              max_size=ni)
        batches.append((draw(batch_ends), draw(batch_ends)))
    return graph, sources, limits, batches


def kinds(max_depth):
    """The request kinds a depth limit admits: closeness needs a full
    traversal."""
    return ("bfs", "closeness") if max_depth is None else ("bfs",)


def scratch_row(graph, source, max_depth):
    row = reference_bfs(graph, source)
    if max_depth is not None:
        row[row > max_depth] = -1
    return row


@contextlib.contextmanager
def counting_count_nonzero():
    calls = []
    original = np.count_nonzero

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    np.count_nonzero = counted
    try:
        yield calls
    finally:
        np.count_nonzero = original


def dense_repair(graph, batch, cached):
    """Every cached row repaired, one stacked matrix per depth limit:
    ``({key: row}, total rounds)``."""
    buckets = {}
    for key in cached:
        buckets.setdefault(key[3], []).append(key)
    rows, total = {}, 0
    for max_depth, keys in buckets.items():
        fixed, rounds = repair_depth_matrix(
            graph, batch, np.stack([cached[k] for k in keys]),
            max_depth=max_depth,
        )
        rows.update(zip(keys, fixed))
        total += rounds
    return rows, total


@SETTINGS
@given(serving_swap_cases())
def test_swaps_repair_changed_rows_and_carry_the_rest(case):
    graph, sources, limits, batches = case
    n = graph.num_vertices
    server = DynamicBFSServer(
        graph,
        ServingConfig(batch_size=4, cache_capacity=256, return_depths=True),
        repair_config=RepairConfig(max_seed_fraction=1.0),
    )
    with server:
        for inserts in batches:
            # Two rounds: misses fill the cache, hits memoize each row's
            # answers beside it.
            for _ in range(2):
                for s in sources:
                    for max_depth in limits:
                        for kind in kinds(max_depth):
                            server.submit(Request(source=s, kind=kind,
                                                  max_depth=max_depth))
                server.drain()
            cached = dict(server.cache.items())
            batch = MutationBatch.make(n, inserts=inserts)
            dense, dense_rounds = dense_repair(
                apply_batch(server.graph, batch), batch, cached
            )
            record = server.mutate(inserts=inserts)
            if record.decision != REPAIR:
                assert len(server.cache) == 0
                continue
            assert record.rows_repaired == len(cached)
            assert record.repair_rounds == dense_rounds
            after = dict(server.cache.items())
            assert len(after) == len(cached)
            for key, old_row in cached.items():
                new_key = (server.substrate.epochs.current.graph_id,) + key[1:]
                row = after[new_key]
                want = scratch_row(server.graph, key[1], key[3])
                assert np.array_equal(row, want)
                assert np.array_equal(row, dense[key])
                assert not row.flags.writeable
                if not np.array_equal(old_row, want):
                    continue
                assert row is old_row
                with counting_count_nonzero() as calls:
                    for kind in kinds(key[3]):
                        server.submit(Request(source=key[1], kind=kind,
                                              max_depth=key[3]))
                assert calls == []
            for response in server.drain():
                assert response.cached


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
                DistConfig(num_partitions=2, layout=layout),
                IBFSConfig(group_size=len(sources)),
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
