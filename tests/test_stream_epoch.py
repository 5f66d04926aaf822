"""Epoch store lifecycle, the frozen-snapshot immutability contract,
and the freeing of reclaimed epochs by reference counting."""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.errors import StreamError
from repro.exec import shm
from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import kronecker
from repro.service.cache import graph_cache_id
from repro.stream import EpochStore, MutationBatch, apply_batch


def small_graph(seed=3):
    return kronecker(scale=6, edge_factor=4, seed=seed)


class TestEpochLifecycle:
    def test_epoch_zero_is_the_base(self):
        base = small_graph()
        with EpochStore(base) as store:
            assert store.current_epoch == 0
            assert store.current.graph is base

    def test_publish_advances_epoch_and_reclaims_old(self):
        with EpochStore(small_graph()) as store:
            old = store.current
            store.overlay.insert_edges([0], [1])
            snap = store.publish()
            assert snap.epoch == 1
            assert store.current_epoch == 1
            assert store.current is snap
            # The replaced epoch is reclaimed on publish.
            assert old.graph is None
            assert store.reclaimed_epochs == 1

    def test_publish_without_pending_is_noop(self):
        with EpochStore(small_graph()) as store:
            snap = store.publish()
            assert snap.epoch == 0
            assert store.current_epoch == 0

    def test_each_epoch_gets_its_own_fingerprint(self):
        with EpochStore(small_graph()) as store:
            ids = {store.current.graph_id}
            for v in range(3):
                store.overlay.insert_edges([v], [v + 1])
                ids.add(store.publish().graph_id)
            assert len(ids) == 4

    def test_closed_store_refuses_use(self):
        store = EpochStore(small_graph())
        store.close()
        assert store.current.graph is None
        with pytest.raises(StreamError):
            store.publish()
        store.close()  # idempotent
        assert store.reclaimed_epochs == 1


def feed(store, batches):
    """Publish each ``(inserts, deletes)`` batch; returns the ids."""
    ids = []
    for inserts, deletes in batches:
        store.overlay.insert_edges(*inserts)
        store.overlay.delete_edges(*deletes)
        ids.append(store.publish().graph_id)
    return ids


LINEAGE_BATCHES = [
    (([0, 1], [5, 6]), ([], [])),
    (([2], [3]), ([0], [5])),
    (([], []), ([1], [6])),
    (([0, 1], [5, 6]), ([], [])),  # epoch 1's batch on another parent
]


class TestLineageIds:
    """Epochs after the base are named from their parent's id and the
    batch, in O(batch), instead of by a CRC over the new CSR."""

    def test_every_publish_gets_a_new_id(self):
        with EpochStore(small_graph()) as store:
            ids = [store.current.graph_id] + feed(store, LINEAGE_BATCHES)
            assert len(set(ids)) == len(ids)

    def test_stores_fed_the_same_batches_agree(self):
        with EpochStore(small_graph()) as a, EpochStore(small_graph()) as b:
            assert feed(a, LINEAGE_BATCHES) == feed(b, LINEAGE_BATCHES)

    @pytest.mark.parametrize(
        "batch, other",
        [
            pytest.param((([0], [5]), ([], [])), (([0], [6]), ([], [])),
                         id="inserts"),
            pytest.param((([], []), ([0], [5])), (([], []), ([0], [6])),
                         id="deletes"),
            pytest.param((([0], [5]), ([], [])), (([], []), ([0], [5])),
                         id="insert-or-delete"),
        ],
    )
    def test_ids_depend_on_the_batch(self, batch, other):
        with EpochStore(small_graph()) as a, EpochStore(small_graph()) as b:
            assert feed(a, [batch]) != feed(b, [other])

    def test_ids_depend_on_the_base(self):
        with EpochStore(small_graph(seed=3)) as a, \
                EpochStore(small_graph(seed=4)) as b:
            first = LINEAGE_BATCHES[:1]
            assert feed(a, first) != feed(b, first)

    def test_publish_runs_no_crc(self, monkeypatch):
        import repro.service.cache as cache

        calls = []
        crc32 = cache.zlib.crc32

        def counted(*args):
            calls.append(args)
            return crc32(*args)

        with EpochStore(small_graph()) as store:
            monkeypatch.setattr(cache.zlib, "crc32", counted)
            feed(store, LINEAGE_BATCHES)
            graph = store.current.graph
            assert graph_cache_id(graph) == store.current.graph_id
            monkeypatch.undo()
        assert calls == []

    def test_published_graph_is_frozen_under_its_id(self):
        base = small_graph()
        base.reverse()
        with EpochStore(base) as store:
            feed(store, LINEAGE_BATCHES[:2])
            graph = store.current.graph
            assert graph._cache_id == store.current.graph_id
            assert graph.frozen and graph.cached_reverse.frozen
            with pytest.raises(ValueError):
                graph.row_offsets[1] = 0


class TestFrozenSnapshots:
    """Satellite regression: a fingerprinted graph must refuse in-place
    mutation — the fingerprint is memoized forever, so silent mutation
    would serve stale cached depth rows keyed by the old content."""

    def test_fingerprinting_freezes_the_arrays(self):
        graph = small_graph(seed=8)
        assert not graph.frozen
        graph_cache_id(graph)
        assert graph.frozen
        with pytest.raises(ValueError):
            graph.col_indices[0] = 0
        with pytest.raises(ValueError):
            graph.row_offsets[1] = 99

    def test_freeze_covers_cached_degrees_and_reverse(self):
        graph = small_graph(seed=9)
        graph.out_degrees()
        graph.reverse()
        graph.freeze()
        with pytest.raises(ValueError):
            graph.out_degrees()[0] = 7
        with pytest.raises(ValueError):
            graph.reverse().col_indices[0] = 0

    def test_published_snapshots_are_frozen(self):
        with EpochStore(small_graph(seed=10)) as store:
            store.overlay.insert_edges([0], [2])
            snap = store.publish()
            assert snap.graph.frozen
            with pytest.raises(ValueError):
                snap.graph.col_indices[0] = 0

    def test_copy_of_frozen_graph_is_mutable(self):
        graph = small_graph(seed=11)
        graph_cache_id(graph)
        clone = graph.copy()
        assert not clone.frozen
        clone.col_indices[0] = 0  # fresh arrays, no fingerprint: fine

    def test_frozen_survives_pickle(self):
        import pickle

        graph = small_graph(seed=12)
        graph_cache_id(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.frozen
        assert clone._cache_id == graph._cache_id
        with pytest.raises(ValueError):
            clone.col_indices[0] = 0

    def test_unfingerprinted_graph_stays_writeable(self):
        graph = from_edge_arrays(
            np.asarray([0], dtype=VERTEX_DTYPE),
            np.asarray([1], dtype=VERTEX_DTYPE),
            num_vertices=2,
        )
        graph.col_indices[0] = 1  # never fingerprinted: still mutable
        assert not graph.frozen


@contextlib.contextmanager
def gc_disabled():
    """Run the block with the cyclic collector off, so only reference
    counting can free anything."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _linked_by_reverse(stack):
    graph = small_graph(seed=14)
    graph.reverse()
    return graph


def _linked_by_fold(stack):
    base = small_graph(seed=14)
    base.reverse()
    batch = MutationBatch.make(
        base.num_vertices, inserts=([0, 3], [1, 0]), deletes=([1], [2])
    )
    return apply_batch(base, batch)


def _linked_by_shm_attach(stack):
    handle = shm.publish_graph(small_graph(seed=14))
    stack.callback(shm.release_graph, handle)
    attached = shm.attach_graph(handle)
    stack.callback(attached.close)
    graph, attached.graph = attached.graph, None
    return graph


class TestEpochsFreedByRefcount:
    """A forward graph owns its reverse and the reverse points back
    weakly, so a superseded epoch is freed the moment the store
    reclaims it — no forward/reverse cycle waits for the cyclic
    collector."""

    @pytest.mark.parametrize(
        "link",
        [
            pytest.param(_linked_by_reverse, id="reverse"),
            pytest.param(_linked_by_fold, id="fold"),
            pytest.param(
                _linked_by_shm_attach,
                id="shm-attach",
                marks=pytest.mark.skipif(
                    not shm.shared_memory_available(),
                    reason="multiprocessing.shared_memory unavailable",
                ),
            ),
        ],
    )
    def test_reverse_holds_no_strong_reference_to_forward(self, link):
        with contextlib.ExitStack() as stack, gc_disabled():
            graph = link(stack)
            rev = graph.reverse()
            assert rev.reverse() is graph
            forward = weakref.ref(graph)
            del graph
            assert forward() is None
            del rev

    def test_reclaimed_epoch_is_freed_without_cyclic_gc(self):
        with gc_disabled():
            base = small_graph(seed=15)
            base.reverse()
            with EpochStore(base) as store:
                store.overlay.insert_edges([0], [1])
                graph = store.publish().graph
                fwd = weakref.ref(graph.col_indices)
                rev = weakref.ref(graph.reverse().col_indices)
                del graph
                assert fwd() is not None and rev() is not None
                store.overlay.insert_edges([1], [2])
                store.publish()  # reclaims epoch 1
                assert store.current_epoch == 2
                assert fwd() is None
                assert rev() is None

    def test_published_reverse_matches_rebuild_and_is_frozen(self):
        base = small_graph(seed=16)
        n = base.num_vertices
        rng = np.random.default_rng(16)
        with EpochStore(base) as store:
            # Serving builds the base reverse after the store has
            # fingerprinted the base, as the engine constructor does.
            assert base.reverse().frozen
            for step in range(4):
                store.overlay.insert_edges(
                    rng.integers(0, n, 6), rng.integers(0, n, 6)
                )
                if step % 2:
                    src, dst = store.current.graph.edge_array()
                    pick = rng.integers(0, src.size, 3)
                    store.overlay.delete_edges(src[pick], dst[pick])
                graph = store.publish().graph
                rev = graph.cached_reverse
                assert rev is not None and rev.frozen
                src, dst = graph.edge_array()
                want = from_edge_arrays(dst, src, num_vertices=n)
                assert np.array_equal(rev.row_offsets, want.row_offsets)
                assert np.array_equal(rev.col_indices, want.col_indices)
