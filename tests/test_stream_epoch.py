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
