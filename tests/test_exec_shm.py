"""Shared-memory graph publication: round trips, refcounts, transport."""

import numpy as np
import pytest

from repro.graph.generators import kronecker
from repro.bfs.reference import reference_bfs
from repro.exec.shm import (
    attach_graph,
    discard_array,
    pop_array,
    publish_graph,
    published_refcount,
    push_array,
    release_graph,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


class TestPublishAttach:
    def test_round_trip_preserves_structure(self, graph):
        handle = publish_graph(graph)
        try:
            attached = attach_graph(handle)
            try:
                g = attached.graph
                assert g.num_vertices == graph.num_vertices
                assert g.num_edges == graph.num_edges
                assert np.array_equal(g.row_offsets, graph.row_offsets)
                assert np.array_equal(g.col_indices, graph.col_indices)
            finally:
                attached.close()
        finally:
            release_graph(handle)

    def test_attached_traversal_matches(self, graph):
        handle = publish_graph(handle_graph := graph)
        try:
            with attach_graph(handle) as attached:
                assert np.array_equal(
                    reference_bfs(attached.graph, 0),
                    reference_bfs(handle_graph, 0),
                )
        finally:
            release_graph(handle)

    def test_caches_preinstalled(self, graph):
        handle = publish_graph(graph)
        try:
            with attach_graph(handle) as attached:
                g = attached.graph
                # Outdegrees, fingerprint, and the reverse CSR all ride
                # along — nothing O(|E|) is recomputed in the worker.
                assert g._cache_id == handle.graph_id
                assert np.array_equal(g.out_degrees(), graph.out_degrees())
                assert handle.has_reverse
                rev = g.reverse()
                expected = graph.reverse()
                assert np.array_equal(rev.row_offsets, expected.row_offsets)
                assert np.array_equal(rev.col_indices, expected.col_indices)
        finally:
            release_graph(handle)

    def test_arrays_read_only(self, graph):
        handle = publish_graph(graph)
        try:
            with attach_graph(handle) as attached:
                with pytest.raises(ValueError):
                    attached.graph.row_offsets[0] = 99
        finally:
            release_graph(handle)


class TestRefcounting:
    def test_republish_shares_segments(self, graph):
        assert published_refcount(graph) == 0
        h1 = publish_graph(graph)
        h2 = publish_graph(graph)
        assert h1 is h2
        assert published_refcount(graph) == 2
        release_graph(h1)
        assert published_refcount(graph) == 1
        # Still attachable while one reference remains.
        with attach_graph(h2) as attached:
            assert attached.graph.num_vertices == graph.num_vertices
        release_graph(h2)
        assert published_refcount(graph) == 0

    def test_release_unlinks_segments(self, graph):
        handle = publish_graph(graph)
        release_graph(handle)
        with pytest.raises(FileNotFoundError):
            attach_graph(handle)

    def test_over_release_is_harmless(self, graph):
        handle = publish_graph(graph)
        release_graph(handle)
        release_graph(handle)
        assert published_refcount(graph) == 0


class TestArrayTransport:
    def test_push_pop_round_trip(self):
        arr = np.arange(24, dtype=np.int32).reshape(4, 6)
        spec = push_array(arr)
        out = pop_array(spec)
        assert np.array_equal(out, arr)
        assert out.dtype == arr.dtype

    def test_pop_unlinks(self):
        spec = push_array(np.ones(8, dtype=np.int32))
        pop_array(spec)
        with pytest.raises(FileNotFoundError):
            pop_array(spec)

    def test_discard_without_reading(self):
        spec = push_array(np.ones(8, dtype=np.int32))
        discard_array(spec)
        with pytest.raises(FileNotFoundError):
            pop_array(spec)

    def test_discard_twice_is_harmless(self):
        spec = push_array(np.ones(4, dtype=np.int32))
        discard_array(spec)
        discard_array(spec)
