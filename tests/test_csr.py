"""CSRGraph structure, validation, and neighborhood access."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE, empty_graph
from repro.graph.builders import from_edge_arrays, from_edges
from repro.graph.generators import kronecker


@pytest.fixture
def triangle():
    return from_edges([(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_basic_shape(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert len(triangle) == 3

    def test_average_degree(self, triangle):
        assert triangle.average_degree == pytest.approx(1.0)

    def test_empty_graph(self):
        g = empty_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.average_degree == 0.0

    def test_zero_vertex_graph(self):
        g = empty_graph(0)
        assert g.num_vertices == 0
        assert g.average_degree == 0.0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            empty_graph(-1)

    def test_repr_mentions_sizes(self, triangle):
        assert "num_vertices=3" in repr(triangle)
        assert "num_edges=3" in repr(triangle)


class TestValidation:
    def test_offsets_must_start_at_zero(self):
        with pytest.raises(GraphError, match="start at 0"):
            CSRGraph(np.asarray([1, 2]), np.asarray([0, 0]))

    def test_offsets_must_end_at_edge_count(self):
        with pytest.raises(GraphError, match="end at"):
            CSRGraph(np.asarray([0, 5]), np.asarray([0]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(GraphError, match="non-decreasing"):
            CSRGraph(np.asarray([0, 2, 1, 3]), np.asarray([0, 1, 2]))

    def test_edge_targets_must_be_in_range(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph(np.asarray([0, 1]), np.asarray([7]))

    def test_negative_targets_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            CSRGraph(np.asarray([0, 1]), np.asarray([-1]))

    def test_offsets_must_be_one_dimensional(self):
        with pytest.raises(GraphError):
            CSRGraph(np.zeros((2, 2)), np.asarray([0]))


class TestNeighbors:
    def test_neighbors_in_insertion_order(self):
        g = from_edges([(0, 3), (0, 1), (0, 2)])
        assert g.neighbors(0).tolist() == [3, 1, 2]

    def test_out_degree(self, triangle):
        assert triangle.out_degree(0) == 1
        assert triangle.out_degrees().tolist() == [1, 1, 1]

    def test_vertex_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            triangle.neighbors(3)
        with pytest.raises(GraphError):
            triangle.out_degree(-1)

    def test_edges_iterator(self, triangle):
        assert sorted(triangle.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_edge_array_round_trip(self, triangle):
        src, dst = triangle.edge_array()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(triangle.edges())

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)


class TestReverse:
    def test_reverse_swaps_edges(self, triangle):
        rev = triangle.reverse()
        assert sorted(rev.edges()) == [(0, 2), (1, 0), (2, 1)]

    def test_reverse_of_reverse_is_original_object(self, triangle):
        assert triangle.reverse().reverse() is triangle

    def test_in_neighbors(self, triangle):
        assert triangle.in_neighbors(1).tolist() == [0]
        assert triangle.in_degree(1) == 1

    def test_reverse_preserves_multiplicity(self):
        g = from_edges([(0, 1), (0, 1)])
        assert g.reverse().out_degree(1) == 2


def _edge_graph(edges, num_vertices):
    src = np.asarray([u for u, _ in edges], dtype=VERTEX_DTYPE)
    dst = np.asarray([v for _, v in edges], dtype=VERTEX_DTYPE)
    return from_edge_arrays(src, dst, num_vertices=num_vertices)


class TestBuildReverse:
    """The one-key-sort transpose equals an independent stable rebuild
    of the swapped edge list: rows ascending by source."""

    @pytest.mark.parametrize(
        "graph",
        [
            _edge_graph([(2, 1), (0, 1), (2, 1), (1, 0), (0, 1), (2, 0)], 3),
            _edge_graph([(1, 1), (0, 0), (1, 0), (0, 0), (1, 1)], 2),
            _edge_graph([(4, 0), (0, 4), (4, 0)], 7),
            _edge_graph([], 4),
            empty_graph(0),
            kronecker(scale=6, edge_factor=8, seed=5),
        ],
        ids=["multi-edges", "self-loops", "isolated", "no-edges",
             "no-vertices", "kronecker"],
    )
    def test_matches_independent_rebuild(self, graph):
        src, dst = graph.edge_array()
        want = from_edge_arrays(dst, src, num_vertices=graph.num_vertices)
        got = graph._build_reverse()
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_indices, want.col_indices)
        assert got.row_offsets.dtype == want.row_offsets.dtype
        assert got.col_indices.dtype == want.col_indices.dtype

    def test_reverse_of_frozen_graph_is_frozen(self, triangle):
        triangle.freeze()
        assert triangle.reverse().frozen


class TestPredicatesAndCopies:
    def test_is_symmetric_true_for_undirected(self):
        g = from_edges([(0, 1), (1, 2)], undirected=True)
        assert g.is_symmetric()

    def test_is_symmetric_false_for_directed(self, triangle):
        assert not triangle.is_symmetric()

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        assert clone == triangle
        clone.col_indices[0] = 2
        assert clone != triangle

    def test_equality_against_other_types(self, triangle):
        assert triangle != "not a graph"

    def test_memory_bytes_counts_both_arrays(self, triangle):
        assert triangle.memory_bytes() == 8 * (4 + 3)
