"""Edge-list / adjacency builders and graph transforms."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.builders import (
    from_adjacency,
    from_edge_arrays,
    from_edges,
    relabel_random,
    simplify,
    subgraph,
    to_undirected,
)
from repro.bfs.reference import reference_bfs


class TestFromEdges:
    def test_simple(self):
        g = from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_empty(self):
        g = from_edges([])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_explicit_vertex_count(self):
        g = from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10

    def test_vertex_count_too_small_rejected(self):
        with pytest.raises(GraphError):
            from_edges([(0, 5)], num_vertices=3)

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphError):
            from_edges([(-1, 0)])

    def test_undirected_doubles_edges(self):
        g = from_edges([(0, 1), (1, 2)], undirected=True)
        assert g.num_edges == 4
        assert g.is_symmetric()

    def test_multi_edges_preserved(self):
        g = from_edges([(0, 1), (0, 1), (0, 1)])
        assert g.num_edges == 3
        assert g.out_degree(0) == 3

    def test_self_loops_preserved(self):
        g = from_edges([(2, 2)])
        assert g.has_edge(2, 2)

    def test_edge_order_preserved_per_source(self):
        g = from_edges([(1, 9), (0, 5), (1, 3), (0, 2)], num_vertices=10)
        assert g.neighbors(0).tolist() == [5, 2]
        assert g.neighbors(1).tolist() == [9, 3]


class TestFromEdgeArrays:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            from_edge_arrays(np.asarray([0, 1]), np.asarray([1]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(GraphError):
            from_edge_arrays(np.zeros((2, 2)), np.zeros((2, 2)))

    # One 16-bit sort key up to 2**16 vertices, two above.
    @pytest.mark.parametrize("num_vertices", [1, 300, 1 << 16, (1 << 16) + 1, 200_000])
    def test_rows_keep_input_edge_order(self, num_vertices):
        rng = np.random.default_rng(num_vertices)
        src = rng.integers(0, num_vertices, size=50_000)
        src[:2] = [0, num_vertices - 1]
        dst = rng.integers(0, num_vertices, size=50_000)
        graph = from_edge_arrays(src, dst, num_vertices=num_vertices)
        order = np.argsort(src.astype(np.int64), kind="stable")
        np.testing.assert_array_equal(graph.col_indices, dst[order])
        np.testing.assert_array_equal(
            graph.row_offsets,
            np.concatenate([[0], np.cumsum(np.bincount(src, minlength=num_vertices))]),
        )


class TestFromAdjacency:
    def test_round_trip(self):
        adj = [[1, 2], [2], [], [0]]
        g = from_adjacency(adj)
        assert [g.neighbors(v).tolist() for v in range(4)] == adj

    def test_all_empty(self):
        g = from_adjacency([[], [], []])
        assert g.num_vertices == 3
        assert g.num_edges == 0


class TestTransforms:
    def test_to_undirected_symmetrizes(self):
        g = to_undirected(from_edges([(0, 1), (2, 1)]))
        assert g.is_symmetric()
        assert g.num_edges == 4

    def test_relabel_preserves_depth_multiset(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], undirected=True
        )
        relabeled = relabel_random(g, seed=5)
        original = sorted(reference_bfs(g, 0).tolist())
        # BFS from the relabeled image of vertex 0.
        depths = [sorted(reference_bfs(relabeled, s).tolist()) for s in range(5)]
        assert original in depths

    def test_subgraph_induces_edges(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = subgraph(g, [0, 1, 3])
        assert sub.num_vertices == 3
        assert sorted(sub.edges()) == [(0, 1), (0, 2)]

    def test_subgraph_duplicate_vertices_rejected(self):
        g = from_edges([(0, 1)])
        with pytest.raises(GraphError):
            subgraph(g, [0, 0])

    def test_simplify_collapses_parallels_and_loops(self):
        g = from_edges([(0, 1), (0, 1), (1, 1), (1, 2)], num_vertices=3)
        simple = simplify(g)
        assert sorted(simple.edges()) == [(0, 1), (1, 2)]

    def test_simplify_can_keep_self_loops(self):
        g = from_edges([(0, 0), (0, 0), (0, 1)])
        simple = simplify(g, remove_self_loops=False)
        assert sorted(simple.edges()) == [(0, 0), (0, 1)]

    def test_simplify_preserves_vertex_count(self):
        g = from_edges([(0, 1)], num_vertices=7)
        assert simplify(g).num_vertices == 7

    def test_simplify_empty_graph(self):
        from repro.graph.csr import empty_graph

        assert simplify(empty_graph(3)).num_vertices == 3
