"""Partitioning invariants: 1D/2D blocks must tile the graph exactly.

Every downstream bit-identity guarantee of :mod:`repro.dist` rests on
two structural facts checked here — the edge blocks partition the edge
set and the owner ranges partition the vertex set.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.generators import kronecker, rmat
from repro.dist.partition import (
    GraphPartitioner,
    check_partition_cover,
    grid_shape,
)


@pytest.fixture(scope="module")
def graph():
    return rmat(scale=8, edge_factor=6, seed=5)


class TestGridShape:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1, (1, 1)),
            (2, (1, 2)),
            (4, (2, 2)),
            (6, (2, 3)),
            (8, (2, 4)),
            (9, (3, 3)),
            (12, (3, 4)),
            (7, (1, 7)),  # primes fall back to a single grid row
        ],
    )
    def test_rows_times_cols(self, p, expected):
        assert grid_shape(p) == expected
        rows, cols = grid_shape(p)
        assert rows * cols == p
        assert rows <= cols

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            grid_shape(0)


class TestPartitionerValidation:
    def test_rejects_bad_layout(self, graph):
        with pytest.raises(GraphError):
            GraphPartitioner(graph, 2, layout="3d")

    def test_rejects_bad_balance(self, graph):
        with pytest.raises(GraphError):
            GraphPartitioner(graph, 2, balance="degrees")

    def test_rejects_nonpositive_partitions(self, graph):
        with pytest.raises(GraphError):
            GraphPartitioner(graph, 0)


@pytest.mark.parametrize("layout", ["1d", "2d"])
@pytest.mark.parametrize("num_partitions", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("balance", ["edges", "vertices"])
class TestCover:
    def test_blocks_tile_graph(self, graph, layout, num_partitions, balance):
        pset = GraphPartitioner(
            graph, num_partitions, layout=layout, balance=balance
        ).build()
        check_partition_cover(graph, pset)
        assert pset.num_partitions == num_partitions
        assert pset.rows * pset.cols == num_partitions
        # Each block's rows are its source band; every kept column id
        # lies inside the block's destination band.
        for p in pset.parts:
            assert p.src_size == p.row_offsets.shape[0] - 1
            if p.col_indices.size:
                assert p.col_indices.min() >= p.dst_start
                assert p.col_indices.max() < p.dst_stop

    def test_every_edge_exactly_once(
        self, graph, layout, num_partitions, balance
    ):
        pset = GraphPartitioner(
            graph, num_partitions, layout=layout, balance=balance
        ).build()
        # Reconstruct (src, dst) pairs from all blocks and compare to
        # the graph's own edge list as sorted multisets.
        srcs, dsts = [], []
        for p in pset.parts:
            counts = np.diff(p.row_offsets)
            srcs.append(
                np.repeat(
                    np.arange(p.src_start, p.src_stop, dtype=np.int64),
                    counts,
                )
            )
            dsts.append(np.asarray(p.col_indices, dtype=np.int64))
        got = np.stack([np.concatenate(srcs), np.concatenate(dsts)])
        ro, ci = graph.row_offsets, graph.col_indices
        want = np.stack(
            [
                np.repeat(
                    np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(ro),
                ),
                np.asarray(ci, dtype=np.int64),
            ]
        )
        order_got = np.lexsort(got[::-1])
        order_want = np.lexsort(want[::-1])
        assert np.array_equal(got[:, order_got], want[:, order_want])


class TestOwnership:
    def test_owner_ranges_refine_row_bands(self, graph):
        pset = GraphPartitioner(graph, 4, layout="2d").build()
        for p in pset.parts:
            assert p.src_start <= p.own_start <= p.own_stop <= p.src_stop
        assert int(pset.own_bounds[0]) == 0
        assert int(pset.own_bounds[-1]) == graph.num_vertices

    def test_owner_of_and_grid_row_of(self, graph):
        pset = GraphPartitioner(graph, 4, layout="2d").build()
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        owners = pset.owner_of(vertices)
        rows = pset.grid_row_of(vertices)
        for v in (0, 1, graph.num_vertices // 2, graph.num_vertices - 1):
            p = pset.parts[int(owners[v])]
            assert p.own_start <= v < p.own_stop
            assert p.row == int(rows[v])

    def test_vertices_balance_splits_evenly(self, graph):
        pset = GraphPartitioner(
            graph, 4, layout="1d", balance="vertices"
        ).build()
        sizes = [p.own_size for p in pset.parts]
        assert max(sizes) - min(sizes) <= 1

    def test_edges_balance_bounds_block_weight(self, graph):
        """Edge balancing keeps the heaviest 1D partition within a
        small factor of the mean (rmat is skewed but scale-8 ranges are
        wide enough to split well)."""
        pset = GraphPartitioner(
            graph, 4, layout="1d", balance="edges"
        ).build()
        weights = [p.num_local_edges + p.src_size for p in pset.parts]
        assert max(weights) <= 2.0 * (sum(weights) / len(weights))


class TestDenseBytes:
    def test_1d_dense_cost_is_words_for_every_vertex_per_block(self, graph):
        # Under 1d each block's destination band is the whole vertex
        # set, so a dense exchange ships one word per vertex per block.
        for p in (1, 2, 4):
            pset = GraphPartitioner(graph, p, layout="1d").build()
            assert (
                pset.dense_bytes_per_level() == 8 * graph.num_vertices * p
            )

    def test_2d_dense_cost_counts_band_overlaps_once(self, graph):
        pset = GraphPartitioner(graph, 4, layout="2d").build()
        total = 0
        for p in pset.parts:
            for q in pset.parts:
                lo = max(p.dst_start, q.own_start)
                hi = min(p.dst_stop, q.own_stop)
                total += 8 * max(0, hi - lo)
        assert pset.dense_bytes_per_level() == total
        # Column bands cover only part of the vertex set per block, so
        # 2d is strictly cheaper than 1d's full broadcast.
        assert pset.dense_bytes_per_level() < 8 * graph.num_vertices * 4


class TestCoverAudit:
    def test_mismatched_graph_fails_audit(self, graph):
        other = kronecker(scale=7, edge_factor=6, seed=6)
        pset = GraphPartitioner(graph, 2).build()
        with pytest.raises(GraphError):
            check_partition_cover(other, pset)

