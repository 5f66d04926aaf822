"""Incremental repair: cost model decisions and bit-identity to scratch."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.graph.builders import from_edge_arrays
from repro.graph.csr import VERTEX_DTYPE
from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.stream import (
    GraphOverlay,
    MutationBatch,
    NOOP,
    RECOMPUTE,
    REPAIR,
    RepairConfig,
    plan_repair,
    repair_depth_matrix,
)


def line_graph(n):
    src = np.arange(n - 1, dtype=VERTEX_DTYPE)
    return from_edge_arrays(src, src + 1, num_vertices=n)


def depths_for(graph, sources, max_depth=None):
    return IBFS(graph, IBFSConfig(group_size=len(sources))).run_group(
        sources, max_depth=max_depth
    ).depths


class TestPlanRepair:
    def test_empty_batch_is_noop(self):
        graph = kronecker(scale=5, edge_factor=4, seed=1)
        plan = plan_repair(MutationBatch.make(graph.num_vertices), graph)
        assert plan.decision == NOOP

    def test_deletes_force_recompute(self):
        graph = kronecker(scale=5, edge_factor=4, seed=1)
        batch = MutationBatch.make(
            graph.num_vertices, deletes=(np.array([0]), np.array([1]))
        )
        assert plan_repair(batch, graph).decision == RECOMPUTE

    def test_small_insert_batch_repairs(self):
        graph = kronecker(scale=7, edge_factor=8, seed=2)
        batch = MutationBatch.make(
            graph.num_vertices, inserts=(np.array([0]), np.array([1]))
        )
        plan = plan_repair(batch, graph)
        assert plan.decision == REPAIR
        assert 0 <= plan.seed_cost <= plan.budget

    def test_oversized_wavefront_recomputes(self):
        graph = kronecker(scale=6, edge_factor=6, seed=3)
        n = graph.num_vertices
        hubs = np.argsort(-graph.out_degrees())[:40].astype(VERTEX_DTYPE)
        batch = MutationBatch.make(
            n, inserts=(np.zeros_like(hubs), hubs)
        )
        plan = plan_repair(
            batch, graph, RepairConfig(max_seed_fraction=0.01)
        )
        assert plan.decision == RECOMPUTE
        assert plan.seed_cost > plan.budget

    def test_config_validation(self):
        with pytest.raises(StreamError):
            RepairConfig(max_seed_fraction=1.5)


class TestRepairBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_repair_matches_scratch(self, seed):
        base = kronecker(scale=7, edge_factor=6, seed=seed)
        n = base.num_vertices
        sources = list(range(0, 16))
        old = depths_for(base, sources)
        rng = np.random.default_rng(seed + 100)
        overlay = GraphOverlay(base)
        overlay.insert_edges(
            rng.integers(0, n, 12, dtype=VERTEX_DTYPE),
            rng.integers(0, n, 12, dtype=VERTEX_DTYPE),
        )
        new_graph, batch = overlay.commit()
        repaired, _ = repair_depth_matrix(new_graph, batch, old)
        scratch = depths_for(new_graph, sources)
        assert repaired.dtype == scratch.dtype
        assert np.array_equal(repaired, scratch)

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 5])
    def test_repair_matches_scratch_under_cap(self, max_depth):
        base = kronecker(scale=7, edge_factor=6, seed=4)
        n = base.num_vertices
        sources = list(range(8))
        old = depths_for(base, sources, max_depth=max_depth)
        rng = np.random.default_rng(7)
        overlay = GraphOverlay(base)
        overlay.insert_edges(
            rng.integers(0, n, 10, dtype=VERTEX_DTYPE),
            rng.integers(0, n, 10, dtype=VERTEX_DTYPE),
        )
        new_graph, batch = overlay.commit()
        repaired, _ = repair_depth_matrix(
            new_graph, batch, old, max_depth=max_depth
        )
        scratch = depths_for(new_graph, sources, max_depth=max_depth)
        assert np.array_equal(repaired, scratch)

    def test_insert_reconnects_unreachable_component(self):
        # 0 -> 1   2 -> 3 : vertex 2's component unreachable from 0
        graph = from_edge_arrays(
            np.asarray([0, 2], dtype=VERTEX_DTYPE),
            np.asarray([1, 3], dtype=VERTEX_DTYPE),
            num_vertices=4,
        )
        old = depths_for(graph, [0])
        assert old[0].tolist() == [0, 1, -1, -1]
        overlay = GraphOverlay(graph)
        overlay.insert_edges([1], [2])
        new_graph, batch = overlay.commit()
        repaired, rounds = repair_depth_matrix(new_graph, batch, old)
        assert repaired[0].tolist() == [0, 1, 2, 3]
        assert rounds >= 1

    def test_long_chain_propagation(self):
        # A shortcut at the head of a line graph rewrites every depth
        # downstream; the repair must walk the whole chain.
        n = 40
        graph = line_graph(n)
        old = depths_for(graph, [0, 1])
        overlay = GraphOverlay(graph)
        overlay.insert_edges([0], [20])
        new_graph, batch = overlay.commit()
        repaired, rounds = repair_depth_matrix(new_graph, batch, old)
        scratch = depths_for(new_graph, [0, 1])
        assert np.array_equal(repaired, scratch)
        assert rounds > 5  # genuinely propagated, not a one-hop patch

    def test_noop_insert_returns_equal_matrix(self):
        # Inserting an edge that creates no shorter path leaves depths
        # bit-identical (and must still return a fresh matrix).
        graph = line_graph(6)
        old = depths_for(graph, [0])
        overlay = GraphOverlay(graph)
        overlay.insert_edges([0], [1])  # duplicate of an existing edge
        new_graph, batch = overlay.commit()
        repaired, rounds = repair_depth_matrix(new_graph, batch, old)
        assert rounds == 0
        assert np.array_equal(repaired, old)
        assert repaired is not old

    def test_delete_batch_refused(self):
        graph = line_graph(4)
        old = depths_for(graph, [0])
        batch = MutationBatch.make(
            4, deletes=(np.array([0]), np.array([1]))
        )
        with pytest.raises(StreamError):
            repair_depth_matrix(graph, batch, old)

    def test_shape_mismatch_refused(self):
        graph = line_graph(4)
        batch = MutationBatch.make(
            4, inserts=(np.array([0]), np.array([2]))
        )
        with pytest.raises(StreamError):
            repair_depth_matrix(graph, batch, np.zeros((2, 9), np.int32))
