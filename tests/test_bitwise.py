"""Bitwise traversal engine (BSA, section 6)."""

import numpy as np
import pytest

from repro.graph.builders import from_edges
from repro.graph.generators import kronecker
from repro.bfs.reference import reference_bfs_multi
from repro.core.bitwise import BitwiseTraversal
from repro.core.joint import JointTraversal
from repro.plan import HeuristicPolicy


@pytest.fixture(scope="module")
def kron():
    return kronecker(scale=8, edge_factor=8, seed=10)


class TestCorrectness:
    def test_matches_reference(self, kron):
        sources = [0, 5, 17, 200, 255]
        depths, _, _ = BitwiseTraversal(kron).run_group(sources)
        assert np.array_equal(depths, reference_bfs_multi(kron, sources))

    def test_multi_lane_group(self, kron):
        sources = list(range(70))  # needs 2 uint64 lanes
        depths, _, _ = BitwiseTraversal(kron).run_group(sources)
        assert np.array_equal(depths, reference_bfs_multi(kron, sources))

    def test_without_early_termination_same_depths(self, kron):
        sources = [1, 2, 3, 4]
        fast, _, _ = BitwiseTraversal(kron).run_group(sources)
        slow, _, _ = BitwiseTraversal(
            kron, planner=HeuristicPolicy(early_termination=False)
        ).run_group(sources)
        assert np.array_equal(fast, slow)

    def test_duplicate_sources_allowed_in_group(self, kron):
        # The engine itself tolerates duplicates (grouping layers reject
        # them); both rows must agree.
        depths, _, _ = BitwiseTraversal(kron).run_group([7, 7])
        assert np.array_equal(depths[0], depths[1])

    def test_directed_asymmetric_graph(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        sources = [0, 2]
        depths, _, _ = BitwiseTraversal(g).run_group(sources)
        assert np.array_equal(depths, reference_bfs_multi(g, sources))


class TestEarlyTermination:
    def test_early_termination_reduces_inspections(self, kron):
        """The key advantage over MS-BFS (section 6): monotone bits allow
        bottom-up scans to stop early."""
        sources = list(range(32))
        _, rec_fast, _ = BitwiseTraversal(kron).run_group(sources)
        _, rec_slow, _ = BitwiseTraversal(
            kron, planner=HeuristicPolicy(early_termination=False)
        ).run_group(sources)
        assert (
            rec_fast.counters.bottom_up_inspections
            <= rec_slow.counters.bottom_up_inspections
        )
        assert rec_fast.counters.early_terminations > 0
        assert rec_slow.counters.early_terminations == 0

    def test_reset_per_level_adds_store_traffic(self, kron):
        sources = list(range(8))
        _, rec_ibfs, _ = BitwiseTraversal(kron).run_group(sources)
        _, rec_msbfs, _ = BitwiseTraversal(
            kron,
            reset_per_level=True,
            planner=HeuristicPolicy(early_termination=False),
        ).run_group(sources)
        assert (
            rec_msbfs.counters.global_store_transactions
            > rec_ibfs.counters.global_store_transactions
        )


class TestPhysicalVsLogicalWork:
    def test_one_thread_per_frontier_cuts_inspections(self, kron):
        """Bitwise inspection is one OR per (frontier, neighbor) pair for
        all instances, vs one per instance in the JSA engine."""
        sources = list(range(16))
        _, rec_joint, _ = JointTraversal(kron).run_group(sources)
        _, rec_bit, _ = BitwiseTraversal(kron).run_group(sources)
        assert rec_bit.counters.inspections < rec_joint.counters.inspections

    def test_logical_edges_preserved_for_teps(self, kron):
        """edges_traversed counts per-instance work so TEPS is comparable
        across engines; top-down logical edges match the JSA engine's."""
        sources = list(range(16))
        _, rec_joint, _ = JointTraversal(kron).run_group(sources)
        _, rec_bit, _ = BitwiseTraversal(kron).run_group(sources)
        # Early termination makes bitwise traverse fewer logical edges in
        # bottom-up, never more.
        assert (
            0 < rec_bit.counters.edges_traversed
            <= rec_joint.counters.edges_traversed
        )

    def test_atomics_counted_in_top_down(self, kron):
        _, record, _ = BitwiseTraversal(kron).run_group(list(range(8)))
        assert record.counters.atomic_operations > 0

    def test_per_instance_inspection_tallies(self, kron):
        sources = list(range(8))
        _, record, stats = BitwiseTraversal(kron).run_group(sources)
        assert len(stats.bottom_up_inspections) == len(sources)
        assert sum(stats.bottom_up_inspections) > 0
