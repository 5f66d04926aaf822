"""Vector data types (section 6): long/long2/long4 status loads."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.graph.generators import kronecker
from repro.bfs.reference import reference_bfs_multi
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.plan import HeuristicPolicy


@pytest.fixture(scope="module")
def kron():
    return kronecker(scale=7, edge_factor=8, seed=71)


@pytest.fixture(scope="module")
def wide_sources():
    # 100 instances -> two uint64 lanes, so vectorization has something
    # to fetch together.
    return list(range(100))


def vectored(graph, width):
    return BitwiseTraversal(
        graph, planner=HeuristicPolicy(vector_width=width)
    )


def test_invalid_width_rejected(kron):
    with pytest.raises(TraversalError, match="vector_width"):
        HeuristicPolicy(vector_width=3)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_depths_unchanged_by_vectorization(kron, wide_sources, width):
    depths, _, _ = vectored(kron, width).run_group(wide_sources)
    assert np.array_equal(depths, reference_bfs_multi(kron, wide_sources))


def test_wider_vectors_issue_fewer_instructions(kron, wide_sources):
    records = {}
    for width in (1, 2):
        _, record, _ = vectored(kron, width).run_group(wide_sources)
        records[width] = record.counters
    assert records[2].instructions < records[1].instructions
    assert (
        records[2].global_load_requests < records[1].global_load_requests
    )


def test_transactions_unchanged_by_vectorization(kron, wide_sources):
    """Vector loads move the same bytes — only requests shrink."""
    txns = {}
    for width in (1, 4):
        _, record, _ = vectored(kron, width).run_group(wide_sources)
        txns[width] = record.counters.global_load_transactions
    assert txns[1] == txns[4]


def test_single_lane_group_unaffected(kron):
    """With <= 64 instances there is one lane; width changes nothing."""
    sources = list(range(16))
    results = {}
    for width in (1, 4):
        _, record, _ = vectored(kron, width).run_group(sources)
        results[width] = record.counters.instructions
    assert results[1] == results[4]


def test_ibfs_config_forwards_width(kron, wide_sources):
    """IBFS hands its planner's width to the bitwise engine."""
    config = IBFSConfig(group_size=128, groupby=False)
    fast = IBFS(
        kron, config, planner=HeuristicPolicy(vector_width=4)
    ).run(wide_sources, store_depths=False)
    slow = IBFS(
        kron, config, planner=HeuristicPolicy(vector_width=1)
    ).run(wide_sources, store_depths=False)
    assert fast.counters.instructions < slow.counters.instructions
