"""Per-group vs per-instance direction switching."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.graph.generators import kronecker, uniform_random
from repro.bfs.reference import reference_bfs_multi
from repro.core.bitwise import BitwiseTraversal
from repro.plan import HeuristicPolicy


@pytest.fixture(scope="module")
def kron():
    return kronecker(scale=8, edge_factor=8, seed=201)


def per_mode(graph, mode):
    return BitwiseTraversal(
        graph, planner=HeuristicPolicy(direction_mode=mode)
    )


def test_invalid_mode_rejected(kron):
    with pytest.raises(TraversalError, match="direction_mode"):
        HeuristicPolicy(direction_mode="consensus")


@pytest.mark.parametrize("mode", ["per-instance", "per-group"])
def test_depths_exact_in_both_modes(kron, mode):
    sources = list(range(0, 48, 3))
    depths, _, _ = per_mode(kron, mode).run_group(sources)
    assert np.array_equal(depths, reference_bfs_multi(kron, sources))


@pytest.mark.parametrize("mode", ["per-instance", "per-group"])
def test_uniform_graph_both_modes(mode):
    graph = uniform_random(300, 4, seed=202)
    sources = list(range(12))
    depths, _, _ = per_mode(graph, mode).run_group(sources)
    assert np.array_equal(depths, reference_bfs_multi(graph, sources))


def test_per_group_synchronizes_directions(kron):
    """With group voting, a level is never mixed-direction: the joint
    frontier is either all top-down or all bottom-up work."""
    sources = list(range(16))
    _, record, stats = per_mode(kron, "per-group").run_group(sources)
    # In per-group mode every level's td/bu sharing entries cannot both
    # be populated after level 0 once the vote switches.
    mixed_levels = sum(
        1
        for (td_fq, _), (bu_fq, _) in zip(stats.td_sharing, stats.bu_sharing)
        if td_fq > 0 and bu_fq > 0
    )
    assert mixed_levels == 0


def test_per_instance_can_mix_directions(kron):
    """With per-instance switching and heterogeneous sources, some level
    usually carries both directions (the figure-5 scenario)."""
    degrees = kron.out_degrees()
    hubs = np.argsort(-degrees)[:8].tolist()
    nonzero = np.flatnonzero(degrees > 0)
    leaves = nonzero[np.argsort(degrees[nonzero])][:8].tolist()
    sources = [*hubs, *leaves]
    assert len(set(sources)) == 16
    _, record, stats = per_mode(kron, "per-instance").run_group(sources)
    mixed_levels = sum(
        1
        for (td_fq, _), (bu_fq, _) in zip(stats.td_sharing, stats.bu_sharing)
        if td_fq > 0 and bu_fq > 0
    )
    assert mixed_levels >= 1
