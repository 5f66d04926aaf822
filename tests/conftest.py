"""Shared fixtures: a zoo of small graphs, engine factories, and the
compiled-library gate."""

from __future__ import annotations

import numpy as np
import pytest

import repro.native as native
from repro import (
    IBFS,
    IBFSConfig,
    B40C,
    CPUiBFS,
    MSBFS,
    NaiveConcurrentBFS,
    SequentialConcurrentBFS,
    SpMMBC,
    from_edges,
    kronecker,
    uniform_random,
)
from repro.graph.generators import complete, path, scale_free, small_world, star


@pytest.fixture(scope="session")
def kron_graph():
    """A small power-law graph (the default traversal target)."""
    return kronecker(scale=7, edge_factor=8, seed=2)


@pytest.fixture(scope="session")
def uniform_graph():
    """A uniform-outdegree graph (the RD-style regime)."""
    return uniform_random(200, 4, seed=3)


@pytest.fixture(scope="session")
def disconnected_graph():
    """Two components plus isolated vertices."""
    return from_edges(
        [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)],
        num_vertices=10,
        undirected=True,
    )


@pytest.fixture(scope="session")
def graph_zoo(kron_graph, uniform_graph, disconnected_graph):
    """Named collection of structurally diverse graphs."""
    return {
        "kron": kron_graph,
        "uniform": uniform_graph,
        "disconnected": disconnected_graph,
        "star": star(40),
        "path": path(30),
        "complete": complete(10),
        "small_world": small_world(80, 4, 0.2, seed=4),
        "scale_free": scale_free(120, 3, seed=5),
        "self_loops": from_edges([(0, 0), (0, 1), (1, 2), (2, 0)], num_vertices=3),
        "multi_edges": from_edges(
            [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3)], num_vertices=4
        ),
    }


def engine_factories():
    """(name, factory) pairs covering every concurrent engine.

    Each factory takes a graph and returns an engine with a common
    ``run(sources, ...)`` interface.
    """
    return [
        ("sequential", lambda g: SequentialConcurrentBFS(g)),
        ("naive", lambda g: NaiveConcurrentBFS(g)),
        ("joint-random", lambda g: IBFS(
            g, IBFSConfig(group_size=8, mode="joint", groupby=False))),
        ("joint-groupby", lambda g: IBFS(
            g, IBFSConfig(group_size=8, mode="joint", groupby=True))),
        ("bitwise-random", lambda g: IBFS(
            g, IBFSConfig(group_size=8, mode="bitwise", groupby=False))),
        ("bitwise-groupby", lambda g: IBFS(
            g, IBFSConfig(group_size=16, mode="bitwise", groupby=True))),
        ("bitwise-multilane", lambda g: IBFS(
            g, IBFSConfig(group_size=70, mode="bitwise", groupby=True))),
        ("ms-bfs", lambda g: MSBFS(g, group_size=8)),
        ("b40c", lambda g: B40C(g)),
        ("spmm-bc", lambda g: SpMMBC(g, group_size=8)),
        ("cpu-ibfs", lambda g: CPUiBFS(g)),
    ]


@pytest.fixture
def compiled():
    """Skip unless :mod:`repro.native`'s compiled library loaded.

    Tests that hold the compiled ops to the numpy kernels take this
    fixture, so with the library unavailable (``REPRO_NATIVE=0``, no C
    compiler) they skip with the reason instead of comparing numpy with
    numpy.
    """
    if not native.available():
        pytest.skip(f"compiled library not loaded: {native.disabled_reason()}")


@pytest.fixture(params=engine_factories(), ids=lambda p: p[0])
def any_engine_factory(request):
    """Parametrized engine factory fixture."""
    return request.param


def pick_sources(graph, count, seed=0):
    """Deterministic distinct sources spread over the graph."""
    rng = np.random.default_rng(seed)
    count = min(count, graph.num_vertices)
    return sorted(rng.choice(graph.num_vertices, size=count, replace=False).tolist())
