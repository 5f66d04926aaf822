"""The compiled bitwise level on several threads.

``repro_bitwise_level`` splits each large phase of a level into tasks
on a per-process thread pool.  Whatever the thread count, depths,
counters, level records and ``GroupStats`` must equal the numpy
level's; the pool must survive ``fork`` (the executor forks its
workers) and stay one pool per process however many engines come and
go.  The thread budget, the grain and the edge floor below which a
graph's levels stay on one thread are set by monkeypatching
:mod:`repro.native`, which a :class:`~repro.native.LevelKernel` reads
when it is built.  Skips when the library does not load.
"""

import dataclasses
import os

import numpy as np
import pytest

import repro.native as native
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.exec import ExecConfig, FaultPolicy, GroupExecutor
from repro.graph.generators import kronecker, rmat
from repro.plan import FixedPolicy, HeuristicPolicy
from repro.service import ServingConfig
from repro.service.request import Request
from repro.stream import DynamicBFSServer

pytestmark = pytest.mark.usefixtures("compiled")


def _observed(run):
    depths, record, stats = run
    return (
        depths,
        dataclasses.asdict(record.counters),
        [dataclasses.astuple(level) for level in record.levels],
        stats,
    )


def _assert_matches_numpy(graph, groups, planner=None):
    compiled = BitwiseTraversal(graph, planner=planner)
    reference = BitwiseTraversal(graph, planner=planner)
    for sources in groups:
        got = _observed(compiled.run_group(sources))
        with native.force_backend("off"):
            want = _observed(reference.run_group(sources))
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
    return compiled


def _threads_in_process() -> int:
    return len(os.listdir("/proc/self/task"))


@pytest.fixture(scope="module")
def rmat12():
    return rmat(12, edge_factor=16, seed=7)


def test_budget_follows_the_module_settings(monkeypatch):
    monkeypatch.setattr(native, "LEVEL_THREADS", 3)
    assert native.level_threads() == 3
    assert native.capability_report()["level_threads"] == 3
    monkeypatch.setattr(native, "LEVEL_THREADS", None)
    assert native.usable_cpus() == len(os.sched_getaffinity(0))
    assert native.level_threads() == min(
        native.usable_cpus(), native.MAX_LEVEL_THREADS
    )


def test_graphs_below_the_edge_floor_stay_on_one_thread(monkeypatch, rmat12):
    monkeypatch.setattr(native, "LEVEL_THREADS", 2)
    monkeypatch.setattr(native, "LEVEL_MIN_EDGES", rmat12.num_edges)
    small = rmat(10, edge_factor=16, seed=7)
    assert _assert_matches_numpy(small, [[0, 1, 2]])._workspace.threads == 1
    assert _assert_matches_numpy(rmat12, [[0, 1, 2]])._workspace.threads == 2
    monkeypatch.setattr(native, "LEVEL_MIN_EDGES", 0)
    assert _assert_matches_numpy(small, [[0, 1, 2]])._workspace.threads == 2


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize(
    "planner",
    [HeuristicPolicy(), FixedPolicy(direction="td"), FixedPolicy(direction="bu")],
    ids=["heuristic", "top-down", "bottom-up"],
)
def test_rmat12_groups_match_numpy_at_the_real_grain(
    monkeypatch, rmat12, threads, planner
):
    # Groups of 32 on zipf-hot's graph: the large levels split at the
    # default grain, the small ones stay on the calling thread.
    monkeypatch.setattr(native, "LEVEL_THREADS", threads)
    rng = np.random.default_rng(threads)
    groups = [
        rng.choice(rmat12.num_vertices, size=size, replace=False).tolist()
        for size in (32, 32, 70)
    ]
    engine = _assert_matches_numpy(rmat12, groups, planner)
    assert engine._workspace.threads == threads


def test_a_forked_executor_matches_serial_after_threaded_levels(monkeypatch):
    # Each of the two workers gets 4 // 2 = 2 level threads; grain 1
    # and no edge floor make every level of the parent and the workers
    # use the pool.
    monkeypatch.setattr(native, "LEVEL_THREADS", 4)
    monkeypatch.setattr(native, "LEVEL_GRAIN", 1)
    monkeypatch.setattr(native, "LEVEL_MIN_EDGES", 0)
    graph = kronecker(scale=8, edge_factor=8, seed=5)
    config = IBFSConfig(group_size=16)
    sources = list(range(0, graph.num_vertices, 4))
    serial = IBFS(graph, config).run(sources)
    with GroupExecutor(
        graph,
        config,
        exec_config=ExecConfig(
            num_workers=2, faults=FaultPolicy(task_timeout=60.0)
        ),
    ) as executor:
        result = executor.run(sources)
        stats = executor.last_stats
    assert stats.backend == "process"
    assert stats.retries == 0 and stats.respawns == 0
    assert result.sources == serial.sources
    assert np.array_equal(result.depths, serial.depths)
    assert result.counters == serial.counters
    assert result.groups == serial.groups


def test_epoch_swaps_keep_one_pool(monkeypatch):
    # Every swap rebuilds the engine and its level kernels; the threads
    # they run on are the process's one pool.
    monkeypatch.setattr(native, "LEVEL_THREADS", 4)
    monkeypatch.setattr(native, "LEVEL_GRAIN", 1)
    monkeypatch.setattr(native, "LEVEL_MIN_EDGES", 0)
    graph = kronecker(scale=7, edge_factor=6, seed=3)
    serving = ServingConfig(batch_size=8, cache_capacity=0, return_depths=True)
    counts = []
    with DynamicBFSServer(graph, serving) as server:
        for epoch in range(20):
            server.mutate(inserts=([epoch], [(epoch * 37 + 11) % 128]))
            for source in range(epoch, epoch + 8):
                server.submit(Request(source=source, kind="bfs"))
            assert len(server.drain()) == 8
            counts.append(_threads_in_process())
    assert max(counts) == counts[0]
