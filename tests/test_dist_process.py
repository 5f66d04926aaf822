"""Process backend: one worker per partition, crashes, respawn, degrade.

The process backend runs the exact :class:`PartitionState` compute the
inline backend uses, so every scenario here — clean runs, injected
crashes mid-expand, respawn-budget exhaustion — must end with the same
depth matrix the serial engine produces.
"""

import os

import numpy as np
import pytest

from repro.errors import WorkerCrashError
from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.exec.faults import CRASH_EXIT_CODE, FaultPolicy
from repro.exec.shm import shared_memory_available
from repro.dist.engine import DistConfig, PartitionedEngine
from repro.dist.procs import DistFaultPlan

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)

GROUP_SIZE = 8


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


@pytest.fixture(scope="module")
def group(graph):
    engine = IBFS(graph, IBFSConfig(group_size=GROUP_SIZE))
    return engine.make_groups(list(range(24)))[0]


@pytest.fixture(scope="module")
def expected(graph, group):
    return IBFS(graph, IBFSConfig(group_size=GROUP_SIZE)).run_group(group)


def process_engine(graph, **overrides):
    overrides.setdefault("num_partitions", 2)
    overrides.setdefault("group_size", GROUP_SIZE)
    return PartitionedEngine(
        graph, DistConfig(backend="process", **overrides)
    )


@needs_shm
class TestProcessEquivalence:
    @pytest.mark.parametrize("layout", ["1d", "2d"])
    def test_matches_serial(self, graph, group, expected, layout):
        with process_engine(
            graph, num_partitions=4, layout=layout
        ) as engine:
            result = engine.run_group(group)
        assert np.array_equal(result.depths, expected.depths)
        assert engine.last_stats.backend == "process"

    def test_matches_inline_byte_accounting(self, graph, group):
        """Both backends run the same PartitionState, so even the
        per-level wire bytes agree, not just the depths."""
        with process_engine(graph) as engine:
            engine.run_group(group)
            process_levels = [
                (t.fmt, t.nbytes, t.messages, t.entries)
                for t in engine.last_stats.levels
            ]
        inline = PartitionedEngine(
            graph,
            DistConfig(num_partitions=2, group_size=GROUP_SIZE),
        )
        inline.run_group(group)
        inline_levels = [
            (t.fmt, t.nbytes, t.messages, t.entries)
            for t in inline.last_stats.levels
        ]
        assert process_levels == inline_levels

    def test_reusable_across_groups(self, graph):
        serial = IBFS(graph, IBFSConfig(group_size=GROUP_SIZE))
        groups = serial.make_groups(list(range(32)))
        with process_engine(graph) as engine:
            for g in groups:
                result = engine.run_group(g)
                assert np.array_equal(
                    result.depths, serial.run_group(g).depths
                )


@needs_shm
class TestCrashRecovery:
    def test_crash_respawns_and_matches_serial(self, graph, group, expected):
        with process_engine(
            graph,
            fault_plan=DistFaultPlan(crash={0: 1}, level=1),
            faults=FaultPolicy(max_retries=2, respawn_limit=2),
        ) as engine:
            result = engine.run_group(group)
            stats = engine.last_stats
        assert np.array_equal(result.depths, expected.depths)
        assert stats.crashes == 1
        assert stats.respawns == 1
        assert stats.retries == 1
        assert not stats.degraded

    def test_repeated_crashes_within_budget(self, graph, group, expected):
        with process_engine(
            graph,
            fault_plan=DistFaultPlan(crash={1: 2}, level=0),
            faults=FaultPolicy(max_retries=3, respawn_limit=4),
        ) as engine:
            result = engine.run_group(group)
            stats = engine.last_stats
        assert np.array_equal(result.depths, expected.depths)
        assert stats.crashes == 2
        assert stats.respawns == 2

    def test_fail_fast_raises(self, graph, group):
        with process_engine(
            graph,
            fault_plan=DistFaultPlan(crash={0: 1}),
            faults=FaultPolicy(fail_fast=True),
        ) as engine:
            with pytest.raises(WorkerCrashError):
                engine.run_group(group)
        assert engine.last_stats is None

    def test_retry_budget_exhaustion_raises(self, graph, group):
        with process_engine(
            graph,
            fault_plan=DistFaultPlan(crash={0: 99}),
            faults=FaultPolicy(max_retries=2, respawn_limit=8),
        ) as engine:
            with pytest.raises(WorkerCrashError):
                engine.run_group(group)

    def test_respawn_exhausted_degrades_to_inline(
        self, graph, group, expected
    ):
        """No respawn budget left: the engine finishes the group on the
        inline backend instead of failing — same depths by
        construction."""
        with process_engine(
            graph,
            fault_plan=DistFaultPlan(crash={0: 1}),
            faults=FaultPolicy(max_retries=2, respawn_limit=0),
        ) as engine:
            result = engine.run_group(group)
            stats = engine.last_stats
        assert np.array_equal(result.depths, expected.depths)
        assert stats.degraded
        assert stats.crashes == 1
        assert stats.respawns == 0

    def test_crash_with_reply_lock_held_recovers(
        self, graph, group, expected, monkeypatch
    ):
        """A worker killed while its reply thread holds the shared
        result queue's write lock leaves that lock held forever.  The
        engine must not retry on the wedged queue: the group finishes
        bit-identical to serial, in bounded time."""
        import multiprocessing
        import threading

        import repro.dist.procs as procs

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the wedging worker is installed through fork")
        worker_main = procs.partition_worker_main

        class WedgeThenDie:
            """Partition 0, first attempt, level 1: take the reply
            queue's write lock and die holding it."""

            def __init__(self, result_queue):
                self.result_queue = result_queue

            def apply(self, part_id, level, attempt):
                if (part_id, level, attempt) == (0, 1, 0):
                    self.result_queue._wlock.acquire()
                    os._exit(CRASH_EXIT_CODE)

        def wedging_worker_main(part_id, handle, own_bounds, task_queue,
                                result_queue, fault_plan):
            worker_main(part_id, handle, own_bounds, task_queue,
                        result_queue, WedgeThenDie(result_queue))

        monkeypatch.setattr(
            procs, "partition_worker_main", wedging_worker_main
        )
        engine = process_engine(
            graph,
            start_method="fork",
            faults=FaultPolicy(max_retries=2, respawn_limit=2),
        )
        outcome = {}

        def run():
            try:
                outcome["result"] = engine.run_group(group)
            except BaseException as exc:  # pragma: no cover - reported
                outcome["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "group hung on a wedged reply queue"
        engine.close()
        assert "error" not in outcome, outcome.get("error")
        assert np.array_equal(outcome["result"].depths, expected.depths)
        stats = engine.last_stats
        assert (stats.crashes, stats.retries, stats.respawns) == (1, 1, 1)
        assert not stats.degraded

    def test_fault_events_logged(self, graph, group):
        with process_engine(
            graph,
            fault_plan=DistFaultPlan(crash={0: 1}),
            faults=FaultPolicy(max_retries=2, respawn_limit=2),
        ) as engine:
            engine.run_group(group)
            kinds = [e.kind for e in engine.last_stats.events]
        assert "crash" in kinds
        assert "retry" in kinds
        assert "respawn" in kinds
