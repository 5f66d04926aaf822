"""Fault model: injection plans, tolerance budgets, crash recovery."""

import multiprocessing
import os
import threading

import pytest

from repro.errors import (
    ExecutorError,
    ServiceError,
    TraversalError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.exec import (
    ExecConfig,
    FaultLog,
    FaultPlan,
    FaultPolicy,
    GroupExecutor,
)
from repro.exec.faults import CRASH_EXIT_CODE
from repro.exec.shm import shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


@pytest.fixture(scope="module")
def serial(graph):
    engine = IBFS(graph, IBFSConfig(group_size=8))
    return engine.run(list(range(32)), store_depths=True)


def assert_identical(a, b):
    import numpy as np

    assert a.counters.__dict__ == b.counters.__dict__
    assert a.seconds == b.seconds
    assert [g.__dict__ for g in a.groups] == [g.__dict__ for g in b.groups]
    assert np.array_equal(a.depths, b.depths)


class TestFaultPlan:
    def test_error_injection_raises(self):
        plan = FaultPlan(error={2: 1})
        plan.apply(2, attempt=1)  # beyond the faulted window: no-op
        with pytest.raises(TraversalError, match="injected fault"):
            plan.apply(2, attempt=0)

    def test_untargeted_task_unaffected(self):
        FaultPlan(error={2: 1}).apply(3, attempt=0)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(crash={0: 1}).empty


class TestFaultPolicy:
    def test_exhaustion_boundary(self):
        policy = FaultPolicy(max_retries=2)
        assert not policy.exhausted(2)
        assert not policy.exhausted(policy.max_retries + 1 - 1)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ExecutorError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ExecutorError):
            FaultPolicy(task_timeout=0.0)
        with pytest.raises(ExecutorError):
            FaultPolicy(respawn_limit=-1)

    def test_error_taxonomy(self):
        # Executor failures are service errors: one except clause covers
        # the serving layer's and the executor's failure surface.
        assert issubclass(ExecutorError, ServiceError)
        assert issubclass(WorkerCrashError, ExecutorError)
        assert issubclass(WorkerTimeoutError, ExecutorError)


class TestFaultLog:
    def test_counts_and_summary(self):
        log = FaultLog()
        log.record("crash", task_id=1, worker_id=0)
        log.record("retry", task_id=1)
        log.record("retry", task_id=2)
        assert log.count("retry") == 2
        assert log.summary() == {"crash": 1, "retry": 2}


@needs_shm
class TestCrashRecovery:
    def test_crash_retried_and_identical(self, graph, serial):
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash={1: 1}),
            ),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
            stats = executor.last_stats
        assert_identical(result, serial)
        assert stats.crashes == 1
        assert stats.retries == 1
        assert stats.respawns == 1

    def test_error_injection_retried(self, graph, serial):
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(error={0: 1, 2: 1}),
            ),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
            stats = executor.last_stats
        assert_identical(result, serial)
        assert stats.task_errors == 2
        assert stats.retries == 2

    def test_hang_detected_by_watchdog(self, graph, serial):
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(hang={1: 1}, hang_seconds=30.0),
                faults=FaultPolicy(task_timeout=0.5),
            ),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
            stats = executor.last_stats
        assert_identical(result, serial)
        assert stats.timeouts == 1

    def test_retry_exhaustion_raises_crash_error(self, graph):
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash={0: 99}),
                faults=FaultPolicy(max_retries=1, respawn_limit=8),
            ),
        ) as executor:
            with pytest.raises(WorkerCrashError):
                executor.run(list(range(32)))

    def test_fail_fast_aborts_on_first_error(self, graph):
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(error={0: 1}),
                faults=FaultPolicy(fail_fast=True),
            ),
        ) as executor:
            with pytest.raises(ExecutorError):
                executor.run(list(range(32)))

    def test_pool_loss_degrades_to_inprocess(self, graph, serial):
        # Every attempt of every task crashes and the respawn budget is
        # tiny: the pool dies, yet the run completes correctly in-process.
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash={t: 99 for t in range(8)}),
                faults=FaultPolicy(max_retries=99, respawn_limit=2),
            ),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
            stats = executor.last_stats
        assert_identical(result, serial)
        assert stats.degraded
        assert stats.respawns == 2

    def test_crash_with_reply_lock_held_recovers(
        self, graph, serial, monkeypatch
    ):
        """A worker killed while its feeder thread holds the shared
        result queue's write lock leaves that lock held forever.  The
        executor must not respawn onto the wedged queue: the run
        finishes bit-identical to serial, in bounded time."""
        import repro.exec.executor as executor_mod

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the wedging worker is installed through fork")
        worker_main = executor_mod.worker_main

        class WedgeThenDie:
            """Task 1, first attempt: take the reply queue's write lock
            and die holding it.  Keyed on the attempt, not the worker,
            so the retry in a fresh worker runs clean."""

            def __init__(self, result_queue):
                self.result_queue = result_queue

            def apply(self, task_id, attempt):
                if (task_id, attempt) == (1, 0):
                    self.result_queue._wlock.acquire()
                    os._exit(CRASH_EXIT_CODE)

            def apply_after_result(self, task_id, attempt):
                pass

        def wedging_worker_main(worker_id, handle, spec, task_queue,
                                result_queue, fault_plan, *rest):
            worker_main(worker_id, handle, spec, task_queue, result_queue,
                        WedgeThenDie(result_queue), *rest)

        monkeypatch.setattr(executor_mod, "worker_main", wedging_worker_main)
        executor = GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                faults=FaultPolicy(max_retries=2, respawn_limit=2),
            ),
        )
        outcome = {}

        def run():
            try:
                outcome["result"] = executor.run(
                    list(range(32)), store_depths=True
                )
            except BaseException as exc:  # pragma: no cover - reported
                outcome["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60.0)
        hung = runner.is_alive()
        executor.close()
        assert not hung, "run hung on a wedged reply queue"
        assert "error" not in outcome, outcome.get("error")
        assert_identical(outcome["result"], serial)
        stats = executor.last_stats
        assert (stats.crashes, stats.retries, stats.respawns) == (1, 1, 1)
        assert not stats.degraded
