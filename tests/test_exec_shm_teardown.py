"""Shared-memory reclamation: crashed workers must not orphan segments.

A worker that dies *after* pushing its result segment but *before* its
reply lands on the queue used to leak the segment forever — the name
was worker-generated, so the parent had nothing to unlink.  Result
segments are now named by the parent and shipped with the task, so
every fault path (crash, timeout, teardown mid-flight) can reclaim
them by name.  These tests kill workers in that exact window and then
scan ``/dev/shm`` for leftovers.
"""

import glob
import os

import numpy as np
import pytest

from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.exec import ExecConfig, FaultPlan, FaultPolicy, GroupExecutor
from repro.exec.shm import (
    discard_segment,
    push_array,
    result_segment_name,
    shared_memory_available,
)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)

_SHM_DIR = "/dev/shm"


def _repro_segments():
    """Names of live repro-owned shared-memory segments on this host."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return set()
    return {
        os.path.basename(p)
        for p in glob.glob(os.path.join(_SHM_DIR, "repro-*"))
    }


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


@pytest.fixture(scope="module")
def serial(graph):
    return IBFS(graph, IBFSConfig(group_size=8)).run(
        list(range(32)), store_depths=True
    )


class TestNamedResultSegments:
    def test_push_array_honors_given_name(self):
        name = result_segment_name()
        spec = push_array(np.arange(6, dtype=np.int32), name=name)
        try:
            assert spec.name == name
        finally:
            discard_segment(name)

    def test_discard_segment_missing_is_noop(self):
        discard_segment(result_segment_name())


@needs_shm
class TestCrashReclamation:
    def test_crash_after_push_leaves_no_segments(self, graph, serial):
        """The regression: kill workers between push_array and the
        reply; depths stay bit-identical and /dev/shm stays clean."""
        before = _repro_segments()
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash_after_result={0: 1, 2: 1}),
                faults=FaultPolicy(max_retries=2, respawn_limit=4),
            ),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
            assert executor.last_stats.crashes >= 2
        assert np.array_equal(result.depths, serial.depths)
        assert _repro_segments() - before == set()

    def test_crash_before_push_leaves_no_segments(self, graph, serial):
        before = _repro_segments()
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash={1: 1}),
                faults=FaultPolicy(max_retries=2, respawn_limit=4),
            ),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
            assert executor.last_stats.crashes >= 1
        assert np.array_equal(result.depths, serial.depths)
        assert _repro_segments() - before == set()

    def test_teardown_reclaims_undelivered_results(self, graph):
        """fail_fast aborts the run while other workers may still be
        pushing; close() must sweep whatever never got consumed."""
        from repro.errors import WorkerCrashError

        before = _repro_segments()
        executor = GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(
                num_workers=2,
                fault_plan=FaultPlan(crash_after_result={0: 99}),
                faults=FaultPolicy(fail_fast=True, respawn_limit=0),
            ),
        )
        try:
            with pytest.raises(WorkerCrashError):
                executor.run(list(range(32)), store_depths=True)
        finally:
            executor.close()
        assert _repro_segments() - before == set()

    def test_clean_run_leaves_no_segments(self, graph, serial):
        before = _repro_segments()
        with GroupExecutor(
            graph,
            IBFSConfig(group_size=8),
            exec_config=ExecConfig(num_workers=2),
        ) as executor:
            result = executor.run(list(range(32)), store_depths=True)
        assert np.array_equal(result.depths, serial.depths)
        assert _repro_segments() - before == set()
