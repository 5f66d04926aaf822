"""Executor-backed BFSServer: wave dispatch bit-identity and guards."""

import numpy as np
import pytest

from repro.errors import ServiceError, SubstrateError, TraversalError
from repro.graph.generators import kronecker
from repro.core.engine import IBFSConfig
from repro.runtime import SubstrateSpec
from repro.service import BFSServer, Request, ServingConfig
from repro.exec import ExecConfig, GroupExecutor
from repro.exec.shm import shared_memory_available

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)

CONFIG = IBFSConfig(group_size=8)
SERVING = ServingConfig(batch_size=8, num_devices=3, return_depths=True)
#: Placement of a server backed by a caller-owned executor.
EXECUTOR = SubstrateSpec(kind="executor")


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=8, edge_factor=8, seed=23)


@pytest.fixture(scope="module")
def requests(graph):
    rng = np.random.default_rng(5)
    return [
        Request(source=int(s), kind="bfs")
        for s in rng.integers(0, graph.num_vertices, 60)
    ]


def serve_all(graph, requests, executor=None, fault=None):
    server = BFSServer(
        graph,
        serving=SERVING,
        engine_config=CONFIG,
        executor=executor,
        fault_injector=fault,
        substrate=EXECUTOR if executor is not None else None,
    )
    t = 0.0
    for request in requests:
        server.submit(request, arrival_time=t)
        t += 1e-6
    responses = server.drain()
    return responses, server.metrics_snapshot()


def assert_same_metrics(plain_metrics, backed_metrics):
    """Everything except the substrate section (which names the
    placement and so legitimately differs) must be bit-identical."""
    plain_sub = plain_metrics.pop("substrate")
    backed_sub = backed_metrics.pop("substrate")
    assert plain_sub["kind"] == "serial"
    assert backed_sub["kind"] == "executor"
    assert plain_metrics == backed_metrics


def assert_same_responses(plain, backed):
    assert len(plain) == len(backed)
    for a, b in zip(plain, backed):
        assert a.request_id == b.request_id
        assert a.status == b.status
        assert a.value == b.value
        assert a.latency == b.latency
        assert a.batch_id == b.batch_id
        assert a.attempts == b.attempts
        assert (a.depths is None) == (b.depths is None)
        if a.depths is not None:
            assert np.array_equal(a.depths, b.depths)


@needs_shm
class TestWaveDispatch:
    def test_bit_identical_to_inline_path(self, graph, requests):
        plain, plain_metrics = serve_all(graph, requests)
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            backed, backed_metrics = serve_all(
                graph, requests, executor=executor
            )
        assert_same_responses(plain, backed)
        assert_same_metrics(plain_metrics, backed_metrics)

    def test_bit_identical_through_injected_faults(self, graph, requests):
        def make_chaos():
            state = {"n": 0}

            def chaos(sources):
                state["n"] += 1
                if state["n"] in (2, 5):
                    raise TraversalError("injected chaos")

            return chaos

        plain, plain_metrics = serve_all(graph, requests, fault=make_chaos())
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            backed, backed_metrics = serve_all(
                graph, requests, executor=executor, fault=make_chaos()
            )
        assert_same_responses(plain, backed)
        assert_same_metrics(plain_metrics, backed_metrics)
        assert plain_metrics["requests"]["retries"] > 0

    def test_single_device_reduces_to_serial_waves(self, graph, requests):
        serving = ServingConfig(batch_size=8, num_devices=1)
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=2)
        ) as executor:
            server = BFSServer(
                graph, serving=serving, engine_config=CONFIG,
                executor=executor, substrate=EXECUTOR,
            )
            plain = BFSServer(graph, serving=serving, engine_config=CONFIG)
            for request in requests[:20]:
                server.submit(request)
                plain.submit(request)
            assert_same_responses(plain.drain(), server.drain())

    def test_inprocess_executor_also_identical(self, graph, requests):
        # num_workers=0 exercises the wave path without a pool.
        plain, plain_metrics = serve_all(graph, requests)
        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        ) as executor:
            backed, backed_metrics = serve_all(
                graph, requests, executor=executor
            )
        assert_same_responses(plain, backed)
        assert_same_metrics(plain_metrics, backed_metrics)


class TestExecutorGuards:
    def test_executor_object_does_not_choose_placement(self, graph):
        # Placement comes only from substrate=; a caller-owned executor
        # under the default serial placement is a capability error.
        executor = GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        )
        with pytest.raises(SubstrateError, match="cannot adopt"):
            BFSServer(graph, serving=SERVING, engine_config=CONFIG,
                      executor=executor)

    def test_mismatched_graph_rejected(self, graph):
        other = kronecker(scale=7, edge_factor=8, seed=99)
        executor = GroupExecutor(
            other, CONFIG, exec_config=ExecConfig(num_workers=0)
        )
        with pytest.raises(ServiceError, match="graph does not match"):
            BFSServer(graph, serving=SERVING, engine_config=CONFIG,
                      executor=executor, substrate=EXECUTOR)

    def test_mismatched_engine_config_rejected(self, graph):
        executor = GroupExecutor(
            graph,
            IBFSConfig(group_size=4),
            exec_config=ExecConfig(num_workers=0),
        )
        with pytest.raises(ServiceError, match="engine config"):
            BFSServer(graph, serving=SERVING, engine_config=CONFIG,
                      executor=executor, substrate=EXECUTOR)


@needs_shm
class TestCLIWorkers:
    def test_run_with_workers_prints_backend(self, capsys):
        from repro.cli import main

        assert main([
            "run", "PK", "--sources", "16", "--group-size", "8",
            "--workers", "2", "--scheduler", "lpt",
        ]) == 0
        out = capsys.readouterr().out
        assert "exec backend" in out
        assert "2 workers, lpt" in out

    @needs_shm
    def test_run_executor_substrate_uses_default_pool(self, capsys):
        # Without --workers the executor placement gets the executor's
        # default pool, as serve does, not an in-process run.
        from repro.cli import main

        assert main([
            "run", "PK", "--sources", "16", "--group-size", "8",
            "--substrate", "executor",
        ]) == 0
        assert "process (2 workers" in capsys.readouterr().out

    def test_serve_with_workers(self, capsys):
        from repro.cli import main

        assert main([
            "serve", "PK", "--requests", "64", "--batch-size", "8",
            "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "exec backend" in out

    def test_run_without_workers_unchanged(self, capsys):
        from repro.cli import main

        assert main([
            "run", "PK", "--sources", "16", "--group-size", "8",
        ]) == 0
        assert "exec backend" not in capsys.readouterr().out
