"""Golden serving fixture: fixed closed-loop runs replayed exactly.

Each run drives one placement of the serving layer with a seeded
closed-loop workload and records every response (id, status, latency,
batch id, attempts, value, cache flag and a digest of its depth row),
the full ``metrics_snapshot()`` and, for the stream runs, the epoch
records.  ``tests/data/serving_golden.json`` holds the recorded values;
the test replays every run and compares them exactly.

Regenerate only when a change is meant to alter served results::

    PYTHONPATH=src python tests/test_serving_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.engine import IBFSConfig
from repro.errors import TraversalError
from repro.exec import ExecConfig, GroupExecutor
from repro.exec.shm import shared_memory_available
from repro.graph.generators import kronecker
from repro.runtime import SubstrateSpec
from repro.service import (
    BFSServer,
    ChurnConfig,
    ServingConfig,
    WorkloadConfig,
    run_closed_loop,
)
from repro.stream import DynamicBFSServer

FIXTURE = Path(__file__).parent / "data" / "serving_golden.json"

CONFIG = IBFSConfig(group_size=8)
WORKLOAD = WorkloadConfig(
    num_requests=200, num_clients=32, zipf_exponent=0.6, seed=3
)


def _serving(num_devices: int = 1, **overrides) -> ServingConfig:
    # A small result cache keeps misses, evictions and repairs in play.
    return ServingConfig(
        batch_size=8, cache_capacity=48, num_devices=num_devices,
        return_depths=True, **overrides,
    )


def _graph():
    return kronecker(scale=9, edge_factor=8, seed=11)


def _serve(server, churn=None) -> dict:
    with server:
        result = run_closed_loop(server, WORKLOAD, churn)
        record = {
            "shed": result.shed,
            "elapsed": result.elapsed,
            "responses": [_response(r) for r in result.responses],
            "metrics": result.metrics,
        }
        if churn is not None:
            record["epochs"] = [
                dataclasses.asdict(r) for r in server.epoch_records
            ]
    # Normalize through JSON so tuples and lists compare alike.
    return json.loads(json.dumps(record))


def _response(r) -> list:
    digest = None
    if r.depths is not None:
        digest = hashlib.sha1(
            r.depths.dtype.str.encode() + r.depths.tobytes()
        ).hexdigest()[:16]
    return [
        r.request_id, r.status, r.latency, r.batch_id, r.attempts,
        r.value, r.cached, digest,
    ]


def _failing_injector():
    """Fails the 2nd, 3rd and 7th batch launch: the 3rd is the 2nd's
    retry, so its requests run out of attempts."""
    calls = {"n": 0}

    def inject(sources):
        calls["n"] += 1
        if calls["n"] in (2, 3, 7):
            raise TraversalError("injected batch failure")

    return inject


def run_serial_1(graph):
    return _serve(BFSServer(graph, _serving(1), engine_config=CONFIG))


def run_serial_3(graph):
    # The timeout expires one queued request.
    return _serve(BFSServer(
        graph, _serving(3, default_timeout=2e-5), engine_config=CONFIG,
    ))


def run_executor_0(graph):
    with GroupExecutor(
        graph, CONFIG, exec_config=ExecConfig(num_workers=0)
    ) as executor:
        return _serve(BFSServer(
            graph, _serving(3), engine_config=CONFIG,
            substrate=SubstrateSpec(kind="executor"), executor=executor,
        ))


def run_executor_2(graph):
    return _serve(BFSServer(
        graph, _serving(3), engine_config=CONFIG,
        substrate=SubstrateSpec(kind="executor", workers=2),
    ))


def run_partitioned_1d(graph):
    return _serve(BFSServer(
        graph, _serving(2), engine_config=CONFIG,
        substrate=SubstrateSpec(kind="partitioned", partitions=2, layout="1d"),
    ))


def run_stream_inserts(graph):
    return _serve(
        DynamicBFSServer(
            graph, _serving(1), engine_config=CONFIG,
            substrate=SubstrateSpec(kind="stream"),
        ),
        churn=ChurnConfig(mutate_every=32, inserts_per_batch=8, seed=5),
    )


def run_stream_inserts_deletes(graph):
    return _serve(
        DynamicBFSServer(
            graph, _serving(2), engine_config=CONFIG,
            substrate=SubstrateSpec(kind="stream"),
        ),
        churn=ChurnConfig(
            mutate_every=32, inserts_per_batch=6, deletes_per_batch=4,
            seed=6,
        ),
    )


def run_serial_fault(graph):
    return _serve(BFSServer(
        graph, _serving(2), engine_config=CONFIG,
        fault_injector=_failing_injector(),
    ))


RUNS = {
    "serial-1dev": run_serial_1,
    "serial-3dev": run_serial_3,
    "executor-0workers": run_executor_0,
    "executor-2workers": run_executor_2,
    "partitioned-1d": run_partitioned_1d,
    "stream-inserts": run_stream_inserts,
    "stream-inserts-deletes": run_stream_inserts_deletes,
    "serial-injected-failure": run_serial_fault,
}

#: Runs that spawn worker processes over shared memory.
NEEDS_SHM = {"executor-2workers"}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_reproduces_golden_fixture(name, golden):
    if name in NEEDS_SHM and not shared_memory_available():
        pytest.skip("multiprocessing.shared_memory unavailable")
    expected = golden[name]
    actual = RUNS[name](_graph())
    assert len(actual["responses"]) == len(expected["responses"])
    for got, want in zip(actual["responses"], expected["responses"]):
        assert got == want
    assert actual == expected


def test_fixture_covers_faults_timeouts_and_both_repair_decisions(golden):
    fault = golden["serial-injected-failure"]["metrics"]["requests"]
    assert fault["retries"] > 0 and fault["failures"] > 0
    assert golden["serial-3dev"]["metrics"]["requests"]["timeouts"] > 0
    decisions = {
        e["decision"]
        for name in ("stream-inserts", "stream-inserts-deletes")
        for e in golden[name]["epochs"]
    }
    assert {"repair", "recompute"} <= decisions


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_serving_golden.py --write")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    # One run per line keeps the file small and its diffs per run.
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(run(_graph()), sort_keys=True)}"
        for name, run in sorted(RUNS.items())
    ) + "\n}\n")
    print(f"wrote {FIXTURE}")
