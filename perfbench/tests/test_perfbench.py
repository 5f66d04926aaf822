"""Self-tests of the benchmark: its output contract and its checks.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  The end-to-end cases run ``perfbench/run.py --smoke`` (toy-size
graphs) as a subprocess.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.checks import ResponseSample, verify_samples
from perfbench.layers import dispatch_overhead, layer_records
from perfbench.loop import ClosedLoop
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import (
    WORKLOADS,
    FingerprintError,
    MutationStream,
    SourceStream,
    build_graph,
    check_fingerprint,
)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(m.moves for m in PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in table
    }
    for m in table:
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert re.search(rf"^  {re.escape(m['name'])} .* {re.escape(m['unit'])}$",
                         proc.stdout, re.M)
    if trace == "0":
        assert all(p["value"] > 0 for p in result["metrics"].values())


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "zipf-hot", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _serve_sample(seed=5, requests=600):
    from repro.service import BFSServer, ServingConfig

    graph = build_graph(8)
    server = BFSServer(graph, ServingConfig(cache_capacity=64, return_depths=True))
    sample = ResponseSample(per_stratum=3, seed=seed)
    loop = ClosedLoop(server, SourceStream(graph, 1.1, seed),
                      lambda: 0.0, on_response=sample.offer)
    loop.run(requests=requests)
    return sample.items()


def test_oracle_check_catches_a_corrupted_answer():
    samples = _serve_sample()
    assert {r.cached for r, _ in samples} == {False, True}
    assert verify_samples(samples) == []
    response, _ = samples[-1]
    # Depth rows are shared with the server's cache: corrupt a copy.
    bad = response.depths.copy()
    bad[np.flatnonzero(bad > 0)[0]] += 1
    response.depths = bad
    problems = verify_samples(samples)
    assert len(problems) == 1 and f"request {response.request_id}" in problems[0]


def test_churn_samples_are_checked_on_their_own_epoch():
    from repro.service import ServingConfig
    from repro.stream import DynamicBFSServer

    graph = build_graph(8)
    server = DynamicBFSServer(graph, ServingConfig(cache_capacity=128,
                                                   return_depths=True))
    sample = ResponseSample(per_stratum=2, seed=1)
    loop = ClosedLoop(server, SourceStream(graph, 1.1, 1), lambda: 0.0,
                      mutations=MutationStream(1), on_response=sample.offer)
    try:
        loop.run(requests=2000)
    finally:
        server.close()
    samples = sample.items()
    assert {"repair", "recompute"} <= {epoch.decision for _, epoch in samples}
    assert verify_samples(samples) == []
    # Checked against the base graph instead, a post-mutation answer
    # must disagree somewhere.
    base = type(samples[0][1])(graph, "base")
    moved = [(r, base) for r, e in samples if e.graph is not graph]
    assert verify_samples(moved)


def test_fingerprint_check_catches_a_changed_graph(monkeypatch):
    graph = build_graph(8)
    check_fingerprint(graph, 8)
    with pytest.raises(FingerprintError):
        check_fingerprint(graph, 9)

    import repro.graph.generators as generators

    original = generators.rmat
    monkeypatch.setattr(
        generators, "rmat",
        lambda scale, edge_factor, seed: original(scale, edge_factor, seed=seed + 1),
    )
    with pytest.raises(FingerprintError):
        check_fingerprint(build_graph(8), 8)


def test_calibration_stops_its_clock_and_scales_by_nearby_samples(monkeypatch):
    import perfbench.calibrate as calibrate

    host = [0.0]
    durations = iter([0.010, 0.0025, 0.005])

    def reference():
        host[0] += next(durations)

    monkeypatch.setattr(calibrate, "reference", reference)
    cal = calibrate.Calibration(lambda: host[0])
    cal.poll(cal.now())  # the first poll samples
    host[0] += 1.0
    cal.poll(cal.now())
    host[0] += 1.0
    cal.sample()
    assert cal.now() == pytest.approx(2.0)
    assert list(cal.at) == pytest.approx([0.0, 1.0, 2.0])
    nominal = calibrate.REF_NOMINAL_S
    assert cal.scale(0.0, 0.5) == pytest.approx(nominal / 0.010)
    assert cal.scale(0.5, 1.5) == pytest.approx(nominal / 0.0025)
    # No sample inside: the median of all of them.
    assert cal.scale(5.0, 6.0) == pytest.approx(nominal / 0.005)


def test_traffic_is_a_function_of_the_seed():
    graph = build_graph(8)
    for zipf in (1.1, None):
        a, b, c = (SourceStream(graph, zipf, s) for s in (4, 4, 5))
        first = [a.next() for _ in range(20000)]
        assert first == [b.next() for _ in range(20000)]
        assert first != [c.next() for _ in range(20000)]
    m1, m2 = MutationStream(4), MutationStream(4)
    for _ in range(8):
        (i1, d1), (i2, d2) = m1.next(graph), m2.next(graph)
        assert all(np.array_equal(x, y) for x, y in zip(i1, i2))
        assert (d1 is None) == (d2 is None)


def _span(name, span_id, parent, start, end, process="main"):
    return {"kind": "span", "name": name, "span_id": span_id, "parent_id": parent,
            "process": process, "start": start, "end": end, "attrs": {}}


def test_program_spans_count_as_self_time_of_the_enclosing_layer():
    from repro.obs.analyze import aggregate_spans

    records = [
        _span("layer.service.submit", "1", None, 0.0, 10.0),
        _span("serve.batch", "2", "1", 1.0, 9.0),
        _span("layer.runtime.run_group", "3", "2", 2.0, 8.0),
        _span("layer.core.run_group", "4", "3", 3.0, 7.0),
    ]
    rolled = {a.name: a.self_seconds for a in aggregate_spans(layer_records(records))}
    assert rolled == {
        "layer.service.submit": 4.0,
        "layer.runtime.run_group": 2.0,
        "layer.core.run_group": 4.0,
    }


def test_dispatch_overhead_is_wave_minus_busiest_worker():
    records = [
        _span("serve.wave", "1", None, 0.0, 10.0),
        _span("exec.dispatch", "2", "1", 1.0, 9.0),
        _span("exec.dispatch", "3", "1", 1.0, 9.0),
        _span("worker.task", "w1-1", "2", 2.0, 8.0, process="worker-1"),
        _span("worker.task", "w2-1", "3", 2.0, 5.0, process="worker-2"),
        _span("serve.wave", "4", None, 20.0, 30.0),
        _span("exec.dispatch", "5", "4", 21.0, 29.0),
        _span("worker.task", "w1-2", "5", 21.0, 24.0, process="worker-1"),
        _span("worker.task", "w1-3", "5", 24.0, 28.0, process="worker-1"),
    ]
    assert dispatch_overhead(records) == (4.0 + 3.0, 9.0 + 7.0)
