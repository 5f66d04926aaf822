"""CLI surface of the analytics layer: ``trace-report``, ``slo``,
``bench-diff``, and the ``serve --trace/--slo`` wiring that feeds
them."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph import kronecker, save_csr
from repro.obs import profile as obs_profile
from repro.obs import tracing

FIXTURES = str(Path(__file__).parent / "data")


@pytest.fixture(autouse=True)
def _isolate_obs():
    yield
    tracing.set_tracer(None)
    obs_profile.disable()


@pytest.fixture()
def saved_graph(tmp_path):
    graph = kronecker(scale=7, edge_factor=6, seed=61)
    path = tmp_path / "g.csr"
    save_csr(graph, str(path))
    return str(path)


@pytest.fixture()
def serve_trace(tmp_path, saved_graph):
    """A real trace file recorded through ``serve --trace --slo``."""
    trace = tmp_path / "serve.jsonl"
    rc = main([
        "serve", saved_graph, "--requests", "24", "--clients", "4",
        "--batch-size", "8", "--trace", str(trace), "--slo",
    ])
    assert rc == 0
    return str(trace)


# ----------------------------------------------------------------------
# serve --trace / --slo
# ----------------------------------------------------------------------
def test_serve_trace_writes_spans_and_prints_slo(
    tmp_path, saved_graph, capsys
):
    trace = tmp_path / "t.jsonl"
    rc = main([
        "serve", saved_graph, "--requests", "24", "--clients", "4",
        "--batch-size", "8", "--trace", str(trace), "--slo",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "slo               : 4 specs" in out
    assert "trace             :" in out
    records = [json.loads(line) for line in
               trace.read_text().splitlines() if line]
    kinds = {r.get("kind") for r in records}
    assert "span" in kinds and "metric" in kinds
    waves = [r for r in records if r.get("name") == "serve.wave"]
    assert waves and all(
        w["attrs"]["substrate"] == "serial" for w in waves
    )
    assert not any(r.get("name") == "serve.batch" for r in records)


def test_serve_slo_with_churn(tmp_path, saved_graph, capsys):
    trace = tmp_path / "t.jsonl"
    rc = main([
        "serve", saved_graph, "--requests", "24", "--clients", "4",
        "--batch-size", "8", "--churn", "8", "--churn-inserts", "4",
        "--trace", str(trace), "--slo",
    ])
    assert rc == 0
    assert "slo               : 4 specs" in capsys.readouterr().out
    records = [json.loads(line) for line in
               trace.read_text().splitlines() if line]
    assert any(r.get("name") == "stream.mutate" for r in records)


# ----------------------------------------------------------------------
# trace-report
# ----------------------------------------------------------------------
def test_trace_report_renders_sections(serve_trace, capsys):
    rc = main(["trace-report", serve_trace])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trace report" in out
    assert "top spans" in out
    assert "waves (" in out
    assert "substrate comparison" in out
    assert "serial" in out


def test_trace_report_is_deterministic_per_file(serve_trace, capsys):
    assert main(["trace-report", serve_trace]) == 0
    first = capsys.readouterr().out
    assert main(["trace-report", serve_trace]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_trace_report_respects_limits(serve_trace, capsys):
    rc = main([
        "trace-report", serve_trace, "--top", "2",
        "--max-waves", "1", "--max-levels", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "top spans (by self time, top 2)" in out
    assert "showing 1" in out


def test_trace_report_no_spans_errors(tmp_path, capsys):
    trace = tmp_path / "empty.jsonl"
    trace.write_text(json.dumps({"kind": "metric", "name": "x"}) + "\n")
    rc = main(["trace-report", str(trace)])
    assert rc == 1
    assert "no span records" in capsys.readouterr().err


# ----------------------------------------------------------------------
# slo
# ----------------------------------------------------------------------
def test_slo_replay_healthy_run(serve_trace, capsys):
    rc = main(["slo", serve_trace, "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "slo report" in out
    assert "wave-p99-latency" in out
    assert "alerts (0)" in out


def test_slo_check_fails_on_seeded_breach(tmp_path, capsys):
    # One wave span lasting 10 simulated seconds: far past any latency
    # objective, so --check must exit nonzero.
    trace = tmp_path / "breach.jsonl"
    record = {
        "kind": "span", "name": "serve.wave", "span_id": "s1",
        "trace_id": "t", "parent_id": None, "start": 0.0, "end": 10.0,
        "process": "serve", "attrs": {}, "status": "ok",
    }
    trace.write_text(json.dumps(record) + "\n")
    rc = main(["slo", str(trace), "--check"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "BREACHED" in captured.out
    assert "slo check failed" in captured.err


def test_slo_custom_specs_file(tmp_path, serve_trace, capsys):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{
        "name": "generous", "signal": "wave_latency_seconds",
        "objective": 100.0, "reduce": "max", "window_seconds": 1e6,
    }]))
    rc = main(["slo", serve_trace, "--specs", str(specs), "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "generous" in out
    assert "wave-p99-latency" not in out


# ----------------------------------------------------------------------
# bench-diff
# ----------------------------------------------------------------------
def test_bench_diff_flags_seeded_regression(capsys):
    rc = main([
        "bench-diff",
        f"{FIXTURES}/ledger_base.json",
        f"{FIXTURES}/ledger_regressed.json",
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "REGRESSED" in captured.out
    assert "regression(s)" in captured.err


def test_bench_diff_self_is_clean(capsys):
    rc = main([
        "bench-diff",
        f"{FIXTURES}/ledger_base.json",
        f"{FIXTURES}/ledger_base.json",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 regressed" in out


def test_bench_diff_tolerance_silences_flags(capsys):
    rc = main([
        "bench-diff",
        f"{FIXTURES}/ledger_base.json",
        f"{FIXTURES}/ledger_regressed.json",
        "--tolerance", "2.0",
    ])
    assert rc == 0
    assert "0 regressed" in capsys.readouterr().out


def _write_ledger(path, entries):
    path.write_text(json.dumps({
        "schema": "repro.bench-ledger/v1",
        "benchmark": "kernel_walltime",
        "entries": entries,
    }))
    return str(path)


def _speedup_entry(name, value):
    return {"name": name,
            "metrics": {"speedup": {"value": value, "direction": "higher"}}}


def test_bench_diff_fails_on_renamed_candidate_entry(tmp_path, capsys):
    """A renamed entry compares nothing; its collapsed speedup must not
    slip through as a clean diff."""
    old = _write_ledger(tmp_path / "old.json",
                        [_speedup_entry("bitwise-rmat15-ef2-gs64", 2.4)])
    new = _write_ledger(tmp_path / "new.json",
                        [_speedup_entry("bitwise-rmat15-ef2-g64", 0.3)])
    rc = main(["bench-diff", old, new])
    captured = capsys.readouterr()
    assert rc == 1
    assert "0 metrics compared" in captured.out
    assert "missing from the baseline: bitwise-rmat15-ef2-g64" in captured.err
    assert "no metric was compared" in captured.err


def test_bench_diff_fails_when_no_metric_is_compared(tmp_path, capsys):
    old = _write_ledger(tmp_path / "old.json",
                        [{"name": "a", "metrics": {}}])
    rc = main(["bench-diff", old, old])
    assert rc == 1
    assert "no metric was compared" in capsys.readouterr().err


def test_bench_diff_allows_baseline_only_entries(tmp_path, capsys):
    """A quick run covers a subset of the full baseline's entries."""
    old = _write_ledger(tmp_path / "old.json", [
        _speedup_entry("quick-config", 2.4),
        _speedup_entry("full-only-config", 2.0),
    ])
    new = _write_ledger(tmp_path / "new.json",
                        [_speedup_entry("quick-config", 2.3)])
    rc = main(["bench-diff", old, new, "--tolerance", "0.5"])
    assert rc == 0
    assert "1 metrics compared" in capsys.readouterr().out


def test_bench_diff_refuses_metric_without_direction(tmp_path, capsys):
    old = _write_ledger(tmp_path / "old.json",
                        [_speedup_entry("cfg", 2.4)])
    new = _write_ledger(tmp_path / "new.json", [
        {"name": "cfg", "metrics": {"speedup": {"value": 0.3}}},
    ])
    rc = main(["bench-diff", old, new])
    assert rc == 1
    assert "direction" in capsys.readouterr().err


def test_bench_diff_refuses_legacy_payload(tmp_path, capsys):
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({
        "benchmark": "kernel_walltime",
        "results": [{"name": "cfg", "speedup": 2.4}],
    }))
    rc = main(["bench-diff", str(legacy), str(legacy)])
    assert rc == 1
    assert "not a bench ledger" in capsys.readouterr().err


def test_metrics_dump_still_reads_serve_trace(serve_trace, capsys):
    rc = main(["metrics-dump", serve_trace])
    out = capsys.readouterr().out
    assert rc == 0
    assert 'slo_burn_rate{slo="wave-p99-latency"}' in out
