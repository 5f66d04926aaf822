"""The unified bench ledger: schema, directions, the committed
ledgers, the best-of timer, diffing."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.obs.ledger as ledger_module
from repro.errors import ObservabilityError
from repro.obs.ledger import (
    HIGHER_IS_BETTER,
    LEDGER_SCHEMA,
    LOWER_IS_BETTER,
    BestOf,
    Ledger,
    LedgerEntry,
    MetricPoint,
    diff_ledgers,
    load_ledger,
    render_diff,
    save_ledger,
)

FIXTURES = str(Path(__file__).parent / "data")
REPO_ROOT = str(Path(__file__).parent.parent)

#: Directions of the metrics the diff tests build ledgers from.
METRIC_DIRECTIONS = {
    "run_seconds": LOWER_IS_BETTER,
    "throughput_teps": HIGHER_IS_BETTER,
}


def make_ledger(**metrics):
    return Ledger(
        benchmark="t",
        mode="quick",
        entries=[LedgerEntry(
            name="e",
            metrics={k: MetricPoint(v, METRIC_DIRECTIONS[k])
                     for k, v in metrics.items()},
        )],
    )


def committed_ledger_paths():
    return sorted(
        p for p in Path(REPO_ROOT).glob("BENCH_*.json")
        if not p.name.endswith(".quick.json")
    )


def metric_shape(ledger):
    """Entry names -> metric names -> directions."""
    return {
        e.name: {k: m.direction for k, m in e.metrics.items()}
        for e in ledger.entries
    }


class TestSchema:
    def test_round_trip(self, tmp_path):
        ledger = Ledger(
            benchmark="serve",
            mode="full",
            meta={"repeats": 3},
            entries=[LedgerEntry(
                name="a",
                metrics={"run_seconds": MetricPoint(0.5, LOWER_IS_BETTER, "s")},
                attrs={"batch_size": 32},
            )],
        )
        path = tmp_path / "ledger.json"
        save_ledger(ledger, str(path))
        loaded = load_ledger(str(path))
        assert loaded.to_dict() == ledger.to_dict()
        assert loaded.entry("a").metrics["run_seconds"].unit == "s"
        assert loaded.entry("missing") is None

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ObservabilityError, match="not a bench ledger"):
            Ledger.from_dict({"schema": "v0", "entries": []})

    def test_from_dict_rejects_duplicate_names(self):
        payload = {
            "schema": LEDGER_SCHEMA,
            "entries": [{"name": "a"}, {"name": "a"}],
        }
        with pytest.raises(ObservabilityError, match="unique"):
            Ledger.from_dict(payload)

    @pytest.mark.parametrize("direction", ["", "up", "Higher", None])
    def test_metric_point_accepts_only_lower_or_higher(self, direction):
        with pytest.raises(ObservabilityError, match="direction"):
            MetricPoint(1.0, direction)

    def test_from_dict_refuses_metric_without_direction(self):
        payload = {
            "schema": LEDGER_SCHEMA,
            "entries": [{
                "name": "bitwise-rmat15-ef2-gs64",
                "metrics": {"speedup": {"value": 2.4}},
            }],
        }
        with pytest.raises(ObservabilityError, match="direction"):
            Ledger.from_dict(payload)

    def test_load_ledger_refuses_legacy(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({
            "benchmark": "old", "results": [{"name": "x", "seconds": 1.0}],
        }))
        with pytest.raises(ObservabilityError, match="not a bench ledger"):
            load_ledger(str(path))

    def test_repo_bench_files_load_as_ledgers(self):
        paths = committed_ledger_paths()
        assert len(paths) >= 7
        for path in paths:
            payload = json.loads(path.read_text())
            ledger = Ledger.from_dict(payload)
            names = [e.name for e in ledger.entries]
            assert names and len(names) == len(set(names)), path.name
            for entry in payload["entries"]:
                assert entry["metrics"], (path.name, entry["name"])
                for key, metric in entry["metrics"].items():
                    where = (path.name, entry["name"], key)
                    assert metric["direction"] in (
                        LOWER_IS_BETTER, HIGHER_IS_BETTER
                    ), where
                    assert metric["unit"], where

    def test_plan_writer_matches_committed_ledger(self, tmp_path):
        """The plan bench's metrics are simulated, so a quick run ties
        the committed BENCH_plan.json to the code that writes it."""
        output = tmp_path / "BENCH_plan.quick.json"
        env = dict(os.environ, PYTHONPATH=f"{REPO_ROOT}/src")
        completed = subprocess.run(
            [sys.executable, f"{REPO_ROOT}/benchmarks/bench_plan_policies.py",
             "--quick", "--output", str(output)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        written = load_ledger(str(output))
        committed = load_ledger(f"{REPO_ROOT}/BENCH_plan.json")
        assert written.benchmark == committed.benchmark
        assert metric_shape(written) == metric_shape(committed)


class TestBestOf:
    def test_keeps_the_fastest_region(self, monkeypatch):
        ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
        monkeypatch.setattr(ledger_module, "time", SimpleNamespace(
            perf_counter=lambda: next(ticks)
        ))
        timer = BestOf()
        assert timer.seconds == float("inf")
        for _ in range(3):
            with timer:
                pass
        assert timer.seconds == 1.0

    def test_interleaved_timers_time_only_their_own_regions(
        self, monkeypatch
    ):
        # a: 0 -> 2 and 7 -> 8; b: 2 -> 7 and 8 -> 12; the untimed
        # setup between regions (12 -> 30) is charged to neither.
        ticks = iter([0.0, 2.0, 2.0, 7.0, 7.0, 8.0, 8.0, 12.0, 30.0, 33.0])
        monkeypatch.setattr(ledger_module, "time", SimpleNamespace(
            perf_counter=lambda: next(ticks)
        ))
        a, b = BestOf(), BestOf()
        for _ in range(2):
            with a:
                pass
            with b:
                pass
        with a:
            pass
        assert (a.seconds, b.seconds) == (1.0, 4.0)

    def test_times_real_work(self):
        timer = BestOf()
        with timer:
            time.sleep(0.01)
        assert 0.01 <= timer.seconds < 5.0


class TestDiff:
    def test_regression_flags_by_direction(self):
        old = make_ledger(run_seconds=1.0, throughput_teps=100.0)
        new = make_ledger(run_seconds=1.5, throughput_teps=50.0)
        diff = diff_ledgers(old, new, tolerance=0.05)
        flagged = {(d.metric, d.regressed) for d in diff.deltas}
        assert ("run_seconds", True) in flagged
        assert ("throughput_teps", True) in flagged

    def test_improvement_flags_by_direction(self):
        old = make_ledger(run_seconds=1.0, throughput_teps=100.0)
        new = make_ledger(run_seconds=0.5, throughput_teps=200.0)
        diff = diff_ledgers(old, new, tolerance=0.05)
        assert not diff.regressions
        assert {d.metric for d in diff.improvements} == {
            "run_seconds", "throughput_teps",
        }

    def test_within_tolerance_is_quiet(self):
        old = make_ledger(run_seconds=1.0)
        new = make_ledger(run_seconds=1.04)
        diff = diff_ledgers(old, new, tolerance=0.05)
        assert not diff.regressions and not diff.improvements

    def test_zero_old_uses_absolute_change(self):
        old = make_ledger(run_seconds=0.0)
        new = make_ledger(run_seconds=0.04)
        assert not diff_ledgers(old, new, tolerance=0.05).regressions
        worse = make_ledger(run_seconds=0.2)
        assert diff_ledgers(old, worse, tolerance=0.05).regressions

    def test_unmatched_entries_reported_not_diffed(self):
        old = Ledger(benchmark="t", entries=[LedgerEntry(name="gone")])
        new = Ledger(benchmark="t", entries=[LedgerEntry(name="added")])
        diff = diff_ledgers(old, new)
        assert diff.deltas == []
        assert diff.only_old == ["gone"]
        assert diff.only_new == ["added"]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ObservabilityError, match="tolerance"):
            diff_ledgers(make_ledger(), make_ledger(), tolerance=-0.1)

    def test_self_diff_is_clean(self):
        ledger = load_ledger(f"{REPO_ROOT}/BENCH_obs.json")
        diff = diff_ledgers(ledger, ledger)
        assert diff.deltas and not diff.regressions
        assert not diff.improvements

    def test_seeded_regression_fixtures_flag(self):
        """The committed fixture pair CI gates on: the regressed side
        must flag run_seconds and teps on the batched entry only."""
        old = load_ledger(f"{FIXTURES}/ledger_base.json")
        new = load_ledger(f"{FIXTURES}/ledger_regressed.json")
        diff = diff_ledgers(old, new, tolerance=0.05)
        regressed = {(d.entry, d.metric) for d in diff.regressions}
        assert regressed == {
            ("serve-kron7-batch32", "run_seconds"),
            ("serve-kron7-batch32", "throughput_teps"),
        }

    def test_render_diff_deterministic_and_flagging(self):
        old = load_ledger(f"{FIXTURES}/ledger_base.json")
        new = load_ledger(f"{FIXTURES}/ledger_regressed.json")
        diff = diff_ledgers(old, new)
        text = render_diff(diff, old_label="base", new_label="candidate")
        assert text == render_diff(diff, "base", "candidate")
        assert "base -> candidate" in text
        assert "REGRESSED" in text
        assert "2 regressed" in text
