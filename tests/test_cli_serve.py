"""CLI serving subcommands and the installable console entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph.generators import kronecker
from repro.graph.io import save_csr


@pytest.fixture
def saved_graph(tmp_path):
    graph = kronecker(scale=7, edge_factor=6, seed=61)
    target = tmp_path / "g.csr"
    save_csr(graph, target)
    return str(target)


class TestServe:
    def test_serve_prints_metrics(self, saved_graph, capsys):
        code = main([
            "serve", saved_graph, "--requests", "64", "--clients", "16",
            "--batch-size", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "latency p50/p99" in out
        assert "cache hit rate" in out

    def test_serve_writes_metrics_json(self, saved_graph, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main([
            "serve", saved_graph, "--requests", "48", "--clients", "8",
            "--batch-size", "8", "--metrics-json", str(target),
        ]) == 0
        payload = json.loads(target.read_text())
        assert payload["requests"]["completed"] == 48
        assert "latency_seconds" in payload
        assert "cache" in payload
        assert payload["batches"]["count"] >= 1

    def test_serve_without_groupby(self, saved_graph, capsys):
        assert main([
            "serve", saved_graph, "--requests", "32", "--clients", "8",
            "--batch-size", "8", "--no-groupby",
        ]) == 0
        assert "completed         : 32" in capsys.readouterr().out


class TestBenchServe:
    def test_bench_serve_reports_speedup(self, saved_graph, capsys):
        code = main([
            "bench-serve", saved_graph, "--requests", "96", "--clients",
            "16", "--batch-size", "8", "--deadline-us", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "micro-batched serving" in out
        assert "naive serving" in out
        assert "throughput speedup" in out

    @pytest.mark.parametrize("kind", ["executor", "partitioned"])
    def test_bench_serve_serves_on_the_requested_substrate(
        self, saved_graph, capsys, monkeypatch, kind
    ):
        # Both the batched and the naive server must be built on the
        # --substrate placement, not silently on serial ones.
        import repro.service.server as server_module

        built = []
        make_substrate = server_module.make_substrate

        def spy(spec, graph, **kwargs):
            built.append(spec.kind)
            return make_substrate(spec, graph, **kwargs)

        monkeypatch.setattr(server_module, "make_substrate", spy)
        assert main([
            "bench-serve", saved_graph, "--requests", "64", "--clients",
            "16", "--batch-size", "8", "--substrate", kind,
        ]) == 0
        assert built == [kind, kind]
        assert "throughput speedup" in capsys.readouterr().out

    def test_bench_serve_under_churn(self, saved_graph, capsys):
        assert main([
            "bench-serve", saved_graph, "--requests", "64", "--clients",
            "16", "--batch-size", "8", "--churn", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "micro-batched serving under churn" in out
        assert "naive serving under churn" in out
        assert "epochs published" in out


class TestConsoleEntryPoint:
    def test_pyproject_declares_the_script(self):
        pyproject = (
            Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text()
        assert '[project.scripts]' in pyproject
        assert 'repro = "repro.cli:main"' in pyproject

    def test_entry_point_target_resolves(self):
        """The declared target must import and be the argv-taking main."""
        import importlib

        module_name, attr = "repro.cli:main".split(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert callable(target)
        assert target is main

    def test_module_execution_smoke(self, saved_graph):
        """``python -m repro`` behaves like the console script."""
        import repro

        src_dir = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info", saved_graph],
            capture_output=True,
            text=True,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "vertices" in completed.stdout
