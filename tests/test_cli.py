"""Command-line interface."""

import pytest

import repro.native as native
from repro.cli import main
from repro.graph.generators import kronecker
from repro.graph.io import load_csr, save_csr


@pytest.fixture
def saved_graph(tmp_path):
    graph = kronecker(scale=7, edge_factor=6, seed=61)
    target = tmp_path / "g.csr"
    save_csr(graph, target)
    return str(target), graph


class TestGenerate:
    def test_generates_and_saves(self, tmp_path, capsys):
        out = tmp_path / "k.csr"
        code = main([
            "generate", "--kind", "kronecker", "--scale", "7",
            "--edge-factor", "4", "--seed", "3", "--output", str(out),
        ])
        assert code == 0
        graph = load_csr(out)
        assert graph.num_vertices == 128
        assert "wrote kronecker graph" in capsys.readouterr().out

    def test_uniform_kind(self, tmp_path):
        out = tmp_path / "u.csr"
        assert main([
            "generate", "--kind", "uniform", "--scale", "6",
            "--edge-factor", "3", "--output", str(out),
        ]) == 0
        assert load_csr(out).num_vertices == 64


class TestInfo:
    def test_info_on_saved_graph(self, saved_graph, capsys):
        path, graph = saved_graph
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert f"vertices        : {graph.num_vertices}" in out
        assert "gini" in out

    def test_info_on_benchmark_name(self, capsys):
        assert main(["info", "PK"]) == 0
        assert "vertices" in capsys.readouterr().out


class TestRun:
    def test_run_prints_metrics(self, saved_graph, capsys):
        path, _ = saved_graph
        code = main(["run", path, "--sources", "16", "--group-size", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GTEPS" in out
        assert "sharing degree" in out

    def test_run_joint_no_groupby(self, saved_graph, capsys):
        path, _ = saved_graph
        assert main([
            "run", path, "--sources", "8", "--group-size", "4",
            "--mode", "joint", "--no-groupby",
        ]) == 0
        assert "ibfs-joint+random" in capsys.readouterr().out


class TestCompare:
    def test_ladder_has_all_engines(self, saved_graph, capsys):
        path, _ = saved_graph
        assert main([
            "compare", path, "--sources", "16", "--group-size", "8",
        ]) == 0
        out = capsys.readouterr().out
        for label in ("sequential", "naive", "joint", "bitwise", "groupby"):
            assert label in out


class TestGroups:
    def test_partition_printed(self, saved_graph, capsys):
        path, _ = saved_graph
        assert main([
            "groups", path, "--sources", "24", "--group-size", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "24 sources" in out
        assert "group   0" in out


class TestSSSPAndTopK:
    def test_sssp_verified(self, saved_graph, capsys):
        path, _ = saved_graph
        assert main(["sssp", path, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verified against Dijkstra: ok" in out

    def test_sssp_explicit_source(self, saved_graph, capsys):
        path, _ = saved_graph
        assert main(["sssp", path, "--source", "0"]) == 0
        assert "source            : 0" in capsys.readouterr().out

    def test_topk(self, capsys):
        assert main(["topk", "PK", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "top-2 closeness" in out
        assert "closeness=" in out


class TestTraceAndMetricsDump:
    @pytest.fixture(autouse=True)
    def _reset_obs(self):
        yield
        from repro.obs import metrics, profile, tracing

        tracing.set_tracer(None)
        metrics.set_hub(None)
        profile.disable()

    def test_run_trace_writes_parented_spans(self, saved_graph, tmp_path,
                                             capsys):
        import json

        path, _ = saved_graph
        trace = tmp_path / "out.jsonl"
        assert main([
            "run", path, "--sources", "16", "--group-size", "8",
            "--trace", str(trace),
        ]) == 0
        assert f"trace             : {trace}" in capsys.readouterr().out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = [r for r in records if r["kind"] == "span"]
        names = {s["name"] for s in spans}
        assert "run" in names
        assert "profile.level" in names
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["run"]

    def test_metrics_dump_renders_prometheus_text(self, saved_graph,
                                                  tmp_path, capsys):
        path, _ = saved_graph
        trace = tmp_path / "out.jsonl"
        assert main([
            "run", path, "--sources", "16", "--group-size", "8",
            "--workers", "2", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics-dump", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE exec_tasks_total counter" in out
        assert 'exec_task_wall_seconds_bucket{le="+Inf"}' in out
        assert "exec_task_wall_seconds_count" in out

    def test_metrics_dump_without_metrics_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["metrics-dump", str(empty)]) == 1
        assert "no metric records" in capsys.readouterr().err


class TestKernels:
    def test_reports_compiled_library(self, compiled, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "native backend  : cext" in out
        labels = [line.split(":")[0].strip() for line in out.splitlines()]
        assert labels == ["native backend", "c compiler", "warm-up"]

    def test_reports_numpy_fallback_and_reason(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.refresh()
        try:
            assert main(["kernels"]) == 0
        finally:
            monkeypatch.undo()
            native.refresh()
        out = capsys.readouterr().out
        assert "native backend  : unavailable" in out
        assert "reason          : disabled via REPRO_NATIVE=0" in out


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
