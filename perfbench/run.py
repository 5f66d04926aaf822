"""Run the repository benchmark.

    python3 perfbench/run.py --workload zipf-hot --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all             # every workload
    python3 perfbench/run.py --smoke                    # all four, toy size

One run builds the workload's graph and server several times (the
median is ``setup_s``), serves warm-up traffic, then serves closed-loop
traffic for ``--seconds`` of host time.  ``--trace 0`` reports the
end-to-end metrics with the process tracer and ``obs.profile`` off,
throughput and latency scaled to a reference host speed by a
calibration loop timed beside the program (see :mod:`perfbench.calibrate`).
``--trace 1`` alternates untraced and traced segments on the same
server and reports the per-layer metrics from the traced ones (plus the
tracing overhead between the two).  Either way a seeded sample of
responses is checked against the BFS oracle, and the run must leave no
shared-memory segment or worker process behind.

Prints a summary, then as the last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Writes a
``repro.bench-ledger/v1`` ledger (and, traced, a JSONL trace for
``repro trace-report``) under ``.bench_build/perfbench/``.  Exits 1 when
a check fails and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_build" / "perfbench"
#: An untraced run sets up at least this many times, and until this
#: many seconds have gone into set-up; ``setup_s`` is the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


def bootstrap() -> None:
    """Make ``repro`` and ``perfbench`` importable from the checkout and
    keep the native build cache inside it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "repro-native")


def make_server(workload):
    """Graph, server and substrate, with native kernels warm and (for the
    executor) workers spawned and the graph published."""
    import repro.native as native
    from perfbench.workloads import build_graph
    from repro.runtime import SubstrateSpec
    from repro.service import BFSServer, ServingConfig
    from repro.stream import DynamicBFSServer

    graph = build_graph(workload.scale)
    # Depth rows ride on the responses so the oracle can check them.
    serving = ServingConfig(
        cache_capacity=workload.cache_rows,
        num_devices=workload.num_devices,
        return_depths=True,
    )
    if workload.churn:
        server = DynamicBFSServer(graph, serving)
    else:
        spec = SubstrateSpec(kind=workload.substrate, workers=workload.workers)
        server = BFSServer(graph, serving, substrate=spec)
    native.warmup()
    # The executor spawns its pool and publishes the graph lazily, on
    # the first group it runs.
    server.substrate.run_group([0])
    return server


def run_workload(workload, args) -> int:
    from perfbench import checks, metrics
    from perfbench.calibrate import Calibration
    from perfbench.layers import LayerTrace, Segments
    from perfbench.loop import ClosedLoop
    from perfbench.workloads import (
        FingerprintError, MutationStream, SourceStream, check_fingerprint,
    )
    from repro.obs.export import write_jsonl
    from repro.obs.ledger import LedgerEntry, MetricPoint, save_ledger
    from repro.obs.tracing import Tracer

    clock = Tracer(process="perfbench")
    traced = bool(args.trace)
    # Untraced, every timestamp is on the calibration's clock, which
    # stops while the reference loop runs.
    calibration = Calibration(clock.now)
    now = clock.now if traced else calibration.now
    shm_before = checks.shm_segments()
    setup_times = []
    while not setup_times or not traced and (
        len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS
    ):
        if setup_times:
            server.close()
        t0 = now()
        server = make_server(workload)
        setup_times.append(now() - t0)
    try:
        check_fingerprint(server.graph, workload.scale)
    except FingerprintError as exc:
        server.close()
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    sample = checks.ResponseSample(workload.check_per_stratum, args.seed)
    loop = ClosedLoop(
        server,
        SourceStream(server.graph, workload.zipf, args.seed),
        now,
        mutations=MutationStream(args.seed) if workload.churn else None,
    )
    trace = LayerTrace(clock, server)
    try:
        loop.run(requests=workload.warmup_requests)
        loop.on_response = sample.offer
        if traced:
            segments = Segments(clock, trace, now())
            phase = loop.run(seconds=args.seconds, poll=segments.poll)
            segments.close(now())
        else:
            phase = loop.run(seconds=args.seconds, poll=calibration.poll)
            rss = checks.peak_rss_mb()
        batch_size = server.batch_size
        num_edges = server.graph.num_edges
    finally:
        if trace.installed:
            trace.uninstall()
        server.close()

    # -- checks (outside the timed region) ------------------------------
    problems = checks.verify_samples(sample.items())
    if workload.churn:
        decisions = {decision for decision, _ in sample.reservoirs}
        for needed in ("repair", "recompute"):
            if needed not in decisions:
                problems.append(f"no response sampled from a {needed} epoch")
    leaked = sorted(checks.shm_segments() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    workers = checks.live_workers()
    if workers:
        problems.append(f"worker processes still alive: {workers}")
    wrong = len(problems)
    attempted = phase.submitted + phase.shed + phase.mutations
    failed = phase.shed + phase.errored + wrong

    # -- metrics ----------------------------------------------------------
    ledger_only = {"error_rate": metrics.ratio(failed, attempted)}
    if traced:
        records = [span.to_dict() for span in clock.drain()]
        values = metrics.per_layer(
            records, trace, segments, phase, batch_size, num_edges
        )
        reported = metrics.PER_LAYER
        trace_path = OUT_DIR / f"{label(workload.name, args)}.trace.jsonl"
    else:
        values, latency_samples = metrics.end_to_end(
            phase, calibration, setup_times, rss, workload.sim_window
        )
        if workload.churn:
            scale = values["host_speed"]
            mutate_ms = [x * 1e3 * scale for x in phase.mutate_seconds]
            ledger_only["mutate_p50_ms"] = metrics.percentile(mutate_ms, 50)
            ledger_only["mutate_p95_ms"] = metrics.percentile(mutate_ms, 95)
        reported = metrics.END_TO_END
        trace_path = None

    # -- output -----------------------------------------------------------
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    units = {m.name: m for m in (*reported, *metrics.LEDGER_ONLY)}
    shown = {**values, **({} if traced else ledger_only)}
    entry = LedgerEntry(
        name=workload.name,
        metrics={
            name: MetricPoint(value, units[name].better, units[name].unit)
            for name, value in shown.items()
        },
        attrs={
            "why": workload.why,
            "attempted": attempted,
            "failed": failed,
            "completed": phase.completed,
            "cache_hits": phase.cached,
            "mutations": phase.mutations,
        },
    )
    save_ledger(make_ledger(args, [entry]), str(ledger_path(workload.name, args)))
    if trace_path is not None:
        write_jsonl(str(trace_path), records)

    mode = ("traced segments, per layer; host wall-clock" if traced else
            "tracing off, end to end; host wall-clock, throughput and "
            "latency scaled to reference host speed unless named host_")
    print(f"perfbench {workload.name} seed={args.seed} ({mode}; simulated "
          f"clock if named sim_)")
    for name, value in shown.items():
        print(f"  {name:<38} {value:>16.6g} {units[name].unit}")
    if not traced:
        print(f"  {'latency samples':<38} {latency_samples:>16d}")
        print(f"  {'throughput: median over windows':<38} {metrics.WINDOWS:>16d}")
        print(f"  {'set-ups timed':<38} {len(setup_times):>16d}")
        print(f"  {'reference samples':<38} {len(calibration.seconds):>16d}")
    print(f"  {'cache hit share':<38} {metrics.ratio(phase.cached, phase.completed):>16.4f}")
    if workload.churn:
        print(f"  {'mutations':<38} {phase.mutations:>16d}")
    print(f"  {'attempted / failed':<38} {attempted:>9d} / {failed:d}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if trace_path is not None:
        print(f"  trace: {trace_path}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name], "unit": m.unit} for m in reported
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def label(name: str, args) -> str:
    return name + (".smoke" if args.smoke else "") + (".traced" if args.trace else "")


def ledger_path(name: str, args) -> Path:
    return OUT_DIR / f"{label(name, args)}.ledger.json"


def make_ledger(args, entries):
    """A ``repro.bench-ledger/v1`` ledger with one entry per workload and
    the host facts in ``meta``."""
    import numpy
    import repro.native as native
    from repro.obs.ledger import Ledger

    return Ledger(
        benchmark="perfbench",
        mode=("smoke" if args.smoke else "full") + ("-traced" if args.trace else ""),
        meta={
            "nproc": os.cpu_count(),
            "native_backend": native.backend_name(),
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        entries=entries,
    )


def run_all(args, names) -> int:
    """Each workload in its own process; merges their ledgers."""
    from repro.obs.ledger import load_ledger, save_ledger

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    entries = []
    status = 0
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            total["correct"] = False
            continue
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, point in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = point
        if proc.returncode == 0:
            entries += load_ledger(str(ledger_path(name, args))).entries
    path = ledger_path("all", args)
    save_ledger(make_ledger(args, entries), str(path))
    print(f"ledger: {path}")
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds to measure (default 24, smoke 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size graphs, for a fast end-to-end check")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 24.0
    bootstrap()
    from perfbench.workloads import WORKLOADS, smoke

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    try:
        return run_workload(workload, args)
    finally:
        from perfbench.checks import stop_resource_tracker

        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
