"""Command-line interface for the iBFS reproduction.

Subcommands mirror the workflows a user of the original system would
run:

* ``generate`` — build a synthetic graph and save it to disk;
* ``info`` — print structural statistics of a stored graph;
* ``run`` — concurrent BFS with a chosen engine, printing TEPS and
  profiler counters;
* ``plan`` — record the per-level traversal plan of one group, inspect
  it, export it as JSON, and replay it bit-identically;
* ``compare`` — the figure-15 engine ladder on one graph;
* ``groups`` — show the GroupBy partition for a source set;
* ``serve`` — drive the online serving layer with a closed-loop
  workload and print (or export) serving metrics;
* ``bench-serve`` — micro-batched vs one-request-one-traversal
  serving throughput on the same workload;
* ``mutate`` — apply an edge-mutation batch to a stored graph,
  report the repair-plan decision, and save the folded CSR;
* ``metrics-dump`` — re-render the metric records of a ``run --trace``
  JSONL file as Prometheus text exposition format;
* ``trace-report`` — attribute a recorded trace: top spans, per-wave
  waterfall + critical path, per-level rows, substrate comparison;
* ``slo`` — replay a recorded trace through the declarative SLO
  engine and report burn rates and breach/resolve alerts;
* ``bench-diff`` — compare two ``repro.bench-ledger/v1`` benchmark
  ledgers and flag regressions;
* ``kernels`` — report whether this host runs the compiled kernels
  (``cext``) or the numpy fallback, and the warm-up cost.

Usage: ``python -m repro.cli <subcommand> --help`` (or the installed
``repro`` console script).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro import (
    IBFS,
    FaultPolicy,
    IBFSConfig,
    NaiveConcurrentBFS,
    SequentialConcurrentBFS,
    benchmark_graph,
)
from repro.graph import (
    BENCHMARK_NAMES,
    CSRGraph,
    kronecker,
    load_csr,
    rmat,
    save_csr,
    uniform_random,
)
from repro.graph.properties import degree_stats, gini_coefficient
from repro.core.groupby import GroupByConfig, group_sources
from repro.plan import POLICY_NAMES, make_policy
from repro.runtime import SUBSTRATE_NAMES, SubstrateSpec, make_substrate


def _substrate_spec(args: argparse.Namespace) -> Optional[SubstrateSpec]:
    """One placement spec from the legacy flags (``--workers`` /
    ``--partitions`` / ``--churn`` stay aliases) plus ``--substrate``.
    Prints the capability error and returns None when the combination
    is invalid (callers exit 2)."""
    from repro.errors import SubstrateError

    try:
        return SubstrateSpec.from_flags(
            kind=getattr(args, "substrate", None),
            workers=getattr(args, "workers", 0),
            partitions=getattr(args, "partitions", 0),
            layout=getattr(args, "layout", "1d"),
            churn=getattr(args, "churn", 0) > 0,
        )
    except SubstrateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _load_graph(spec: str) -> CSRGraph:
    """Interpret a graph argument: a benchmark name or a saved CSR path."""
    if spec.upper() in BENCHMARK_NAMES:
        return benchmark_graph(spec)
    return load_csr(spec)


def _pick_sources(graph: CSRGraph, count: int, seed: int) -> List[int]:
    rng = np.random.default_rng(seed)
    count = min(count, graph.num_vertices)
    return sorted(
        rng.choice(graph.num_vertices, size=count, replace=False).tolist()
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "kronecker":
        graph = kronecker(args.scale, args.edge_factor, seed=args.seed)
    elif args.kind == "rmat":
        graph = rmat(args.scale, args.edge_factor, seed=args.seed)
    else:
        graph = uniform_random(1 << args.scale, args.edge_factor, seed=args.seed)
    save_csr(graph, args.output)
    print(
        f"wrote {args.kind} graph: {graph.num_vertices} vertices, "
        f"{graph.num_edges} edges -> {args.output}"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    stats = degree_stats(graph)
    print(f"vertices        : {graph.num_vertices}")
    print(f"directed edges  : {graph.num_edges}")
    print(f"average degree  : {graph.average_degree:.2f}")
    print(f"max degree      : {int(stats['max'])}")
    print(f"degree stddev   : {stats['std']:.2f}")
    print(f"degree gini     : {gini_coefficient(graph):.3f}")
    print(f"symmetric       : {graph.is_symmetric()}")
    print(f"csr bytes       : {graph.memory_bytes():,}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    sources = _pick_sources(graph, args.sources, args.seed)
    config = IBFSConfig(
        group_size=args.group_size,
        mode=args.mode,
        groupby=not args.no_groupby,
    )
    planner = make_policy(args.policy) if args.policy else None
    tracer = None
    if args.trace:
        from repro import obs

        tracer = obs.configure_tracing(process="cli")
        obs.configure_profiling(enabled=True)
    spec = _substrate_spec(args)
    if spec is None:
        return 2
    exec_stats = None
    dist_stats = None
    root = tracer.start_span("run", graph=args.graph,
                             sources=len(sources)) if tracer else None
    try:
        with make_substrate(
            spec,
            graph,
            engine_config=config,
            planner=planner,
            faults=FaultPolicy(fail_fast=args.fail_fast),
        ) as substrate:
            result = substrate.run(sources, store_depths=False)
            if substrate.supports_partitions:
                dist_stats = substrate.last_stats
            elif substrate.supports_executor:
                exec_stats = substrate.last_stats
    finally:
        if tracer is not None:
            if root is not None:
                tracer.finish_span(root)
            from repro import obs

            lines = obs.write_jsonl(
                args.trace, obs.trace_records(tracer, obs.get_hub())
            )
            print(f"trace             : {args.trace} ({lines} records)")
    print(f"engine            : {result.engine}")
    print(f"instances         : {result.num_instances}")
    print(f"groups            : {len(result.groups)}")
    print(f"simulated runtime : {result.seconds * 1e3:.3f} ms")
    print(f"traversal rate    : {result.teps / 1e9:.2f} GTEPS")
    print(f"sharing degree    : {result.sharing_degree:.2f}")
    print(f"load transactions : {result.counters.global_load_transactions:,}")
    print(f"store transactions: {result.counters.global_store_transactions:,}")
    print(f"early terminations: {result.counters.early_terminations:,}")
    if exec_stats is not None:
        print(f"exec backend      : {exec_stats.backend} "
              f"({exec_stats.num_workers} workers)")
        print(f"wall clock        : {exec_stats.wall_seconds * 1e3:.1f} ms")
        print(f"steals/retries    : {exec_stats.steals}/{exec_stats.retries}")
        if exec_stats.degraded:
            print("warning           : pool lost; degraded to in-process")
    if dist_stats is not None:
        formats = ",".join(
            f"{fmt}:{count}"
            for fmt, count in sorted(dist_stats.formats().items())
        )
        print(f"dist partitions   : "
              f"{dist_stats.layout} x {dist_stats.num_partitions}")
        print(f"exchange bytes    : {dist_stats.bytes_total:,} "
              f"({dist_stats.messages_total} messages)")
        print(f"exchange formats  : {formats or '-'}")
    return 0


def _summarize_directions(decision) -> str:
    td = decision.top_down
    bu = decision.bottom_up
    parts = []
    if td:
        parts.append(f"td:{td}")
    if bu:
        parts.append(f"bu:{bu}")
    return " ".join(parts) or "-"


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.plan import RunPlan

    graph = _load_graph(args.graph)
    count = min(args.sources, args.group_size)
    group = _pick_sources(graph, count, args.seed)
    config = IBFSConfig(group_size=args.group_size, mode=args.mode)
    engine = IBFS(graph, config, planner=make_policy(args.policy))

    replay_plan = None
    if args.replay:
        with open(args.replay) as fh:
            replay_plan = RunPlan.from_json(fh.read())

    result = engine.run_group(group, max_depth=args.max_depth, plan=replay_plan)
    plan = result.groups[0].plan

    print(f"graph       : {args.graph}")
    print(f"group       : {len(group)} sources (seed {args.seed})")
    print(f"engine      : {plan.engine}")
    print(f"policy      : {plan.policy}"
          + ("  (replayed)" if replay_plan is not None else ""))
    print(f"levels      : {len(plan)}")
    print(f"{'level':<7}{'directions':<16}{'vw':<4}{'early-term':<10}")
    for level, decision in enumerate(plan):
        print(
            f"{level:<7}{_summarize_directions(decision):<16}"
            f"{decision.vector_width:<4}"
            f"{'on' if decision.early_termination else 'off':<10}"
        )
    print(f"simulated runtime : {result.seconds * 1e3:.3f} ms")
    if replay_plan is not None:
        matches = plan == replay_plan
        print(f"replay plan match : {'ok' if matches else 'DIVERGED'}")
        if not matches:
            return 1
    if args.export:
        with open(args.export, "w") as fh:
            fh.write(plan.to_json())
        print(f"exported plan     : {args.export}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    sources = _pick_sources(graph, args.sources, args.seed)
    engines = {
        "sequential": SequentialConcurrentBFS(graph),
        "naive": NaiveConcurrentBFS(graph),
        "joint": IBFS(
            graph,
            IBFSConfig(group_size=args.group_size, mode="joint", groupby=False),
        ),
        "bitwise": IBFS(
            graph,
            IBFSConfig(group_size=args.group_size, mode="bitwise", groupby=False),
        ),
        "groupby": IBFS(
            graph,
            IBFSConfig(group_size=args.group_size, mode="bitwise", groupby=True),
        ),
    }
    baseline = None
    print(f"{'engine':<12}{'GTEPS':>8}{'ms':>10}{'speedup':>9}")
    for label, engine in engines.items():
        result = engine.run(sources, store_depths=False)
        if baseline is None:
            baseline = result.seconds
        print(
            f"{label:<12}{result.teps / 1e9:>8.2f}"
            f"{result.seconds * 1e3:>10.3f}"
            f"{baseline / result.seconds:>8.2f}x"
        )
    return 0


def cmd_groups(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    sources = _pick_sources(graph, args.sources, args.seed)
    groups = group_sources(
        graph, sources, args.group_size, GroupByConfig(q=args.q)
    )
    degrees = graph.out_degrees()
    print(f"{len(sources)} sources -> {len(groups)} groups "
          f"(group size {args.group_size}, q={args.q})")
    for i, members in enumerate(groups):
        mean_deg = float(np.mean([degrees[s] for s in members]))
        print(
            f"  group {i:>3}: {len(members):>3} sources, "
            f"mean outdegree {mean_deg:.1f}"
        )
    return 0


def cmd_sssp(args: argparse.Namespace) -> int:
    from repro.bfs.sssp import DeltaStepping, dijkstra
    from repro.graph.weighted import with_random_weights

    graph = _load_graph(args.graph)
    weighted = with_random_weights(
        graph, low=args.min_weight, high=args.max_weight, seed=args.seed
    )
    source = args.source
    if source is None:
        source = int(graph.out_degrees().argmax())
    result = DeltaStepping(weighted, delta=args.delta).run(source)
    exact = dijkstra(weighted, source)
    assert np.allclose(result.distances, exact, equal_nan=True)
    finite = np.isfinite(result.distances)
    print(f"source            : {source}")
    print(f"reached           : {int(finite.sum())} / {graph.num_vertices}")
    if finite.any():
        print(f"max distance      : {result.distances[finite].max():.3f}")
    print(f"relaxations       : {result.relaxations:,}")
    print(f"simulated runtime : {result.seconds * 1e3:.3f} ms")
    print("verified against Dijkstra: ok")
    return 0


def _serving_config(args: argparse.Namespace) -> "ServingConfig":
    from repro.service import ServingConfig

    return ServingConfig(
        batch_size=args.batch_size,
        flush_deadline=args.deadline_us * 1e-6,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity,
        num_devices=args.devices,
        groupby=not args.no_groupby,
    )


def _workload_config(args: argparse.Namespace) -> "WorkloadConfig":
    from repro.service import WorkloadConfig

    return WorkloadConfig(
        num_requests=args.requests,
        num_clients=args.clients,
        zipf_exponent=args.zipf,
        kind=args.kind,
        max_depth=args.max_depth,
        seed=args.seed,
    )


def _print_load_result(label: str, result) -> None:
    lat = result.metrics["latency_seconds"]
    batches = result.metrics["batches"]
    cache = result.metrics["cache"]
    print(f"{label}")
    print(f"  completed         : {result.completed} "
          f"(shed {result.shed}, errored {result.errored})")
    print(f"  simulated elapsed : {result.elapsed * 1e3:.3f} ms")
    print(f"  throughput        : {result.throughput / 1e3:.1f}k req/s")
    print(f"  latency p50/p99   : {lat['p50'] * 1e6:.1f} / "
          f"{lat['p99'] * 1e6:.1f} us")
    print(f"  batches           : {batches['count']} "
          f"(occupancy {batches['mean_occupancy']:.2f}, "
          f"sharing degree {batches['mean_sharing_degree']:.2f})")
    print(f"  cache hit rate    : {cache['hit_rate']:.2f} "
          f"({cache['hits']} hits, {cache['evictions']} evictions)")


def _churn_config(args: argparse.Namespace) -> Optional["ChurnConfig"]:
    """The ``--churn`` mutation stream, or None on a static graph."""
    from repro.service import ChurnConfig

    if args.churn <= 0:
        return None
    return ChurnConfig(
        mutate_every=args.churn,
        inserts_per_batch=args.churn_inserts,
        deletes_per_batch=args.churn_deletes,
        seed=args.seed + 1,
    )


def _print_epoch_summary(metrics: dict) -> None:
    epochs = metrics["epochs"]
    print(f"  epochs published  : {epochs['published']} "
          f"({epochs['repairs']} repaired, "
          f"{epochs['recomputes']} recomputed)")
    print(f"  cache across swaps: {epochs['rows_repaired']} rows repaired, "
          f"{epochs['rows_dropped']} dropped, "
          f"{epochs['plans_purged']} plans purged")


def _make_slo_engine(args: argparse.Namespace):
    """SLO engine for ``serve --slo`` (hub-wired default specs)."""
    if not getattr(args, "slo", False):
        return None
    from repro import obs

    return obs.SLOEngine(hub=obs.get_hub())


def _print_slo_summary(engine) -> None:
    if engine is None:
        return
    breaches = sum(1 for a in engine.alerts if a.kind == "breach")
    breached_now = sum(
        1 for s in engine._last_status if s.breached
    )
    print(f"  slo               : {len(engine.specs)} specs, "
          f"{breaches} breach alerts, {breached_now} currently breached")


def _maybe_write_trace(args: argparse.Namespace, tracer) -> None:
    if tracer is None:
        return
    from repro import obs

    lines = obs.write_jsonl(
        args.trace, obs.trace_records(tracer, obs.get_hub())
    )
    print(f"  trace             : {args.trace} ({lines} records)")


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import BFSServer, run_closed_loop
    from repro.stream import DynamicBFSServer

    graph = _load_graph(args.graph)
    serving = _serving_config(args)
    tracer = None
    if getattr(args, "trace", None):
        from repro import obs

        tracer = obs.configure_tracing(process="serve")
        obs.configure_profiling(enabled=True)
    spec = _substrate_spec(args)
    if spec is None:
        return 2
    slo_engine = _make_slo_engine(args)
    planner = make_policy(args.policy) if args.policy else None
    churn = _churn_config(args)
    server_cls = DynamicBFSServer if spec.kind == "stream" else BFSServer
    with server_cls(
        graph, serving, planner=planner, slo=slo_engine, substrate=spec,
    ) as server:
        result = run_closed_loop(server, _workload_config(args), churn)
        executor = server.substrate.executor
        exec_stats = executor.last_stats if executor is not None else None
    if churn is not None:
        label = (
            f"served {args.requests} {args.kind} requests with churn "
            f"(mutation every {args.churn} completions: "
            f"+{args.churn_inserts}/-{args.churn_deletes} edges)"
        )
    else:
        label = (
            f"served {args.requests} {args.kind} requests "
            f"({args.clients} closed-loop clients, zipf {args.zipf})"
        )
    _print_load_result(label, result)
    if "epochs" in result.metrics:
        _print_epoch_summary(result.metrics)
    if exec_stats is not None:
        print(f"  exec backend      : {exec_stats.backend} "
              f"({exec_stats.num_workers} workers)")
    _print_slo_summary(slo_engine)
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as fh:
            json.dump(result.metrics, fh, indent=2)
        print(f"  metrics json      : {args.metrics_json}")
    _maybe_write_trace(args, tracer)
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.service import compare_serving

    graph = _load_graph(args.graph)
    planner = make_policy(args.policy) if args.policy else None
    spec = _substrate_spec(args)
    if spec is None:
        return 2
    churn = _churn_config(args)
    comparison = compare_serving(
        graph, _workload_config(args), _serving_config(args),
        planner=planner, substrate=spec, churn=churn,
    )
    if churn is None:
        batched = "micro-batched serving"
        naive = "naive serving (one request, one traversal)"
    else:
        batched = "micro-batched serving under churn"
        naive = "naive serving under churn"
    _print_load_result(batched, comparison["batched"])
    if "epochs" in comparison["batched"].metrics:
        _print_epoch_summary(comparison["batched"].metrics)
    _print_load_result(naive, comparison["naive"])
    print(f"throughput speedup  : {comparison['speedup']:.2f}x")
    return 0


def _parse_edge_pairs(specs: List[str]) -> "tuple":
    src: List[int] = []
    dst: List[int] = []
    for spec in specs:
        try:
            a, b = spec.split(":")
            src.append(int(a))
            dst.append(int(b))
        except ValueError:
            raise SystemExit(
                f"error: bad edge spec {spec!r}; expected SRC:DST"
            )
    return np.asarray(src), np.asarray(dst)


def cmd_mutate(args: argparse.Namespace) -> int:
    from repro.graph import save_csr
    from repro.service import random_delete_batch, random_insert_batch
    from repro.stream import GraphOverlay, plan_repair

    graph = _load_graph(args.graph)
    overlay = GraphOverlay(graph)
    rng = np.random.default_rng(args.seed)
    if args.insert:
        overlay.insert_edges(*_parse_edge_pairs(args.insert))
    if args.delete:
        overlay.delete_edges(*_parse_edge_pairs(args.delete))
    if args.random_inserts:
        overlay.insert_edges(
            *random_insert_batch(graph.num_vertices, args.random_inserts, rng)
        )
    if args.random_deletes:
        overlay.delete_edges(
            *random_delete_batch(graph, args.random_deletes, rng)
        )
    if not overlay.has_pending:
        print("error: nothing to mutate (pass --insert/--delete or "
              "--random-inserts/--random-deletes)", file=sys.stderr)
        return 2
    batch = overlay.pending_batch()
    folded = overlay.compact()
    plan = plan_repair(batch, folded)
    print(f"graph             : {args.graph}")
    print(f"mutation batch    : +{batch.num_inserts} inserts, "
          f"-{batch.num_deletes} deletes")
    print(f"edges             : {graph.num_edges:,} -> {folded.num_edges:,}")
    print(f"repair plan       : {plan.decision} ({plan.reason})")
    if args.out:
        save_csr(folded, args.out)
        print(f"folded CSR        : {args.out}")
    return 0


def cmd_metrics_dump(args: argparse.Namespace) -> int:
    from repro import obs

    records = obs.read_jsonl(args.trace)
    metrics = obs.metrics_only(records)
    if not metrics:
        print(f"no metric records in {args.trace}", file=sys.stderr)
        return 1
    sys.stdout.write(obs.render_prometheus(metrics))
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro import obs

    # Streamed: the JSONL parses incrementally and only span/metric
    # records are retained for attribution.
    records = [
        r for r in obs.iter_jsonl(args.trace)
        if r.get("kind") in ("span", "metric")
    ]
    if not any(r.get("kind") == "span" for r in records):
        print(f"no span records in {args.trace}", file=sys.stderr)
        return 1
    sys.stdout.write(
        obs.render_trace_report(
            records,
            top=args.top,
            max_waves=args.max_waves,
            max_levels=args.max_levels,
        )
    )
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from repro import obs

    specs = obs.load_slo_specs(args.specs) if args.specs else None
    engine = obs.SLOEngine(specs)
    obs.replay_trace(obs.iter_jsonl(args.trace), engine)
    sys.stdout.write(obs.render_slo_report(engine))
    if args.check and any(a.kind == "breach" for a in engine.alerts):
        print("slo check failed: breach alerts were emitted",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.errors import ObservabilityError

    try:
        old = obs.load_ledger(args.old)
        new = obs.load_ledger(args.new)
    except ObservabilityError as exc:
        print(f"bench-diff: {exc}", file=sys.stderr)
        return 1
    diff = obs.diff_ledgers(old, new, tolerance=args.tolerance)
    sys.stdout.write(
        obs.render_diff(diff, old_label=args.old, new_label=args.new)
    )
    # Fail closed: a gate that compared nothing, or a candidate entry
    # the baseline cannot vouch for, must not pass.
    failures = []
    if diff.regressions:
        failures.append(f"{len(diff.regressions)} regression(s) beyond "
                        f"{args.tolerance:.0%} tolerance")
    if diff.only_new:
        failures.append("candidate entries missing from the baseline: "
                        + ", ".join(diff.only_new))
    if not diff.deltas:
        failures.append("no metric was compared")
    for failure in failures:
        print(f"bench-diff: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_kernels(args: argparse.Namespace) -> int:
    """Report which kernel backend this host actually runs."""
    import repro.native as native

    if args.warmup:
        native.warmup()
    report = native.capability_report()
    warm = report["warmup_seconds"]
    print(f"native backend  : "
          f"{report['backend'] or 'unavailable'}")
    if not report["enabled"]:
        print(f"reason          : {report['reason']}")
    print(f"c compiler      : {report['compiler'] or 'not found'}")
    print(f"warm-up         : "
          + (f"{warm * 1e3:.1f} ms" if warm is not None else
             "not run (pass --warmup)"))
    return 0


def cmd_topk(args: argparse.Namespace) -> int:
    from repro.apps.topk_closeness import top_k_closeness

    graph = _load_graph(args.graph)
    ranking = top_k_closeness(graph, args.k)
    degrees = graph.out_degrees()
    print(f"top-{args.k} closeness on {args.graph}:")
    for rank, (vertex, score) in enumerate(ranking, start=1):
        print(
            f"  {rank:>2}. vertex {vertex:>6}  closeness={score:.4f}  "
            f"degree={int(degrees[vertex])}"
        )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="iBFS reproduction: concurrent BFS on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("--kind", choices=("kronecker", "rmat", "uniform"),
                     default="kronecker")
    gen.add_argument("--scale", type=int, default=12,
                     help="log2 of the vertex count")
    gen.add_argument("--edge-factor", type=int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True, help="output .csr path")
    gen.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="print graph statistics")
    info.add_argument("graph", help="benchmark name (FB, KG0, ...) or .csr path")
    info.set_defaults(func=cmd_info)

    run = sub.add_parser("run", help="run concurrent BFS with iBFS")
    run.add_argument("graph")
    run.add_argument("--sources", type=int, default=128)
    run.add_argument("--group-size", type=int, default=32)
    run.add_argument("--mode", choices=("bitwise", "joint"), default="bitwise")
    run.add_argument("--no-groupby", action="store_true")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--substrate", choices=SUBSTRATE_NAMES, default=None,
                     help="execution substrate (default: derived — "
                          "--partitions selects partitioned, --workers "
                          "executor, else serial)")
    run.add_argument("--workers", type=int, default=0,
                     help="worker processes for the real execution "
                          "backend (0 = in-process, the default)")
    run.add_argument("--partitions", type=int, default=0,
                     help="split the graph across this many partitions "
                          "and traverse with the distributed engine "
                          "(0 = whole-graph, the default)")
    run.add_argument("--layout", choices=("1d", "2d"), default="1d",
                     help="partition layout (with --partitions)")
    run.add_argument("--fail-fast", action="store_true",
                     help="raise on the first worker fault instead of "
                          "retrying within the fault budget")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="enable tracing + profiling and write the "
                          "span/metric trace as JSON lines to PATH")
    run.add_argument("--policy", choices=POLICY_NAMES, default=None,
                     help="traversal planner policy (default: the "
                          "engine's heuristic policy)")
    run.set_defaults(func=cmd_run)

    plan = sub.add_parser(
        "plan",
        help="record, inspect, export, and replay a traversal plan",
    )
    plan.add_argument("graph")
    plan.add_argument("--sources", type=int, default=32,
                      help="sources in the (single) planned group")
    plan.add_argument("--group-size", type=int, default=32)
    plan.add_argument("--mode", choices=("bitwise", "joint"),
                      default="bitwise")
    plan.add_argument("--policy", choices=POLICY_NAMES, default="heuristic")
    plan.add_argument("--seed", type=int, default=42)
    plan.add_argument("--max-depth", type=int, default=None)
    plan.add_argument("--export", default=None, metavar="PATH",
                      help="write the recorded plan as JSON")
    plan.add_argument("--replay", default=None, metavar="PATH",
                      help="replay a previously exported plan (skips the "
                           "planner heuristics) and verify it re-records "
                           "identically")
    plan.set_defaults(func=cmd_plan)

    cmp_ = sub.add_parser("compare", help="figure-15 style engine ladder")
    cmp_.add_argument("graph")
    cmp_.add_argument("--sources", type=int, default=128)
    cmp_.add_argument("--group-size", type=int, default=32)
    cmp_.add_argument("--seed", type=int, default=42)
    cmp_.set_defaults(func=cmd_compare)

    grp = sub.add_parser("groups", help="show the GroupBy partition")
    grp.add_argument("graph")
    grp.add_argument("--sources", type=int, default=128)
    grp.add_argument("--group-size", type=int, default=32)
    grp.add_argument("--q", type=int, default=128)
    grp.add_argument("--seed", type=int, default=42)
    grp.set_defaults(func=cmd_groups)

    sssp = sub.add_parser(
        "sssp", help="weighted SSSP (delta-stepping, Dijkstra-verified)"
    )
    sssp.add_argument("graph")
    sssp.add_argument("--source", type=int, default=None,
                      help="default: highest-outdegree vertex")
    sssp.add_argument("--delta", type=float, default=None)
    sssp.add_argument("--min-weight", type=float, default=1.0)
    sssp.add_argument("--max-weight", type=float, default=10.0)
    sssp.add_argument("--seed", type=int, default=42)
    sssp.set_defaults(func=cmd_sssp)

    topk = sub.add_parser("topk", help="top-k closeness centrality")
    topk.add_argument("graph")
    topk.add_argument("--k", type=int, default=10)
    topk.set_defaults(func=cmd_topk)

    kern = sub.add_parser(
        "kernels",
        help="report the kernel backend this host runs (cext or numpy)",
    )
    kern.add_argument("--warmup", action="store_true",
                      help="compile/load the backend and time the warm-up")
    kern.set_defaults(func=cmd_kernels)

    mdump = sub.add_parser(
        "metrics-dump",
        help="render a trace file's metric records as Prometheus text",
    )
    mdump.add_argument("trace", help="JSONL trace written by `run --trace`")
    mdump.set_defaults(func=cmd_metrics_dump)

    treport = sub.add_parser(
        "trace-report",
        help="attribute a recorded trace: top spans, per-wave waterfall "
             "and critical path, substrate comparison",
    )
    treport.add_argument(
        "trace", help="JSONL trace written by `run --trace` or "
        "`serve --trace`"
    )
    treport.add_argument("--top", type=int, default=12,
                         help="rows in the top-spans table")
    treport.add_argument("--max-waves", type=int, default=8,
                         help="serving waves detailed individually")
    treport.add_argument("--max-levels", type=int, default=12,
                         help="per-level rows shown per wave")
    treport.set_defaults(func=cmd_trace_report)

    slo = sub.add_parser(
        "slo",
        help="replay a recorded trace through the SLO engine and report "
             "burn rates and breach/resolve alerts",
    )
    slo.add_argument(
        "trace", help="JSONL trace written by `serve --trace`"
    )
    slo.add_argument("--specs", default=None, metavar="PATH",
                     help="JSON file of SLO specs (default: the built-in "
                          "latency/error/queue/staleness objectives)")
    slo.add_argument("--check", action="store_true",
                     help="exit 1 if any breach alert fires during replay")
    slo.set_defaults(func=cmd_slo)

    bdiff = sub.add_parser(
        "bench-diff",
        help="compare two repro.bench-ledger/v1 ledgers and flag "
             "regressions",
    )
    bdiff.add_argument("old", help="baseline ledger path")
    bdiff.add_argument("new", help="candidate ledger path")
    bdiff.add_argument("--tolerance", type=float, default=0.05,
                       help="fractional band a metric may move before "
                            "being flagged (default 0.05)")
    bdiff.set_defaults(func=cmd_bench_diff)

    def add_serving_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph")
        p.add_argument("--requests", type=int, default=512,
                       help="total requests the clients issue")
        p.add_argument("--clients", type=int, default=64,
                       help="closed-loop clients")
        p.add_argument("--zipf", type=float, default=1.1,
                       help="source-popularity Zipf exponent")
        p.add_argument("--kind", choices=("bfs", "closeness"), default="bfs")
        p.add_argument("--max-depth", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=32,
                       help="max traversal sources per batch (paper N)")
        p.add_argument("--deadline-us", type=float, default=20.0,
                       help="flush deadline in simulated microseconds")
        p.add_argument("--queue-capacity", type=int, default=256)
        p.add_argument("--cache-capacity", type=int, default=4096)
        p.add_argument("--devices", type=int, default=1)
        p.add_argument("--no-groupby", action="store_true",
                       help="form batches FIFO instead of by GroupBy rules")
        p.add_argument("--policy", choices=POLICY_NAMES, default=None,
                       help="traversal planner policy (default: the "
                            "engine's heuristic policy)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--churn", type=int, default=0, metavar="N",
                       help="mutate the graph every N completed requests "
                            "(0 = static graph, the default)")
        p.add_argument("--churn-inserts", type=int, default=8,
                       help="edge inserts per mutation batch (with --churn)")
        p.add_argument("--churn-deletes", type=int, default=0,
                       help="edge deletes per mutation batch (with --churn; "
                            "deletes force full cache recomputation)")
        p.add_argument("--substrate", choices=SUBSTRATE_NAMES, default=None,
                       help="execution substrate (default: derived — "
                            "--partitions selects partitioned, --workers "
                            "executor, --churn stream, else serial)")

    serve = sub.add_parser(
        "serve", help="run the online serving layer under a closed-loop load"
    )
    add_serving_args(serve)
    serve.add_argument("--metrics-json", default=None,
                       help="write the metrics snapshot to this path")
    serve.add_argument("--workers", type=int, default=0,
                       help="execute batches on a worker-process pool "
                            "(0 = in-process, the default)")
    serve.add_argument("--partitions", type=int, default=0,
                       help="serve batches on the partitioned engine "
                            "over this many graph partitions (0 = "
                            "whole-graph, the default)")
    serve.add_argument("--layout", choices=("1d", "2d"), default="1d",
                       help="partition layout (with --partitions)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="enable tracing + profiling and write the "
                            "serve trace as JSON lines to PATH")
    serve.add_argument("--slo", action="store_true",
                       help="evaluate the built-in SLOs live against the "
                            "workload and include them in the metrics "
                            "snapshot")
    serve.set_defaults(func=cmd_serve)

    bench = sub.add_parser(
        "bench-serve",
        help="micro-batched vs one-request-one-traversal serving throughput",
    )
    add_serving_args(bench)
    bench.set_defaults(func=cmd_bench_serve)

    mut = sub.add_parser(
        "mutate",
        help="apply an edge-mutation batch to a graph and save the "
             "folded CSR",
    )
    mut.add_argument("graph")
    mut.add_argument("--insert", action="append", default=[],
                     metavar="SRC:DST", help="insert one directed edge "
                     "(repeatable)")
    mut.add_argument("--delete", action="append", default=[],
                     metavar="SRC:DST", help="delete every copy of one "
                     "directed edge (repeatable)")
    mut.add_argument("--random-inserts", type=int, default=0,
                     help="additionally insert this many random edges")
    mut.add_argument("--random-deletes", type=int, default=0,
                     help="additionally delete this many existing edges, "
                          "sampled uniformly")
    mut.add_argument("--seed", type=int, default=42,
                     help="seed for the random edge batches")
    mut.add_argument("--out", default=None,
                     help="write the folded CSR to this path")
    mut.set_defaults(func=cmd_mutate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
