"""repro.obs — the unified observability spine.

The recording modules replace the four private telemetry formats that
grew up in the service, exec, kernels, and gpusim layers:

* :mod:`repro.obs.tracing` — span API with explicit clocks and
  cross-process context propagation (executor -> worker and back);
* :mod:`repro.obs.metrics` — process-wide facade for counters, gauges,
  and fixed-bucket histograms, with the one authoritative percentile
  implementation;
* :mod:`repro.obs.export` — JSON-lines span/metric export, Prometheus
  text rendering, and the adapter that puts simulated gpusim counter
  timelines in the same span schema as real wall-clock profiles;
* :mod:`repro.obs.profile` — sampling-controlled hot-path hooks with a
  documented <= 5% overhead budget enforced by
  ``benchmarks/bench_obs_overhead.py``.

On top of them, the analysis modules turn the recorded signal into
decisions:

* :mod:`repro.obs.analyze` — span forests, deterministic critical-path
  and waterfall attribution per wave/level, substrate comparison
  (``repro trace-report``);
* :mod:`repro.obs.slo` — declarative SLO specs evaluated as
  rolling-window burn rates with typed breach/resolve alerts
  (``repro slo``);
* :mod:`repro.obs.ledger` — the ``repro.bench-ledger/v1`` schema every
  ``BENCH_*.json`` is written in, the regression diff behind
  ``repro bench-diff``, and the best-of timer the host benchmarks
  measure with.

See ``docs/observability.md`` for the span schema, metric naming
conventions, exporter formats, and the analysis/SLO layers.
"""

from repro.obs.analyze import (
    SpanNode,
    WaveAttribution,
    aggregate_spans,
    analyze_waves,
    build_forest,
    compare_substrates,
    critical_path,
    level_waterfall,
    render_trace_report,
    wave_attribution,
)
from repro.obs.export import (
    iter_jsonl,
    metrics_only,
    pair_level_spans,
    read_jsonl,
    render_prometheus,
    spans_from_level_rows,
    spans_only,
    trace_records,
    write_jsonl,
)
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    BestOf,
    Ledger,
    LedgerEntry,
    MetricPoint,
    diff_ledgers,
    load_ledger,
    render_diff,
    save_ledger,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsHub,
    get_hub,
    percentile,
    set_hub,
)
from repro.obs.profile import (
    OVERHEAD_BUDGET,
    ProfileConfig,
    configure as configure_profiling,
    disable as disable_profiling,
    enabled as profiling_enabled,
    get_config as get_profile_config,
)
from repro.obs.slo import (
    SLOAlert,
    SLOEngine,
    SLOSpec,
    SLOStatus,
    default_slos,
    load_slo_specs,
    render_slo_report,
    replay_trace,
)
from repro.obs.tracing import (
    Span,
    SpanContext,
    Tracer,
    configure as configure_tracing,
    get_tracer,
    set_tracer,
    tracing_enabled,
)

__all__ = [
    "BestOf",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "Ledger",
    "LedgerEntry",
    "MetricPoint",
    "MetricsHub",
    "OVERHEAD_BUDGET",
    "ProfileConfig",
    "SLOAlert",
    "SLOEngine",
    "SLOSpec",
    "SLOStatus",
    "Span",
    "SpanContext",
    "SpanNode",
    "Tracer",
    "WaveAttribution",
    "aggregate_spans",
    "analyze_waves",
    "build_forest",
    "compare_substrates",
    "configure_profiling",
    "configure_tracing",
    "critical_path",
    "default_slos",
    "diff_ledgers",
    "disable_profiling",
    "get_hub",
    "get_profile_config",
    "get_tracer",
    "iter_jsonl",
    "level_waterfall",
    "load_ledger",
    "load_slo_specs",
    "metrics_only",
    "pair_level_spans",
    "percentile",
    "profiling_enabled",
    "read_jsonl",
    "render_diff",
    "render_prometheus",
    "render_slo_report",
    "render_trace_report",
    "replay_trace",
    "save_ledger",
    "set_hub",
    "set_tracer",
    "spans_from_level_rows",
    "spans_only",
    "trace_records",
    "tracing_enabled",
    "wave_attribution",
    "write_jsonl",
]
