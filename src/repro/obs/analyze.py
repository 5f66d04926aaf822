"""Trace analytics: span forests, critical paths, waterfall attribution.

PR 4's obs spine *records* the raw signal — span trees across
processes, hub metrics, profile spans — but recording is not an
answer.  This module is the layer that answers with it: given the
JSONL records of a traced run (``repro run --trace``, ``repro serve
--trace``, or a live tracer's ``export_dicts()``), it computes where
the time went, deterministically.

Three attribution tools, one per question the paper's analysis asks:

* :func:`aggregate_spans` — *which sites dominate?*  Per-name call
  counts, total and self seconds (self = duration minus same-process
  child durations), the ``trace-report`` top table.
* :func:`critical_path` — *what sequence bounded this operation?*
  From any root span, repeatedly descend into the longest child
  (ties broken by start time then span id, so the path is unique and
  reproducible).  Each step is charged its duration minus the chosen
  child's, so the step seconds **telescope to exactly the root's
  duration**.
* :func:`wave_attribution` — *how does one serving wave decompose?*
  For every wave span (``serve.wave``), same-process
  subtree self-times are bucketed by category (batching, exec
  dispatch, exchange, kernel, ...).  Nested same-clock spans are
  sequential within their parent, so the buckets sum to the wave
  duration; known-overlapping detached spans (``exec.dispatch``,
  ``worker.task``) are reported in the waterfall rows but excluded
  from the additive buckets.

Determinism: every ordering in this module is total (seconds, then
start, then span id), so the same trace — and, under a deterministic
tracer clock, the same *run* — renders a byte-identical report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

#: Wave roots: the serving layer's per-launch spans.
WAVE_NAMES = ("serve.wave",)

#: Detached spans that deliberately overlap their siblings (one per
#: busy worker); their durations do not add up inside a parent and are
#: excluded from additive attribution.
OVERLAPPING_NAMES = frozenset({"exec.dispatch", "worker.task"})

#: Ordered (prefix, category) rules; first match wins.  Categories are
#: the waterfall buckets: what a wave's time is attributed *as*.
_CATEGORY_RULES: Tuple[Tuple[str, str], ...] = (
    ("serve.wave", "batching"),
    ("exec.dispatch", "dispatch"),
    ("worker.task", "dispatch"),
    ("exec.", "dispatch"),
    ("exchange.", "exchange"),
    ("dist.", "exchange"),
    ("distributed.", "exchange"),
    ("profile.kernels.", "kernel"),
    ("profile.level", "level"),
    ("profile.engine.", "engine"),
    ("stream.", "stream"),
    ("sim.", "sim"),
    ("run", "run"),
)


def categorize(name: str) -> str:
    """Attribution bucket for a span name (``"other"`` when unknown)."""
    for prefix, category in _CATEGORY_RULES:
        if name == prefix or name.startswith(prefix):
            return category
    return "other"


@dataclass
class SpanNode:
    """One span record linked into its trace tree."""

    record: dict
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def span_id(self) -> str:
        return self.record["span_id"]

    @property
    def process(self) -> str:
        return self.record.get("process", "main")

    @property
    def start(self) -> float:
        return float(self.record["start"])

    @property
    def duration(self) -> float:
        end = self.record.get("end")
        if end is None:
            return float(self.record.get("duration", 0.0))
        return float(end) - self.start

    @property
    def attrs(self) -> dict:
        return self.record.get("attrs", {})

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first, deterministic."""
        yield self
        for child in self.children:
            yield from child.walk()

    def self_seconds(self) -> float:
        """Duration not covered by same-process, non-overlapping
        children (clamped at zero against cross-clock skew)."""
        covered = sum(
            c.duration
            for c in self.children
            if c.process == self.process and c.name not in OVERLAPPING_NAMES
        )
        return max(0.0, self.duration - covered)


def _sort_key(node: SpanNode) -> Tuple[float, str]:
    return (node.start, node.span_id)


def build_forest(records: Iterable[dict]) -> List[SpanNode]:
    """Link span records into trees; returns the roots.

    Non-span records are ignored, so the output of
    :func:`repro.obs.export.iter_jsonl` feeds straight in.  A span
    whose parent id is absent from the record set roots its own tree
    (the cross-process case where only one side was captured).
    Roots and children are both sorted by (start, span id), making
    the forest — and everything computed from it — deterministic.
    """
    nodes: Dict[str, SpanNode] = {}
    ordered: List[SpanNode] = []
    for record in records:
        if record.get("kind") != "span":
            continue
        node = SpanNode(record)
        if node.span_id in nodes:
            raise ObservabilityError(
                f"duplicate span id {node.span_id!r} in trace"
            )
        nodes[node.span_id] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    for node in ordered:
        parent = nodes.get(node.record.get("parent_id") or "")
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in ordered:
        node.children.sort(key=_sort_key)
    roots.sort(key=_sort_key)
    return roots


# ----------------------------------------------------------------------
# Aggregation (top spans)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpanAggregate:
    """Per-name rollup across a whole trace."""

    name: str
    category: str
    count: int
    total_seconds: float
    self_seconds: float
    max_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


def aggregate_spans(records: Iterable[dict]) -> List[SpanAggregate]:
    """Roll every span up by name, sorted by self seconds descending
    (ties by total, then name) — the ``trace-report`` top table."""
    forest = build_forest(records)
    totals: Dict[str, List[float]] = {}
    for root in forest:
        for node in root.walk():
            bucket = totals.setdefault(node.name, [0, 0.0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += node.duration
            bucket[2] += node.self_seconds()
            bucket[3] = max(bucket[3], node.duration)
    out = [
        SpanAggregate(
            name=name,
            category=categorize(name),
            count=int(count),
            total_seconds=total,
            self_seconds=self_s,
            max_seconds=peak,
        )
        for name, (count, total, self_s, peak) in totals.items()
    ]
    out.sort(key=lambda a: (-a.self_seconds, -a.total_seconds, a.name))
    return out


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CriticalStep:
    """One hop of a critical path: a span and its on-path charge."""

    name: str
    span_id: str
    category: str
    #: Seconds charged to this step: duration minus the chosen child's
    #: duration (the full duration at the leaf).  Steps telescope to
    #: the root duration exactly.
    step_seconds: float
    #: Nesting depth below the path root.
    depth: int
    attrs: dict = field(default_factory=dict)


def critical_path(root: SpanNode) -> List[CriticalStep]:
    """Longest-child chain from ``root``, deterministically.

    At each span the child with the greatest duration is followed
    (ties by earliest start, then span id).  The step charge is the
    span's duration minus the chosen child's, so
    ``sum(step_seconds) == root.duration`` up to the clamp against
    cross-clock skew (a child measured on another process's clock can
    nominally outlast its parent; such steps charge zero).
    """
    steps: List[CriticalStep] = []
    node = root
    depth = 0
    while True:
        if node.children:
            chosen = max(
                node.children,
                key=lambda c: (c.duration, -c.start),
            )
            # Resolve duration ties toward the earliest start / lowest
            # span id explicitly: max() keeps the first maximum, and
            # children are pre-sorted by (start, span_id).
            charge = max(0.0, node.duration - chosen.duration)
        else:
            chosen = None
            charge = node.duration
        steps.append(
            CriticalStep(
                name=node.name,
                span_id=node.span_id,
                category=categorize(node.name),
                step_seconds=charge,
                depth=depth,
                attrs=dict(node.attrs),
            )
        )
        if chosen is None:
            return steps
        node = chosen
        depth += 1


# ----------------------------------------------------------------------
# Wave attribution (waterfall)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaterfallRow:
    """One span in a wave's waterfall, offset-relative to the wave."""

    name: str
    category: str
    offset: float
    seconds: float
    depth: int
    process: str
    overlapping: bool
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WaveAttribution:
    """One serving wave decomposed into additive category buckets."""

    span_id: str
    name: str
    substrate: str
    seconds: float
    #: category -> seconds; values sum to ``seconds`` (within clock
    #: skew clamping) because same-clock nested spans are sequential.
    components: Dict[str, float]
    rows: List[WaterfallRow]
    path: List[CriticalStep]
    attrs: dict = field(default_factory=dict)

    @property
    def component_total(self) -> float:
        return sum(self.components.values())


def detect_substrate(wave: SpanNode) -> str:
    """Which execution substrate served this wave.

    The server stamps the registered substrate name
    (:data:`repro.runtime.SUBSTRATE_NAMES` vocabulary) on every
    ``serve.wave`` span; a wave without the attribute is ``"unknown"``.
    """
    return str(wave.attrs.get("substrate", "unknown"))


def _accumulate_components(
    node: SpanNode, wave_process: str, acc: Dict[str, float]
) -> None:
    self_s = node.self_seconds()
    if self_s > 0.0:
        key = categorize(node.name)
        acc[key] = acc.get(key, 0.0) + self_s
    for child in node.children:
        if child.process != wave_process:
            continue
        if child.name in OVERLAPPING_NAMES:
            continue
        _accumulate_components(child, wave_process, acc)


def wave_attribution(wave: SpanNode) -> WaveAttribution:
    """Decompose one wave span into category buckets + waterfall rows.

    The buckets come from same-process subtree self-times (overlapping
    detached spans excluded), so they are additive: their sum equals
    the wave's duration up to the zero-clamp on clock skew — the
    property the analysis tests pin at 1%.
    """
    components: Dict[str, float] = {}
    _accumulate_components(wave, wave.process, components)
    rows: List[WaterfallRow] = []
    for node in wave.walk():
        if node is wave:
            continue
        rows.append(
            WaterfallRow(
                name=node.name,
                category=categorize(node.name),
                offset=node.start - wave.start
                if node.process == wave.process else 0.0,
                seconds=node.duration,
                depth=_depth_below(wave, node),
                process=node.process,
                overlapping=node.name in OVERLAPPING_NAMES,
                attrs=dict(node.attrs),
            )
        )
    return WaveAttribution(
        span_id=wave.span_id,
        name=wave.name,
        substrate=detect_substrate(wave),
        seconds=wave.duration,
        components=dict(sorted(components.items())),
        rows=rows,
        path=critical_path(wave),
        attrs=dict(wave.attrs),
    )


def _depth_below(root: SpanNode, target: SpanNode) -> int:
    depth = 0
    # Walk in the same deterministic order used to emit rows; depth is
    # recovered positionally to avoid parent backlinks.
    stack = [(c, 1) for c in reversed(root.children)]
    while stack:
        node, d = stack.pop()
        if node is target:
            return d
        stack.extend((c, d + 1) for c in reversed(node.children))
    return depth


def analyze_waves(records: Sequence[dict]) -> List[WaveAttribution]:
    """Every serving wave in a record set, attribution attached, in
    deterministic (start, span id) order."""
    return [
        wave_attribution(node)
        for root in build_forest(records)
        for node in root.walk()
        if node.name in WAVE_NAMES
    ]


# ----------------------------------------------------------------------
# Per-level waterfall
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LevelRow:
    """One traversal level inside a wave (profile or exchange span)."""

    depth: int
    seconds: float
    kernel_seconds: float
    source: str  # "profile" or "exchange"
    attrs: dict = field(default_factory=dict)


def level_waterfall(wave: SpanNode) -> List[LevelRow]:
    """Per-level time rows under one wave, ordered by BFS depth.

    ``profile.level`` spans carry the serial/stream/executor level
    clock; ``exchange.level`` spans carry the partitioned one.  Kernel
    seconds are the summed ``profile.kernels.*`` children of each
    level span.
    """
    rows: List[LevelRow] = []
    for node in wave.walk():
        if node.name == "profile.level":
            depth = node.attrs.get("depth")
            kernel = sum(
                c.duration for c in node.children
                if c.name.startswith("profile.kernels.")
            )
            rows.append(
                LevelRow(
                    depth=int(depth) if depth is not None else -1,
                    seconds=node.duration,
                    kernel_seconds=kernel,
                    source="profile",
                    attrs=dict(node.attrs),
                )
            )
        elif node.name == "exchange.level":
            level = node.attrs.get("level")
            rows.append(
                LevelRow(
                    depth=int(level) if level is not None else -1,
                    seconds=node.duration,
                    kernel_seconds=0.0,
                    source="exchange",
                    attrs=dict(node.attrs),
                )
            )
    rows.sort(key=lambda r: (r.depth, r.source))
    return rows


# ----------------------------------------------------------------------
# Substrate comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubstrateSummary:
    """Aggregate wave behavior for one execution substrate."""

    substrate: str
    waves: int
    total_seconds: float
    components: Dict[str, float]

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.waves if self.waves else 0.0


def compare_substrates(
    waves: Sequence[WaveAttribution],
) -> List[SubstrateSummary]:
    """Roll wave attributions up per substrate, alphabetical order."""
    acc: Dict[str, Tuple[int, float, Dict[str, float]]] = {}
    for wave in waves:
        count, total, comps = acc.setdefault(
            wave.substrate, (0, 0.0, {})
        )
        for key, value in wave.components.items():
            comps[key] = comps.get(key, 0.0) + value
        acc[wave.substrate] = (count + 1, total + wave.seconds, comps)
    return [
        SubstrateSummary(
            substrate=name,
            waves=count,
            total_seconds=total,
            components=dict(sorted(comps.items())),
        )
        for name, (count, total, comps) in sorted(acc.items())
    ]


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def _fmt_pct(part: float, whole: float) -> str:
    if whole <= 0:
        return "  0.0%"
    return f"{100.0 * part / whole:5.1f}%"


def render_trace_report(
    records: Sequence[dict],
    top: int = 12,
    max_waves: int = 8,
    max_levels: int = 12,
) -> str:
    """The ``repro trace-report`` text: top spans, per-wave waterfall
    + critical path, per-level rows, substrate comparison.

    Pure function of the record sequence — a deterministic trace file
    renders byte-identically on every call.
    """
    lines: List[str] = []
    spans = [r for r in records if r.get("kind") == "span"]
    metrics = [r for r in records if r.get("kind") == "metric"]
    processes = sorted({s.get("process", "main") for s in spans})
    lines.append("trace report")
    lines.append(
        f"  records   : {len(spans)} spans, {len(metrics)} metrics"
    )
    lines.append(f"  processes : {', '.join(processes) or '-'}")

    aggregates = aggregate_spans(spans)
    lines.append("")
    lines.append(f"top spans (by self time, top {top})")
    lines.append(
        f"  {'name':<30}{'category':<10}{'count':>6}"
        f"{'total':>12}{'self':>12}{'max':>12}"
    )
    for agg in aggregates[:top]:
        lines.append(
            f"  {agg.name:<30}{agg.category:<10}{agg.count:>6}"
            f"{_fmt_s(agg.total_seconds):>12}"
            f"{_fmt_s(agg.self_seconds):>12}"
            f"{_fmt_s(agg.max_seconds):>12}"
        )

    waves = analyze_waves(spans)
    lines.append("")
    lines.append(f"waves ({len(waves)} recorded, showing {min(len(waves), max_waves)})")
    for wave in waves[:max_waves]:
        lines.append(
            f"  [{wave.span_id}] {wave.name} substrate={wave.substrate} "
            f"duration={_fmt_s(wave.seconds)}"
        )
        for key, value in wave.components.items():
            lines.append(
                f"    {key:<10}{_fmt_s(value):>12}  "
                f"{_fmt_pct(value, wave.seconds)}"
            )
        covered = wave.component_total
        lines.append(
            f"    {'(sum)':<10}{_fmt_s(covered):>12}  "
            f"{_fmt_pct(covered, wave.seconds)}"
        )
        path_names = " > ".join(
            f"{s.name}[{_fmt_s(s.step_seconds)}]" for s in wave.path[:6]
        )
        lines.append(f"    critical : {path_names}")
        levels = _levels_for(spans, wave.span_id)
        for row in levels[:max_levels]:
            extra = ""
            if row.source == "exchange":
                nbytes = row.attrs.get("nbytes")
                fmt = row.attrs.get("fmt")
                extra = f"  fmt={fmt} bytes={nbytes}"
            elif row.kernel_seconds:
                extra = f"  kernel={_fmt_s(row.kernel_seconds)}"
            lines.append(
                f"    level {row.depth:>3}: {_fmt_s(row.seconds):>12}"
                f"{extra}"
            )

    summaries = compare_substrates(waves)
    lines.append("")
    lines.append("substrate comparison")
    lines.append(
        f"  {'substrate':<12}{'waves':>6}{'mean':>12}{'total':>12}"
        "  components"
    )
    for summary in summaries:
        comps = " ".join(
            f"{k}={_fmt_pct(v, summary.total_seconds).strip()}"
            for k, v in summary.components.items()
        )
        lines.append(
            f"  {summary.substrate:<12}{summary.waves:>6}"
            f"{_fmt_s(summary.mean_seconds):>12}"
            f"{_fmt_s(summary.total_seconds):>12}  {comps}"
        )
    return "\n".join(lines) + "\n"


def _levels_for(spans: Sequence[dict], wave_span_id: str) -> List[LevelRow]:
    for root in build_forest(spans):
        for node in root.walk():
            if node.span_id == wave_span_id:
                return level_waterfall(node)
    return []
