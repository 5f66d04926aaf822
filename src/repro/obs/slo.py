"""Declarative SLOs: rolling-window burn rates over hub signals.

ROADMAP item 4 (service scale-out) needs a *control signal*: something
that watches the serving telemetry and says "the p99 is burning" early
enough to act on.  This module is that signal path:

* :class:`SLOSpec` — a declarative objective: reduce a named signal
  (``p99`` / ``mean`` / ``max`` / ...) over a rolling window of
  simulated seconds and compare it against a target.
* :class:`RollingWindow` — the sample store.  Windows are evaluated
  against the same simulated clock the servers run on, so burn rates
  are exactly reproducible; a brute-force oracle pins the eviction and
  reduction math in the hypothesis tests.
* :class:`SLOEngine` — observes signals, evaluates every spec, and
  emits **typed alert events on breach transitions only** (one
  ``breach`` when the burn crosses the threshold, one ``resolve`` when
  it comes back) so a seeded breach produces an exact, assertable
  event sequence.  Alerts and burn gauges are mirrored onto the
  :class:`~repro.obs.metrics.MetricsHub` (``slo_alerts_total``,
  ``slo_burn_rate``) — the hub records item 4's autoscaler will read.

The serving layers feed the engine live (`BFSServer` /
`DynamicBFSServer` observe wave latency, errors, queue depth, and
cache staleness as waves commit); ``repro slo`` replays the same
signals out of a recorded trace file via :func:`replay_trace`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsHub, percentile

#: Reductions a spec may apply to its windowed samples.
REDUCERS = ("p50", "p90", "p95", "p99", "mean", "max", "rate")

#: Signal names the serving layers feed (trace replay emits the same).
SIGNAL_WAVE_LATENCY = "wave_latency_seconds"
SIGNAL_ERROR_RATE = "wave_errors"
SIGNAL_QUEUE_DEPTH = "queue_depth"
SIGNAL_CACHE_STALENESS = "cache_staleness"


def reduce_samples(values: Sequence[float], reduce: str) -> float:
    """Apply one named reduction; 0.0 on an empty window.

    ``rate`` is the mean of 0/1 event samples — the error-rate
    reduction — and is listed separately from ``mean`` so specs read
    declaratively.
    """
    if reduce not in REDUCERS:
        raise ObservabilityError(f"unknown SLO reducer {reduce!r}")
    if not values:
        return 0.0
    if reduce in ("mean", "rate"):
        return sum(values) / len(values)
    if reduce == "max":
        return max(values)
    return percentile(values, float(reduce[1:]))


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over one hub signal."""

    #: Stable identifier; labels alerts and hub metrics.
    name: str
    #: Signal the window collects (see ``SIGNAL_*`` constants).
    signal: str
    #: Target for the reduced value; burn = reduced / objective, so
    #: burn 1.0 means "exactly at objective" and >1.0 is out of budget.
    objective: float
    #: Reduction over the window (one of :data:`REDUCERS`).
    reduce: str = "p99"
    #: Rolling window length in (simulated) seconds.
    window_seconds: float = 60.0
    #: Burn rate at or above which the SLO is breached.
    burn_threshold: float = 1.0
    #: Windows smaller than this never breach (cold-start guard).
    min_samples: int = 1
    #: Free-form note rendered in reports.
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservabilityError("SLO spec needs a name")
        if self.objective <= 0:
            raise ObservabilityError(
                f"SLO {self.name}: objective must be positive"
            )
        if self.reduce not in REDUCERS:
            raise ObservabilityError(
                f"SLO {self.name}: unknown reducer {self.reduce!r}"
            )
        if self.window_seconds <= 0:
            raise ObservabilityError(
                f"SLO {self.name}: window_seconds must be positive"
            )
        if self.burn_threshold <= 0:
            raise ObservabilityError(
                f"SLO {self.name}: burn_threshold must be positive"
            )
        if self.min_samples < 1:
            raise ObservabilityError(
                f"SLO {self.name}: min_samples must be >= 1"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "signal": self.signal,
            "objective": self.objective,
            "reduce": self.reduce,
            "window_seconds": self.window_seconds,
            "burn_threshold": self.burn_threshold,
            "min_samples": self.min_samples,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SLOSpec":
        known = {
            "name", "signal", "objective", "reduce", "window_seconds",
            "burn_threshold", "min_samples", "description",
        }
        extra = set(payload) - known
        if extra:
            raise ObservabilityError(
                f"unknown SLO spec fields: {sorted(extra)}"
            )
        return cls(**payload)


def default_slos() -> List[SLOSpec]:
    """The four objectives the issue names, with serving-scale targets.

    Objectives are tuned to the simulated clock: a kron scale-7 wave
    costs ~1e-4 simulated seconds, so the latency target sits an order
    of magnitude above the healthy p99 and trips only under real
    regressions (or seeded breaches in tests).
    """
    return [
        SLOSpec(
            name="wave-p99-latency",
            signal=SIGNAL_WAVE_LATENCY,
            objective=5e-3,
            reduce="p99",
            window_seconds=60.0,
            description="p99 per-wave latency stays under 5ms simulated",
        ),
        SLOSpec(
            name="error-rate",
            signal=SIGNAL_ERROR_RATE,
            objective=0.01,
            reduce="rate",
            window_seconds=60.0,
            min_samples=5,
            description="under 1% of waves end in error",
        ),
        SLOSpec(
            name="queue-depth",
            signal=SIGNAL_QUEUE_DEPTH,
            objective=64.0,
            reduce="max",
            window_seconds=30.0,
            description="admission queue stays under 64 requests",
        ),
        SLOSpec(
            name="cache-staleness",
            signal=SIGNAL_CACHE_STALENESS,
            objective=0.5,
            reduce="mean",
            window_seconds=120.0,
            description=(
                "under half of cached rows are dropped (not repaired) "
                "per epoch swap"
            ),
        ),
    ]


def load_slo_specs(path: str) -> List[SLOSpec]:
    """Read specs from a JSON file: a list of spec objects, or an
    object with a ``"slos"`` list."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload.get("slos", [])
    if not isinstance(payload, list):
        raise ObservabilityError(
            f"SLO spec file {path!r} must hold a list of specs"
        )
    return [SLOSpec.from_dict(item) for item in payload]


class RollingWindow:
    """Time-ordered (timestamp, value) samples with lazy eviction.

    Samples older than ``window_seconds`` before the evaluation
    timestamp are dropped at read time, so the window is a pure
    function of (samples, now) — the property the hypothesis oracle
    checks.
    """

    def __init__(self, window_seconds: float) -> None:
        self.window_seconds = float(window_seconds)
        self._samples: List[Tuple[float, float]] = []

    def observe(self, timestamp: float, value: float) -> None:
        if self._samples and timestamp < self._samples[-1][0]:
            raise ObservabilityError(
                "rolling window samples must arrive in time order "
                f"({timestamp} after {self._samples[-1][0]})"
            )
        self._samples.append((float(timestamp), float(value)))

    def values(self, now: float) -> List[float]:
        """Samples with ``timestamp > now - window_seconds`` (evicting
        the expired prefix in place)."""
        cutoff = now - self.window_seconds
        drop = 0
        for ts, _ in self._samples:
            if ts <= cutoff:
                drop += 1
            else:
                break
        if drop:
            del self._samples[:drop]
        return [v for _, v in self._samples]

    def __len__(self) -> int:
        return len(self._samples)


@dataclass(frozen=True)
class SLOAlert:
    """One breach-state transition (the typed event the hub carries)."""

    kind: str  # "breach" | "resolve"
    slo: str
    signal: str
    time: float
    burn: float
    value: float
    objective: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slo": self.slo,
            "signal": self.signal,
            "time": self.time,
            "burn": self.burn,
            "value": self.value,
            "objective": self.objective,
        }


@dataclass(frozen=True)
class SLOStatus:
    """One spec's state at an evaluation instant."""

    spec: SLOSpec
    value: float
    burn: float
    breached: bool
    samples: int

    def to_dict(self) -> dict:
        return {
            "name": self.spec.name,
            "signal": self.spec.signal,
            "reduce": self.spec.reduce,
            "objective": self.spec.objective,
            "value": self.value,
            "burn": self.burn,
            "breached": self.breached,
            "samples": self.samples,
        }


class SLOEngine:
    """Evaluates every spec against rolling windows; alerts on edges.

    One window per *signal* (specs sharing a signal share samples; the
    eviction horizon is the longest window among them, each spec reads
    its own suffix).  ``evaluate(now)`` recomputes every spec's burn
    and appends a :class:`SLOAlert` only when the breached bit flips —
    steady-state breaches stay silent, which is what makes "exactly N
    alert events" assertable.
    """

    def __init__(
        self,
        specs: Optional[Sequence[SLOSpec]] = None,
        hub: Optional[MetricsHub] = None,
    ) -> None:
        self.specs: List[SLOSpec] = list(
            default_slos() if specs is None else specs
        )
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ObservabilityError("duplicate SLO spec names")
        self.hub = hub
        self._windows: Dict[str, RollingWindow] = {}
        for spec in self.specs:
            window = self._windows.get(spec.signal)
            horizon = spec.window_seconds
            if window is None:
                self._windows[spec.signal] = RollingWindow(horizon)
            elif horizon > window.window_seconds:
                window.window_seconds = horizon
        self._breached: Dict[str, bool] = {s.name: False for s in self.specs}
        self.alerts: List[SLOAlert] = []
        self._last_status: List[SLOStatus] = []

    @property
    def signals(self) -> Tuple[str, ...]:
        return tuple(sorted(self._windows))

    def observe(self, signal: str, value: float, timestamp: float) -> None:
        """Feed one sample; signals no spec watches are dropped."""
        window = self._windows.get(signal)
        if window is None:
            return
        window.observe(timestamp, value)

    def evaluate(self, now: float) -> List[SLOStatus]:
        """Recompute every spec at simulated time ``now``; record
        breach/resolve transitions as alerts (and on the hub)."""
        statuses: List[SLOStatus] = []
        for spec in self.specs:
            window = self._windows[spec.signal]
            # Shared windows keep the longest horizon; each spec
            # re-filters down to its own.
            raw = window.values(now)
            if spec.window_seconds < window.window_seconds:
                cutoff = now - spec.window_seconds
                pairs = window._samples[-len(raw):] if raw else []
                raw = [v for ts, v in pairs if ts > cutoff]
            value = reduce_samples(raw, spec.reduce)
            burn = value / spec.objective
            breached = (
                len(raw) >= spec.min_samples
                and burn >= spec.burn_threshold
            )
            if breached != self._breached[spec.name]:
                self._breached[spec.name] = breached
                alert = SLOAlert(
                    kind="breach" if breached else "resolve",
                    slo=spec.name,
                    signal=spec.signal,
                    time=now,
                    burn=burn,
                    value=value,
                    objective=spec.objective,
                )
                self.alerts.append(alert)
                self._emit_alert(alert)
            self._emit_burn(spec, burn)
            statuses.append(
                SLOStatus(
                    spec=spec,
                    value=value,
                    burn=burn,
                    breached=breached,
                    samples=len(raw),
                )
            )
        self._last_status = statuses
        return statuses

    def _emit_alert(self, alert: SLOAlert) -> None:
        if self.hub is None:
            return
        self.hub.counter(
            "slo_alerts_total",
            help="SLO breach-state transitions",
            labels={"slo": alert.slo, "kind": alert.kind},
        ).inc()

    def _emit_burn(self, spec: SLOSpec, burn: float) -> None:
        if self.hub is None:
            return
        self.hub.gauge(
            "slo_burn_rate",
            help="current burn rate (reduced value / objective)",
            labels={"slo": spec.name},
        ).set(burn)

    def snapshot(self) -> dict:
        """The ``"slo"`` section servers attach to metrics snapshots."""
        return {
            "specs": [s.to_dict() for s in self.specs],
            "status": [s.to_dict() for s in self._last_status],
            "alerts": [a.to_dict() for a in self.alerts],
        }


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def replay_trace(
    records: Iterable[dict],
    engine: SLOEngine,
) -> List[SLOStatus]:
    """Re-derive SLO signals from a recorded trace and run the engine.

    Wave spans (``serve.wave``) replay as latency, error, and
    queue-depth samples at their end timestamps (a wave in error status
    is an error sample);
    ``stream.mutate`` spans replay cache staleness from their repair
    attrs.  The engine evaluates after every sample, so the alert
    sequence matches what a live engine fed the same signals would
    have produced.  Returns the final status list.
    """
    events: List[Tuple[float, int, str, float]] = []
    seq = 0
    for record in records:
        if record.get("kind") != "span":
            continue
        name = record.get("name")
        end = record.get("end")
        start = record.get("start", 0.0)
        if end is None:
            continue
        duration = float(end) - float(start)
        attrs = record.get("attrs", {})
        if name == "serve.wave":
            # Wave spans carry their *simulated* cost as an attr; span
            # start/end are wall clock, which the objectives are not
            # calibrated to.  Old traces without the attr fall back.
            sim = attrs.get("sim_seconds")
            latency = float(sim) if sim is not None else duration
            events.append((float(end), seq, SIGNAL_WAVE_LATENCY, latency))
            seq += 1
            failed = 1.0 if record.get("status") == "error" else 0.0
            events.append((float(end), seq, SIGNAL_ERROR_RATE, failed))
            seq += 1
            depth = attrs.get("queue_depth")
            if depth is not None:
                events.append(
                    (float(end), seq, SIGNAL_QUEUE_DEPTH, float(depth))
                )
                seq += 1
        elif name == "stream.mutate":
            staleness = attrs.get("cache_staleness")
            if staleness is not None:
                events.append(
                    (float(end), seq, SIGNAL_CACHE_STALENESS,
                     float(staleness))
                )
                seq += 1
    events.sort(key=lambda e: (e[0], e[1]))
    statuses: List[SLOStatus] = []
    for when, _, signal, value in events:
        engine.observe(signal, value, when)
        statuses = engine.evaluate(when)
    return statuses


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
def render_slo_report(engine: SLOEngine) -> str:
    """Deterministic text for the ``repro slo`` verb."""
    lines: List[str] = ["slo report"]
    lines.append(
        f"  {'slo':<20}{'signal':<24}{'reduce':<8}"
        f"{'value':>12}{'objective':>12}{'burn':>8}{'state':>10}"
    )
    for status in engine._last_status:
        spec = status.spec
        state = "BREACHED" if status.breached else "ok"
        lines.append(
            f"  {spec.name:<20}{spec.signal:<24}{spec.reduce:<8}"
            f"{status.value:>12.6g}{spec.objective:>12.6g}"
            f"{status.burn:>8.3f}{state:>10}"
        )
    lines.append("")
    lines.append(f"alerts ({len(engine.alerts)})")
    for alert in engine.alerts:
        lines.append(
            f"  t={alert.time:.6f} {alert.kind:<8}{alert.slo:<20}"
            f"burn={alert.burn:.3f} value={alert.value:.6g}"
        )
    return "\n".join(lines) + "\n"
