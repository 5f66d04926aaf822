"""Process-wide metrics facade: counters, gauges, fixed-bucket histograms.

Before this module, every layer kept a private format: the serving
layer's :class:`~repro.service.metrics.MetricsRegistry` held plain
lists, the executor's :class:`~repro.exec.executor.ExecStats` a
dataclass of ints, and the kernels wall-clock harness ad-hoc dicts.
:class:`MetricsHub` is the one place they all register into, so a
single exporter (:mod:`repro.obs.export`) can render everything —
JSON-lines records or Prometheus text format — with identical
semantics.

Histograms use **fixed bucket boundaries** (shared constants below), so
two distributions recorded by different layers — serving latency and
executor task wall time, say — are directly comparable bucket by
bucket.  Each histogram also retains its raw observations (bounded by
``max_samples``), so percentile math is exact and shared: the
:func:`percentile` here is the one authoritative implementation, and
the serving layer's latency percentiles reach it through
:meth:`Histogram.quantiles`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

#: Default latency bucket upper bounds in seconds.  Spans simulated
#: microsecond kernels through real multi-second wall clocks; the last
#: bucket is always +Inf.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, math.inf,
)


def percentile(
    values: Sequence[float], q: float, presorted: bool = False
) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); 0.0 if empty.

    Pass ``presorted=True`` when ``values`` is already in ascending
    order — callers that need several percentiles of the same reservoir
    sort it once instead of once per quantile.  ``values`` is never
    mutated either way.
    """
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = values if presorted else sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


class _Metric:
    """Base: name, help text, optional frozen labels."""

    type: str = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})

    def record(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count."""

    type = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self.value += amount

    def record(self) -> dict:
        return {
            "kind": "metric",
            "type": self.type,
            "name": self.name,
            "help": self.help,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Gauge(_Metric):
    """Point-in-time value."""

    type = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def record(self) -> dict:
        return {
            "kind": "metric",
            "type": self.type,
            "name": self.name,
            "help": self.help,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram(_Metric):
    """Fixed-boundary cumulative histogram with an exact reservoir.

    Bucket counts follow Prometheus semantics (each bucket counts
    observations ``<= le``; the last bound is always ``+Inf``).  The
    raw observations are additionally retained (up to ``max_samples``,
    unbounded by default) so :meth:`quantile` is exact — the serving
    layer's latency percentiles route through here and stay
    bit-identical to the pre-obs implementation.
    """

    type = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Optional[Dict[str, str]] = None,
        max_samples: Optional[int] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {name} needs bucket bounds")
        if list(bounds) != sorted(bounds):
            raise ObservabilityError(
                f"histogram {name} bucket bounds must be ascending"
            )
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self.max_samples = max_samples
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(value)

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative counts, one per bound."""
        total = 0
        out = []
        for c in self.bucket_counts:
            total += c
            out.append(total)
        return out

    def quantile(self, q: float) -> float:
        """Exact percentile (``q`` in [0, 100]) over retained samples."""
        return percentile(self.samples, q)

    def quantiles(self, qs: Sequence[float]) -> Dict[float, float]:
        """Several percentiles with one sort."""
        ordered = sorted(self.samples)
        return {q: percentile(ordered, q, presorted=True) for q in qs}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def record(self) -> dict:
        return {
            "kind": "metric",
            "type": self.type,
            "name": self.name,
            "help": self.help,
            "labels": dict(self.labels),
            "sum": self.sum,
            "count": self.count,
            "bounds": ["+Inf" if b == math.inf else b for b in self.bounds],
            "cumulative_counts": self.cumulative_counts(),
        }


def _key(name: str, labels: Optional[Dict[str, str]]) -> Tuple:
    return (name, tuple(sorted((labels or {}).items())))


class MetricsHub:
    """Get-or-create registry of named metrics.

    Re-registering a name returns the existing instrument; registering
    the same name as a different type (or a histogram with different
    bounds) raises :class:`~repro.errors.ObservabilityError` — silent
    schema drift is exactly what this module exists to prevent.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple, _Metric] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> _Metric:
        key = _key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.type}, not {cls.type}"
                )
            return existing
        metric = cls(name, help=help, labels=labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )
        wanted = tuple(float(b) for b in buckets)
        if wanted[-1] != math.inf:
            wanted = wanted + (math.inf,)
        if metric.bounds != wanted:
            raise ObservabilityError(
                f"histogram {name!r} already registered with different "
                f"bucket bounds"
            )
        return metric

    def register(self, metric: _Metric) -> _Metric:
        """Adopt an externally constructed metric (e.g. a registry's
        private histogram) so exporters see it."""
        key = _key(metric.name, metric.labels)
        existing = self._metrics.get(key)
        if existing is metric:
            return metric
        if existing is not None:
            raise ObservabilityError(
                f"metric {metric.name!r} already registered"
            )
        self._metrics[key] = metric
        return metric

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[_Metric]:
        return self._metrics.get(_key(name, labels))

    def records(self) -> List[dict]:
        """All metrics as JSON-lines records (``kind: "metric"``)."""
        return [m.record() for m in self._metrics.values()]

    def clear(self) -> None:
        self._metrics.clear()


_hub = MetricsHub()


def get_hub() -> MetricsHub:
    """The process-wide hub every layer registers into."""
    return _hub


def set_hub(hub: Optional[MetricsHub]) -> MetricsHub:
    """Install a fresh hub (tests); ``None`` resets to a new empty one."""
    global _hub
    _hub = hub if hub is not None else MetricsHub()
    return _hub
