"""The perf ledger every host benchmark writes, and its diff.

One schema — ``repro.bench-ledger/v1`` — holds every ``BENCH_*.json``
and every perfbench run: a benchmark name, a mode, free-form ``meta``,
and named entries of ``{value, direction, unit}`` metric points plus
free-form attrs.  A metric is a value worth comparing run to run (a
ratio, a simulated quantity, an overhead fraction) and always states
its direction; host seconds, configuration and other context live in
attrs or meta.  On top of it:

* :func:`diff_ledgers` matches entries by name and metrics by key,
  classifies each delta against the metric's recorded direction, and
  flags changes beyond a tolerance — the regression gate behind
  ``repro bench-diff``;
* :class:`BestOf` is the one wall-clock timer the host benchmarks
  measure with: the minimum over the regions it times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ObservabilityError

LEDGER_SCHEMA = "repro.bench-ledger/v1"

#: Metric directions.
LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"
DIRECTIONS = (LOWER_IS_BETTER, HIGHER_IS_BETTER)


@dataclass(frozen=True)
class MetricPoint:
    """One measured value with its improvement direction."""

    value: float
    direction: str
    unit: str = ""

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ObservabilityError(
                f"metric direction must be {LOWER_IS_BETTER!r} or "
                f"{HIGHER_IS_BETTER!r}, got {self.direction!r}"
            )

    def to_dict(self) -> dict:
        out = {"value": self.value, "direction": self.direction}
        if self.unit:
            out["unit"] = self.unit
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricPoint":
        return cls(
            value=float(payload["value"]),
            direction=payload.get("direction"),
            unit=payload.get("unit", ""),
        )


@dataclass
class LedgerEntry:
    """One named benchmark configuration's measurements."""

    name: str
    metrics: Dict[str, MetricPoint] = field(default_factory=dict)
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metrics": {
                k: self.metrics[k].to_dict() for k in sorted(self.metrics)
            },
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEntry":
        return cls(
            name=payload["name"],
            metrics={
                k: MetricPoint.from_dict(v)
                for k, v in payload.get("metrics", {}).items()
            },
            attrs=dict(payload.get("attrs", {})),
        )


@dataclass
class Ledger:
    """One benchmark run in the unified schema."""

    benchmark: str
    mode: str = ""
    meta: Dict[str, object] = field(default_factory=dict)
    entries: List[LedgerEntry] = field(default_factory=list)

    def entry(self, name: str) -> Optional[LedgerEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA,
            "benchmark": self.benchmark,
            "mode": self.mode,
            "meta": dict(self.meta),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Ledger":
        schema = payload.get("schema")
        if schema != LEDGER_SCHEMA:
            raise ObservabilityError(
                f"not a bench ledger (schema={schema!r}); expected "
                f"{LEDGER_SCHEMA!r}"
            )
        names = [e.get("name") for e in payload.get("entries", [])]
        if len(set(names)) != len(names):
            raise ObservabilityError("ledger entry names must be unique")
        return cls(
            benchmark=payload.get("benchmark", ""),
            mode=payload.get("mode", ""),
            meta=dict(payload.get("meta", {})),
            entries=[
                LedgerEntry.from_dict(e)
                for e in payload.get("entries", [])
            ],
        )


def load_ledger(path: str) -> Ledger:
    """Read a ``repro.bench-ledger/v1`` file; anything else is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ObservabilityError(f"{path!r} is not a bench ledger")
    return Ledger.from_dict(payload)


def save_ledger(ledger: Ledger, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger.to_dict(), fh, indent=2)
        fh.write("\n")


class BestOf:
    """Minimum host wall seconds over the regions timed with it.

    ``with timer: work()`` times one region; repeating it keeps the
    best.  Setup written outside the ``with`` block stays untimed, and
    two timers entered in turn time two interleaved paths under the
    same host conditions.  ``seconds`` is ``inf`` until a region ends.
    """

    def __init__(self) -> None:
        self.seconds = float("inf")
        self._start = 0.0

    def __enter__(self) -> "BestOf":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = min(self.seconds, time.perf_counter() - self._start)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two ledgers."""

    entry: str
    metric: str
    direction: str
    old: float
    new: float
    #: Signed fractional change, positive = metric went up.
    change: float
    #: True when the change moves in the bad direction past tolerance.
    regressed: bool
    #: True when the change moves in the good direction past tolerance.
    improved: bool


@dataclass
class LedgerDiff:
    """Full comparison of two ledgers."""

    deltas: List[MetricDelta]
    #: Entry names present in only one side.
    only_old: List[str]
    only_new: List[str]

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.improved]


def diff_ledgers(
    old: Ledger, new: Ledger, tolerance: float = 0.05
) -> LedgerDiff:
    """Compare matching entry/metric pairs; flag moves past tolerance.

    ``tolerance`` is a fractional band: a lower-is-better metric
    regresses when ``new > old * (1 + tolerance)`` and improves when
    ``new < old * (1 - tolerance)`` (mirrored for higher-is-better).
    A metric at old value 0 regresses on any bad-direction move
    beyond ``tolerance`` in absolute terms.
    """
    if tolerance < 0:
        raise ObservabilityError("tolerance must be non-negative")
    deltas: List[MetricDelta] = []
    old_names = [e.name for e in old.entries]
    new_names = [e.name for e in new.entries]
    for entry in old.entries:
        counterpart = new.entry(entry.name)
        if counterpart is None:
            continue
        for metric_name in sorted(entry.metrics):
            before = entry.metrics[metric_name]
            after = counterpart.metrics.get(metric_name)
            if after is None:
                continue
            direction = before.direction
            change = (
                (after.value - before.value) / abs(before.value)
                if before.value != 0
                else after.value - before.value
            )
            if direction == HIGHER_IS_BETTER:
                regressed = change < -tolerance
                improved = change > tolerance
            else:
                regressed = change > tolerance
                improved = change < -tolerance
            deltas.append(
                MetricDelta(
                    entry=entry.name,
                    metric=metric_name,
                    direction=direction,
                    old=before.value,
                    new=after.value,
                    change=change,
                    regressed=regressed,
                    improved=improved,
                )
            )
    return LedgerDiff(
        deltas=deltas,
        only_old=[n for n in old_names if n not in new_names],
        only_new=[n for n in new_names if n not in old_names],
    )


def render_diff(
    diff: LedgerDiff, old_label: str = "old", new_label: str = "new"
) -> str:
    """Deterministic text for ``repro bench-diff``."""
    lines = [f"bench diff: {old_label} -> {new_label}"]
    lines.append(
        f"  {len(diff.deltas)} metrics compared, "
        f"{len(diff.regressions)} regressed, "
        f"{len(diff.improvements)} improved"
    )
    for name in diff.only_old:
        lines.append(f"  entry only in {old_label}: {name}")
    for name in diff.only_new:
        lines.append(f"  entry only in {new_label}: {name}")
    flagged = [d for d in diff.deltas if d.regressed or d.improved]
    if flagged:
        lines.append("")
        lines.append(
            f"  {'entry':<28}{'metric':<28}{'old':>12}{'new':>12}"
            f"{'change':>9}  flag"
        )
        for delta in flagged:
            flag = "REGRESSED" if delta.regressed else "improved"
            lines.append(
                f"  {delta.entry:<28}{delta.metric:<28}"
                f"{delta.old:>12.6g}{delta.new:>12.6g}"
                f"{delta.change:>+8.1%}  {flag}"
            )
    return "\n".join(lines) + "\n"
