"""Sampling-controlled hot-path profiling hooks.

The engines' hot loops (per-level execution in
:mod:`repro.core.bitwise`, degree-bucketed scans in
:mod:`repro.kernels.bottomup`, group execution in
:mod:`repro.core.engine`) call :func:`span` at their natural
boundaries.  The call is designed to cost one module-global check when
profiling is off, and — when on — to honor a sampling interval so a
deep traversal does not drown the trace.

**Overhead budget: <= 5%.**  Instrumented call sites must keep a fully
enabled, sample-every-level profile within 5% of the uninstrumented
wall clock on the benchmark gate
(``benchmarks/bench_obs_overhead.py --check``, run in CI).  Anything
hotter than a per-level boundary (per-vertex, per-edge) must not call
into this module at all.

Profile spans land in the process-wide tracer
(:func:`repro.obs.tracing.get_tracer`), named ``profile.<site>`` so
exporters and the level-diff tool can select them.  Worker processes
inherit the sampling configuration through the executor
(:class:`repro.exec.worker` ships it with the engine spec).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict

from repro.errors import ObservabilityError
from repro.obs import tracing

#: Documented ceiling on tracing-enabled slowdown, enforced by the
#: benchmark gate (see module docstring and docs/observability.md).
OVERHEAD_BUDGET = 0.05


@dataclass(frozen=True)
class ProfileConfig:
    """Profiling switch plus sampling interval.

    ``sample_every=n`` records every n-th span per site (the first hit
    always records, so shallow traversals still profile).
    """

    enabled: bool = False
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.sample_every <= 0:
            raise ObservabilityError("sample_every must be positive")


_config = ProfileConfig()
_site_hits: Dict[str, int] = {}
_NULL = nullcontext(None)


def configure(enabled: bool = True, sample_every: int = 1) -> ProfileConfig:
    """Install the process-wide profiling configuration."""
    global _config
    _config = ProfileConfig(enabled=enabled, sample_every=sample_every)
    _site_hits.clear()
    return _config


def get_config() -> ProfileConfig:
    return _config


def disable() -> None:
    configure(enabled=False)


def enabled() -> bool:
    return _config.enabled


def span(site: str, **attrs):
    """A profile span for one hot-path site, or a no-op context.

    Returns a context manager either way; the disabled path is a single
    flag test plus a cached :func:`contextlib.nullcontext`.
    """
    config = _config
    if not config.enabled:
        return _NULL
    tracer = tracing.get_tracer()
    if not tracer.enabled:
        return _NULL
    if config.sample_every > 1:
        hits = _site_hits.get(site, 0)
        _site_hits[site] = hits + 1
        if hits % config.sample_every:
            return _NULL
    return tracer.span(f"profile.{site}", **attrs)
