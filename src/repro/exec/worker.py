"""Worker process entry point.

Each worker attaches the shared-memory graph once, builds its own
:class:`~repro.core.engine.IBFS` engine (bit-identical to the parent's:
same config, device model, and planner), and then loops on its
task queue.  A task is ``(epoch, task_id, attempt, group, max_depth,
want_depths, plan, trace_ctx, result_name)`` — ``result_name`` is the
parent-allocated shared-memory segment name the depth matrix must be
pushed under (``None`` when no depths are wanted), so the parent can
reclaim the segment even if this worker dies before replying —
``plan`` is an optional recorded
:class:`~repro.plan.types.RunPlan` replayed instead of re-running the
planner heuristics, and the :class:`~repro.core.result.GroupStats` in
the reply carries the plan the engine actually executed.  The reply on
the shared result queue is either

``("ok", worker_id, epoch, task_id, attempt, depth_spec, counters,
stats, wall_seconds, spans)``
    where ``depth_spec`` is a :class:`~repro.exec.shm.SharedArraySpec`
    for the depth matrix (``None`` when no depths are wanted), or

``("error", worker_id, epoch, task_id, attempt, message, traceback,
spans)``
    for any exception the task raised — ``traceback`` is the formatted
    worker-side traceback, the crashed attempt's "last words", which
    the parent folds into its fault log instead of discarding.

``epoch`` is the parent's run sequence number, echoed verbatim: task
ids restart at zero every run, so a straggler reply from a previous
run can only be told apart — and safely dropped — by its epoch.

``trace_ctx`` is an optional :data:`~repro.obs.tracing.SpanContext`
``(trace_id, dispatch_span_id)``: when present, the worker runs the
task under a ``worker.task`` span parented onto the executor's
dispatch span, and ships every span it finished (including the
engine's ``profile.*`` spans) back as plain dicts in ``spans``.

The loop exits on a ``None`` sentinel.  Injected faults
(:class:`~repro.exec.faults.FaultPlan`) are applied inside the task
span, keyed on ``(task_id, attempt)`` so they reproduce exactly.
"""

from __future__ import annotations

import os
import time
import traceback as traceback_mod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import repro.native as native
from repro.core.engine import IBFS, IBFSConfig
from repro.plan.policy import Policy
from repro.gpusim.config import DeviceConfig
from repro.gpusim.device import Device
from repro.exec.faults import FaultPlan
from repro.exec.shm import SharedGraphHandle, attach_graph, push_array
from repro.obs import profile as obs_profile
from repro.obs import tracing as obs_tracing


@dataclass(frozen=True)
class EngineSpec:
    """Everything a worker needs to rebuild the parent's engine."""

    config: IBFSConfig
    device_config: Optional[DeviceConfig] = None
    planner: Optional[Policy] = None

    def build(self, graph) -> IBFS:
        """Build the worker's engine through :func:`make_substrate`:
        the worker loop is a serial placement over the attached shm
        graph, so the spec builds one serial substrate and runs its
        engine — identical construction to the parent's."""
        from repro.runtime import SubstrateSpec, make_substrate

        device = Device(self.device_config) if self.device_config else None
        substrate = make_substrate(
            SubstrateSpec(kind="serial"),
            graph,
            engine_config=self.config,
            device=device,
            planner=self.planner,
        )
        return substrate.engine


@dataclass(frozen=True)
class ObsSpec:
    """Observability configuration shipped to a worker at spawn.

    Captured from the parent's process-wide profiling state when the
    pool starts, so workers profile identically under both ``fork``
    and ``spawn`` start methods (where module globals don't inherit).
    """

    profile: bool = False
    sample_every: int = 1


def _worker_tracer(
    worker_id: int, trace_id: str, current: Optional[obs_tracing.Tracer]
) -> obs_tracing.Tracer:
    """The worker's tracer for one trace, installed process-wide so the
    engine's profile hooks record into it.  The pid-qualified id prefix
    keeps a respawned incarnation's span ids distinct from its
    predecessor's."""
    if current is not None and current.trace_id == trace_id:
        return current
    tracer = obs_tracing.Tracer(
        process=f"worker-{worker_id}",
        trace_id=trace_id,
        id_prefix=f"worker-{worker_id}.{os.getpid()}",
    )
    obs_tracing.set_tracer(tracer)
    return tracer


def worker_main(
    worker_id: int,
    handle: SharedGraphHandle,
    engine_spec: EngineSpec,
    task_queue,
    result_queue,
    fault_plan: Optional[FaultPlan],
    obs_spec: Optional[ObsSpec] = None,
) -> None:
    """Run the worker loop until the ``None`` sentinel arrives."""
    plan = fault_plan or FaultPlan()
    if obs_spec is not None:
        obs_profile.configure(
            enabled=obs_spec.profile, sample_every=obs_spec.sample_every
        )
    tracer: Optional[obs_tracing.Tracer] = None
    # Pay JIT/compile cost once at spawn, not inside the first task's
    # timed span (a no-op when no native backend resolves).
    native.warmup()
    attached = attach_graph(handle)
    try:
        engine = engine_spec.build(attached.graph)
        while True:
            message = task_queue.get()
            if message is None:
                break
            (epoch, task_id, attempt, group, max_depth, want_depths,
             replay_plan, trace_ctx, result_name) = message
            start = time.perf_counter()
            spans: List[Tuple] = []
            try:
                if trace_ctx is not None:
                    tracer = _worker_tracer(worker_id, trace_ctx[0], tracer)
                    with tracer.span(
                        "worker.task",
                        parent=trace_ctx,
                        task_id=task_id,
                        attempt=attempt,
                        worker_id=worker_id,
                        group_size=len(group),
                    ):
                        plan.apply(task_id, attempt)
                        result = engine.run_group(
                            group, max_depth=max_depth, plan=replay_plan
                        )
                    spans = [s.to_dict() for s in tracer.drain()]
                else:
                    plan.apply(task_id, attempt)
                    result = engine.run_group(
                        group, max_depth=max_depth, plan=replay_plan
                    )
                wall = time.perf_counter() - start
                depth_spec = None
                if want_depths:
                    depth_spec = push_array(result.depths, name=result_name)
                plan.apply_after_result(task_id, attempt)
                result_queue.put(
                    (
                        "ok",
                        worker_id,
                        epoch,
                        task_id,
                        attempt,
                        depth_spec,
                        result.counters,
                        result.groups[0],
                        wall,
                        spans,
                    )
                )
            except Exception as exc:  # surfaced to the parent as a task error
                if tracer is not None:
                    spans = [s.to_dict() for s in tracer.drain()]
                result_queue.put(
                    (
                        "error",
                        worker_id,
                        epoch,
                        task_id,
                        attempt,
                        str(exc),
                        traceback_mod.format_exc(),
                        spans,
                    )
                )
    finally:
        attached.close()
