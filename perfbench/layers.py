"""The traced run: spans around each layer's entry points, and the
per-layer metrics derived from them.

Nothing here edits the program.  :class:`LayerTrace` swaps each public
entry point (a class method, a module function at the name its caller
resolves, or a method of the server's substrate object) for a wrapper
that records a ``layer.<stem>`` span on the benchmark's
:class:`~repro.obs.tracing.Tracer`, which is also installed as the
process tracer so the program's own spans (``serve.batch``,
``serve.wave``, ``worker.task``, ``stream.*``) land in the same trace.
A few wrappers also read the values their call returns (cache hits,
batch sizes, group statistics, epoch records).

Layer self time treats the program's own spans as part of the layer
that encloses them: :func:`layer_records` keeps only ``layer.*`` spans
and re-parents each onto its nearest ``layer.*`` ancestor before
:func:`repro.obs.analyze.aggregate_spans` rolls self times up.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro.core.bitwise as bitwise
import repro.kernels.bottomup as bottomup
import repro.native as native
import repro.service.batcher as batcher
import repro.stream.overlay as overlay
import repro.stream.service as stream_service
from repro.core.engine import IBFS
from repro.errors import ReproError
from repro.exec.executor import GroupExecutor
from repro.gpusim.memory import MemoryModel
from repro.graph.csr import CSRGraph
from repro.obs import tracing
from repro.obs.analyze import build_forest
from repro.plan.types import Direction
from repro.runtime.substrates import StreamSubstrate
from repro.service.cache import PlanCache, ResultCache, graph_cache_id
from repro.service.server import BFSServer
from repro.stream.service import DynamicBFSServer

#: Compiled ops the engine calls through ``repro.native``.
NATIVE_OPS = (
    "scatter_or", "or_scan", "depth_update", "materialize_depths",
    "unique_targets", "hit_scan_depth",
)

SPAN_PREFIX = "layer."

#: Host seconds of each untraced and traced segment of a traced run; a
#: quarter of the time is traced, which bounds the spans kept.
SEGMENT_S = {False: 0.75, True: 0.25}


def _targets(server) -> List[Tuple[object, str, str]]:
    """``(owner, attribute, stem)`` for every wrapped entry point."""
    substrate = server.substrate
    targets = [
        (BFSServer, "submit", "service.submit"),
        (batcher.MicroBatcher, "take_batch", "service.take_batch"),
        (ResultCache, "get", "service.cache_get"),
        (ResultCache, "put", "service.cache_put"),
        (PlanCache, "get", "plan.cache_get"),
        (substrate, "run_group", "runtime.run_group"),
        (IBFS, "run_group", "core.run_group"),
        (batcher, "group_sources", "core.group_sources"),
        (MemoryModel, "coalesced_transactions", "gpusim.coalesced_transactions"),
        (native, "bottom_up_coalesced", "gpusim.bottom_up_coalesced"),
        (GroupExecutor, "map_groups", "exec.map_groups"),
        (DynamicBFSServer, "mutate", "stream.mutate"),
        (StreamSubstrate, "publish", "stream.publish"),
        (overlay, "apply_batch", "stream.apply_batch"),
        (stream_service, "repair_depth_matrix", "stream.repair"),
        (CSRGraph, "reverse", "graph.reverse"),
    ]
    if substrate.supports_executor:
        targets.append((substrate, "map_groups", "runtime.run_group"))
    targets += [(native, op, f"native.{op}") for op in NATIVE_OPS]
    # The numpy paths the engine takes when no compiled backend resolves,
    # wrapped where the engine looks them up.  depth_update and
    # materialize_depths fall back to inline numpy with no name to wrap.
    targets += [
        (bitwise, "scatter_or", "native.scatter_or"),
        (bitwise, "scatter_plan", "native.unique_targets"),
        (bottomup, "_bucketed_or_scan_impl", "native.or_scan"),
        (bottomup, "_bucketed_hit_scan_impl", "native.hit_scan_depth"),
    ]
    return targets


class LayerTrace:
    """Installs and removes the layer wrappers; accumulates the values
    read from their results while installed."""

    def __init__(self, tracer, server) -> None:
        self.tracer = tracer
        self.server = server
        self.installed = False
        self._saved: List[Tuple[object, str, bool, object]] = []
        self.counts: Counter = Counter()
        self.queue_waits: List[float] = []
        self._submit_start: Dict[int, float] = {}
        self._get_hit = False
        self._repaired_keys: Optional[set] = None
        self._repaired_hit: set = set()

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        posts = {
            "service.submit": (self._pre_submit, self._post_submit),
            "service.take_batch": (None, self._post_take_batch),
            "service.cache_get": (None, self._post_cache_get),
            "plan.cache_get": (None, self._post_plan_get),
            "runtime.run_group": (None, self._post_runtime),
            "exec.map_groups": (None, self._post_exec),
            "stream.mutate": (self._pre_mutate, self._post_mutate),
        }
        for owner, attr, stem in _targets(self.server):
            own = vars(owner)
            self._saved.append((owner, attr, attr in own, own.get(attr)))
            pre, post = posts.get(stem, (None, None))
            setattr(owner, attr, self._wrap(getattr(owner, attr), stem, pre, post))
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, had, original in reversed(self._saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()
        self._submit_start.clear()
        # An epoch whose repaired rows were only partly observed is not
        # counted towards stream.repair_useful_frac.
        self._repaired_keys = None
        self.installed = False

    def _wrap(self, fn, stem: str, pre, post) -> Callable:
        start_span = self.tracer.start_span
        finish_span = self.tracer.finish_span
        name = SPAN_PREFIX + stem

        def wrapper(*args, **kwargs):
            span = start_span(name)
            if pre is not None:
                pre(args, span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish_span(span, status="error")
                raise
            finish_span(span)
            if post is not None:
                post(args, result, span)
            return result

        return wrapper

    # -- result readers -------------------------------------------------
    def _pre_submit(self, args, span) -> None:
        self._get_hit = False
        self._submit_start[id(args[1])] = span.start

    def _post_submit(self, args, result, span) -> None:
        if self._get_hit:
            self._submit_start.pop(id(args[1]), None)

    def _post_take_batch(self, args, result, span) -> None:
        sources, batch = result
        self.counts["batches"] += 1
        self.counts["batch_sources"] += len(sources)
        self.counts["batch_requests"] += len(batch)
        for item in batch:
            start = self._submit_start.pop(id(item.request), None)
            if start is not None:
                self.queue_waits.append(span.end - start)

    def _post_cache_get(self, args, result, span) -> None:
        hit = result is not None
        self._get_hit = hit
        self.counts["cache_hits"] += hit
        if hit and self._repaired_keys is not None and args[1] in self._repaired_keys:
            self._repaired_hit.add(args[1])

    def _post_plan_get(self, args, result, span) -> None:
        self.counts["plan_hits"] += result is not None

    def _post_runtime(self, args, result, span) -> None:
        results = result if isinstance(result, list) else [result]
        for r in results:
            if isinstance(r, ReproError):
                continue
            self.counts["instances"] += len(r.sources)
            self.counts["sim_seconds"] += r.seconds
            for stats in r.groups:
                decisions = stats.plan.decisions if stats.plan is not None else []
                self.counts["levels"] += len(decisions)
                self.counts["bottom_up_levels"] += sum(
                    Direction.BOTTOM_UP in d.directions for d in decisions
                )

    def _post_exec(self, args, result, span) -> None:
        for r in result:
            depths = getattr(r, "depths", None)
            if depths is not None:
                self.counts["result_bytes"] += depths.size * depths.itemsize
        stats = args[0].last_stats
        if stats is not None:
            self.counts["retries"] += stats.retries
            self.counts["respawns"] += stats.respawns

    def _pre_mutate(self, args, span) -> None:
        # The previous repair epoch ends here: count its rows.
        if self._repaired_keys is not None:
            self.counts["repair_rows_tracked"] += len(self._repaired_keys)
            self.counts["repair_rows_useful"] += len(self._repaired_hit)
        self._repaired_keys = None

    def _post_mutate(self, args, record, span) -> None:
        self.counts["rows_repaired"] += record.rows_repaired
        self.counts["rows_dropped"] += record.rows_dropped
        self.counts[f"decision.{record.decision}"] += 1
        if record.decision == "repair":
            # Right after the swap the only rows keyed by the new epoch
            # are the repaired ones.
            graph_id = graph_cache_id(self.server.graph)
            self._repaired_keys = {
                key for key, _ in self.server.cache.items() if key[0] == graph_id
            }
            self._repaired_hit = set()


class Segments:
    """Alternates untraced and traced segments of host time, installing
    the process tracer and the layer wrappers for the traced ones."""

    def __init__(self, clock, trace: LayerTrace, start: float) -> None:
        self.clock = clock
        self.trace = trace
        self.traced = False
        self.start = start
        self.spans = {False: [], True: []}

    def poll(self, t: float) -> None:
        if t - self.start >= SEGMENT_S[self.traced]:
            self.toggle(t)

    def toggle(self, t: float) -> None:
        self.spans[self.traced].append((self.start, t))
        self.traced = not self.traced
        if self.traced:
            tracing.set_tracer(self.clock)
            self.trace.install()
        else:
            self.trace.uninstall()
            tracing.set_tracer(None)
        self.start = t

    def close(self, t: float) -> None:
        if self.traced:
            self.toggle(t)
        else:
            self.spans[False].append((self.start, t))

    def seconds(self, traced: bool) -> float:
        return sum(b - a for a, b in self.spans[traced])

    def select(self, times, values, traced: bool) -> list:
        """``values[i]`` for each ascending ``times[i]`` inside a segment
        of the given kind."""
        out = []
        for a, b in self.spans[traced]:
            out.extend(values[bisect.bisect_left(times, a):bisect.bisect_left(times, b)])
        return out


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def layer_records(records: Iterable[dict]) -> List[dict]:
    """Only the ``layer.*`` spans, each re-parented onto its nearest
    ``layer.*`` ancestor, so a program span's time counts as self time
    of the layer around it."""
    records = [r for r in records if r.get("kind") == "span"]
    by_id = {r["span_id"]: r for r in records}
    out = []
    for record in records:
        if not record["name"].startswith(SPAN_PREFIX):
            continue
        parent = by_id.get(record.get("parent_id") or "")
        while parent is not None and not parent["name"].startswith(SPAN_PREFIX):
            parent = by_id.get(parent.get("parent_id") or "")
        out.append(dict(record, parent_id=parent["span_id"] if parent else None))
    return out


def dispatch_overhead(records: Iterable[dict]) -> Tuple[float, float]:
    """``(overhead seconds, worker task seconds)`` over every
    ``serve.wave``: wave time minus the busiest worker's ``worker.task``
    time in it (the slowest task when each worker runs one), and the
    summed ``worker.task`` durations."""
    overhead = 0.0
    task_seconds = 0.0
    for root in build_forest(records):
        for node in root.walk():
            if node.name != "serve.wave":
                continue
            busy: Dict[str, float] = {}
            for task in node.walk():
                if task.name == "worker.task":
                    busy[task.process] = busy.get(task.process, 0.0) + task.duration
            if busy:
                overhead += node.duration - max(busy.values())
                task_seconds += sum(busy.values())
    return overhead, task_seconds
