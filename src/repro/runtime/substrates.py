"""The traversal substrates: four ways to run one traversal.

Every substrate executes the same iBFS group traversal with
bit-identical depths and counters; what differs is *placement* — where
the work runs and what metrics it emits:

* ``serial`` — the in-process :class:`~repro.core.engine.IBFS` engine;
* ``executor`` — the :class:`~repro.exec.executor.GroupExecutor`
  worker-process pool over a shared-memory graph;
* ``partitioned`` — the :class:`~repro.dist.engine.PartitionedEngine`
  (1D/2D) for graphs too big for one device;
* ``stream`` — the epoch-swapping wrapper: an
  :class:`~repro.stream.epoch.EpochStore` plus any of the above as the
  per-epoch delegate.

All of them present one :class:`Substrate` surface (``run_group``,
``map_groups``, ``run``, ``effective_group_size``, ``metrics``,
``close``) plus capability flags, and all construction/validation
funnels through :func:`make_substrate`, which branches on the spec's
kind — the scattered per-consumer ``ServiceError`` checks became
capability checks here.  Epoch
swap-on-mutate is the :meth:`Substrate.on_epoch_published` hook:
substrates whose ``supports_mutation`` flag is False raise a typed
:class:`~repro.errors.UnsupportedMutationError` instead of ever
serving a stale graph.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, TYPE_CHECKING

from repro.errors import (
    ExclusiveSubstrateError,
    ReproError,
    SubstrateError,
    UnsupportedMutationError,
)
from repro.graph.csr import CSRGraph
from repro.runtime.spec import SubstrateSpec, engine_key

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.result import ConcurrentResult
    from repro.stream.epoch import Snapshot

#: Capability flag names, in the order the capability table renders.
CAPABILITY_FLAGS = (
    "supports_mutation",
    "supports_partitions",
    "supports_executor",
    "supports_replay",
)


class Substrate:
    """One execution substrate behind the uniform dispatch surface.

    Subclasses set :attr:`kind` and the capability flags as class
    attributes (instances may narrow them — a caller-owned executor
    loses ``supports_mutation``) and implement the traversal surface
    over their engine.  ``engine_key`` is the cache namespace batches
    served by this substrate are keyed under.
    """

    kind: str = "abstract"
    #: Can follow an epoch publication (:meth:`on_epoch_published`).
    supports_mutation: bool = False
    #: Splits the graph instead of replicating it.
    supports_partitions: bool = False
    #: Runs on a worker-process pool (a wave's groups run concurrently).
    supports_executor: bool = False
    #: Accepts recorded :class:`~repro.plan.types.RunPlan` replay.
    supports_replay: bool = True

    graph: CSRGraph
    engine_key: str

    # -- traversal surface ---------------------------------------------
    def run_group(
        self,
        group: Sequence[int],
        max_depth: Optional[int] = None,
        plan=None,
    ) -> "ConcurrentResult":
        raise NotImplementedError

    def run(
        self,
        sources: Sequence[int],
        max_depth: Optional[int] = None,
        store_depths: bool = True,
    ) -> "ConcurrentResult":
        raise NotImplementedError

    def make_groups(self, sources: Sequence[int]) -> List[List[int]]:
        raise NotImplementedError

    def effective_group_size(self) -> int:
        raise NotImplementedError

    def map_groups(self, specs: Sequence[tuple], return_errors: bool = False):
        """Run a wave of ``(group, max_depth, plan)`` specs; results come
        back in spec order.

        The default runs each spec in turn through :meth:`run_group`.
        Under ``return_errors`` a spec that raises a
        :class:`~repro.errors.ReproError` yields the error in its place
        instead of aborting the wave.  Worker-pool substrates override
        this to run the wave concurrently.
        """
        results = []
        for group, max_depth, plan in specs:
            try:
                results.append(
                    self.run_group(group, max_depth=max_depth, plan=plan)
                )
            except ReproError as exc:
                if not return_errors:
                    raise
                results.append(exc)
        return results

    # -- lifecycle ------------------------------------------------------
    def on_epoch_published(self, snapshot: "Snapshot") -> None:
        """Swap onto a newly published epoch's graph.

        The default is the fail-closed path: a substrate that cannot
        follow the swap refuses with a typed error naming the
        capability rather than silently serving the old graph.
        """
        raise UnsupportedMutationError(
            f"substrate {self.kind!r} has supports_mutation=False: "
            f"it cannot follow an epoch publication"
        )

    def close(self) -> None:
        """Release owned resources (pools, partitions, epochs)."""

    def __enter__(self) -> "Substrate":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection --------------------------------------------------
    @property
    def last_stats(self):
        """Substrate-specific stats of the most recent run (or None)."""
        return None

    @property
    def partitioned_engine(self):
        """The PartitionedEngine when this placement partitions."""
        return None

    @property
    def executor(self):
        """The GroupExecutor when this placement pools workers."""
        return None

    @property
    def telemetry_kind(self) -> str:
        """The substrate name recorded on spans/metrics — aligned with
        :func:`repro.obs.analyze.detect_substrate`'s vocabulary."""
        return self.kind

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "engine": getattr(self.engine, "name", None),
            "capabilities": {
                flag: bool(getattr(self, flag)) for flag in CAPABILITY_FLAGS
            },
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kind={self.kind!r})"


# ----------------------------------------------------------------------
class SerialSubstrate(Substrate):
    """The in-process single-device engine — the bit-identity oracle."""

    kind = "serial"
    supports_mutation = True

    def __init__(
        self,
        graph: CSRGraph,
        spec: SubstrateSpec,
        engine_config=None,
        device=None,
        planner=None,
    ) -> None:
        from repro.core.engine import IBFS

        self.graph = graph
        self.spec = spec
        self.engine = IBFS(graph, engine_config, device=device, planner=planner)
        self._planner = planner
        self.engine_key = engine_key(self.engine.config, planner)

    def run_group(self, group, max_depth=None, plan=None):
        return self.engine.run_group(group, max_depth=max_depth, plan=plan)

    def run(self, sources, max_depth=None, store_depths=True):
        return self.engine.run(
            sources, max_depth=max_depth, store_depths=store_depths
        )

    def make_groups(self, sources):
        return self.engine.make_groups(sources)

    def effective_group_size(self) -> int:
        return self.engine.effective_group_size()

    def on_epoch_published(self, snapshot: "Snapshot") -> None:
        from repro.core.engine import IBFS

        self.graph = snapshot.graph
        self.engine = IBFS(
            snapshot.graph,
            self.engine.config,
            device=self.engine.device,
            planner=self._planner,
        )

    def metrics(self) -> dict:
        return {"kind": self.kind, "engine": self.engine.name}


# ----------------------------------------------------------------------
class ExecutorSubstrate(Substrate):
    """The worker-process pool over a shared-memory graph replica.

    Owns its :class:`~repro.exec.executor.GroupExecutor` unless one is
    passed in; a caller-owned executor cannot be rebound across epochs
    (its other users would see the graph change under them), so the
    instance drops ``supports_mutation``.  An owned executor takes its
    pool size from the spec (``workers=0`` meaning the executor's
    default pool) and its failure handling from ``faults``.
    """

    kind = "executor"
    supports_executor = True
    supports_mutation = True

    def __init__(
        self,
        graph: CSRGraph,
        spec: SubstrateSpec,
        engine_config=None,
        device_config=None,
        planner=None,
        executor=None,
        faults=None,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self._planner = planner
        if executor is not None:
            self._executor = executor
            self._owned = False
            self.supports_mutation = False
        else:
            from repro.exec.executor import ExecConfig, GroupExecutor
            from repro.exec.faults import FaultPolicy

            exec_config = ExecConfig(
                num_workers=spec.workers or ExecConfig().num_workers,
                faults=faults or FaultPolicy(),
            )
            self._executor = GroupExecutor(
                graph,
                engine_config,
                exec_config=exec_config,
                device_config=device_config,
                planner=planner,
            )
            self._owned = True
        self.engine_key = engine_key(self._executor.engine.config, planner)

    @property
    def executor(self):
        return self._executor

    @property
    def engine(self):
        """The executor's local engine (grouping + in-process path)."""
        return self._executor.engine

    def run_group(self, group, max_depth=None, plan=None):
        return self._executor.run_group(
            group, max_depth=max_depth, plan=plan
        )

    def run(self, sources, max_depth=None, store_depths=True):
        return self._executor.run(
            sources, max_depth=max_depth, store_depths=store_depths
        )

    def make_groups(self, sources):
        return self._executor.engine.make_groups(sources)

    def effective_group_size(self) -> int:
        return self._executor.engine.effective_group_size()

    def map_groups(self, specs, return_errors: bool = False):
        return self._executor.map_groups(specs, return_errors=return_errors)

    def on_epoch_published(self, snapshot: "Snapshot") -> None:
        if not self._owned:
            raise UnsupportedMutationError(
                "caller-owned executor has supports_mutation=False: "
                "worker processes map one published graph for their "
                "lifetime, but epochs swap the graph under the server; "
                "let the substrate own its executor (workers=N in the "
                "SubstrateSpec) so it can republish and respawn"
            )
        self._executor.rebind_graph(snapshot.graph)
        self.graph = snapshot.graph

    def close(self) -> None:
        if self._owned:
            self._executor.close()

    @property
    def last_stats(self):
        return self._executor.last_stats

    def metrics(self) -> dict:
        payload = {
            "kind": self.kind,
            "backend": self._executor.backend,
            "owned": self._owned,
        }
        if self._executor.last_stats is not None:
            payload["last_run"] = self._executor.last_stats.to_dict()
        return payload


# ----------------------------------------------------------------------
class PartitionedSubstrate(Substrate):
    """The 1D/2D partitioned engine for graphs too big for one device."""

    kind = "partitioned"
    supports_partitions = True
    supports_mutation = True

    def __init__(
        self,
        graph: CSRGraph,
        spec: SubstrateSpec,
        engine_config=None,
        planner=None,
    ) -> None:
        from repro.core.engine import IBFSConfig
        from repro.dist.engine import DistConfig, PartitionedEngine

        self.graph = graph
        self.spec = spec
        engine_config = engine_config or IBFSConfig()
        dist_config = DistConfig(
            num_partitions=spec.partitions or DistConfig().num_partitions,
            layout=spec.layout,
            group_size=engine_config.group_size,
            groupby=engine_config.groupby,
            groupby_config=engine_config.groupby_config,
            seed=engine_config.seed,
        )
        self.engine = PartitionedEngine(graph, dist_config)
        self._engine_config = engine_config
        self._planner = planner
        # Partitioned plans carry exchange formats a whole-graph replay
        # would ignore; the suffix keeps the cache namespaces apart.
        self.engine_key = engine_key(
            engine_config, planner, substrate_suffix=self.engine.name
        )

    @property
    def partitioned_engine(self):
        return self.engine

    def run_group(self, group, max_depth=None, plan=None):
        return self.engine.run_group(group, max_depth=max_depth, plan=plan)

    def run(self, sources, max_depth=None, store_depths=True):
        return self.engine.run(
            sources, max_depth=max_depth, store_depths=store_depths
        )

    def make_groups(self, sources):
        return self.engine.make_groups(sources)

    def effective_group_size(self) -> int:
        return self.engine.effective_group_size()

    def on_epoch_published(self, snapshot: "Snapshot") -> None:
        from repro.dist.engine import PartitionedEngine

        old_config = self.engine.config
        self.engine.close()
        self.engine = PartitionedEngine(snapshot.graph, old_config)
        self.graph = snapshot.graph

    def close(self) -> None:
        self.engine.close()

    @property
    def last_stats(self):
        return self.engine.last_stats

    def metrics(self) -> dict:
        payload = {"kind": self.kind, "engine": self.engine.name}
        stats = self.engine.last_stats
        if stats is not None:
            payload["last_run"] = {
                "layout": stats.layout,
                "num_partitions": stats.num_partitions,
                "bytes_total": stats.bytes_total,
                "messages_total": stats.messages_total,
            }
        return payload


# ----------------------------------------------------------------------
class StreamSubstrate(Substrate):
    """The epoch-swapping wrapper: a mutable graph behind any delegate.

    Owns an :class:`~repro.stream.epoch.EpochStore` and one inner
    substrate built over the current epoch's graph; :meth:`publish`
    folds the overlay into a new epoch and routes the swap through the
    delegate's :meth:`on_epoch_published` hook — including the executor
    delegate, which republishes the new epoch's shm graph to a fresh
    worker pool instead of pinning the base epoch forever.
    """

    kind = "stream"
    supports_mutation = True

    def __init__(
        self,
        graph: CSRGraph,
        spec: SubstrateSpec,
        **kwargs,
    ) -> None:
        from repro.stream.epoch import EpochStore

        if kwargs.get("executor") is not None:
            raise UnsupportedMutationError(
                "caller-owned executor has supports_mutation=False: "
                "worker processes map one published graph for their "
                "lifetime, but epochs swap the graph under the server; "
                "pass workers=N in the SubstrateSpec so the stream "
                "substrate owns (and rebinds) its executor"
            )
        self.spec = spec
        self.epochs = EpochStore(graph)
        self.graph = self.epochs.current.graph
        self.inner = make_substrate(spec.inner(), self.graph, **kwargs)
        if not self.inner.supports_mutation:
            raise UnsupportedMutationError(
                f"stream delegate {self.inner.kind!r} has "
                f"supports_mutation=False: it cannot follow epoch swaps"
            )
        # Epoch swaps re-namespace caches via graph_id alone; the
        # engine key is config-derived and stable across epochs.
        self.engine_key = self.inner.engine_key
        self.supports_partitions = self.inner.supports_partitions
        self.supports_executor = self.inner.supports_executor

    # -- mutation surface ----------------------------------------------
    @property
    def overlay(self):
        return self.epochs.overlay

    def publish(self) -> "Snapshot":
        """Fold pending mutations into a new epoch and swap the
        delegate onto it; a no-op (returning the current snapshot)
        when nothing is pending."""
        snap = self.epochs.publish()
        if snap.graph is not self.graph:
            self.on_epoch_published(snap)
        return snap

    def on_epoch_published(self, snapshot: "Snapshot") -> None:
        self.inner.on_epoch_published(snapshot)
        self.graph = snapshot.graph

    # -- delegation -----------------------------------------------------
    @property
    def engine(self):
        return self.inner.engine

    @property
    def partitioned_engine(self):
        return self.inner.partitioned_engine

    @property
    def executor(self):
        return self.inner.executor

    @property
    def last_stats(self):
        return self.inner.last_stats

    @property
    def telemetry_kind(self) -> str:
        # A stream placement over a non-serial delegate reports the
        # delegate, so its waves compare with that substrate's own; a
        # serial delegate is the stream substrate proper.
        if self.inner.kind != "serial":
            return self.inner.telemetry_kind
        return self.kind

    def run_group(self, group, max_depth=None, plan=None):
        return self.inner.run_group(group, max_depth=max_depth, plan=plan)

    def run(self, sources, max_depth=None, store_depths=True):
        return self.inner.run(
            sources, max_depth=max_depth, store_depths=store_depths
        )

    def make_groups(self, sources):
        return self.inner.make_groups(sources)

    def effective_group_size(self) -> int:
        return self.inner.effective_group_size()

    def map_groups(self, specs, return_errors: bool = False):
        if self.inner.supports_executor:
            return self.inner.map_groups(specs, return_errors=return_errors)
        # In-process delegates run each group through this substrate's
        # own run_group, so every batch a stream placement serves
        # passes one entry point whatever the delegate.
        return super().map_groups(specs, return_errors=return_errors)

    def close(self) -> None:
        self.inner.close()
        self.epochs.close()

    def metrics(self) -> dict:
        return {
            "kind": self.kind,
            "inner": self.inner.metrics(),
            "current_epoch": self.epochs.current_epoch,
            "reclaimed_epochs": self.epochs.reclaimed_epochs,
        }


# ----------------------------------------------------------------------
def make_substrate(
    spec: SubstrateSpec,
    graph: CSRGraph,
    engine_config=None,
    device=None,
    device_config=None,
    planner=None,
    executor=None,
    faults=None,
) -> Substrate:
    """Build the substrate a spec places the workload on.

    The one construction/validation funnel: capability violations — an
    executor handed to a partitioned placement, a caller-owned executor
    under an epoch-swapping placement — raise typed
    :class:`~repro.errors.SubstrateCapabilityError` subclasses here
    instead of ad-hoc ``ServiceError`` checks at every consumer.

    ``device`` (a :class:`~repro.gpusim.device.Device`) serves the
    in-process engines; ``device_config`` ships to worker processes.
    ``faults`` (a :class:`~repro.exec.faults.FaultPolicy`) is the retry
    and timeout budget of an owned executor; every other substrate
    parameter comes from the spec.
    """
    if executor is not None and spec.kind == "partitioned":
        raise ExclusiveSubstrateError()
    if spec.kind == "serial":
        if executor is not None:
            raise SubstrateError(
                "substrate 'serial' has supports_executor=False: "
                "it cannot adopt a GroupExecutor"
            )
        return SerialSubstrate(
            graph,
            spec,
            engine_config=engine_config,
            device=device,
            planner=planner,
        )
    if spec.kind == "executor":
        if device_config is None and device is not None:
            device_config = device.config
        return ExecutorSubstrate(
            graph,
            spec,
            engine_config=engine_config,
            device_config=device_config,
            planner=planner,
            executor=executor,
            faults=faults,
        )
    if spec.kind == "partitioned":
        return PartitionedSubstrate(
            graph,
            spec,
            engine_config=engine_config,
            planner=planner,
        )
    kwargs = dict(
        engine_config=engine_config,
        planner=planner,
    )
    inner_kind = spec.inner_kind
    if inner_kind == "serial":
        kwargs["device"] = device
    elif inner_kind == "executor":
        if device_config is None and device is not None:
            device_config = device.config
        kwargs["device_config"] = device_config
        kwargs["faults"] = faults
    if executor is not None:
        kwargs["executor"] = executor
    return StreamSubstrate(graph, spec, **kwargs)
