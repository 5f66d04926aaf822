"""Placement specs for the traversal substrates.

A :class:`SubstrateSpec` is the *placement decision*: which of the
four registered substrates runs a workload, and with what substrate
parameters (worker count and scheduler, partition count and layout).
Everything a consumer used to wire by hand — ``--workers`` vs
``--partitions`` vs ``--churn``, the executor/partitions mutual
exclusion, the partitioned cache-key suffix — derives from one spec.

Engine-key derivation lives here too, and only here: the spec owns
the cache namespace its substrate serves under, so the serving layer
no longer builds a throwaway engine just to fingerprint its
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Optional, TYPE_CHECKING

from repro.errors import ExclusiveSubstrateError, SubstrateError, UnknownSubstrateError
from repro.plan.policy import HeuristicPolicy, Policy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.core.engine import IBFSConfig

#: Registered substrate names, in registry order.  The registry itself
#: (name -> class) lives in :mod:`repro.runtime.substrates`; this tuple
#: is the static surface the spec and the CLI validate against.
SUBSTRATE_NAMES = ("serial", "executor", "partitioned", "stream")


def engine_key(
    config: "IBFSConfig",
    planner: Optional[Policy] = None,
    substrate_suffix: Optional[str] = None,
) -> str:
    """Stable fingerprint of an engine: its configuration and planner.

    The planner contributes its name and every parameter, ``None``
    resolving to ``HeuristicPolicy()`` exactly as the engines resolve
    it: planners that differ in any parameter can produce different
    traversal schedules and counters, so their cached plans must not
    alias.  ``substrate_suffix`` namespaces substrates whose recorded
    plans a whole-graph replay would misread (the partitioned engine's
    exchange formats).
    """
    planner = planner if planner is not None else HeuristicPolicy()
    params = (
        {f.name: getattr(planner, f.name) for f in fields(planner)}
        if is_dataclass(planner)
        else vars(planner)
    )
    signature = ",".join(f"{name}={value!r}" for name, value in params.items())
    key = (
        f"{config.mode}-n{config.group_size}"
        f"-gb{int(config.groupby)}-s{config.seed}"
        f"-pol{planner.name}({signature})"
    )
    if substrate_suffix is not None:
        key += f"+{substrate_suffix}"
    return key


@dataclass(frozen=True)
class SubstrateSpec:
    """One placement decision: which substrate, with what parameters.

    Attributes
    ----------
    kind:
        One of :data:`SUBSTRATE_NAMES`.  ``"stream"`` is the
        epoch-swapping wrapper; its delegate is chosen by the remaining
        fields (:attr:`inner_kind`).
    workers:
        Worker processes for the executor substrate (0 = the
        executor's default pool of 2 when the kind demands one).
    scheduler:
        Executor dispatch policy (``steal`` / ``lpt`` / ``round_robin``).
    partitions:
        Partition count for the partitioned substrate (0 = the
        engine's default when the kind demands partitions).
    layout:
        Partition layout, ``"1d"`` or ``"2d"``.
    """

    kind: str = "serial"
    workers: int = 0
    scheduler: str = "steal"
    partitions: int = 0
    layout: str = "1d"

    def __post_init__(self) -> None:
        if self.kind not in SUBSTRATE_NAMES:
            raise UnknownSubstrateError(
                f"unknown substrate {self.kind!r}; "
                f"expected one of {SUBSTRATE_NAMES}"
            )
        if self.workers < 0:
            raise SubstrateError("workers must be non-negative")
        if self.partitions < 0:
            raise SubstrateError("partitions must be non-negative")
        if self.layout not in ("1d", "2d"):
            raise SubstrateError(
                f"unknown partition_layout {self.layout!r}; "
                f"expected '1d' or '2d'"
            )
        if self.workers > 0 and self.partitions > 0:
            raise ExclusiveSubstrateError()
        if self.kind == "executor" and self.partitions > 0:
            raise ExclusiveSubstrateError()
        if self.kind == "partitioned" and self.workers > 0:
            raise ExclusiveSubstrateError()

    # ------------------------------------------------------------------
    @classmethod
    def from_flags(
        cls,
        kind: Optional[str] = None,
        workers: int = 0,
        partitions: int = 0,
        layout: str = "1d",
        scheduler: str = "steal",
        churn: bool = False,
    ) -> "SubstrateSpec":
        """Derive a spec from the legacy CLI/serving flags.

        ``--workers`` / ``--partitions`` / ``--churn`` remain aliases:
        when ``kind`` is not given explicitly, partitions select the
        partitioned substrate, workers the executor, churn wraps the
        result in the stream substrate, and the bare default is serial.
        An explicit ``kind`` wins (its parameters fall back to the
        substrate defaults when the matching flag is 0).
        """
        if kind is None:
            if churn:
                kind = "stream"
            elif partitions > 0:
                kind = "partitioned"
            elif workers > 0:
                kind = "executor"
            else:
                kind = "serial"
        elif churn and kind != "stream":
            # An explicit non-stream kind under churn still needs the
            # epoch wrapper; the requested kind becomes the delegate,
            # with its substrate's default size.
            if kind == "partitioned" and partitions == 0:
                from repro.dist.engine import DistConfig

                partitions = DistConfig().num_partitions
            if kind == "executor" and workers == 0:
                from repro.exec.executor import ExecConfig

                workers = ExecConfig().num_workers
            kind = "stream"
        return cls(
            kind=kind,
            workers=workers,
            scheduler=scheduler,
            partitions=partitions,
            layout=layout,
        )

    # ------------------------------------------------------------------
    @property
    def inner_kind(self) -> str:
        """The stream substrate's delegate (what actually traverses)."""
        if self.partitions > 0:
            return "partitioned"
        if self.workers > 0:
            return "executor"
        return "serial"

    def inner(self) -> "SubstrateSpec":
        """The delegate spec a stream substrate builds per epoch."""
        return replace(self, kind=self.inner_kind)

    # ------------------------------------------------------------------
    def engine_key(
        self,
        config: "IBFSConfig",
        planner: Optional[Policy] = None,
        substrate_suffix: Optional[str] = None,
    ) -> str:
        """The cache namespace this placement serves under
        (:func:`engine_key`); partitioned placements append their
        engine name so recorded plans carrying exchange formats never
        alias whole-graph ones."""
        return engine_key(config, planner, substrate_suffix)

    def describe(self) -> dict:
        payload = {"kind": self.kind}
        if self.kind in ("executor",) or (
            self.kind == "stream" and self.inner_kind == "executor"
        ):
            payload["workers"] = self.workers
            payload["scheduler"] = self.scheduler
        if self.kind in ("partitioned",) or (
            self.kind == "stream" and self.inner_kind == "partitioned"
        ):
            payload["partitions"] = self.partitions
            payload["layout"] = self.layout
        if self.kind == "stream":
            payload["inner"] = self.inner_kind
        return payload
