"""Workload definitions, graph fingerprints and the seeded traffic.

The traffic lives here rather than in ``repro.service.loadgen`` /
``repro.stream.loadgen`` so that a refactor of the program's own load
generators cannot change what the benchmark sends.  Every workload is
built from ``(workload, seed)`` alone: the graph from fixed generator
arguments (checked against a recorded fingerprint), the request sources
and the mutation batches from RNG streams derived from the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

import repro.graph.generators as generators

#: RMAT arguments shared by every workload (the CLI ``serve`` defaults).
EDGE_FACTOR = 16
GRAPH_SEED = 7

#: sha256 prefixes of ``rmat(scale, EDGE_FACTOR, seed=GRAPH_SEED)`` by
#: scale.  A change here means the generator moved the workload.
GRAPH_FINGERPRINTS: Dict[int, str] = {
    8: "87758cd737af2a7a",
    9: "0c94ef67fbb97deb",
    12: "f271f0cb408af364",
    14: "474a97628d9f4cb3",
}


class FingerprintError(RuntimeError):
    """A generated graph differs from the one the workload was pinned to."""


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration."""

    name: str
    why: str
    scale: int
    #: Zipf exponent over out-degree rank; ``None`` draws uniformly.
    zipf: Optional[float]
    cache_rows: int
    num_devices: int = 1
    #: ``serial`` or ``executor`` (``churn`` forces the stream substrate).
    substrate: str = "serial"
    workers: int = 0
    churn: bool = False
    #: Closed-loop requests served before the timed phase.
    warmup_requests: int = 2048
    #: sim_throughput_rps counts the first this many timed completions,
    #: so that it does not depend on how many the host managed.
    sim_window: int = 4000
    #: Responses per oracle stratum (see :mod:`perfbench.checks`).
    check_per_stratum: int = 3


CLIENTS = 64
#: Churn: one mutation batch per this many completions ...
MUTATE_EVERY = 64
#: ... of this many random inserts ...
MUTATION_INSERTS = 8
#: ... and, on every DELETE_EVERY-th batch, this many deletes.
MUTATION_DELETES = 2
DELETE_EVERY = 4

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # A cache of every vertex would fill up and drift towards 100%
        # hits during the run; half the vertices holds a steady ~93%.
        Workload(
            name="zipf-hot",
            why="skewed sources, about 93% cache hits: admission, cache "
                "lookup, batcher scans and responses dominate host time",
            scale=12, zipf=1.1, cache_rows=2048,
            warmup_requests=40000, sim_window=100000,
        ),
        Workload(
            name="uniform-cold",
            why="uniform sources on a 16x larger graph, about 5% cache hits: "
                "engine, native kernels and gpusim accounting dominate",
            scale=14, zipf=None, cache_rows=1024, num_devices=2,
            warmup_requests=1536, check_per_stratum=2,
        ),
        # One worker: the pair then differs in repro.exec alone.  A second
        # worker adds parallelism too, and on a shared 2-core host the
        # contention made its figures too unsteady to gate on.
        Workload(
            name="uniform-exec",
            why="uniform-cold on the executor with one worker process: the "
                "only difference is repro.exec (shm publication, task/reply "
                "IPC, wave dispatch)",
            scale=14, zipf=None, cache_rows=1024, num_devices=2,
            substrate="executor", workers=1,
            warmup_requests=1536, check_per_stratum=2,
        ),
        Workload(
            name="churn",
            why="zipf-hot reads beside writes: epoch publish, engine rebuild, "
                "mutation barrier, and both repair and recompute of the cache",
            scale=12, zipf=1.1, cache_rows=2048, churn=True,
            sim_window=10000, check_per_stratum=2,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at toy size, for the fast mode and self-tests."""
    scale = 8 if workload.scale == 12 else 9
    return replace(
        workload, scale=scale,
        cache_rows=workload.cache_rows >> (workload.scale - scale),
        warmup_requests=128, sim_window=500, check_per_stratum=1,
    )


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def fingerprint(graph) -> str:
    """sha256 prefix over the CSR arrays, independent of the program's
    own cache ids."""
    digest = hashlib.sha256()
    for array in (graph.row_offsets, graph.col_indices):
        digest.update(str(array.dtype).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def check_fingerprint(graph, scale: int) -> None:
    """Raise :class:`FingerprintError` unless ``graph`` is the pinned one."""
    expected = GRAPH_FINGERPRINTS.get(scale)
    actual = fingerprint(graph)
    if actual != expected:
        raise FingerprintError(
            f"rmat scale {scale} graph fingerprint {actual} != pinned "
            f"{expected}: the generator changed the workload"
        )


def build_graph(scale: int):
    """The workload graph (RMAT, edge factor 16, seed 7)."""
    return generators.rmat(scale, edge_factor=EDGE_FACTOR, seed=GRAPH_SEED)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class SourceStream:
    """Endless seeded stream of request sources.

    Zipf draws rank vertices by descending out-degree, so the hottest
    sources are the hubs; ``zipf=None`` draws uniformly.
    """

    CHUNK = 1 << 14

    def __init__(self, graph, zipf: Optional[float], seed: int) -> None:
        self._rng = np.random.default_rng([seed, 0])
        self._n = graph.num_vertices
        if zipf is None:
            self._ranked = None
            self._weights = None
        else:
            degrees = np.diff(graph.row_offsets)
            self._ranked = np.argsort(-degrees, kind="stable")
            weights = np.arange(1, self._n + 1, dtype=np.float64) ** -zipf
            self._weights = weights / weights.sum()
        self._buffer: list = []

    def _refill(self) -> None:
        if self._weights is None:
            picks = self._rng.integers(0, self._n, size=self.CHUNK)
        else:
            ranks = self._rng.choice(self._n, size=self.CHUNK, p=self._weights)
            picks = self._ranked[ranks]
        # Reversed so that pop() hands sources out in draw order.
        self._buffer = picks[::-1].tolist()

    def next(self) -> int:
        if not self._buffer:
            self._refill()
        return self._buffer.pop()


class MutationStream:
    """Seeded mutation batches: random inserts, periodic deletes of
    existing edges."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 1])
        self._count = 0

    def next(self, graph) -> Tuple[tuple, Optional[tuple]]:
        """``(inserts, deletes)`` as ``(src, dst)`` array pairs."""
        self._count += 1
        n = graph.num_vertices
        inserts = (
            self._rng.integers(0, n, size=MUTATION_INSERTS),
            self._rng.integers(0, n, size=MUTATION_INSERTS),
        )
        deletes = None
        if self._count % DELETE_EVERY == 0:
            positions = self._rng.choice(
                graph.num_edges, size=MUTATION_DELETES, replace=False
            )
            src = np.searchsorted(graph.row_offsets, positions, side="right") - 1
            deletes = (src, graph.col_indices[positions])
        return inserts, deletes
