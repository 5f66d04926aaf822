"""Correctness and hygiene checks run outside the timed region.

* :class:`ResponseSample` keeps a seeded reservoir of responses per
  stratum (repair decision of the serving epoch x cache hit or miss) and
  :func:`verify_samples` compares each against the independent
  queue-based oracle :func:`repro.bfs.reference.reference_bfs` on the
  graph epoch that served it.
* :func:`shm_segments` / :func:`live_workers` snapshot what a run may
  leak: POSIX shared-memory segments and worker processes.
* :func:`peak_rss_mb` sums the peak resident memory of this process and
  its live children.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker
from typing import Dict, List, Tuple

import numpy as np

from repro.bfs.reference import reference_bfs

SHM_DIR = "/dev/shm"


class ResponseSample:
    """Seeded per-stratum reservoirs of ok ``bfs`` responses."""

    def __init__(self, per_stratum: int, seed: int) -> None:
        self.per_stratum = per_stratum
        self._rng = np.random.default_rng([seed, 2])
        self._seen: Dict[Tuple[str, bool], int] = {}
        self.reservoirs: Dict[Tuple[str, bool], List[tuple]] = {}

    def offer(self, response, epoch) -> None:
        if not response.ok:
            return
        stratum = (epoch.decision, bool(response.cached))
        seen = self._seen.get(stratum, 0)
        self._seen[stratum] = seen + 1
        keep = self.reservoirs.setdefault(stratum, [])
        if seen < self.per_stratum:
            keep.append((response, epoch))
            return
        slot = int(self._rng.integers(0, seen + 1))
        if slot < self.per_stratum:
            keep[slot] = (response, epoch)

    def items(self) -> List[tuple]:
        return [
            entry
            for stratum in sorted(self.reservoirs)
            for entry in self.reservoirs[stratum]
        ]


def verify_samples(samples: List[tuple]) -> List[str]:
    """One message per sampled response whose depth row differs from the
    oracle's on the epoch that served it (empty when all agree)."""
    problems = []
    for response, epoch in samples:
        source = response.request.source
        expected = reference_bfs(epoch.graph, source)
        if response.depths is None or not np.array_equal(response.depths, expected):
            problems.append(
                f"request {response.request_id} (source {source}, "
                f"{epoch.decision} epoch, cached={response.cached}): "
                f"depth row differs from the oracle"
            )
    return problems


def shm_segments() -> set:
    """Names of the program's POSIX shared-memory segments."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("repro-")}
    except FileNotFoundError:
        return set()


def _children() -> List[Tuple[int, str, str]]:
    """``(pid, state, cmdline)`` of this process's direct children."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        # Fields after the parenthesised command name: state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me:
            out.append((int(entry), state, cmdline))
    return out


def live_workers() -> List[int]:
    """Pids of live multiprocessing workers spawned by this process."""
    return [
        pid for pid, state, cmdline in _children()
        if state != "Z" and "spawn_main" in cmdline
    ]


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live children, MiB."""
    kb = _vm_hwm_kb("self")
    kb += sum(_vm_hwm_kb(str(pid)) for pid, state, _ in _children() if state != "Z")
    return kb / 1024.0


def stop_resource_tracker() -> None:
    """Stop (and reap) the multiprocessing resource tracker, if running,
    so the run leaves no process behind."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
