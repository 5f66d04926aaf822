"""Vectorized traversal primitives shared by every engine.

The simulated engines model GPU kernels, but their host-side hot loops
originally ran the slow way: ``np.bitwise_or.at`` scatters, per-instance
Python bookkeeping, and one Python iteration per bottom-up round.  This
package holds the vectorized
replacements — reformulations that are *bit-identical* in every depth,
statistic, and simulated counter, just faster on the host:

* :mod:`~repro.kernels.scatter` — scatter-OR as an argsort +
  ``bitwise_or.reduceat`` segmented reduction;
* :mod:`~repro.kernels.workspace` — :class:`LevelWorkspace`, the numpy
  bitwise level's frontier between levels and its per-level ``BSA_k``
  snapshot on one reused buffer;
* :mod:`~repro.kernels.bookkeeping` — one-pass per-instance frontier
  statistics and packed-bit column counts;
* :mod:`~repro.kernels.bottomup` — degree-bucketed bottom-up scans and
  round-major probe-stream reconstruction.

``docs/performance.md`` explains the transformations and how the
equivalence suite pins them: depths against the reference BFS, every
simulated counter against a recorded golden fixture.
"""

from repro.kernels.bookkeeping import (
    new_frontier_stats,
    per_bit_counts,
    per_bit_weighted,
    unpack_lane_bits,
)
from repro.kernels.bottomup import (
    bucketed_hit_scan,
    bucketed_or_scan,
    round_major_probes,
)
from repro.kernels.scatter import ScatterPlan, scatter_or, scatter_plan
from repro.kernels.workspace import LevelWorkspace

__all__ = [
    "LevelWorkspace",
    "ScatterPlan",
    "bucketed_hit_scan",
    "bucketed_or_scan",
    "new_frontier_stats",
    "per_bit_counts",
    "per_bit_weighted",
    "round_major_probes",
    "scatter_or",
    "scatter_plan",
    "unpack_lane_bits",
]
