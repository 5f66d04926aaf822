"""The compiled bitwise level crosses into the library once per level.

With the library loaded, :meth:`BitwiseTraversal.run_group` of L
levels must call ``repro_bitwise_level`` exactly L times,
``repro_transpose_i32`` once for the final depth matrix, and no per-op
export, at any lane count.  The loaded library is wrapped in a
counting proxy through ``native._cache["lib"]``, the handle every op
resolves.  Skips when the library does not load.
"""

from collections import Counter

import pytest

import repro.native as native
from repro.core.bitwise import BitwiseTraversal
from repro.graph.generators import rmat


class _CountingLibrary:
    """Forwards to the loaded library, counting calls per export."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls: Counter = Counter()

    def __getattr__(self, name):
        function = getattr(self._lib, name)
        if not name.startswith("repro_"):
            return function

        def counted(*args):
            self.calls[name] += 1
            return function(*args)

        return counted


@pytest.fixture
def counting_library(compiled, monkeypatch):
    proxy = _CountingLibrary(native._cache["lib"])
    monkeypatch.setitem(native._cache, "lib", proxy)
    return proxy


@pytest.fixture(scope="module")
def graph():
    return rmat(9, edge_factor=8, seed=1)


# 4,100 sources take 65 lanes, past the 64-lane cap the C scan once
# had; the bitwise engine accepts repeated sources.
@pytest.mark.parametrize("group_size, lanes", [(3, 1), (70, 2), (4100, 65)])
def test_one_library_call_per_level(counting_library, graph, group_size, lanes):
    sources = [s % graph.num_vertices for s in range(0, 5 * group_size, 5)]
    engine = BitwiseTraversal(graph)
    # A second group reuses the engine's level buffers.
    for _ in range(2):
        counting_library.calls.clear()
        depths, record, _ = engine.run_group(sources)
        levels = len(record.levels)
        assert levels == record.counters.levels > 1
        assert engine._workspace.lanes == lanes
        assert counting_library.calls == Counter(
            repro_bitwise_level=levels, repro_transpose_i32=1
        )
