"""Golden regression tests on simulated counters.

The cost model's *shapes* are asserted elsewhere; these tests pin the
exact deterministic counter values for fixed workloads so that
accidental changes to the accounting (a lost transaction term, a
doubled instruction count) are caught immediately.  The pinned values
include the request counts figure 19 divides by, and hold under the
numpy kernels, under the compiled library, and after a failed compile
falls back to numpy.  If a deliberate model change lands, regenerate
the constants with the printed actuals.
"""

import pytest

import repro.native as native
from repro.graph.generators import kronecker, rmat
from repro.bfs.sequential import SequentialConcurrentBFS
from repro.core.engine import IBFS, IBFSConfig
from repro.native import _csrc

#: Fixed workload: one graph, one source set.
GRAPH_SEED = 171
SOURCES = list(range(0, 32, 2))


#: ``"off"`` is the numpy kernel path, ``"cext"`` the compiled library
#: (its cases skip when the library does not load).
BACKENDS = ["off", "cext"]


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=GRAPH_SEED)


@pytest.fixture(scope="module")
def sequential(graph):
    return SequentialConcurrentBFS(graph).run(SOURCES, store_depths=False)


@pytest.fixture(scope="module")
def ibfs(graph):
    return IBFS(graph, IBFSConfig(group_size=16, groupby=False, seed=1)).run(
        SOURCES, store_depths=False
    )


class TestWorkloadInvariants:
    """Determinism and cross-engine conservation laws."""

    def test_runs_are_deterministic(self, graph, ibfs):
        again = IBFS(
            graph, IBFSConfig(group_size=16, groupby=False, seed=1)
        ).run(SOURCES, store_depths=False)
        assert again.seconds == ibfs.seconds
        assert (
            again.counters.global_load_transactions
            == ibfs.counters.global_load_transactions
        )
        assert again.counters.inspections == ibfs.counters.inspections

    def test_bitwise_physical_work_below_sequential(self, sequential, ibfs):
        assert ibfs.counters.inspections < sequential.counters.inspections
        assert (
            ibfs.counters.global_load_transactions
            < sequential.counters.global_load_transactions
        )

    def test_logical_edges_bounded(self, graph, sequential, ibfs):
        # Early termination can only reduce logical traversed edges.
        assert 0 < ibfs.counters.edges_traversed <= (
            sequential.counters.edges_traversed
        )
        # And both stay below the trivial bound of i * 2|E|.
        bound = len(SOURCES) * 2 * graph.num_edges
        assert sequential.counters.edges_traversed <= bound

    def test_requests_dominate_transactions_sanity(self, ibfs):
        c = ibfs.counters
        assert c.global_load_requests > 0
        assert c.global_store_requests > 0
        # Perfect coalescing floor: at least one transaction per 128 B
        # of distinct traffic means lpr can be < 1 only if a request
        # covers several... it cannot: txns >= requests is false in
        # general, but lpr must be positive and finite.
        assert 0 < c.loads_per_request < 64


class TestGoldenValues:
    """Exact pinned values for the fixed workload (regenerate on
    deliberate cost-model changes)."""

    def test_sequential_counters(self, sequential):
        c = sequential.counters
        actual = {
            "levels": c.levels,
            "inspections": c.inspections,
            "edges": c.edges_traversed,
            "loads": c.global_load_transactions,
            "stores": c.global_store_transactions,
            "enqueues": c.frontier_enqueues,
            "kernels": c.kernel_launches,
        }
        expected = {
            "levels": 69,
            "inspections": 7329,
            "edges": 7329,
            "loads": 3280,
            "stores": 440,
            "enqueues": 2739,
            "kernels": 16,
        }
        assert actual == expected, f"actuals: {actual}"

    def test_ibfs_counters(self, ibfs):
        actual = _ibfs_actual(ibfs.counters)
        assert actual == _IBFS_GOLDEN, f"actuals: {actual}"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workload", ["single-lane", "two-lane"])
    def test_ibfs_counters_per_backend(self, request, workload, backend):
        make_graph, config, sources, golden = _WORKLOADS[workload]
        if backend == "cext":
            request.getfixturevalue("compiled")
        with native.force_backend("off" if backend == "off" else None):
            result = IBFS(make_graph(), config).run(
                sources, store_depths=False
            )
        actual = _ibfs_actual(result.counters)
        assert actual == golden, f"actuals: {actual}"

    @pytest.mark.parametrize("workload", ["single-lane", "two-lane"])
    def test_ibfs_counters_after_compile_failure(
        self, tmp_path, monkeypatch, workload
    ):
        # A C source the compiler rejects, built into an empty cache:
        # resolution must report why and every engine must take the
        # numpy kernels, with the pinned counters.
        make_graph, config, sources, golden = _WORKLOADS[workload]
        before = (native.available(), native.disabled_reason())
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(_csrc, "C_SOURCE", "this is not C;\n")
        native.refresh()
        try:
            assert not native.available()
            reason = native.disabled_reason()
            assert reason and "compil" in reason, reason
            assert not list(tmp_path.glob("*.so"))
            result = IBFS(make_graph(), config).run(
                sources, store_depths=False
            )
        finally:
            monkeypatch.undo()
            native.refresh()
        assert (native.available(), native.disabled_reason()) == before
        with native.force_backend("off"):
            numpy_result = IBFS(make_graph(), config).run(
                sources, store_depths=False
            )
        actual = _ibfs_actual(result.counters)
        assert actual == _ibfs_actual(numpy_result.counters)
        assert actual == golden, f"actuals: {actual}"


def _ibfs_actual(c):
    return {
        "levels": c.levels,
        "inspections": c.inspections,
        "edges": c.edges_traversed,
        "loads": c.global_load_transactions,
        "stores": c.global_store_transactions,
        "early": c.early_terminations,
        "atomics": c.atomic_operations,
        "global_load_requests": c.global_load_requests,
        "global_store_requests": c.global_store_requests,
        "shared_memory_accesses": c.shared_memory_accesses,
        "bottom_up_inspections": c.bottom_up_inspections,
    }


#: Populated from a verified run; see module docstring.
_IBFS_GOLDEN = {
    "levels": 5,
    "inspections": 1981,
    "edges": 7329,
    "loads": 785,
    "stores": 62,
    "early": 105,
    "atomics": 127,
    "global_load_requests": 106,
    "global_store_requests": 23,
    "shared_memory_accesses": 296,
    "bottom_up_inspections": 1558,
}

#: A two-lane group (96 instances) whose levels mix top-down and
#: bottom-up instances, so the multi-lane scan and scatter paths and
#: the probe pricing all reach the pinned totals.
_TWO_LANE_GOLDEN = {
    "levels": 7,
    "inspections": 95750,
    "edges": 844879,
    "loads": 101513,
    "stores": 2450,
    "early": 3075,
    "atomics": 4924,
    "global_load_requests": 4846,
    "global_store_requests": 549,
    "shared_memory_accesses": 32229,
    "bottom_up_inspections": 58597,
}

#: name -> (graph factory, config, sources, pinned counters).
_WORKLOADS = {
    "single-lane": (
        lambda: kronecker(scale=7, edge_factor=8, seed=GRAPH_SEED),
        IBFSConfig(group_size=16, groupby=False, seed=1),
        SOURCES,
        _IBFS_GOLDEN,
    ),
    "two-lane": (
        lambda: rmat(11, edge_factor=8, seed=7),
        IBFSConfig(group_size=96, groupby=False, seed=1),
        list(range(0, 192, 2)),
        _TWO_LANE_GOLDEN,
    ),
}
