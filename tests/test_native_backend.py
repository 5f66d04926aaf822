"""Unit tests of the compiled kernel backend (:mod:`repro.native`).

Covers resolution (env gates, forcing), op-level bit-identity of
every compiled primitive against its numpy formulation,
warm-up/capability reporting, the compiled-library cache, and the
bookkeeping edge cases (zero-width frontiers, group sizes not a
multiple of 8, single-lane flat inputs) with the library off and
loaded.  Tests of the compiled ops skip when the library does not
load.
"""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.native as native
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.kernels import (
    LevelWorkspace,
    bucketed_hit_scan,
    bucketed_or_scan,
    per_bit_counts,
    per_bit_weighted,
    round_major_probes,
    scatter_or,
    scatter_plan,
)
from repro.util import gather_neighbors

RNG = np.random.default_rng(11)


#: The compiled provider, run under default resolution.
PROVIDERS = ["cext"]


@pytest.fixture(params=PROVIDERS)
def provider(request, compiled):
    return request.param


# ----------------------------------------------------------------------
# Resolution, gating, and reporting
# ----------------------------------------------------------------------
class TestResolution:
    def test_off_disables_everything(self):
        with native.force_backend("off"):
            assert not native.available()
            assert native.backend_name() is None
            assert "force_backend" in native.disabled_reason()

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.refresh()
        try:
            assert not native.available()
            assert "REPRO_NATIVE" in (native.disabled_reason() or "")
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            native.refresh()

    def test_force_backend_rejects_unknown(self):
        # Only "off" and None pin resolution: with one compiled
        # provider, no name selects one, not even a former one.
        for name in ("fortran", "cext", "python"):
            with pytest.raises(ValueError):
                with native.force_backend(name):
                    pass

    def test_warmup_and_capability_report(self, provider):
        seconds = native.warmup()
        assert seconds >= 0.0
        report = native.capability_report()
        assert report["enabled"] is True
        assert report["backend"] == provider

    def test_capability_report_when_off(self):
        with native.force_backend("off"):
            report = native.capability_report()
        assert report["enabled"] is False
        assert report["backend"] is None
        assert report["reason"]


class TestLibraryCache:
    def test_new_build_evicts_stale_libraries(self, tmp_path, monkeypatch):
        # A trivial source compiles in milliseconds; its tag is new, so
        # build_library publishes a library and then evicts.
        from repro.native import _csrc

        if _csrc._compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(_csrc, "C_SOURCE", "int repro_cache_probe;\n")
        aged = time.time() - _csrc._STALE_SECONDS - 3600
        stale = tmp_path / "repro_native_0000000000000000.so"
        fresh = tmp_path / "repro_native_1111111111111111.so"
        foreign = tmp_path / "libother.so"
        for path in (stale, fresh, foreign):
            path.write_bytes(b"")
        for path in (stale, foreign):
            os.utime(path, (aged, aged))

        built = _csrc.build_library()
        assert built.exists()
        assert not stale.exists()
        assert fresh.exists() and foreign.exists()

        # Reuse refreshes the library's mtime, so it is not stale.
        os.utime(built, (aged, aged))
        assert _csrc.build_library() == built
        assert built.stat().st_mtime > aged + _csrc._STALE_SECONDS


# ----------------------------------------------------------------------
# Op-level bit-identity against the numpy kernels
# ----------------------------------------------------------------------
def _random_csr(num_positions, num_vertices, max_degree):
    degrees = RNG.integers(0, max_degree + 1, size=num_positions)
    starts = np.zeros(num_positions, dtype=np.int64)
    np.cumsum(degrees[:-1], out=starts[1:])
    indices = RNG.integers(
        0, num_vertices, size=int(degrees.sum()), dtype=np.int64
    )
    return indices, starts, starts + degrees


def _random_graph(num_vertices, max_degree, zero_degree=0):
    """CSR graph with random rows; the first ``zero_degree`` rows are empty."""
    degrees = RNG.integers(0, max_degree + 1, size=num_vertices)
    degrees[:zero_degree] = 0
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    cols = RNG.integers(
        0, num_vertices, size=int(offsets[-1]), dtype=np.int64
    )
    return CSRGraph(offsets, cols)


def _set_slot(line, bits):
    """The warp set's first slot for ``line`` in a table of ``2**bits``
    slots, as the C library computes it: fold to 32 bits, multiply by
    the 32-bit golden-ratio constant, keep the top bits."""
    x = (line ^ (line >> 32)) & 0xFFFFFFFF
    return ((x * 0x61C88647) & 0xFFFFFFFF) >> (32 - bits)


def _colliding_lines():
    """Lines sharing one first slot in every table up to 256 slots
    (warps up to 128), plus lines above 2**32 that fold onto them."""
    candidates = np.arange(1 << 20, dtype=np.int64)
    slots = _set_slot(candidates, 8)
    low = candidates[slots == slots[5]][:48]
    folded = np.array(
        [(line ^ c) + (c << 32) for c, line in enumerate(low[:16], 1)],
        dtype=np.int64,
    )
    assert np.all(_set_slot(folded, 8) == slots[5])
    return np.concatenate([low, folded])


def _first_index(lines, element_bytes, txn_bytes=128):
    """Smallest element index whose ``txn_bytes`` line is ``lines``."""
    return -(-np.asarray(lines, dtype=np.int64) * txn_bytes // element_bytes)


def _access_stream(kind, element_bytes, bounded=False):
    """Element indices of one access pattern (``kind`` is a size for a
    uniform random stream); ``bounded`` keeps them below 2**20."""
    if not isinstance(kind, str):
        return RNG.integers(0, 4000, size=kind).astype(np.int64)
    if kind == "one-line":
        lo, hi = _first_index([7, 8], element_bytes)
        return RNG.integers(lo, hi, size=900).astype(np.int64)
    if kind == "distinct":
        return _first_index(RNG.permutation(900), element_bytes)
    if kind == "colliding":
        lines = _colliding_lines()
        if bounded:
            lines = lines[lines < (1 << 20)]
        return _first_index(RNG.choice(lines, size=900), element_bytes)
    assert kind == "above-2**32"
    base = np.int64(1) << RNG.choice([33, 40, 50], size=900)
    return base + RNG.integers(0, 20000, size=900)


#: Warp sizes the accumulator is checked at: the CPU model, tiny,
#: around a 32-wide warp, and wider than the old fixed 64-line buffer.
WARP_SIZES = (1, 2, 31, 32, 33, 64, 128)


class TestOps:
    def test_unique_targets(self, provider):
        graph = _random_graph(500, 12, zero_degree=20)
        frontier = np.sort(RNG.choice(500, size=90, replace=False))
        _, neighbors = gather_neighbors(graph, frontier)
        got, _ = native.unique_targets(
            graph.row_offsets, graph.col_indices, frontier, 8, 128, 32
        )
        np.testing.assert_array_equal(got, np.unique(neighbors))
        # The cached flag buffer must come back zeroed.
        again, _ = native.unique_targets(
            graph.row_offsets, graph.col_indices, frontier[:3], 8, 128, 32
        )
        _, few = gather_neighbors(graph, frontier[:3])
        np.testing.assert_array_equal(again, np.unique(few))

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_scatter_or_matches_kernel(self, provider, lanes):
        graph = _random_graph(200, 9)
        frontier = np.sort(RNG.choice(200, size=60, replace=False))
        words = RNG.integers(
            0, 2**63, size=(60, lanes), dtype=np.uint64
        )
        _, neighbors = gather_neighbors(graph, frontier)
        word_index = np.repeat(
            np.arange(60, dtype=np.int64), graph.out_degrees()[frontier]
        )
        expected = np.zeros((200, lanes), dtype=np.uint64)
        plan = scatter_plan(neighbors)
        scatter_or(expected, neighbors, words, plan, word_index)
        got = np.zeros((200, lanes), dtype=np.uint64)
        native.scatter_or(
            got, graph.row_offsets, graph.col_indices, frontier, words
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_scatter_or_repeats_matches_np_repeat(self, provider, lanes):
        # The CSR walk spreads word row r over frontier[r]'s whole row:
        # the np.repeat-expanded scatter, stated with np.bitwise_or.at.
        graph = _random_graph(150, 7, zero_degree=10)
        frontier = RNG.choice(150, size=40, replace=False)
        words = RNG.integers(
            0, 2**63, size=(40, lanes), dtype=np.uint64
        )
        _, neighbors = gather_neighbors(graph, frontier)
        expected = np.zeros((150, lanes), dtype=np.uint64)
        np.bitwise_or.at(
            expected,
            neighbors,
            np.repeat(words, graph.out_degrees()[frontier], axis=0),
        )
        got = np.zeros((150, lanes), dtype=np.uint64)
        native.scatter_or(
            got, graph.row_offsets, graph.col_indices, frontier, words
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    @pytest.mark.parametrize(
        "case", ["duplicates", "self-loops", "zero-degree", "empty"]
    )
    def test_fused_edge_map_matches_numpy_path(self, provider, case, lanes):
        # The two CSR walks against the numpy top-down pass they
        # replace: gather_neighbors, the planned scatter, and three
        # MemoryModel pricings, after the level's workspace snapshot.
        from repro.gpusim.config import KEPLER_K40
        from repro.gpusim.memory import MemoryModel

        n = 300
        if case == "duplicates":
            # Dense rows over few vertices: most targets repeat.
            graph = _random_graph(n, 40)
            graph = CSRGraph(graph.row_offsets, graph.col_indices % 50)
        else:
            graph = _random_graph(n, 12, zero_degree=80)
        if case == "self-loops":
            cols = graph.col_indices.copy()
            rows = np.repeat(np.arange(n), graph.out_degrees())
            cols[::3] = rows[::3]
            graph = CSRGraph(graph.row_offsets, cols)
        if case == "empty":
            frontier = np.empty(0, dtype=np.int64)
        elif case == "zero-degree":
            frontier = np.sort(
                np.concatenate([np.arange(0, 80, 4), np.arange(200, 230)])
            )
        else:
            frontier = np.sort(RNG.choice(n, size=70, replace=False))
        mem = MemoryModel(KEPLER_K40)
        word_bytes = lanes * 8
        live = RNG.integers(0, 2**63, size=(n, lanes), dtype=np.uint64)
        words = RNG.integers(
            0, 2**63, size=(frontier.size, lanes), dtype=np.uint64
        )

        bsa_a, ws_a = live.copy(), LevelWorkspace(n, lanes)
        ws_a.begin_level(bsa_a)
        with native.force_backend("off"):
            _, neighbors = gather_neighbors(graph, frontier)
            plan = scatter_plan(neighbors)
            word_index = np.repeat(
                np.arange(frontier.size, dtype=np.int64),
                graph.out_degrees()[frontier],
            )
            scatter_or(bsa_a, neighbors, words, plan, word_index)
            pricing_a = tuple(
                mem.coalesced_transactions(stream, word_bytes)
                for stream in (frontier, neighbors, plan.unique_targets)
            )

        bsa_b, ws_b = live.copy(), LevelWorkspace(n, lanes)
        ws_b.begin_level(bsa_b)
        targets, pricing_b = native.unique_targets(
            graph.row_offsets, graph.col_indices, frontier, word_bytes,
            mem.config.transaction_bytes, mem.config.warp_size,
        )
        native.scatter_or(
            bsa_b, graph.row_offsets, graph.col_indices, frontier, words
        )

        np.testing.assert_array_equal(targets, plan.unique_targets)
        np.testing.assert_array_equal(bsa_b, bsa_a)
        assert pricing_b == pricing_a
        for a, b in zip(ws_a.changed(bsa_a), ws_b.changed(bsa_b)):
            np.testing.assert_array_equal(b, a)
        # Only scatter targets can change.
        assert np.isin(ws_b.changed(bsa_b)[0], targets).all()

    # 80 lanes: past the 64-lane row buffer the C scan once kept on the
    # stack, which UBSan reported as an out-of-bounds index.
    @pytest.mark.parametrize("lanes", [1, 2, 80])
    @pytest.mark.parametrize("early_termination", [False, True])
    @pytest.mark.parametrize("dirty", [False, True])
    def test_or_scan_matches_bucketed_or_scan(
        self, provider, lanes, early_termination, dirty
    ):
        n = 120
        group_size = lanes * 64 - 3
        indices, starts, ends = _random_csr(80, n, 9)
        base = RNG.integers(0, 2**63, size=(n, lanes), dtype=np.uint64)
        lane_mask = np.full(lanes, np.uint64(2**64 - 1), dtype=np.uint64)
        lane_mask[-1] = np.uint64((1 << (group_size - (lanes - 1) * 64)) - 1)
        vertices = RNG.choice(n, size=80, replace=False)
        state = base[vertices] & lane_mask
        live = base.copy()
        workspace = LevelWorkspace(n, lanes)
        workspace.begin_level(live)
        if dirty:
            # Rows written after the level began: the native scan over
            # the workspace snapshot must still read their BSA_k values.
            written = RNG.choice(n, size=30, replace=False)
            live[written] |= RNG.integers(
                0, 2**63, size=(30, lanes), dtype=np.uint64
            )

        insp_a = np.zeros(group_size, dtype=np.int64)
        with native.force_backend("off"):
            probes_a, acc_a, done_a, stream_a = bucketed_or_scan(
                indices, starts, ends, state.copy(), lane_mask,
                lane_mask, early_termination, base, insp_a,
            )
        insp_b = np.zeros(group_size, dtype=np.int64)
        probes_b, acc_b, done_b = native.or_scan(
            indices, starts, ends, state.copy(), lane_mask, lane_mask,
            early_termination, workspace.snapshot, insp_b,
        )
        np.testing.assert_array_equal(probes_b, probes_a)
        np.testing.assert_array_equal(acc_b, acc_a)
        np.testing.assert_array_equal(done_b, done_a)
        np.testing.assert_array_equal(insp_b, insp_a)
        if stream_a is not None:
            np.testing.assert_array_equal(
                native.round_major_probes(indices, starts, probes_b),
                stream_a,
            )

    def test_round_major_matches_argsort_formulation(self, provider):
        indices, starts, ends = _random_csr(60, 300, 12)
        probes = RNG.integers(0, 13, size=60).astype(np.int64)
        probes = np.minimum(probes, ends - starts)
        with native.force_backend("off"):
            expected = round_major_probes(indices, starts, probes)
        got = native.round_major_probes(indices, starts, probes)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "stream",
        [1, 31, 32, 33, 1000,
         "one-line", "distinct", "colliding", "above-2**32"],
    )
    @pytest.mark.parametrize("element_bytes", [4, 8, 12, 24])
    def test_coalesced_transactions_matches_memory_model(
        self, provider, stream, element_bytes
    ):
        from repro.gpusim.config import KEPLER_K40
        from repro.gpusim.memory import MemoryModel

        indices = _access_stream(stream, element_bytes)
        for warp in WARP_SIZES:
            mem = MemoryModel(
                dataclasses.replace(KEPLER_K40, warp_size=warp)
            )
            with native.force_backend("off"):
                expected = mem.coalesced_transactions(indices, element_bytes)
            got = native.coalesced_transactions(
                indices, element_bytes, mem.config.transaction_bytes, warp
            )
            assert got == expected, f"warp {warp}"

    def test_bottom_up_coalesced_matches_stream_pricing(self, provider):
        from repro.gpusim.config import KEPLER_K40
        from repro.gpusim.memory import MemoryModel

        txn = KEPLER_K40.transaction_bytes
        for kind in (300, "one-line", "distinct", "colliding"):
            for element_bytes in (4, 8, 12, 24):
                indices = _access_stream(kind, element_bytes, bounded=True)
                # The tightest vertex count: the line map's last word
                # holds the largest probed line.
                n = int(indices.max()) + 1
                degrees = RNG.multinomial(
                    indices.size, np.full(40, 1 / 40)
                ).astype(np.int64)
                starts = np.zeros(40, dtype=np.int64)
                np.cumsum(degrees[:-1], out=starts[1:])
                probes = np.minimum(
                    RNG.integers(0, 41, size=40).astype(np.int64), degrees
                )
                with native.force_backend("off"):
                    stream = round_major_probes(indices, starts, probes)
                for warp in WARP_SIZES:
                    mem = MemoryModel(
                        dataclasses.replace(KEPLER_K40, warp_size=warp)
                    )
                    with native.force_backend("off"):
                        expected = mem.coalesced_transactions(
                            stream, element_bytes
                        )
                    got = native.bottom_up_coalesced(
                        indices, starts, probes, n, element_bytes, txn, warp
                    )
                    assert got == expected, (kind, element_bytes, warp)
        zero = np.zeros_like(probes)
        assert native.bottom_up_coalesced(
            indices, starts, zero, n, 8, txn, 32
        ) == (0, 0)

    @pytest.mark.parametrize("warp_size", [64, 128, 256])
    def test_wide_warps_price_like_numpy(self, provider, warp_size):
        # Warps wider than 64 threads once overflowed the C library's
        # fixed per-warp line buffer; a subprocess keeps a crash from
        # taking the test session down with it.
        import repro
        from repro.core.engine import IBFS, IBFSConfig
        from repro.gpusim.config import KEPLER_K40
        from repro.gpusim.device import Device

        script = (
            "import dataclasses, json, sys\n"
            "import repro.native as native\n"
            "from repro.core.engine import IBFS, IBFSConfig\n"
            "from repro.gpusim.config import KEPLER_K40\n"
            "from repro.gpusim.device import Device\n"
            "from repro.graph.generators import rmat\n"
            "config = dataclasses.replace(KEPLER_K40, warp_size=int(sys.argv[1]))\n"
            "assert native.available(), native.disabled_reason()\n"
            "result = IBFS(rmat(12, edge_factor=16, seed=7),\n"
            "              IBFSConfig(group_size=32),\n"
            "              device=Device(config)).run(list(range(32)))\n"
            "print(json.dumps(dataclasses.asdict(result.counters)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(warp_size)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        config = dataclasses.replace(KEPLER_K40, warp_size=warp_size)
        with native.force_backend("off"):
            expected = IBFS(
                rmat(12, edge_factor=16, seed=7),
                IBFSConfig(group_size=32),
                device=Device(config),
            ).run(list(range(32)))
        assert json.loads(proc.stdout) == dataclasses.asdict(
            expected.counters
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    @pytest.mark.parametrize("group_size", [1, 7, 64, 100])
    def test_depth_update_matches_unpack_formulation(
        self, provider, dtype, group_size
    ):
        from repro.kernels.bookkeeping import unpack_lane_bits

        lanes = -(-group_size // 64)
        depths = RNG.integers(-1, 5, size=(60, group_size)).astype(dtype)
        rows = np.sort(
            RNG.choice(60, size=25, replace=False)
        ).astype(np.int64)
        diff = RNG.integers(
            0, 2**63, size=(25, lanes), dtype=np.uint64
        )
        if group_size % 64:
            diff[:, -1] &= (
                np.uint64(1) << np.uint64(group_size % 64)
            ) - np.uint64(1)
        expected = depths.copy()
        upd = unpack_lane_bits(diff, group_size).astype(expected.dtype)
        upd *= expected.dtype.type(5)
        expected[rows] += upd
        got = depths.copy()
        native.depth_update(got, rows, diff, 5)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    def test_materialize_depths_matches_transpose(self, provider, dtype):
        for n, gs in ((1, 1), (65, 3), (513, 64)):
            src = RNG.integers(-1, 90, size=(n, gs)).astype(dtype)
            expected = np.ascontiguousarray(src.T, dtype=np.int32)
            got = native.materialize_depths(src)
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("use_inst", [False, True])
    def test_hit_scan_depth_matches_bucketed_hit_scan(
        self, provider, use_inst
    ):
        n = 140
        indices, starts, ends = _random_csr(70, n, 10)
        degrees = ends - starts
        level = 2
        if use_inst:
            depths = RNG.integers(-1, 5, size=(3, n)).astype(np.int32)
            inst = RNG.integers(0, 3, size=70).astype(np.int64)

            def hit(positions, nb):
                d = depths[inst[positions], nb]
                return (d >= 0) & (d <= level)
        else:
            depths = RNG.integers(-1, 5, size=n).astype(np.int32)
            inst = None

            def hit(positions, nb):
                d = depths[nb]
                return (d >= 0) & (d <= level)

        with native.force_backend("off"):
            probes_a, found_a = bucketed_hit_scan(
                indices, starts, degrees, hit
            )
        probes_b, found_b = native.hit_scan_depth(
            indices, starts, degrees, depths, level, inst=inst
        )
        np.testing.assert_array_equal(probes_b, probes_a)
        np.testing.assert_array_equal(found_b, found_a)



# ----------------------------------------------------------------------
# Bookkeeping edge cases, with the library off and loaded
# ----------------------------------------------------------------------
BOOKKEEPING_BACKENDS = ["numpy"] + PROVIDERS


@pytest.fixture(params=BOOKKEEPING_BACKENDS)
def bookkeeping_backend(request):
    """Runs the tallies with the compiled library off or loaded.  They
    are numpy either way (the compiled level tallies inside its one
    call), so they must not depend on it."""
    if request.param == "numpy":
        with native.force_backend("off"):
            yield
    else:
        request.getfixturevalue("compiled")
        yield


class TestBookkeepingEdgeCases:
    def test_zero_width_frontier(self, bookkeeping_backend):
        words = np.empty((0, 2), dtype=np.uint64)
        counts = per_bit_counts(words, 70)
        np.testing.assert_array_equal(counts, np.zeros(70, dtype=np.int64))
        weighted = per_bit_weighted(words, np.empty(0, dtype=np.int64), 70)
        np.testing.assert_array_equal(weighted, np.zeros(70, dtype=np.int64))

    @pytest.mark.parametrize("group_size", [1, 7, 13, 61, 127])
    def test_group_size_not_multiple_of_eight(
        self, bookkeeping_backend, group_size
    ):
        lanes = (group_size + 63) // 64
        words = RNG.integers(
            0, 2**63, size=(50, lanes), dtype=np.uint64
        )
        mask = np.full(lanes, np.uint64(2**64 - 1), dtype=np.uint64)
        mask[-1] = np.uint64(
            (1 << (group_size - (lanes - 1) * 64)) - 1
        )
        words &= mask
        weights = RNG.integers(0, 40, size=50).astype(np.int64)
        bits = np.unpackbits(
            words.view(np.uint8).reshape(50, -1), axis=1,
            bitorder="little",
        )[:, :group_size].astype(np.int64)
        counts = per_bit_counts(words, group_size)
        np.testing.assert_array_equal(counts, bits.sum(axis=0))
        weighted = per_bit_weighted(words, weights, group_size)
        np.testing.assert_array_equal(weighted, weights @ bits)

    def test_single_lane_flat_input(self, bookkeeping_backend):
        # 1-D words (the flat single-lane layout) must behave exactly
        # like their (rows, 1) view.
        words = RNG.integers(0, 2**63, size=40, dtype=np.uint64)
        counts_flat = per_bit_counts(words, 64)
        counts_2d = per_bit_counts(words[:, None], 64)
        np.testing.assert_array_equal(counts_flat, counts_2d)
        weights = RNG.integers(0, 9, size=40).astype(np.int64)
        np.testing.assert_array_equal(
            per_bit_weighted(words, weights, 64),
            per_bit_weighted(words[:, None], weights, 64),
        )


# ----------------------------------------------------------------------
# Warm-up smoke on a real graph shape
# ----------------------------------------------------------------------
def test_warmup_is_idempotent_and_cheap_to_repeat(provider):
    first = native.warmup()
    second = native.warmup()
    assert first == second  # cached seconds, not re-run


def test_graph_scale_smoke(provider):
    # One realistic CSR through every op, guarding shape/dtype plumbing.
    graph = rmat(8, edge_factor=4, seed=5)
    rev = graph.reverse()
    frontier = np.arange(0, graph.num_vertices, 3, dtype=np.int64)
    starts = rev.row_offsets[frontier]
    ends = rev.row_offsets[frontier + 1]
    bsa = np.zeros((graph.num_vertices, 1), dtype=np.uint64)
    bsa[::2, 0] = np.uint64(0xFF)
    lane_mask = np.array([0xFF], dtype=np.uint64)
    insp = np.zeros(8, dtype=np.int64)
    probes, acc, done = native.or_scan(
        rev.col_indices.astype(np.int64), starts, ends,
        (bsa[frontier] & lane_mask), lane_mask, lane_mask, True,
        bsa, insp,
    )
    assert probes.shape == frontier.shape
    assert acc.dtype == np.uint64
    assert done.dtype == bool
