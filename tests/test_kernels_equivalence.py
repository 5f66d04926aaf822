"""Equivalence suite: kernels-backed engines vs the frozen references.

The :mod:`repro.kernels` primitives replace the reference engines'
hot loops with vectorized reformulations that must be *bit-identical*
— every depth, every simulated counter, every per-level record, every
sharing statistic.  This suite drives the live engines and the frozen
pre-kernels copies (:mod:`repro.kernels.reference`) through the same
traversals and compares everything, plus unit-level checks of the
primitives themselves against their naive formulations.  The live
engines take every per-level decision from ``planner=``; the frozen
references keep the engine knobs they were written with.
"""

import numpy as np
import pytest

from repro.plan import DirectionPolicy, HeuristicPolicy
from repro.bfs.single import SingleBFS
from repro.core.bitwise import BitwiseTraversal
from repro.core.engine import IBFS, IBFSConfig
from repro.core.joint import JointTraversal
from repro.graph.generators import path, rmat, star, uniform_random
from repro.kernels import (
    LevelWorkspace,
    per_bit_counts,
    per_bit_weighted,
    round_major_probes,
    scatter_or,
    scatter_plan,
    unpack_lane_bits,
)
from repro.kernels.reference import (
    ReferenceBitwiseTraversal,
    ReferenceJointTraversal,
    ReferenceSingleBFS,
)

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def graphs():
    return {
        "rmat9": rmat(9, edge_factor=8, seed=1),
        "uni400": uniform_random(400, 4, seed=2),
        "star300": star(300),
        "path64": path(64),
    }


def assert_runs_equal(result_a, result_b, label):
    depths_a, record_a, stats_a = result_a
    depths_b, record_b, stats_b = result_b
    assert np.array_equal(depths_a, depths_b), f"{label}: depths differ"
    counters_a = record_a.counters.__dict__
    counters_b = record_b.counters.__dict__
    for key in counters_b:
        assert counters_a[key] == counters_b[key], (
            f"{label}: counter {key}: {counters_a[key]} vs {counters_b[key]}"
        )
    assert len(record_a.levels) == len(record_b.levels), f"{label}: levels"
    for level_a, level_b in zip(record_a.levels, record_b.levels):
        assert level_a == level_b, f"{label}: {level_a} vs {level_b}"
    assert stats_a == stats_b, f"{label}: stats differ"


# ----------------------------------------------------------------------
# Bitwise engine (and the MS-BFS configuration riding on it)
# ----------------------------------------------------------------------
class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", ["rmat9", "uni400", "star300", "path64"])
    @pytest.mark.parametrize("group_size", [3, 64, 70])
    def test_default_config(self, graphs, name, group_size):
        graph = graphs[name]
        sources = RNG.integers(0, graph.num_vertices, size=group_size).tolist()
        assert_runs_equal(
            BitwiseTraversal(graph).run_group(sources),
            ReferenceBitwiseTraversal(graph).run_group(sources),
            f"{name}/gs{group_size}",
        )

    @pytest.mark.parametrize(
        "label,kwargs",
        [
            # (live engine kwargs, frozen reference kwargs)
            (
                "no-earlyterm",
                (
                    dict(planner=HeuristicPolicy(early_termination=False)),
                    dict(early_termination=False),
                ),
            ),
            (
                "msbfs",
                (
                    dict(
                        planner=HeuristicPolicy(early_termination=False),
                        reset_per_level=True,
                        thread_per_instance=True,
                    ),
                    dict(
                        early_termination=False,
                        reset_per_level=True,
                        thread_per_instance=True,
                    ),
                ),
            ),
            (
                "vec2-pergroup",
                (
                    dict(
                        planner=HeuristicPolicy(
                            vector_width=2, direction_mode="per-group"
                        )
                    ),
                    dict(vector_width=2, direction_mode="per-group"),
                ),
            ),
            (
                "vec2",
                (
                    dict(planner=HeuristicPolicy(vector_width=2)),
                    dict(vector_width=2),
                ),
            ),
            (
                "vec4",
                (
                    dict(planner=HeuristicPolicy(vector_width=4)),
                    dict(vector_width=4),
                ),
            ),
            (
                "td-only",
                (
                    dict(planner=HeuristicPolicy(allow_bottom_up=False)),
                    dict(policy=DirectionPolicy(allow_bottom_up=False)),
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("name", ["rmat9", "uni400", "star300", "path64"])
    def test_variant_configs(self, graphs, name, label, kwargs):
        graph = graphs[name]
        live_kwargs, reference_kwargs = kwargs
        sources = RNG.integers(0, graph.num_vertices, size=64).tolist()
        assert_runs_equal(
            BitwiseTraversal(graph, **live_kwargs).run_group(sources),
            ReferenceBitwiseTraversal(graph, **reference_kwargs).run_group(
                sources
            ),
            f"{name}/{label}",
        )

    def test_max_depth_cutoff(self, graphs):
        graph = graphs["rmat9"]
        sources = RNG.integers(0, graph.num_vertices, size=8).tolist()
        assert_runs_equal(
            BitwiseTraversal(graph).run_group(sources, max_depth=2),
            ReferenceBitwiseTraversal(graph).run_group(sources, max_depth=2),
            "rmat9/max-depth",
        )

    def test_duplicate_sources(self, graphs):
        graph = graphs["uni400"]
        sources = [5, 5, 17, 17, 17, 9]
        assert_runs_equal(
            BitwiseTraversal(graph).run_group(sources),
            ReferenceBitwiseTraversal(graph).run_group(sources),
            "uni400/dup-sources",
        )


# ----------------------------------------------------------------------
# Joint (JSA) engine and the single-source engine
# ----------------------------------------------------------------------
class TestJointEquivalence:
    @pytest.mark.parametrize("name", ["rmat9", "uni400", "star300"])
    @pytest.mark.parametrize("bottom_up", [True, False])
    def test_joint(self, graphs, name, bottom_up):
        graph = graphs[name]
        sources = RNG.integers(0, graph.num_vertices, size=16).tolist()
        planner = HeuristicPolicy(allow_bottom_up=bottom_up)
        policy = DirectionPolicy(allow_bottom_up=bottom_up)
        assert_runs_equal(
            JointTraversal(graph, planner=planner).run_group(sources),
            ReferenceJointTraversal(graph, policy=policy).run_group(sources),
            f"{name}/joint/bu={bottom_up}",
        )


class TestSingleEquivalence:
    @pytest.mark.parametrize("name", ["rmat9", "uni400", "star300", "path64"])
    @pytest.mark.parametrize("bottom_up", [True, False])
    def test_single(self, graphs, name, bottom_up):
        graph = graphs[name]
        planner = HeuristicPolicy(allow_bottom_up=bottom_up)
        policy = DirectionPolicy(allow_bottom_up=bottom_up)
        for source in RNG.integers(0, graph.num_vertices, size=4):
            live = SingleBFS(graph, planner=planner).run(int(source))
            ref = ReferenceSingleBFS(graph, policy=policy).run(int(source))
            label = f"{name}/single/{source}"
            assert np.array_equal(live.depths, ref.depths), label
            assert live.record.counters.__dict__ == ref.record.counters.__dict__, label
            assert live.record.levels == ref.record.levels, label
            assert live.seconds == ref.seconds, label


# ----------------------------------------------------------------------
# Planner-driven engines vs the frozen references
# ----------------------------------------------------------------------
class TestPlannerEquivalence:
    """The planner path must reproduce the frozen oracles exactly: a
    :class:`HeuristicPolicy` is the same traversal as the engine knobs
    it consolidated, and ``planner=None`` is ``HeuristicPolicy()``."""

    @pytest.mark.parametrize("name", ["rmat9", "uni400", "star300"])
    @pytest.mark.parametrize("vector_width", [2, 4])
    def test_explicit_planner_vector_widths(self, graphs, name, vector_width):
        graph = graphs[name]
        sources = RNG.integers(0, graph.num_vertices, size=64).tolist()
        planner = HeuristicPolicy(vector_width=vector_width)
        assert_runs_equal(
            BitwiseTraversal(graph, planner=planner).run_group(sources),
            ReferenceBitwiseTraversal(
                graph, vector_width=vector_width
            ).run_group(sources),
            f"{name}/planner-vw{vector_width}",
        )

    @pytest.mark.parametrize("name", ["rmat9", "uni400", "star300"])
    def test_joint_under_planner(self, graphs, name):
        graph = graphs[name]
        sources = RNG.integers(0, graph.num_vertices, size=16).tolist()
        assert_runs_equal(
            JointTraversal(
                graph, planner=HeuristicPolicy()
            ).run_group(sources),
            ReferenceJointTraversal(graph).run_group(sources),
            f"{name}/joint-planner",
        )

    @pytest.mark.parametrize("mode", ["bitwise", "joint"])
    def test_ibfs_random_grouping_matches_reference(self, graphs, mode):
        graph = graphs["rmat9"]
        sources = RNG.choice(
            graph.num_vertices, size=48, replace=False
        ).tolist()
        engine = IBFS(
            graph, IBFSConfig(group_size=16, mode=mode, groupby=False)
        )
        reference_cls = (
            ReferenceBitwiseTraversal
            if mode == "bitwise"
            else ReferenceJointTraversal
        )
        reference = reference_cls(graph)
        for group in engine.make_groups(sources):
            result = engine.run_group(group)
            ref_depths, ref_record, ref_stats = reference.run_group(
                list(group)
            )
            label = f"rmat9/{mode}/no-groupby"
            assert np.array_equal(result.depths, ref_depths), label
            assert (
                result.counters.__dict__ == ref_record.counters.__dict__
            ), label
            assert result.groups[0] == ref_stats, label


# ----------------------------------------------------------------------
# scatter_or vs np.bitwise_or.at
# ----------------------------------------------------------------------
class TestScatterOr:
    @pytest.mark.parametrize("num_targets", [1, 7, 1000, 70000])
    def test_matches_ufunc_at_2d(self, num_targets):
        rng = np.random.default_rng(num_targets)
        pairs = 5000
        targets = rng.integers(0, num_targets, size=pairs)
        words = rng.integers(0, 2**63, size=(pairs, 2), dtype=np.uint64)
        expected = np.zeros((num_targets, 2), dtype=np.uint64)
        np.bitwise_or.at(expected, targets, words)
        out = np.zeros((num_targets, 2), dtype=np.uint64)
        returned = scatter_or(out, targets, words)
        assert np.array_equal(out, expected)
        assert np.array_equal(returned, np.unique(targets))

    def test_matches_ufunc_at_1d(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(0, 50, size=400)
        words = rng.integers(0, 2**63, size=400, dtype=np.uint64)
        expected = np.zeros(50, dtype=np.uint64)
        np.bitwise_or.at(expected, targets, words)
        out = np.zeros(50, dtype=np.uint64)
        scatter_or(out, targets, words)
        assert np.array_equal(out, expected)

    def test_word_index_compact_table(self):
        # words[word_index[i]] scattered for pair i — equivalent to
        # expanding the table up front.
        rng = np.random.default_rng(4)
        table = rng.integers(0, 2**63, size=(10, 1), dtype=np.uint64)
        word_index = rng.integers(0, 10, size=300)
        targets = rng.integers(0, 40, size=300)
        expected = np.zeros((40, 1), dtype=np.uint64)
        np.bitwise_or.at(expected, targets, table[word_index])
        out = np.zeros((40, 1), dtype=np.uint64)
        scatter_or(out, targets, table, word_index=word_index)
        assert np.array_equal(out, expected)

    def test_preserves_existing_bits(self):
        out = np.full((4, 1), 0b1010, dtype=np.uint64)
        scatter_or(out, np.array([1, 1]), np.array([[1], [4]], dtype=np.uint64))
        assert out[1, 0] == 0b1010 | 1 | 4
        assert out[0, 0] == 0b1010

    def test_empty(self):
        out = np.zeros((4, 1), dtype=np.uint64)
        returned = scatter_or(
            out, np.empty(0, dtype=np.int64), np.empty((0, 1), dtype=np.uint64)
        )
        assert returned.size == 0
        assert not out.any()

    def test_plan_reuse(self):
        targets = np.array([3, 1, 3, 0, 1, 3])
        plan = scatter_plan(targets)
        assert np.array_equal(plan.unique_targets, [0, 1, 3])
        words = np.arange(1, 7, dtype=np.uint64).reshape(6, 1)
        expected = np.zeros((4, 1), dtype=np.uint64)
        np.bitwise_or.at(expected, targets, words)
        out = np.zeros((4, 1), dtype=np.uint64)
        scatter_or(out, targets, words, plan=plan)
        assert np.array_equal(out, expected)


# ----------------------------------------------------------------------
# Bookkeeping primitives vs naive formulations
# ----------------------------------------------------------------------
class TestBitPrimitives:
    @pytest.mark.parametrize("rows", [0, 5, 1 << 15])  # crosses uint16 path
    @pytest.mark.parametrize("group_size", [3, 64, 70])
    def test_per_bit_counts(self, rows, group_size):
        lanes = (group_size + 63) // 64
        rng = np.random.default_rng(rows + group_size)
        words = rng.integers(0, 2**63, size=(rows, lanes), dtype=np.uint64)
        mask = np.zeros(lanes * 64, dtype=np.uint64)
        mask[:group_size] = 1
        words &= np.packbits(
            mask.astype(np.uint8), bitorder="little"
        ).view(np.uint64)
        naive = unpack_lane_bits(words, group_size).astype(np.int64).sum(axis=0)
        if rows == 0:
            naive = np.zeros(group_size, dtype=np.int64)
        assert np.array_equal(per_bit_counts(words, group_size), naive)

    def test_per_bit_weighted(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 2**63, size=(500, 1), dtype=np.uint64)
        weights = rng.integers(0, 1000, size=500)
        bits = unpack_lane_bits(words, 64).astype(np.int64)
        naive = (bits * weights[:, None]).sum(axis=0)
        assert np.array_equal(per_bit_weighted(words, weights, 64), naive)

    def test_round_major_probes_matches_loop(self):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 100, size=200)
        starts = np.sort(rng.integers(0, 150, size=20))
        caps = 200 - starts
        probes = np.minimum(rng.integers(0, 12, size=20), caps)
        expected_parts = []
        round_idx = 0
        while True:
            alive = np.flatnonzero(probes > round_idx)
            if alive.size == 0:
                break
            expected_parts.append(indices[starts[alive] + round_idx])
            round_idx += 1
        expected = (
            np.concatenate(expected_parts)
            if expected_parts
            else np.empty(0, dtype=indices.dtype)
        )
        assert np.array_equal(
            round_major_probes(indices, starts, probes), expected
        )


class TestLevelWorkspace:
    def test_snapshot_and_changed_match_full_copy(self):
        rng = np.random.default_rng(9)
        words = rng.integers(0, 2**63, size=(200, 2), dtype=np.uint64)
        workspace = LevelWorkspace(200, 2)
        workspace.begin_level(words)
        snapshot = words.copy()

        words[[3, 7, 9]] |= np.uint64(1 << 40)
        # Rewriting a row twice still diffs against its pre-level value.
        words[[7, 9, 11, 13]] |= np.uint64(1 << 41)

        probe = rng.integers(0, 200, size=50)
        assert np.array_equal(workspace.snapshot_rows(probe), snapshot[probe])

        changed, diff = workspace.changed(words)
        full_diff = words ^ snapshot
        expected_rows = np.flatnonzero(np.any(full_diff != 0, axis=1))
        assert np.array_equal(changed, expected_rows)
        assert np.array_equal(diff, full_diff[expected_rows])

    def test_single_lane_snapshot_fast_path(self):
        words = np.arange(50, dtype=np.uint64).reshape(50, 1)
        workspace = LevelWorkspace(50, 1)
        workspace.begin_level(words)
        rows = np.array([4, 9, 4, 30])
        out = workspace.snapshot_rows(rows)
        assert out.shape == (4, 1)
        assert np.array_equal(out.reshape(-1), [4, 9, 4, 30])
        words[9] = 999
        assert np.array_equal(
            workspace.snapshot_rows(rows).reshape(-1), [4, 9, 4, 30]
        )
