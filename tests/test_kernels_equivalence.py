"""Equivalence suite: the kernels-backed engines against fixed oracles.

The :mod:`repro.kernels` primitives replace scalar hot loops with
vectorized reformulations, and the paper's profiler figures (18, 19,
21) are transaction counts, so the engines must stay *bit-identical*:
every depth, every simulated counter, every per-level record, every
sharing statistic.  Each engine case in :data:`CASES` is checked two
ways:

* its depths against the plain queue BFS of :mod:`repro.bfs.reference`;
* its counters, level records and ``GroupStats`` (simulated ``seconds``
  for ``SingleBFS``) against the values recorded in
  ``tests/data/kernels_golden.json``.

Every case draws its sources from its own seed, so a test's inputs do
not depend on which tests ran before it.  The rest of the suite checks
the primitives against their naive formulations.

Regenerate the fixture only when a change is meant to alter the
simulated accounting::

    PYTHONPATH=src python tests/test_kernels_equivalence.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
import zlib
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import pytest

from repro.bfs.reference import reference_bfs_multi
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
from repro.plan import HeuristicPolicy

FIXTURE = Path(__file__).parent / "data" / "kernels_golden.json"

GRAPHS = {
    "rmat9": lambda: rmat(9, edge_factor=8, seed=1),
    "uni400": lambda: uniform_random(400, 4, seed=2),
    "star300": lambda: star(300),
    "path64": lambda: path(64),
}
JOINT_GRAPHS = ["rmat9", "uni400", "star300"]
GROUP_SIZES = [3, 64, 70]

#: Bitwise configurations besides the default, as engine keyword
#: arguments (MS-BFS is the bitwise engine on MS-BFS's machine).
BITWISE_VARIANTS = [
    ("no-earlyterm", dict(planner=HeuristicPolicy(early_termination=False))),
    (
        "msbfs",
        dict(
            planner=HeuristicPolicy(early_termination=False),
            reset_per_level=True,
            thread_per_instance=True,
        ),
    ),
    (
        "vec2-pergroup",
        dict(planner=HeuristicPolicy(vector_width=2, direction_mode="per-group")),
    ),
    ("vec2", dict(planner=HeuristicPolicy(vector_width=2))),
    ("vec4", dict(planner=HeuristicPolicy(vector_width=4))),
    ("td-only", dict(planner=HeuristicPolicy(allow_bottom_up=False))),
]


@dataclasses.dataclass(frozen=True)
class Case:
    """One engine run: ``engine`` on graph ``graph`` from ``count``
    sources drawn with the case's own seed, or from fixed ``sources``.

    ``engine`` is ``"bitwise"``, ``"joint"``, ``"single"`` (one
    ``SingleBFS`` run per source) or ``"ibfs"`` (random grouping, one
    run per group of 16 distinct sources).  ``options`` are the engine's
    keyword arguments (``IBFSConfig`` fields for ``"ibfs"``).
    """

    engine: str
    graph: str
    count: int = 0
    sources: Tuple[int, ...] = ()
    options: dict = dataclasses.field(default_factory=dict)
    max_depth: Optional[int] = None


def _case_table():
    cases = {}
    for name in GRAPHS:
        for group_size in GROUP_SIZES:
            cases[f"bitwise/{name}/gs{group_size}"] = Case(
                "bitwise", name, group_size
            )
        for label, options in BITWISE_VARIANTS:
            cases[f"bitwise/{name}/{label}"] = Case("bitwise", name, 64, options=options)
        for bottom_up in (True, False):
            cases[f"single/{name}/bu={bottom_up}"] = Case(
                "single", name, 4,
                options=dict(planner=HeuristicPolicy(allow_bottom_up=bottom_up)),
            )
    for name in JOINT_GRAPHS:
        for bottom_up in (True, False):
            cases[f"joint/{name}/bu={bottom_up}"] = Case(
                "joint", name, 16,
                options=dict(planner=HeuristicPolicy(allow_bottom_up=bottom_up)),
            )
        cases[f"joint/{name}/planner"] = Case(
            "joint", name, 16, options=dict(planner=HeuristicPolicy())
        )
        for vector_width in (2, 4):
            cases[f"bitwise/{name}/planner-vw{vector_width}"] = Case(
                "bitwise", name, 64,
                options=dict(planner=HeuristicPolicy(vector_width=vector_width)),
            )
    cases["bitwise/rmat9/max-depth2"] = Case("bitwise", "rmat9", 8, max_depth=2)
    cases["bitwise/uni400/dup-sources"] = Case(
        "bitwise", "uni400", sources=(5, 5, 17, 17, 17, 9)
    )
    for mode in ("bitwise", "joint"):
        cases[f"ibfs-{mode}/rmat9/no-groupby"] = Case(
            "ibfs", "rmat9", 48, options=dict(mode=mode)
        )
    return cases


#: Every engine case, keyed as in the golden fixture.
CASES = _case_table()


def _run_record(record):
    return {
        "counters": dataclasses.asdict(record.counters),
        # One row per level, in LevelRecord field order.
        "levels": [dataclasses.astuple(level) for level in record.levels],
    }


def _stats(stats):
    # The fields GroupStats equality compares (its plan log is not one).
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.compare
    }


def run_case(key, graph):
    """Run case ``key`` on its graph: a list of ``(sources, depths,
    record)`` runs, where ``record`` is what the golden fixture holds."""
    case = CASES[key]
    sources = list(case.sources)
    if not sources:
        rng = np.random.default_rng(zlib.crc32(key.encode()))
        if case.engine == "ibfs":
            sources = rng.choice(graph.num_vertices, size=case.count, replace=False)
        else:
            sources = rng.integers(0, graph.num_vertices, size=case.count)
        sources = sources.tolist()

    if case.engine in ("bitwise", "joint"):
        engine_cls = BitwiseTraversal if case.engine == "bitwise" else JointTraversal
        depths, record, stats = engine_cls(graph, **case.options).run_group(
            sources, max_depth=case.max_depth
        )
        return [(sources, depths, {**_run_record(record), "stats": _stats(stats)})]
    if case.engine == "single":
        runs = []
        for source in sources:
            result = SingleBFS(graph, **case.options).run(source)
            record = {
                "source": source,
                **_run_record(result.record),
                "seconds": result.seconds,
            }
            runs.append(([source], result.depths[np.newaxis], record))
        return runs
    engine = IBFS(graph, IBFSConfig(group_size=16, groupby=False, **case.options))
    runs = []
    for group in engine.make_groups(sources):
        result = engine.run_group(group)
        record = {
            "counters": dataclasses.asdict(result.counters),
            "stats": _stats(result.groups[0]),
        }
        runs.append((list(group), result.depths, record))
    return runs


def _records(runs):
    # Through JSON, so tuples compare equal to the fixture's lists.
    return json.loads(json.dumps([record for _, _, record in runs]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def check(golden):
    """``check(key)`` runs case ``key`` and compares its depths with the
    plain BFS oracle and everything else with the golden fixture."""
    graphs = {name: build() for name, build in GRAPHS.items()}
    # The oracle's depth matrix per graph, built on first use: row ``s``
    # holds the depths from ``s``.
    oracle = {}

    def check_case(key):
        case = CASES[key]
        graph = graphs[case.graph]
        if case.graph not in oracle:
            oracle[case.graph] = reference_bfs_multi(graph, range(graph.num_vertices))
        runs = run_case(key, graph)
        for sources, depths, _ in runs:
            expected = oracle[case.graph][sources]
            if case.max_depth is not None:
                expected[expected > case.max_depth] = -1
            assert np.array_equal(depths, expected), f"{key}: depths differ from BFS"
        observed = _records(runs)
        recorded = golden[key]
        assert len(observed) == len(recorded), f"{key}: run count"
        for got, want in zip(observed, recorded):
            assert got == want, key

    return check_case


def test_fixture_holds_exactly_the_case_table(golden):
    assert sorted(golden) == sorted(CASES)


# ----------------------------------------------------------------------
# Bitwise engine (and the MS-BFS configuration riding on it)
# ----------------------------------------------------------------------
class TestBitwiseEquivalence:
    @pytest.mark.parametrize("name", list(GRAPHS))
    @pytest.mark.parametrize("group_size", GROUP_SIZES)
    def test_default_config(self, check, name, group_size):
        check(f"bitwise/{name}/gs{group_size}")

    # ``kwargs`` are the case's engine arguments, read from the same
    # list as the case table.
    @pytest.mark.parametrize("label,kwargs", BITWISE_VARIANTS)
    @pytest.mark.parametrize("name", list(GRAPHS))
    def test_variant_configs(self, check, name, label, kwargs):
        check(f"bitwise/{name}/{label}")

    def test_max_depth_cutoff(self, check):
        check("bitwise/rmat9/max-depth2")

    def test_duplicate_sources(self, check):
        check("bitwise/uni400/dup-sources")


# ----------------------------------------------------------------------
# Joint (JSA) engine and the single-source engine
# ----------------------------------------------------------------------
class TestJointEquivalence:
    @pytest.mark.parametrize("name", JOINT_GRAPHS)
    @pytest.mark.parametrize("bottom_up", [True, False])
    def test_joint(self, check, name, bottom_up):
        check(f"joint/{name}/bu={bottom_up}")


class TestSingleEquivalence:
    @pytest.mark.parametrize("name", list(GRAPHS))
    @pytest.mark.parametrize("bottom_up", [True, False])
    def test_single(self, check, name, bottom_up):
        check(f"single/{name}/bu={bottom_up}")


# ----------------------------------------------------------------------
# Explicit planners and IBFS grouping
# ----------------------------------------------------------------------
class TestPlannerEquivalence:
    """``planner=None`` is ``HeuristicPolicy()``, and ``IBFS``'s groups
    run the same traversals as the engines it wraps."""

    @pytest.mark.parametrize("name", JOINT_GRAPHS)
    @pytest.mark.parametrize("vector_width", [2, 4])
    def test_explicit_planner_vector_widths(self, check, name, vector_width):
        check(f"bitwise/{name}/planner-vw{vector_width}")

    @pytest.mark.parametrize("name", JOINT_GRAPHS)
    def test_joint_under_planner(self, check, name):
        check(f"joint/{name}/planner")

    @pytest.mark.parametrize("mode", ["bitwise", "joint"])
    def test_ibfs_random_grouping_matches_reference(self, check, mode):
        check(f"ibfs-{mode}/rmat9/no-groupby")


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


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_kernels_equivalence.py --write")
    graphs = {name: build() for name, build in GRAPHS.items()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    # One case per line keeps the file small and its diffs per case.
    FIXTURE.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: "
        f"{json.dumps(_records(run_case(key, graphs[case.graph])), sort_keys=True)}"
        for key, case in sorted(CASES.items())
    ) + "\n}\n")
    print(f"wrote {FIXTURE}")
