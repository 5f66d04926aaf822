"""Planner policy behavior and the validation satellites.

Covers the typed rejection of bad direction thresholds, the engine
configuration validation that rides this layer, and the decision
semantics of every policy family.
"""

import dataclasses

import pytest

import repro.native as native
from repro.errors import TraversalError
from repro.core.engine import IBFS, IBFSConfig
from repro.core.groupby import GroupByConfig
from repro.graph.generators import rmat
from repro.plan import (
    AdaptivePolicy,
    DIRECTION_MODES,
    Direction,
    DirectionPolicy,
    FixedPolicy,
    HeuristicPolicy,
    LevelDecision,
    POLICY_NAMES,
    RecordedPolicy,
    RunPlan,
    make_policy,
)

TD = Direction.TOP_DOWN
BU = Direction.BOTTOM_UP


# ----------------------------------------------------------------------
# DirectionPolicy threshold validation
# ----------------------------------------------------------------------
class TestDirectionPolicyValidation:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, -14.0])
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(TraversalError, match="alpha must be positive"):
            DirectionPolicy(alpha=alpha)

    @pytest.mark.parametrize("beta", [0.0, -0.5, -24.0])
    def test_rejects_nonpositive_beta(self, beta):
        with pytest.raises(TraversalError, match="beta must be positive"):
            DirectionPolicy(beta=beta)

    def test_defaults_are_beamer(self):
        policy = DirectionPolicy()
        assert policy.alpha == 14.0
        assert policy.beta == 24.0


# ----------------------------------------------------------------------
# IBFSConfig validation satellites
# ----------------------------------------------------------------------
class TestIBFSConfigValidation:
    def test_has_no_decision_fields(self):
        # Direction, early termination and vector width are planner
        # decisions; the engine configuration carries none of them.
        assert [f.name for f in dataclasses.fields(IBFSConfig)] == [
            "group_size", "mode", "groupby", "groupby_config", "seed",
        ]

    @pytest.mark.parametrize("width", [0, 3, 5, 8, -2])
    def test_rejects_bad_vector_width(self, width):
        with pytest.raises(TraversalError, match="vector_width"):
            HeuristicPolicy(vector_width=width)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_accepts_supported_vector_widths(self, width):
        engine = IBFS(
            rmat(6, edge_factor=4, seed=1),
            planner=HeuristicPolicy(vector_width=width),
        )
        assert engine.planner.vector_width == width

    def test_rejects_non_groupby_config_object(self):
        with pytest.raises(TraversalError, match="GroupByConfig"):
            IBFSConfig(groupby_config={"q": 64})

    def test_rejects_custom_groupby_config_without_groupby(self):
        with pytest.raises(TraversalError, match="groupby"):
            IBFSConfig(groupby=False, groupby_config=GroupByConfig(q=64))

    def test_default_groupby_config_ok_without_groupby(self):
        config = IBFSConfig(groupby=False)
        assert config.groupby_config == GroupByConfig()


# ----------------------------------------------------------------------
# HeuristicPolicy
# ----------------------------------------------------------------------
class TestHeuristicPolicy:
    def test_validates_through_direction_policy(self):
        with pytest.raises(TraversalError, match="alpha must be positive"):
            HeuristicPolicy(alpha=0.0)

    def test_rejects_bad_direction_mode(self):
        with pytest.raises(TraversalError, match="direction_mode"):
            HeuristicPolicy(direction_mode="global")
        for mode in DIRECTION_MODES:
            assert HeuristicPolicy(direction_mode=mode).direction_mode == mode

    def test_rejects_bad_knobs(self):
        with pytest.raises(TraversalError):
            HeuristicPolicy(vector_width=3)

    def test_session_wants_stats(self):
        session = HeuristicPolicy().session(4, 100, 500)
        assert session.wants_stats is True
        first = session.initial()
        assert first.directions == (TD,) * 4


# ----------------------------------------------------------------------
# FixedPolicy
# ----------------------------------------------------------------------
class TestFixedPolicy:
    def test_rejects_bad_direction(self):
        with pytest.raises(TraversalError, match="direction"):
            FixedPolicy(direction="sideways")

    def test_switch_level_validation(self):
        with pytest.raises(TraversalError, match="switch_level"):
            FixedPolicy(direction="bu", switch_level=2)
        with pytest.raises(TraversalError, match="switch_level"):
            FixedPolicy(direction="td", switch_level=0)

    def test_allow_bottom_up(self):
        assert FixedPolicy(direction="td").allow_bottom_up is False
        assert FixedPolicy(direction="bu").allow_bottom_up is True
        assert FixedPolicy(direction="td", switch_level=3).allow_bottom_up

    def test_session_is_constant_and_statless(self):
        session = FixedPolicy(direction="td").session(2, 100, 500)
        assert session.wants_stats is False
        assert session.initial().directions == (TD, TD)
        assert session.next(None).directions == (TD, TD)

    def test_switch_level_flips_direction(self):
        session = FixedPolicy(direction="td", switch_level=2).session(
            1, 100, 500
        )
        directions = [session.initial()] + [session.next(None) for _ in range(3)]
        assert [d.directions[0] for d in directions] == [TD, TD, BU, BU]


# ----------------------------------------------------------------------
# RecordedPolicy
# ----------------------------------------------------------------------
def small_plan():
    plan = RunPlan(policy="heuristic", engine="bitwise", group_size=2)
    plan.append(LevelDecision(directions=(TD, TD)))
    plan.append(LevelDecision(directions=(TD, BU)))
    return plan


class TestRecordedPolicy:
    def test_rejects_empty_plan(self):
        with pytest.raises(TraversalError, match="empty"):
            RecordedPolicy(RunPlan(policy="p", engine="e", group_size=2))

    def test_adopts_recording_policy_name(self):
        assert RecordedPolicy(small_plan()).name == "heuristic"

    def test_group_size_mismatch(self):
        policy = RecordedPolicy(small_plan())
        with pytest.raises(TraversalError, match="group size"):
            policy.session(5, 100, 500)

    def test_replays_verbatim_then_repeats_final(self):
        plan = small_plan()
        session = RecordedPolicy(plan).session(2, 100, 500)
        assert session.wants_stats is False
        assert session.initial() == plan.decisions[0]
        assert session.next(None) == plan.decisions[1]
        # Past the recorded horizon: the final decision repeats.
        assert session.next(None) == plan.decisions[1]

    def test_allow_bottom_up_follows_plan(self):
        assert RecordedPolicy(small_plan()).allow_bottom_up is True
        td_plan = RunPlan(policy="p", engine="e", group_size=1)
        td_plan.append(LevelDecision(directions=(TD,)))
        assert RecordedPolicy(td_plan).allow_bottom_up is False


# ----------------------------------------------------------------------
# AdaptivePolicy
# ----------------------------------------------------------------------
class TestAdaptivePolicy:
    def test_validation(self):
        with pytest.raises(TraversalError):
            AdaptivePolicy(probe_discount=0.0)
        with pytest.raises(TraversalError):
            AdaptivePolicy(margin=0.5)

    @pytest.mark.parametrize(
        "group_size,width", [(32, 1), (64, 1), (128, 2), (256, 4)]
    )
    def test_width_follows_lane_count(self, compiled, group_size, width):
        # The host's kernels never enter the decision: a numpy-only and
        # a native session decide alike.
        decisions = []
        for backend in ("off", None):
            with native.force_backend(backend):
                session = AdaptivePolicy().session(group_size, 1000, 8000)
                decisions.append(session.initial())
        first = decisions[0]
        assert decisions[1] == first
        assert first.vector_width == width
        assert first.directions == (TD,) * group_size

    @pytest.mark.parametrize("group_size", [32, 128])
    def test_kernel_resolves_native_when_backend_loads(
        self, compiled, group_size, monkeypatch
    ):
        # The host picks its kernels outside the plan: an adaptive group
        # runs the compiled level when the library loads, and the numpy
        # path when it does not.
        graph = rmat(8, edge_factor=8, seed=2)
        sources = list(range(group_size))
        config = IBFSConfig(group_size=group_size, groupby=False)
        calls = []
        run_level = native.LevelKernel.run_level

        def counting(self, *args):
            calls.append(args[3])
            return run_level(self, *args)

        monkeypatch.setattr(native.LevelKernel, "run_level", counting)
        plans = {}
        for backend in (None, "off"):
            calls.clear()
            with native.force_backend(backend):
                assert native.available() == (backend is None)
                result = IBFS(
                    graph, config, planner=AdaptivePolicy()
                ).run_group(sources)
            assert bool(calls) == (backend is None)
            plans[backend] = result.groups[0].plan
        assert plans[None] == plans["off"]


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
class TestPresets:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_make_policy_names(self, name):
        policy = make_policy(name)
        assert policy.session(4, 100, 500) is not None

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(TraversalError, match="unknown policy"):
            make_policy("oracle")

    def test_td_only_preset_never_goes_bottom_up(self):
        policy = make_policy("td-only")
        assert policy.allow_bottom_up is False
        session = policy.session(3, 100, 500)
        assert session.initial().directions == (TD,) * 3

    def test_no_early_termination_preset(self):
        policy = make_policy("no-early-termination")
        session = policy.session(2, 100, 500)
        assert session.initial().early_termination is False
