"""Planner policy behavior and the validation satellites.

Covers the typed rejection of bad direction thresholds, the engine
configuration validation that rides this layer, and the decision
semantics of every policy family.
"""

import pytest

import repro.native as native
from repro.errors import TraversalError
from repro.core.engine import IBFSConfig
from repro.core.groupby import GroupByConfig
from repro.gpusim.config import KEPLER_K40, XEON_CPU
from repro.gpusim.device import Device
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
    @pytest.mark.parametrize("width", [0, 3, 5, 8, -2])
    def test_rejects_bad_vector_width(self, width):
        with pytest.raises(TraversalError, match="vector_width"):
            IBFSConfig(vector_width=width)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_accepts_supported_vector_widths(self, width):
        assert IBFSConfig(vector_width=width).vector_width == width

    def test_rejects_vector_width_in_joint_mode(self):
        with pytest.raises(TraversalError, match="joint"):
            IBFSConfig(mode="joint", vector_width=2)
        assert IBFSConfig(mode="joint", vector_width=1).mode == "joint"

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
        with pytest.raises(TraversalError):
            HeuristicPolicy(kernel="warp")
        with pytest.raises(TraversalError):
            HeuristicPolicy(snapshot="none")

    def test_from_direction_policy_copies_fields(self):
        legacy = DirectionPolicy(
            alpha=7.0, beta=9.0, allow_bottom_up=False, sticky=False
        )
        wrapped = HeuristicPolicy.from_direction_policy(
            legacy, early_termination=False, vector_width=2
        )
        assert wrapped.alpha == 7.0
        assert wrapped.beta == 9.0
        assert wrapped.allow_bottom_up is False
        assert wrapped.sticky is False
        assert wrapped.early_termination is False
        assert wrapped.vector_width == 2

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
        with pytest.raises(TraversalError):
            AdaptivePolicy(snapshot_threshold=1.5)

    def test_for_device_clamps_discount(self):
        gpu = AdaptivePolicy.for_device(Device(KEPLER_K40))
        cpu = AdaptivePolicy.for_device(Device(XEON_CPU))
        for policy in (gpu, cpu):
            assert 0.05 <= policy.probe_discount <= 0.25

    @pytest.mark.parametrize(
        "group_size,width,kernel",
        [(32, 1, "flat"), (64, 1, "flat"), (128, 2, "generic"),
         (256, 4, "generic")],
    )
    def test_width_and_kernel_follow_lane_count(
        self, group_size, width, kernel
    ):
        # The numpy-only resolution: without a compiled backend the
        # session picks the flat/generic variant by lane count.
        with native.force_backend("off"):
            session = AdaptivePolicy().session(group_size, 1000, 8000)
            first = session.initial()
        assert first.vector_width == width
        assert first.kernel == kernel
        assert first.directions == (TD,) * group_size

    @pytest.mark.parametrize("group_size", [32, 128])
    def test_kernel_resolves_native_when_backend_loads(self, group_size):
        if not native.available():
            pytest.skip("no native backend on this host")
        session = AdaptivePolicy().session(group_size, 1000, 8000)
        assert session.initial().kernel == "native"


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

    def test_adaptive_for_device(self):
        policy = make_policy("adaptive", device=Device(KEPLER_K40))
        assert isinstance(policy, AdaptivePolicy)
