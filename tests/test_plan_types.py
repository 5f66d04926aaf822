"""Unit tests of the planner's typed decisions and run plans."""

import json
import pickle

import pytest

from repro.errors import TraversalError
from repro.plan import (
    Direction,
    LevelDecision,
    RunPlan,
    VECTOR_WIDTHS,
)

TD = Direction.TOP_DOWN
BU = Direction.BOTTOM_UP


def decision(**kwargs):
    kwargs.setdefault("directions", (TD, TD, BU))
    return LevelDecision(**kwargs)


def exported_with_host_knobs(d, kernel="native", snapshot="full"):
    """``d`` as the former exporter wrote it, with the host-only
    ``kernel`` and ``snapshot`` keys every decision used to carry."""
    return d.to_dict() | {"kernel": kernel, "snapshot": snapshot}


class TestLevelDecision:
    def test_defaults(self):
        d = decision()
        assert d.vector_width == 1
        assert d.early_termination is True
        assert d.exchange == "auto"

    def test_counts(self):
        d = decision()
        assert d.num_instances == 3
        assert d.top_down == 2
        assert d.bottom_up == 1

    def test_rejects_empty_directions(self):
        with pytest.raises(TraversalError):
            LevelDecision(directions=())

    def test_rejects_non_direction_entries(self):
        with pytest.raises(TraversalError):
            LevelDecision(directions=("td", "bu"))

    @pytest.mark.parametrize("width", [0, 3, 8, -1])
    def test_rejects_bad_vector_width(self, width):
        with pytest.raises(TraversalError):
            decision(vector_width=width)

    @pytest.mark.parametrize("kernel", ["auto", "flat", "generic", "native"])
    @pytest.mark.parametrize("width", VECTOR_WIDTHS)
    @pytest.mark.parametrize("snapshot", ["dirty", "full"])
    def test_accepts_full_matrix(self, kernel, width, snapshot):
        # Every kernel/snapshot value the former exporter could write
        # loads, and the host-only keys are dropped.
        d = decision(vector_width=width)
        loaded = LevelDecision.from_dict(exported_with_host_knobs(d, kernel, snapshot))
        assert loaded == d
        assert loaded.to_dict() == d.to_dict()

    def test_has_only_simulated_fields(self):
        assert list(decision().to_dict()) == [
            "directions", "vector_width", "early_termination", "exchange",
        ]

    def test_dict_round_trip(self):
        d = decision(vector_width=4, early_termination=False)
        assert LevelDecision.from_dict(d.to_dict()) == d

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(TraversalError):
            LevelDecision.from_dict({"directions": ["sideways"]})
        with pytest.raises(TraversalError):
            LevelDecision.from_dict({})

    def test_native_dict_round_trip(self):
        # A decision a native host exported loads into the same value
        # a numpy-only host records.
        d = decision(directions=(BU, BU, BU), vector_width=2)
        loaded = LevelDecision.from_dict(exported_with_host_knobs(d))
        assert loaded == d
        assert LevelDecision.from_dict(loaded.to_dict()) == d


class TestRunPlan:
    def make_plan(self):
        plan = RunPlan(policy="heuristic", engine="bitwise", group_size=3)
        plan.append(decision())
        plan.append(decision(directions=(BU, BU, BU), vector_width=2))
        return plan

    def test_len_and_iter(self):
        plan = self.make_plan()
        assert len(plan) == 2
        assert [d.bottom_up for d in plan] == [1, 3]

    def test_append_validates_instance_count(self):
        plan = RunPlan(policy="p", engine="e", group_size=2)
        with pytest.raises(TraversalError):
            plan.append(decision())  # 3 instances into a 2-wide plan

    def test_needs_bottom_up(self):
        td_only = RunPlan(policy="p", engine="e", group_size=1)
        td_only.append(LevelDecision(directions=(TD,)))
        assert not td_only.needs_bottom_up
        assert self.make_plan().needs_bottom_up

    def make_native_plan(self):
        # A plan a native host exported, read back: its decisions named
        # the compiled variant and a snapshot strategy explicitly.
        plan = self.make_plan()
        payload = plan.to_dict()
        payload["decisions"] = [exported_with_host_knobs(d) for d in plan]
        return RunPlan.from_json(json.dumps(payload))

    def test_json_round_trip(self):
        plan = self.make_plan()
        assert RunPlan.from_json(plan.to_json()) == plan

    def test_pickle_round_trip(self):
        plan = self.make_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_native_json_round_trip(self):
        plan = self.make_native_plan()
        assert plan == self.make_plan()
        restored = RunPlan.from_json(plan.to_json())
        assert restored == plan
        assert "kernel" not in plan.to_json()

    def test_native_pickle_round_trip(self):
        plan = self.make_native_plan()
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_from_json_rejects_malformed(self):
        with pytest.raises(TraversalError):
            RunPlan.from_json("not json at all {")
        with pytest.raises(TraversalError):
            RunPlan.from_json('{"engine": "bitwise"}')


#: One well-formed decision in the export format.
_DECISION = {"directions": ["td", "bu"], "vector_width": 1,
             "early_termination": True, "exchange": "auto"}


def _plan_payload(**overrides):
    payload = {"policy": "heuristic", "engine": "bitwise", "group_size": 2,
               "decisions": [dict(_DECISION)]}
    payload.update(overrides)
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        _plan_payload(group_size="x"),
        _plan_payload(group_size=2.0),
        _plan_payload(group_size=True, decisions=[_DECISION | {"directions": ["td"]}]),
        _plan_payload(decisions=[_DECISION | {"vector_width": "wide"}]),
        _plan_payload(decisions=[_DECISION | {"vector_width": 2.0}]),
        _plan_payload(decisions=[_DECISION | {"early_termination": "false"}]),
        _plan_payload(decisions=[_DECISION | {"early_termination": 0}]),
        _plan_payload(decisions=[["td", "bu"]]),
        _plan_payload(decisions={"0": _DECISION}),
        [_plan_payload()],
        "plan",
    ],
    ids=[
        "group_size-str", "group_size-float", "group_size-bool",
        "vector_width-str", "vector_width-float", "early_termination-str",
        "early_termination-int", "decision-list",
        "decisions-object", "top-level-list", "top-level-str",
    ],
)
def test_malformed_plan_json_raises_traversal_error(payload):
    with pytest.raises(TraversalError):
        RunPlan.from_json(json.dumps(payload))
