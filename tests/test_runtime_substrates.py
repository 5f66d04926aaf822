"""The shared substrate bit-identity matrix.

One parametrized suite replaces the per-package copies of the
"matches serial" loop: every registered substrate × planner policy ×
mutation must produce depths bit-identical to the serial engine (and
identical traversal counters for the whole-graph placements — the
partitioned substrate's counters price communication, so only its
depths are contractual).  Plus the registry/capability surface:
spec validation, engine-key namespacing, the epoch-swap hook, and
executor-backed serving under the churn loadgen.
"""

import numpy as np
import pytest

from repro.errors import (
    ExclusiveSubstrateError,
    ServiceError,
    SubstrateCapabilityError,
    SubstrateError,
    TraversalError,
    UnknownSubstrateError,
    UnsupportedMutationError,
)
from repro.graph.generators import kronecker
from repro.core.engine import IBFS, IBFSConfig
from repro.plan import HeuristicPolicy, make_policy
from repro.runtime import (
    CAPABILITY_FLAGS,
    SUBSTRATES,
    SUBSTRATE_NAMES,
    SubstrateSpec,
    engine_key,
    make_substrate,
)

CONFIG = IBFSConfig(group_size=8)
SOURCES = list(range(0, 48, 2))
PLANNERS = [None, "td-only"]


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=8, seed=9)


def spec_for(kind: str) -> SubstrateSpec:
    return SubstrateSpec(
        kind=kind,
        workers=2 if kind == "executor" else 0,
        partitions=2 if kind == "partitioned" else 0,
    )


def build(kind: str, graph, planner_name=None, mutate=False):
    planner = make_policy(planner_name) if planner_name else None
    spec = spec_for(kind)
    if mutate and kind != "stream":
        # The mutation axis wraps the substrate in the epoch-swapping
        # stream substrate with the requested kind as its delegate.
        spec = SubstrateSpec.from_flags(
            kind=kind,
            workers=spec.workers,
            partitions=spec.partitions,
            churn=True,
        )
    return make_substrate(spec, graph, engine_config=CONFIG, planner=planner)


# ----------------------------------------------------------------------
# The bit-identity matrix
# ----------------------------------------------------------------------
class TestBitIdentityMatrix:
    @pytest.mark.parametrize("mutate", [False, True])
    @pytest.mark.parametrize("planner_name", PLANNERS)
    @pytest.mark.parametrize("kind", SUBSTRATE_NAMES)
    def test_matches_serial(self, graph, kind, planner_name, mutate):
        substrate = build(kind, graph, planner_name, mutate)
        try:
            ref_graph = graph
            if mutate:
                # Fold one insert batch into a new epoch; the substrate
                # must swap and stay bit-identical to serial over the
                # *new* graph.
                substrate.overlay.insert_edges(
                    np.array([0, 1]), np.array([100, 90])
                )
                snap = substrate.publish()
                assert snap.epoch == 1
                ref_graph = snap.graph
            planner = make_policy(planner_name) if planner_name else None
            expected = IBFS(ref_graph, CONFIG, planner=planner).run(
                SOURCES, store_depths=True
            )
            # Two runs per cell: identity and repeat-determinism.
            for _ in range(2):
                result = substrate.run(SOURCES, store_depths=True)
                assert np.array_equal(result.depths, expected.depths)
                assert result.depths.dtype == expected.depths.dtype
                assert result.sources == expected.sources
                if not substrate.supports_partitions:
                    # Whole-graph placements replicate the traversal
                    # exactly; partitioned counters price communication.
                    assert (
                        result.counters.__dict__
                        == expected.counters.__dict__
                    )
                    assert result.seconds == expected.seconds
        finally:
            substrate.close()

    @pytest.mark.parametrize("kind", SUBSTRATE_NAMES)
    def test_run_group_matches_serial(self, graph, kind):
        substrate = build(kind, graph)
        try:
            group = IBFS(graph, CONFIG).make_groups(SOURCES)[0]
            expected = IBFS(graph, CONFIG).run_group(group)
            result = substrate.run_group(group)
            assert np.array_equal(result.depths, expected.depths)
        finally:
            substrate.close()

    @pytest.mark.parametrize("mutate", [False, True])
    @pytest.mark.parametrize("kind", SUBSTRATE_NAMES)
    def test_map_groups_matches_serial(self, graph, kind, mutate):
        # The serving layer dispatches every wave through map_groups;
        # results come back in spec order.
        substrate = build(kind, graph, mutate=mutate)
        try:
            groups = IBFS(graph, CONFIG).make_groups(SOURCES)[:3]
            results = substrate.map_groups([(g, None, None) for g in groups])
            assert len(results) == len(groups)
            for group, result in zip(groups, results):
                expected = IBFS(graph, CONFIG).run_group(group)
                assert np.array_equal(result.depths, expected.depths)
        finally:
            substrate.close()

    @pytest.mark.parametrize("kind", ["serial", "partitioned", "stream"])
    def test_default_map_groups_runs_each_spec_through_run_group(
        self, graph, kind
    ):
        # In-process substrates run a wave spec by spec through their
        # own run_group (the stream substrate's, not its delegate's);
        # under return_errors a failing spec yields its error in place.
        substrate = build(kind, graph)
        groups = IBFS(graph, CONFIG).make_groups(SOURCES)[:3]
        calls = []
        run_group = substrate.run_group

        def failing_run_group(group, max_depth=None, plan=None):
            calls.append(list(group))
            if list(group) == list(groups[1]):
                raise TraversalError("injected")
            return run_group(group, max_depth=max_depth, plan=plan)

        substrate.run_group = failing_run_group
        try:
            specs = [(g, None, None) for g in groups]
            results = substrate.map_groups(specs, return_errors=True)
            assert calls == [list(g) for g in groups]
            assert isinstance(results[1], TraversalError)
            for i in (0, 2):
                expected = IBFS(graph, CONFIG).run_group(groups[i])
                assert np.array_equal(results[i].depths, expected.depths)
            with pytest.raises(TraversalError):
                substrate.map_groups(specs)
        finally:
            substrate.close()


# ----------------------------------------------------------------------
# Registry and capability surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_matches_names(self):
        assert tuple(sorted(SUBSTRATES)) == tuple(sorted(SUBSTRATE_NAMES))

    def test_capability_flags(self):
        caps = {k: cls.capabilities() for k, cls in SUBSTRATES.items()}
        for flags in caps.values():
            assert tuple(flags) == CAPABILITY_FLAGS
        assert caps["serial"]["supports_mutation"]
        assert caps["executor"]["supports_executor"]
        assert caps["partitioned"]["supports_partitions"]
        assert caps["stream"]["supports_mutation"]
        assert not caps["serial"]["supports_executor"]
        assert not caps["executor"]["supports_partitions"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownSubstrateError):
            SubstrateSpec(kind="quantum")

    def test_exclusive_spec_rejected(self):
        with pytest.raises(ExclusiveSubstrateError):
            SubstrateSpec(workers=2, partitions=2)
        with pytest.raises(ExclusiveSubstrateError):
            SubstrateSpec(kind="executor", partitions=2)
        with pytest.raises(ExclusiveSubstrateError):
            SubstrateSpec(kind="partitioned", workers=2)

    def test_exclusive_error_is_service_error(self):
        # The pre-registry consumers caught ServiceError with this
        # message; the typed capability error must keep both.
        err = ExclusiveSubstrateError()
        assert isinstance(err, ServiceError)
        assert isinstance(err, SubstrateCapabilityError)
        assert "mutually exclusive" in str(err)

    def test_from_flags_derivation(self):
        assert SubstrateSpec.from_flags().kind == "serial"
        assert SubstrateSpec.from_flags(workers=2).kind == "executor"
        assert SubstrateSpec.from_flags(partitions=2).kind == "partitioned"
        assert SubstrateSpec.from_flags(churn=True).kind == "stream"
        wrapped = SubstrateSpec.from_flags(workers=2, churn=True)
        assert wrapped.kind == "stream"
        assert wrapped.inner_kind == "executor"

    def test_invalid_flags_rejected(self):
        with pytest.raises(SubstrateError):
            SubstrateSpec(workers=-1)
        with pytest.raises(SubstrateError):
            SubstrateSpec(layout="3d")

    def test_caller_owned_executor_loses_mutation(self, graph):
        from repro.exec import ExecConfig, GroupExecutor

        with GroupExecutor(
            graph, CONFIG, exec_config=ExecConfig(num_workers=0)
        ) as executor:
            substrate = make_substrate(
                SubstrateSpec(kind="executor"),
                graph,
                engine_config=CONFIG,
                executor=executor,
            )
            assert not substrate.supports_mutation
            with pytest.raises(UnsupportedMutationError):
                substrate.on_epoch_published(None)
            substrate.close()  # must NOT close the caller's executor
            assert executor.run([0]) is not None

    def test_stream_refuses_caller_owned_executor(self, graph):
        class FakeExecutor:  # the refusal must not touch its attrs
            pass

        with pytest.raises(UnsupportedMutationError):
            make_substrate(
                SubstrateSpec(kind="stream"), graph, executor=FakeExecutor()
            )

    def test_partitioned_refuses_executor_object(self, graph):
        class FakeExecutor:
            pass

        with pytest.raises(ExclusiveSubstrateError):
            make_substrate(
                SubstrateSpec(kind="partitioned", partitions=2),
                graph,
                executor=FakeExecutor(),
            )


# ----------------------------------------------------------------------
# Engine-key derivation
# ----------------------------------------------------------------------
class TestEngineKey:
    def test_matches_legacy_cache_key(self):
        # The serving caches are keyed by these strings; the derivation
        # must not drift when it moves.
        assert engine_key(CONFIG, HeuristicPolicy()) == (
            "bitwise-n8-gb1-s0-polheuristic(alpha=14.0,beta=24.0,"
            "allow_bottom_up=True,sticky=True,direction_mode='per-instance',"
            "early_termination=True,vector_width=1)"
        )
        assert engine_key(CONFIG) == engine_key(CONFIG, HeuristicPolicy())

    def test_partitioned_suffix_namespaces(self, graph):
        serial = make_substrate(
            SubstrateSpec(), graph, engine_config=CONFIG
        )
        part = make_substrate(
            SubstrateSpec(kind="partitioned", partitions=2),
            graph,
            engine_config=CONFIG,
        )
        try:
            assert serial.engine_key != part.engine_key
            assert part.engine_key.startswith(serial.engine_key)
            assert "+dist-1dx2" in part.engine_key
        finally:
            serial.close()
            part.close()

    def test_spec_key_resolves_default_planner(self):
        spec = SubstrateSpec()
        assert spec.engine_key(CONFIG) == spec.engine_key(
            CONFIG, HeuristicPolicy()
        )
        assert "-polheuristic(" in spec.engine_key(CONFIG)
        planner = make_policy("td-only")
        assert f"-pol{planner.name}(" in spec.engine_key(CONFIG, planner)

    @pytest.mark.parametrize(
        "planner",
        [
            HeuristicPolicy(vector_width=4),
            HeuristicPolicy(early_termination=False),
            HeuristicPolicy(direction_mode="per-group"),
            HeuristicPolicy(alpha=2.0),
            HeuristicPolicy(allow_bottom_up=False),
        ],
        ids=["vw4", "no-et", "per-group", "alpha2", "td-only"],
    )
    def test_key_separates_planner_parameters(self, graph, planner):
        # Planners that differ in any parameter run different schedules
        # and counters, so their serving caches must not alias.
        spec = SubstrateSpec()
        assert spec.engine_key(CONFIG, planner) != spec.engine_key(CONFIG)
        with make_substrate(
            spec, graph, engine_config=CONFIG, planner=planner
        ) as substrate:
            assert substrate.engine_key == spec.engine_key(CONFIG, planner)


# ----------------------------------------------------------------------
# Epoch swap-on-mutate through the serving layer
# ----------------------------------------------------------------------
class TestServingUnderChurn:
    SERVING_KW = dict(
        batch_size=8, cache_capacity=64, return_depths=True
    )

    @pytest.mark.parametrize("kind", ["serial", "executor", "partitioned"])
    def test_post_mutation_depths_correct(self, graph, kind):
        from repro.service import (
            ChurnConfig,
            Request,
            ServingConfig,
            WorkloadConfig,
            run_closed_loop,
        )
        from repro.stream import DynamicBFSServer

        spec = SubstrateSpec.from_flags(
            kind=kind,
            workers=2 if kind == "executor" else 0,
            partitions=2 if kind == "partitioned" else 0,
            churn=True,
        )
        server = DynamicBFSServer(
            graph, ServingConfig(**self.SERVING_KW), substrate=spec
        )
        try:
            result = run_closed_loop(
                server,
                WorkloadConfig(num_requests=48, num_clients=8, seed=3),
                ChurnConfig(mutate_every=16, inserts_per_batch=8, seed=4),
            )
            assert result.completed == 48
            assert any(r.decision != "noop" for r in server.epoch_records)
            assert server.substrate.epochs.current_epoch >= 1
            # The acceptance check: a fresh request served after the
            # swaps must carry depths for the *mutated* graph.
            rid = server.submit(Request(source=0, kind="bfs"))
            response = next(
                r for r in server.drain() if r.request_id == rid
            )
            expected = IBFS(server.graph, CONFIG).run_group([0])
            assert np.array_equal(response.depths, expected.depths[0])
        finally:
            server.close()

    def test_dynamic_server_refuses_caller_owned_executor(self, graph):
        from repro.service import ServingConfig
        from repro.stream import DynamicBFSServer

        class FakeExecutor:
            pass

        with pytest.raises(ServiceError):
            DynamicBFSServer(
                graph,
                ServingConfig(**self.SERVING_KW),
                executor=FakeExecutor(),
            )

    def test_server_metrics_name_substrate(self, graph):
        from repro.service import BFSServer, ServingConfig

        server = BFSServer(
            graph,
            ServingConfig(batch_size=8),
            substrate=SubstrateSpec(kind="partitioned", partitions=2),
        )
        try:
            payload = server.metrics_snapshot()
            assert payload["substrate"]["kind"] == "partitioned"
            caps = payload["substrate"]["capabilities"]
            assert caps["supports_partitions"]
        finally:
            server.close()
