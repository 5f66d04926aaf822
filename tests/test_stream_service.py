"""Epoch-aware serving: mutation barriers, cache repair, epoch metrics."""

import numpy as np
import pytest

from repro.errors import ServiceError, StreamError
from repro.graph.generators import kronecker
from repro.obs import tracing
from repro.runtime import SubstrateSpec
from repro.service import (
    BFSServer,
    ChurnConfig,
    ServingConfig,
    WorkloadConfig,
    run_closed_loop,
)
from repro.service.request import Request
from repro.stream import DynamicBFSServer
from repro.stream.repair import RECOMPUTE, REPAIR


def graph(seed=3):
    return kronecker(scale=7, edge_factor=6, seed=seed)


def serving(**kw):
    base = dict(batch_size=8, cache_capacity=256, return_depths=True)
    base.update(kw)
    return ServingConfig(**base)


def ask(server, source, max_depth=None):
    rid = server.submit(Request(source=source, kind="bfs",
                                max_depth=max_depth))
    for resp in server.drain():
        if resp.request_id == rid:
            return resp
    raise AssertionError("no response")


class TestMutationBarrier:
    def test_queries_after_mutation_see_new_graph(self):
        g = graph()
        with DynamicBFSServer(g, serving()) as server:
            n = g.num_vertices
            # Find a vertex unreachable from source 0.
            before = ask(server, 0).depths
            far = int(np.flatnonzero(before < 0)[0]) if (before < 0).any() \
                else None
            if far is None:
                pytest.skip("graph fully reachable from 0")
            record = server.mutate(inserts=([0], [far]))
            assert record.epoch == 1
            after = ask(server, 0).depths
            assert after[far] == 1

    def test_mutation_is_a_barrier_for_inflight_requests(self):
        g = graph(seed=4)
        # Tiny deadline so nothing flushes before the mutation barrier.
        with DynamicBFSServer(
            g, serving(batch_size=64, flush_deadline=10.0)
        ) as server:
            before = np.asarray(
                BFSServer(g, serving()).substrate.run_group([5]).depths[0]
            )
            server.submit(Request(source=5, kind="bfs"))
            record = server.mutate(inserts=([5], [7]))
            # The queued request flushed against the OLD epoch.
            done = server.take_completed()
            assert len(done) == 1
            assert np.array_equal(done[0].depths, before)
            assert record.epoch == 1

    def test_empty_mutation_is_noop(self):
        with DynamicBFSServer(graph(), serving()) as server:
            record = server.mutate()
            assert record.decision == "noop"
            epochs = server.substrate.epochs
            assert epochs.current_epoch == 0
            assert server._graph_id == epochs.current.graph_id

    def test_mutation_before_clock_rejected(self):
        with DynamicBFSServer(graph(), serving()) as server:
            ask(server, 0)
            with pytest.raises(ServiceError):
                server.mutate(inserts=([0], [1]), arrival_time=-1.0)

    def test_executor_backend_refused(self):
        class FakeExecutor:
            pass

        with pytest.raises(ServiceError):
            DynamicBFSServer(graph(), serving(), executor=FakeExecutor())


class TestRefusedMutation:
    def test_refused_batch_changes_nothing(self):
        with DynamicBFSServer(
            graph(), serving(flush_deadline=10.0)
        ) as server:
            ask(server, 0)
            server.submit(Request(source=5, kind="bfs"))
            clock = server.clock
            epochs = server.substrate.epochs
            with pytest.raises(StreamError):
                server.mutate(
                    inserts=([1, 2], [3, 4]),
                    deletes=([0], [10**6]),
                    arrival_time=clock + 1.0,
                )
            # Neither queued, nor flushed, nor published, nor advanced.
            assert not server.substrate.overlay.has_pending
            assert epochs.current_epoch == 0
            assert server.clock == clock
            assert len(server.batcher) == 1
            assert server.epoch_records == []
            record = server.mutate(inserts=([5], [6]))
            assert (record.epoch, record.inserts, record.deletes) == (1, 1, 0)


class TestCacheAcrossEpochs:
    def test_insert_batch_repairs_cached_rows_bit_identically(self):
        g = graph(seed=5)
        with DynamicBFSServer(g, serving()) as server:
            sources = [0, 1, 2, 3]
            for s in sources:
                ask(server, s)
            record = server.mutate(inserts=([0, 1], [9, 11]))
            assert record.decision == REPAIR
            assert record.rows_repaired >= len(sources)
            # Post-mutation answers come from the repaired cache...
            responses = {s: ask(server, s) for s in sources}
            assert all(r.cached for r in responses.values())
            # ...and are bit-identical to a fresh server on the new graph.
            fresh = BFSServer(server.graph, serving())
            scratch = fresh.substrate.run_group(sources).depths
            for i, s in enumerate(sources):
                assert np.array_equal(responses[s].depths, scratch[i])

    def test_repair_span_counts_changed_rows(self):
        g = graph(seed=5)
        with DynamicBFSServer(g, serving()) as server:
            sources = [0, 1, 2, 3]
            before = {s: ask(server, s).depths for s in sources}
            far = np.flatnonzero(before[0] < 0)
            dst = int(far[0]) if far.size else 9
            tracer = tracing.configure(process="test")
            try:
                record = server.mutate(inserts=([0], [dst]))
            finally:
                tracing.set_tracer(None)
            assert record.decision == REPAIR
            after = {s: ask(server, s).depths for s in sources}
            changed = sum(
                not np.array_equal(before[s], after[s]) for s in sources
            )
            assert changed >= 1
            (span,) = [s for s in tracer.drain() if s.name == "stream.repair"]
            assert span.attrs["rows_repaired"] == record.rows_repaired == 4
            assert span.attrs["rows_changed"] == changed
            assert span.attrs["repair_rounds"] == record.repair_rounds

    def test_delete_batch_drops_cached_rows(self):
        g = graph(seed=6)
        with DynamicBFSServer(g, serving()) as server:
            for s in (0, 1):
                ask(server, s)
            src = int(np.repeat(np.arange(g.num_vertices),
                                np.diff(g.row_offsets))[0])
            dst = int(g.col_indices[0])
            record = server.mutate(deletes=([src], [dst]))
            assert record.decision == RECOMPUTE
            assert record.rows_dropped == 2
            assert record.rows_repaired == 0
            assert not ask(server, 0).cached

    def test_plan_cache_purged_on_epoch_swap(self):
        with DynamicBFSServer(graph(seed=7), serving()) as server:
            ask(server, 0)
            assert len(server.plan_cache) > 0
            record = server.mutate(inserts=([0], [3]))
            assert record.plans_purged > 0
            assert len(server.plan_cache) == 0

    def test_invalidations_surface_in_cache_stats(self):
        g = graph(seed=8)
        with DynamicBFSServer(g, serving()) as server:
            ask(server, 0)
            src, dst = int(g.col_indices[0]), 0  # delete needs a real edge
            sa, da = g.edge_array()
            server.mutate(deletes=([int(sa[0])], [int(da[0])]))
            stats = server.cache.stats()
            assert stats["invalidations"] == 1
            assert server.plan_cache.stats()["invalidations"] >= 1


class TestEpochMetrics:
    def test_metrics_snapshot_epochs_section(self):
        with DynamicBFSServer(graph(seed=9), serving()) as server:
            ask(server, 0)
            server.mutate(inserts=([0], [5]))
            ask(server, 1)
            sa, da = server.graph.edge_array()
            server.mutate(deletes=([int(sa[0])], [int(da[0])]))
            payload = server.metrics_snapshot()
            epochs = payload["epochs"]
            assert epochs["current_epoch"] == 2
            assert epochs["published"] == 2
            assert epochs["repairs"] == 1
            assert epochs["recomputes"] == 1
            assert epochs["rows_repaired"] >= 1
            assert epochs["rows_dropped"] >= 1
            assert epochs["plans_purged"] >= 1
            assert len(epochs["history"]) == 2
            first = epochs["history"][0]
            assert first["epoch"] == 1 and first["decision"] == REPAIR

    def test_superseded_epochs_reclaimed(self):
        with DynamicBFSServer(graph(seed=10), serving()) as server:
            for v in range(3):
                server.mutate(inserts=([v], [v + 1]))
            assert server.substrate.epochs.current_epoch == 3
            assert server.metrics_snapshot()["epochs"][
                "reclaimed_epochs"] == 3


class TestPartitionedEpochs:
    def test_partitioned_server_swaps_substrate(self):
        g = graph(seed=11)
        with DynamicBFSServer(
            g, serving(),
            substrate=SubstrateSpec(kind="partitioned", partitions=2),
        ) as server:
            before = ask(server, 0).depths
            server.mutate(inserts=([0], [int(np.flatnonzero(
                np.asarray(before) < 0)[0])] if (
                np.asarray(before) < 0).any() else [1]))
            after = ask(server, 0).depths
            scratch = BFSServer(server.graph, serving()).substrate.run_group(
                [0]
            ).depths[0]
            assert np.array_equal(after, scratch)
            partitioned = server.substrate.partitioned_engine
            assert partitioned is not None
            assert partitioned.graph is server.graph


class TestChurnLoop:
    def test_churn_loop_completes_and_publishes(self):
        server = DynamicBFSServer(graph(seed=12), serving())
        try:
            result = run_closed_loop(
                server,
                WorkloadConfig(num_requests=96, num_clients=8, seed=1),
                ChurnConfig(mutate_every=24, inserts_per_batch=4),
            )
            records = server.epoch_records
        finally:
            server.close()
        assert result.completed == 96
        assert len(records) >= 2
        assert all(r.decision in (REPAIR, RECOMPUTE) for r in records)
        assert result.metrics["epochs"]["published"] == len(records)

    def test_churn_loop_is_deterministic(self):
        def run():
            server = DynamicBFSServer(graph(seed=13), serving())
            try:
                result = run_closed_loop(
                    server,
                    WorkloadConfig(num_requests=64, num_clients=8, seed=2),
                    ChurnConfig(mutate_every=16, inserts_per_batch=4,
                                deletes_per_batch=2, seed=5),
                )
                records = server.epoch_records
            finally:
                server.close()
            depths = {
                r.request_id: None if r.depths is None else r.depths.tolist()
                for r in result.responses
            }
            return depths, [rec.to_dict() for rec in records]

        assert run() == run()

    def test_churn_config_validation(self):
        with pytest.raises(ServiceError):
            ChurnConfig(mutate_every=-1)
        with pytest.raises(ServiceError):
            ChurnConfig(inserts_per_batch=0, deletes_per_batch=0)
