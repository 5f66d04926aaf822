"""BFSServer: admission control, timeouts, retries, caching, metrics."""

import numpy as np
import pytest

from repro.errors import QueueFullError, ServiceError, TraversalError
from repro.graph.generators import kronecker
from repro.bfs.reference import reference_bfs
from repro.service import (
    BFSServer,
    InProcessClient,
    Request,
    ServingConfig,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
)
from repro.apps.closeness import closeness_centrality
from repro.core.engine import IBFS, IBFSConfig


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=8, edge_factor=8, seed=3)


class TestRequestValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown request kind"):
            Request(source=0, kind="pagerank")

    def test_reachability_needs_target(self):
        with pytest.raises(ServiceError, match="target"):
            Request(source=0, kind="reachability")

    def test_closeness_rejects_depth_limit(self):
        with pytest.raises(ServiceError, match="full traversal"):
            Request(source=0, kind="closeness", max_depth=2)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ServiceError, match="timeout"):
            Request(source=0, timeout=0.0)

    def test_out_of_range_source_rejected(self, graph):
        server = BFSServer(graph)
        with pytest.raises(ServiceError, match="out of range"):
            server.submit(Request(source=graph.num_vertices))

    def test_nonmonotone_arrivals_rejected(self, graph):
        server = BFSServer(graph)
        server.submit(Request(source=0), arrival_time=1.0)
        with pytest.raises(ServiceError, match="before the server clock"):
            server.submit(Request(source=1), arrival_time=0.5)


class TestBackpressure:
    def test_queue_full_sheds_with_typed_error(self, graph):
        server = BFSServer(
            graph,
            ServingConfig(
                batch_size=64, flush_deadline=10.0, queue_capacity=3,
                cache_capacity=0,
            ),
        )
        for source in (1, 2, 3):
            server.submit(Request(source=source), arrival_time=0.0)
        with pytest.raises(QueueFullError):
            server.submit(Request(source=4), arrival_time=0.0)
        assert server.metrics.shed == 1
        # The queued requests are still served on drain.
        responses = server.drain()
        assert sorted(r.request.source for r in responses) == [1, 2, 3]
        assert all(r.ok for r in responses)

    def test_cache_hits_bypass_the_full_queue(self, graph):
        server = BFSServer(
            graph,
            ServingConfig(batch_size=64, flush_deadline=10.0, queue_capacity=2),
        )
        server.submit(Request(source=1), arrival_time=0.0)
        server.drain()  # source 1 is now cached
        server.submit(Request(source=5), arrival_time=20.0)
        server.submit(Request(source=6), arrival_time=20.0)  # queue full
        hit = server.submit(Request(source=1), arrival_time=20.0)
        responses = {r.request_id: r for r in server.take_completed()}
        assert responses[hit].cached
        with pytest.raises(QueueFullError):
            server.submit(Request(source=7), arrival_time=20.0)


class TestTimeouts:
    def test_timeout_while_queued(self, graph):
        server = BFSServer(
            graph,
            ServingConfig(batch_size=8, flush_deadline=1.0, cache_capacity=0),
        )
        server.submit(Request(source=1, timeout=1e-4), arrival_time=0.0)
        # Advancing past the deadline (well before the 1 s flush) expires
        # the request in the queue.
        server.advance_to(0.5)
        responses = server.take_completed()
        assert len(responses) == 1
        assert responses[0].status == STATUS_TIMEOUT
        assert responses[0].latency == pytest.approx(1e-4)
        assert server.metrics.timeouts == 1

    def test_timeout_during_execution(self, graph):
        server = BFSServer(
            graph,
            ServingConfig(batch_size=2, flush_deadline=1.0, cache_capacity=0),
        )
        # Batch flushes on size at t=0; the kernel takes microseconds,
        # longer than the 1 ns budget of the first request.
        server.submit(Request(source=1, timeout=1e-9), arrival_time=0.0)
        server.submit(Request(source=2), arrival_time=0.0)
        responses = {r.request.source: r for r in server.drain()}
        assert responses[1].status == STATUS_TIMEOUT
        assert responses[1].batch_id >= 0  # it did execute
        assert responses[2].status == STATUS_OK
        assert server.metrics.timeouts == 1

    def test_default_timeout_applies(self, graph):
        server = BFSServer(
            graph,
            ServingConfig(
                batch_size=8, flush_deadline=1.0, cache_capacity=0,
                default_timeout=1e-4,
            ),
        )
        server.submit(Request(source=1), arrival_time=0.0)
        server.advance_to(1.0)
        assert server.take_completed()[0].status == STATUS_TIMEOUT


class TestRetries:
    def test_retry_once_then_succeed(self, graph):
        calls = []

        def flaky(sources):
            calls.append(list(sources))
            if len(calls) == 1:
                raise TraversalError("injected kernel failure")

        server = BFSServer(
            graph,
            ServingConfig(batch_size=2, flush_deadline=1.0, cache_capacity=0),
            fault_injector=flaky,
        )
        server.submit(Request(source=1), arrival_time=0.0)
        server.submit(Request(source=2), arrival_time=0.0)
        responses = server.drain()
        assert len(calls) == 2
        assert all(r.status == STATUS_OK for r in responses)
        assert all(r.attempts == 2 for r in responses)
        assert server.metrics.retries == 2
        assert server.metrics.failures == 0

    def test_persistent_failure_exhausts_attempts(self, graph):
        def always_fail(sources):
            raise TraversalError("injected kernel failure")

        server = BFSServer(
            graph,
            ServingConfig(batch_size=2, flush_deadline=1.0, cache_capacity=0),
            fault_injector=always_fail,
        )
        server.submit(Request(source=1), arrival_time=0.0)
        server.submit(Request(source=2), arrival_time=0.0)
        responses = server.drain()
        assert all(r.status == STATUS_FAILED for r in responses)
        assert all(r.attempts == 2 for r in responses)
        assert all("injected" in r.error for r in responses)
        assert server.metrics.failures == 2
        assert server.metrics.retries == 2


class TestCachingAndAnswers:
    def test_repeat_source_served_from_cache(self, graph):
        server = BFSServer(graph, ServingConfig(batch_size=4))
        client = InProcessClient(server)
        first = client.bfs(3)
        second = client.bfs(3)
        assert not first.cached and second.cached
        assert second.value == first.value
        assert second.latency <= first.latency
        assert server.metrics.cache_hits == 1
        # Only the first request launched a batch.
        assert server.metrics.batch_count == 1

    def test_cached_rows_own_their_memory(self, graph):
        # A view into the batch's depth matrix would keep the whole
        # matrix alive for as long as any one of its rows stays cached.
        server = BFSServer(graph, ServingConfig(batch_size=4))
        for source in (1, 2, 3, 4):
            server.submit(Request(source=source))
        server.drain()
        assert server.metrics.batch_count == 1
        rows = [row for _, row in server.cache.items()]
        assert len(rows) == 4
        assert all(row.base is None for row in rows)

    def test_bfs_value_matches_reference(self, graph):
        client = InProcessClient(BFSServer(graph))
        depths = reference_bfs(graph, 5)
        assert client.bfs(5).value == np.count_nonzero(depths >= 0)

    def test_reachability_matches_reference(self, graph):
        client = InProcessClient(BFSServer(graph))
        depths = reference_bfs(graph, 0)
        reachable = int(np.argmax(depths))  # some reachable vertex
        unreachable = np.where(depths < 0)[0]
        assert client.reachable(0, reachable)
        if unreachable.size:
            assert not client.reachable(0, int(unreachable[0]))

    def test_khop_reachability_respects_depth_limit(self, graph):
        client = InProcessClient(BFSServer(graph))
        depths = reference_bfs(graph, 0)
        far = np.where(depths >= 2)[0]
        if far.size:
            assert not client.reachable(0, int(far[0]), k=1)
            assert client.reachable(0, int(far[0]), k=int(depths[far[0]]))

    def test_closeness_matches_app(self, graph):
        client = InProcessClient(BFSServer(graph))
        engine = IBFS(graph, IBFSConfig(group_size=8))
        expected = closeness_centrality(graph, engine, sources=[7])[7]
        assert client.closeness(7) == pytest.approx(expected)

    def test_return_depths(self, graph):
        server = BFSServer(graph, ServingConfig(return_depths=True))
        response = InProcessClient(server).bfs(4)
        assert response.depths is not None
        assert np.array_equal(response.depths, reference_bfs(graph, 4))


class TestMetricsAndDevices:
    def test_snapshot_shape(self, graph):
        server = BFSServer(graph, ServingConfig(batch_size=4))
        client = InProcessClient(server)
        client.bfs(1)
        client.bfs(1)
        snap = server.metrics_snapshot()
        assert snap["requests"]["submitted"] == 2
        assert snap["requests"]["completed"] == 2
        assert snap["requests"]["cache_hits"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["batches"]["count"] == 1
        assert 0 < snap["batches"]["mean_occupancy"] <= 1
        assert snap["latency_seconds"]["p99"] >= snap["latency_seconds"]["p50"]
        assert snap["requests_per_second"] > 0
        import json

        json.dumps(snap)  # must be JSON-serializable

    def test_batch_size_clamped_by_device_capacity(self, graph):
        server = BFSServer(graph, ServingConfig(batch_size=10**9))
        assert server.batch_size <= server.substrate.effective_group_size()

    def test_multiple_devices_overlap_batches(self, graph):
        sources = list(range(16))

        def run(num_devices):
            server = BFSServer(
                graph,
                ServingConfig(
                    batch_size=4, flush_deadline=1e-6, cache_capacity=0,
                    num_devices=num_devices,
                ),
            )
            for s in sources:
                server.submit(Request(source=s), arrival_time=0.0)
            server.drain()
            return server.clock

        assert run(4) < run(1)
