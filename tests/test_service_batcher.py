"""Micro-batcher: flush triggers, cohorts, coalescing, GroupBy formation."""

import pytest

from repro.errors import ServiceError
from repro.graph.generators import kronecker
from repro.service.batcher import MicroBatcher
from repro.service.request import PendingRequest, Request


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=8, edge_factor=8, seed=3)


def make_pending(request_id, source, arrival, max_depth=None):
    return PendingRequest(
        request_id=request_id,
        request=Request(source=source, max_depth=max_depth),
        arrival_time=arrival,
    )


class TestFlushTriggers:
    def test_size_ready_counts_requests(self, graph):
        batcher = MicroBatcher(graph, batch_size=3, flush_deadline=1.0)
        batcher.add(make_pending(0, 1, 0.0))
        batcher.add(make_pending(1, 2, 0.0))
        assert not batcher.size_ready()
        batcher.add(make_pending(2, 3, 0.0))
        assert batcher.size_ready()

    def test_repeat_sources_still_trigger_size_flush(self, graph):
        batcher = MicroBatcher(graph, batch_size=3, flush_deadline=1.0)
        for i in range(3):
            batcher.add(make_pending(i, 7, 0.0))
        assert batcher.size_ready()
        sources, batch = batcher.take_batch()
        assert sources == [7]
        assert len(batch) == 3
        assert len(batcher) == 0

    def test_deadline_is_oldest_arrival_plus_deadline(self, graph):
        batcher = MicroBatcher(graph, batch_size=8, flush_deadline=0.5)
        assert batcher.deadline_at() is None
        batcher.add(make_pending(0, 1, arrival=2.0))
        batcher.add(make_pending(1, 2, arrival=3.0))
        assert batcher.deadline_at() == pytest.approx(2.5)
        assert not batcher.deadline_ready(2.4)
        assert batcher.deadline_ready(2.5)

    def test_deadline_not_size(self, graph):
        """A partial pool flushes by deadline, never by size."""
        batcher = MicroBatcher(graph, batch_size=8, flush_deadline=0.5)
        batcher.add(make_pending(0, 1, 0.0))
        assert not batcher.size_ready()
        assert batcher.deadline_ready(0.5)


class TestCohorts:
    def test_mixed_depth_limits_do_not_batch_together(self, graph):
        batcher = MicroBatcher(graph, batch_size=2, flush_deadline=1.0)
        batcher.add(make_pending(0, 1, 0.0, max_depth=2))
        batcher.add(make_pending(1, 2, 0.0, max_depth=None))
        # Only one request matches the oldest's depth limit.
        assert not batcher.size_ready()
        sources, batch = batcher.take_batch()
        assert sources == [1]
        assert [p.request_id for p in batch] == [0]
        assert len(batcher) == 1  # the max_depth=None request remains


class TestBatchFormation:
    def test_batch_contains_oldest_request(self, graph):
        batcher = MicroBatcher(graph, batch_size=4, flush_deadline=1.0)
        for i, source in enumerate([30, 31, 32, 33, 34, 35]):
            batcher.add(make_pending(i, source, float(i)))
        sources, batch = batcher.take_batch()
        assert 30 in sources
        assert any(p.request_id == 0 for p in batch)
        assert len(sources) <= 4
        assert len(batcher) == 6 - len(batch)

    def test_fifo_formation_without_groupby(self, graph):
        batcher = MicroBatcher(
            graph, batch_size=2, flush_deadline=1.0, groupby=False
        )
        for i, source in enumerate([5, 9, 11]):
            batcher.add(make_pending(i, source, 0.0))
        sources, batch = batcher.take_batch()
        assert sources == [5, 9]
        assert len(batcher) == 1

    def test_groupby_batches_have_distinct_sources(self, graph):
        batcher = MicroBatcher(graph, batch_size=8, flush_deadline=1.0)
        for i in range(16):
            batcher.add(make_pending(i, i % 8, 0.0))
        sources, batch = batcher.take_batch()
        assert len(sources) == len(set(sources))
        # Every taken request's source is in the announced group.
        assert {p.source for p in batch} <= set(sources)

    def test_requeue_front_puts_retries_first_oldest_first(self, graph):
        batcher = MicroBatcher(graph, batch_size=8, flush_deadline=1.0)
        batcher.add(make_pending(9, 40, 5.0))
        retry = [
            make_pending(1, 11, 2.0),
            make_pending(2, 12, 1.0),
            make_pending(3, 13, 2.0),
        ]
        batcher.requeue_front(retry)
        # Oldest first; the two arrivals at t=2.0 come back in the
        # reverse of their given order, as the server's retry path has
        # always queued them; newer pending traffic stays behind.
        assert [p.request_id for p in batcher.pending] == [2, 3, 1, 9]
        assert batcher.deadline_at() == pytest.approx(2.0)

    def test_drop_removes_request(self, graph):
        batcher = MicroBatcher(graph, batch_size=8, flush_deadline=1.0)
        item = make_pending(0, 1, 0.0)
        batcher.add(item)
        batcher.drop(item)
        assert len(batcher) == 0
        assert batcher.deadline_at() is None


class TestValidation:
    def test_bad_parameters_rejected(self, graph):
        with pytest.raises(ServiceError):
            MicroBatcher(graph, batch_size=0, flush_deadline=1.0)
        with pytest.raises(ServiceError):
            MicroBatcher(graph, batch_size=4, flush_deadline=0.0)

    def test_take_batch_on_empty_raises(self, graph):
        batcher = MicroBatcher(graph, batch_size=4, flush_deadline=1.0)
        with pytest.raises(ServiceError):
            batcher.take_batch()
