"""The serving hot path: a cache hit's cost and its memoized answer.

* A hit reads the same number of pending-request fields whatever the
  pool size (the flush triggers and expiry read counters, not the
  pool), and a second hit on one cached row does not reduce the row
  again.
* A burst of queued timeouts is answered once each, in pool order.
* The memoized answers follow their row: through eviction, and through
  the epoch swaps of a dynamic server (repair carries the rows a batch
  leaves unchanged with their answers and replaces the rest, recompute
  purges them), every ``bfs`` value equals the reached count of the
  response's own depth row and every ``closeness`` value equals the
  score of a scratch traversal on the graph it was served on.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bfs.reference import reference_bfs
from repro.graph.generators import kronecker
from repro.service import BFSServer, ServingConfig
from repro.service.request import PendingRequest, Request
from repro.stream import DynamicBFSServer
from repro.stream.repair import RECOMPUTE, REPAIR


@pytest.fixture(scope="module")
def graph():
    return kronecker(scale=7, edge_factor=6, seed=5)


def hit_costs(graph, monkeypatch, pool_size):
    """Pending-request field reads during one hit with ``pool_size``
    requests queued, and ``np.count_nonzero`` calls during a second
    hit on the same row."""
    server = BFSServer(graph, ServingConfig(
        batch_size=4, flush_deadline=1.0, queue_capacity=512,
    ))
    server.submit(Request(source=0))
    server.drain()
    # Each queued request has its own depth limit, so no cohort fills a
    # batch, and the 1 s flush deadline never comes.
    for i in range(pool_size):
        server.submit(Request(source=1 + i % 7, max_depth=i + 1))
    assert len(server.batcher) == pool_size

    reads = Counter()
    plain = PendingRequest.__getattribute__

    def counting(self, name):
        if name in ("max_depth", "deadline"):
            reads[name] += 1
        return plain(self, name)

    monkeypatch.setattr(PendingRequest, "__getattribute__", counting)
    first = server.submit(Request(source=0))
    monkeypatch.undo()

    calls = []
    count_nonzero = np.count_nonzero

    def counted(*args, **kwargs):
        calls.append(1)
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counted)
    second = server.submit(Request(source=0))
    monkeypatch.undo()
    values = {r.request_id: r for r in server.take_completed()}
    assert values[first].cached and values[second].cached
    assert values[first].value == values[second].value
    assert len(server.batcher) == pool_size
    return reads, len(calls)


def test_expiry_answers_a_burst_once_in_pool_order(graph):
    server = BFSServer(graph, ServingConfig(
        batch_size=64, flush_deadline=1.0, queue_capacity=512,
    ))
    # Own depth limits keep every request in its own cohort; the even
    # ones time out at 1 ms, the odd ones at 2 ms.
    ids = [
        server.submit(Request(source=i % 9, max_depth=i + 1,
                              timeout=1e-3 * (1 + i % 2)))
        for i in range(100)
    ]
    server.submit(Request(source=3), arrival_time=0.5)
    done = server.take_completed()
    assert [r.request_id for r in done] == ids[0::2] + ids[1::2]
    assert all(r.status == "timeout" for r in done)
    assert [r.completion_time for r in done] == [1e-3] * 50 + [2e-3] * 50
    assert len(server.batcher) == 1


def test_hit_cost_does_not_grow_with_the_pool(graph, monkeypatch):
    small_reads, small_calls = hit_costs(graph, monkeypatch, 8)
    large_reads, large_calls = hit_costs(graph, monkeypatch, 200)
    assert small_reads == large_reads
    assert small_calls == large_calls == 0


REQUESTS = [
    Request(source=s, kind=kind)
    for s, kind in zip(
        [0, 1, 2, 0, 3, 1, 4, 5, 0, 6, 2, 7, 8, 0, 1, 9, 3, 10, 0, 2],
        ["bfs", "closeness"] * 10,
    )
]


def check_answers(server, responses):
    """Every ok answer against its own row, or a scratch traversal of
    the graph the server is on; the memo never outlives a cached row."""
    for r in responses:
        assert r.ok
        if r.request.kind == "bfs":
            assert r.value == np.count_nonzero(r.depths >= 0)
        else:
            row = reference_bfs(server.graph, r.request.source)
            assert r.value == server._answer(r.request, row)
    cached = {key for key, _ in server.cache.items()}
    assert set(server.cache._answers) <= cached


def serve_round(server):
    for request in REQUESTS:
        server.submit(request)
    responses = server.drain()
    check_answers(server, responses)
    return responses


def test_memoized_answers_follow_evicted_rows(graph):
    server = BFSServer(graph, ServingConfig(
        batch_size=4, cache_capacity=3, return_depths=True,
    ))
    responses = serve_round(server) + serve_round(server)
    assert server.cache.evictions > 0
    assert any(r.cached for r in responses)


def touch_cached_rows(server):
    """Hit every cached row, so each carries its memo into a swap."""
    for key, _ in server.cache.items():
        server.submit(Request(source=key[1], max_depth=key[3]))
    responses = server.drain()
    assert all(r.cached for r in responses)
    check_answers(server, responses)
    assert server.cache._answers


def test_memoized_answers_follow_repaired_and_purged_rows(graph):
    server = DynamicBFSServer(graph, ServingConfig(
        batch_size=4, cache_capacity=6, return_depths=True,
    ))
    with server:
        serve_round(server)
        touch_cached_rows(server)
        # Insert-only: cached rows move to the new epoch; new edges from
        # the hot sources change their rows, and so their answers.
        far = np.flatnonzero(reference_bfs(server.graph, 0) < 0)[:3]
        record = server.mutate(inserts=([0, 1, 2][: len(far)], list(far)))
        assert record.decision == REPAIR
        check_answers(server, [])
        serve_round(server)
        touch_cached_rows(server)
        # A delete forces recompute: cached rows are purged.
        src = int(np.repeat(np.arange(server.graph.num_vertices),
                            np.diff(server.graph.row_offsets))[0])
        record = server.mutate(
            deletes=([src], [int(server.graph.col_indices[0])])
        )
        assert record.decision == RECOMPUTE
        check_answers(server, [])
        serve_round(server)
        assert server.cache.evictions > 0
