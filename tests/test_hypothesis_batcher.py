"""Property test: the micro-batcher's counted triggers match a scan.

``MicroBatcher`` answers its flush triggers from counters it keeps as
requests enter and leave the pool (a request count per depth limit, a
cached earliest deadline).  Random sequences of every pool operation —
``add``, ``requeue_front``, ``take_batch``, ``expire`` at a random
instant and ``drop`` — over mixed depth limits and mixed finite and
infinite deadlines must leave those answers equal to the same
quantities computed by scanning the pool, and every batch equal to the
one a scan-built cohort gives.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.groupby import group_sources
from repro.graph.generators import kronecker
from repro.service.batcher import MicroBatcher
from repro.service.request import PendingRequest, Request

GRAPH = kronecker(scale=6, edge_factor=6, seed=11)

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LIMITS = st.sampled_from([None, 1, 2])
#: A handful of timeouts so deadlines tie; None means no timeout.
TIMEOUTS = st.sampled_from([None, 0.5, 1.0, 2.0])


def request_spec():
    return st.tuples(st.integers(0, 15), LIMITS, TIMEOUTS)


OPS = st.one_of(
    st.tuples(st.just("add"), request_spec(), st.floats(0.0, 1.0)),
    st.tuples(st.just("requeue"), st.lists(request_spec(), max_size=4),
              st.floats(0.0, 3.0)),
    st.tuples(st.just("take")),
    st.tuples(st.just("expire"), st.floats(-1.0, 4.0)),
    st.tuples(st.just("drop"), st.integers(0, 63)),
)


def make(request_id, spec, arrival):
    source, limit, timeout = spec
    return PendingRequest(
        request_id=request_id,
        request=Request(source=source, max_depth=limit),
        arrival_time=arrival,
        deadline=math.inf if timeout is None else arrival + timeout,
    )


def scan_take(pool, batcher):
    """The batch a scan-built cohort gives: (sources, batch, rest)."""
    limit = pool[0].max_depth
    cohort = [p for p in pool if p.max_depth == limit]
    unique = list(dict.fromkeys(p.source for p in cohort))
    if batcher.groupby and len(unique) > 1:
        groups = group_sources(
            batcher.graph, unique, batcher.batch_size, batcher.groupby_config
        )
        chosen = next(g for g in groups if cohort[0].source in g)
    else:
        chosen = unique[: batcher.batch_size]
    batch = [p for p in cohort if p.source in set(chosen)]
    rest = [p for p in pool if all(p is not b for b in batch)]
    return list(chosen), batch, rest


def assert_matches_scan(batcher, pool):
    pending = batcher.pending
    assert len(pending) == len(pool)
    assert all(a is b for a, b in zip(pending, pool))
    if pool:
        limit = pool[0].max_depth
        cohort = sum(1 for p in pool if p.max_depth == limit)
        assert batcher.size_ready() == (cohort >= batcher.batch_size)
        assert batcher.deadline_at() == (
            pool[0].arrival_time + batcher.flush_deadline
        )
    else:
        assert not batcher.size_ready()
        assert batcher.deadline_at() is None
    assert batcher.earliest_deadline() == min(
        (p.deadline for p in pool), default=math.inf
    )


@SETTINGS
@given(
    batch_size=st.integers(1, 4),
    groupby=st.booleans(),
    ops=st.lists(st.tuples(OPS, st.booleans()), max_size=40),
)
def test_counted_triggers_match_a_scan(batch_size, groupby, ops):
    batcher = MicroBatcher(
        GRAPH, batch_size=batch_size, flush_deadline=0.25, groupby=groupby
    )
    pool = []
    clock = 0.0
    next_id = 0
    for op, check in ops:
        kind = op[0]
        if kind == "add":
            clock += op[2]
            item = make(next_id, op[1], clock)
            next_id += 1
            batcher.add(item)
            pool.append(item)
        elif kind == "requeue":
            # Retries are older than what is queued behind them.
            items = []
            for spec in op[1]:
                items.append(make(next_id, spec, max(0.0, clock - op[2])))
                next_id += 1
            batcher.requeue_front(items)
            pool[:0] = sorted(reversed(items), key=lambda p: p.arrival_time)
        elif kind == "take":
            if not pool:
                continue
            expected_sources, expected_batch, pool = scan_take(pool, batcher)
            sources, batch = batcher.take_batch()
            assert sources == expected_sources
            assert len(batch) == len(expected_batch)
            assert all(a is b for a, b in zip(batch, expected_batch))
        elif kind == "expire":
            now = max(0.0, clock + op[1])
            expected = [p for p in pool if p.deadline <= now]
            pool = [p for p in pool if p.deadline > now]
            gone = batcher.expire(now)
            assert len(gone) == len(expected)
            assert all(a is b for a, b in zip(gone, expected))
        else:
            if not pool:
                continue
            item = pool[op[1] % len(pool)]
            batcher.drop(item)
            pool = [p for p in pool if p is not item]
        # Reading the triggers recomputes a stale earliest deadline, so
        # some operations leave it unread for the next one to update.
        if check:
            assert_matches_scan(batcher, pool)
        assert len(batcher) == len(pool)
    assert_matches_scan(batcher, pool)
