"""LRU result cache: hit/miss accounting, eviction order, fingerprints."""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graph.builders import from_edge_arrays
from repro.graph.generators import kronecker
from repro.core.engine import IBFSConfig
from repro.runtime.spec import engine_key
from repro.service.cache import ResultCache, graph_cache_id


def row(n):
    return np.full(4, n, dtype=np.int32)


class TestHitMiss:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = cache.key("g", 1, "e", None)
        assert cache.get(key) is None
        cache.put(key, row(1))
        got = cache.get(key)
        assert got is not None and got[0] == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_distinct_keys_do_not_alias(self):
        cache = ResultCache(capacity=8)
        cache.put(cache.key("g", 1, "e", None), row(1))
        assert cache.get(cache.key("g", 2, "e", None)) is None
        assert cache.get(cache.key("g2", 1, "e", None)) is None
        assert cache.get(cache.key("g", 1, "e2", None)) is None
        assert cache.get(cache.key("g", 1, "e", 3)) is None

    def test_hit_rate_zero_before_lookups(self):
        assert ResultCache(capacity=4).hit_rate == 0.0


class TestEviction:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        a, b, c = (ResultCache.key("g", i, "e", None) for i in (1, 2, 3))
        cache.put(a, row(1))
        cache.put(b, row(2))
        cache.get(a)  # refresh a: b is now least recently used
        cache.put(c, row(3))
        assert cache.get(b) is None  # evicted
        assert cache.get(a) is not None
        assert cache.get(c) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = ResultCache(capacity=2)
        a, b, c = (ResultCache.key("g", i, "e", None) for i in (1, 2, 3))
        cache.put(a, row(1))
        cache.put(b, row(2))
        cache.put(a, row(10))  # refresh via put
        cache.put(c, row(3))
        assert cache.get(b) is None
        assert cache.get(a)[0] == 10

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(capacity=0)
        key = cache.key("g", 1, "e", None)
        cache.put(key, row(1))
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=-1)


class TestCompactRows:
    def test_put_copies_views(self):
        cache = ResultCache(capacity=2)
        matrix = np.arange(8, dtype=np.int32).reshape(2, 4)
        cache.put(cache.key("g", 0, "e", None), matrix[0])
        stored = cache.get(cache.key("g", 0, "e", None))
        assert stored.base is None
        assert np.array_equal(stored, matrix[0])

    def test_put_keeps_owned_rows(self):
        cache = ResultCache(capacity=2)
        owned = row(3)
        cache.put(cache.key("g", 0, "e", None), owned)
        assert cache.get(cache.key("g", 0, "e", None)) is owned


class TestFingerprints:
    def test_graph_id_is_content_stable(self):
        a = kronecker(scale=6, edge_factor=4, seed=9)
        b = kronecker(scale=6, edge_factor=4, seed=9)
        c = kronecker(scale=6, edge_factor=4, seed=10)
        assert graph_cache_id(a) == graph_cache_id(b)
        assert graph_cache_id(a) != graph_cache_id(c)

    def test_graph_id_is_pinned(self):
        # Cache keys, shm segment names and recorded plans all carry
        # this string; the CRC must not change with how it is computed.
        graph = from_edge_arrays(
            np.asarray([0, 0, 1, 2, 3, 3]),
            np.asarray([1, 2, 2, 0, 3, 1]),
            num_vertices=5,
        )
        assert graph_cache_id(graph) == "csr-5-6-5864e754"

    def test_engine_key_tracks_config(self):
        base = engine_key(IBFSConfig())
        assert engine_key(IBFSConfig()) == base
        assert engine_key(IBFSConfig(mode="joint")) != base
        assert engine_key(IBFSConfig(group_size=16)) != base
        assert engine_key(IBFSConfig(early_termination=False)) != base

    def test_stats_payload(self):
        cache = ResultCache(capacity=2)
        key = cache.key("g", 1, "e", None)
        cache.get(key)
        cache.put(key, row(1))
        cache.get(key)
        stats = cache.stats()
        assert stats == {
            "capacity": 2,
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
            "hit_rate": 0.5,
        }
