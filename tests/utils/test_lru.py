"""The one LRU behind every in-process cache: eviction, building, discarding.

Recency, TTL expiry and thread safety are held by the alias tests
(``TestTTLResultCache`` in ``tests/service/test_broker.py`` and the
``QueryResultCache`` eviction and hammer tests in
``tests/core/test_batch_engine.py``); these cover the rest of the API,
with and without a TTL.
"""

from __future__ import annotations

import pytest

from repro.utils.lru import LRU


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(params=[None, 60.0], ids=["no-ttl", "ttl"])
def cache(request) -> LRU:
    return LRU(maxsize=3, ttl_s=request.param, clock=FakeClock())


def test_put_returns_the_evicted_keys(cache: LRU) -> None:
    evicted = [cache.put(key, key * 10) for key in range(5)]
    assert evicted == [[], [], [], [0], [1]]
    assert cache.get(2) == 20  # now the most recently used
    assert cache.put(5, 50) == [3]
    assert cache.put(5, 51) == []  # a refresh evicts nothing
    assert cache.stats()["evictions"] == 3
    assert len(cache) == 3


def test_get_or_build_caches_hashable_keys_only(cache: LRU) -> None:
    calls: list[int] = []

    def build() -> str:
        calls.append(1)
        return "built"

    assert cache.get_or_build(("key",), build) == "built"
    assert cache.get_or_build(("key",), build) == "built"
    assert len(calls) == 1 and len(cache) == 1
    unhashable = ("key", [1, 2])
    assert cache.get_or_build(unhashable, build) == "built"
    assert cache.get_or_build(unhashable, build) == "built"
    assert len(calls) == 3 and len(cache) == 1


def test_failed_build_stores_nothing(cache: LRU) -> None:
    def build() -> None:
        raise RuntimeError("declined")

    with pytest.raises(RuntimeError):
        cache.get_or_build("key", build)
    assert len(cache) == 0 and cache.get("key", "absent") == "absent"


def test_cached_none_is_a_hit(cache: LRU) -> None:
    assert cache.get_or_build("key", lambda: None) is None
    assert cache.get_or_build("key", lambda: "rebuilt") is None
    assert cache.stats()["hits"] == 1


def test_discard_returns_how_many_it_dropped(cache: LRU) -> None:
    for key in [("a", 1), ("b", 2), ("a", 3)]:
        cache.put(key, key[1])
    assert cache.discard(lambda key: key[0] == "a") == 2
    assert cache.discard(lambda key: key[0] == "a") == 0
    assert len(cache) == 1 and cache.get(("b", 2)) == 2
    assert cache.stats()["evictions"] == 0


def test_stats_and_clear(cache: LRU) -> None:
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert stats == {
        "size": 1,
        "maxsize": 3,
        "ttl_s": cache.ttl_s,
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "expirations": 0,
        "hit_rate": 0.5,
    }
    assert cache.hit_rate == 0.5
    cache.clear()
    assert len(cache) == 0 and cache.stats()["hits"] == cache.stats()["misses"] == 0


def test_an_empty_cache_is_falsy_but_not_none(cache: LRU) -> None:
    assert not cache and cache is not None
    cache.put("a", 1)
    assert cache


def test_purge_without_ttl_drops_nothing() -> None:
    cache = LRU(maxsize=2)
    cache.put("a", 1)
    assert cache.purge() == 0 and len(cache) == 1


def test_aliases_are_the_one_class() -> None:
    from repro.core.batch_engine import QueryResultCache
    from repro.service.broker import TTLResultCache

    assert QueryResultCache is LRU and TTLResultCache is LRU
