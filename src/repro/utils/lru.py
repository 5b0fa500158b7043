"""One thread-safe LRU for every in-process cache.

Similarity batches, maintained delta states, stacked Codd grids, join and
aggregate analyses and served results are all built once and kept in an
:class:`LRU`: a bounded map with least-recently-used eviction, an optional
time-to-live and hit/miss/eviction/expiration counters, every transition
under one lock. ``QueryResultCache`` (:mod:`repro.core.batch_engine`) and
``TTLResultCache`` (:mod:`repro.service.broker`) are aliases of it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Any

from repro.utils.validation import check_positive_int

__all__ = ["LRU"]

_MISS = object()


class LRU:
    """A bounded, thread-safe least-recently-used map with an optional TTL.

    ``maxsize`` bounds the number of entries; inserting past it evicts the
    least recently used. With ``ttl_s`` set, an entry expires ``ttl_s``
    seconds (by ``clock``, injectable for deterministic tests) after it was
    stored: an expired entry counts as a miss and is dropped on sight, and
    :meth:`purge` sweeps the rest. An empty LRU is falsy (it has
    ``__len__``), so test an optional cache with ``is not None``.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.maxsize = check_positive_int(maxsize, "maxsize")
        if ttl_s is not None and not ttl_s > 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self._clock = clock
        #: key -> (expiry time or None, value), least recently used first.
        self._entries: OrderedDict[Hashable, tuple[float | None, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _lookup(self, key: Hashable) -> Any:  # caller holds the lock
        item = self._entries.get(key, _MISS)
        if item is not _MISS:
            expires, value = item
            if expires is None or self._clock() < expires:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            del self._entries[key]
            self.expirations += 1
        self.misses += 1
        return _MISS

    def _store(self, key: Hashable, value: Any) -> list[Hashable]:  # ditto
        expires = None if self.ttl_s is None else self._clock() + self.ttl_s
        self._entries[key] = (expires, value)
        self._entries.move_to_end(key)
        evicted = []
        while len(self._entries) > self.maxsize:
            evicted.append(self._entries.popitem(last=False)[0])
        self.evictions += len(evicted)
        return evicted

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The live value for ``key`` (marking it recently used), or ``default``."""
        with self._lock:
            value = self._lookup(key)
        return default if value is _MISS else value

    def put(self, key: Hashable, value: Any) -> list[Hashable]:
        """Insert or refresh an entry; returns the keys evicted to make room."""
        with self._lock:
            return self._store(key, value)

    def get_or_build(self, key: Any, build: Callable[[], Any]) -> Any:
        """The cached value for ``key``, else ``build()``'s result, stored.

        ``build`` runs outside the lock, so a slow build never blocks other
        keys (two threads missing the same key both build; the later store
        wins). A ``None`` or unhashable key is built every time and never
        cached; an exception from ``build`` propagates and stores nothing.
        """
        if key is None:
            return build()
        try:
            with self._lock:
                value = self._lookup(key)
        except TypeError:  # unhashable key
            return build()
        if value is _MISS:
            value = build()
            self.put(key, value)
        return value

    def discard(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns how many."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
        return len(stale)

    def purge(self) -> int:
        """Drop every expired entry; returns how many were dropped."""
        if self.ttl_s is None:
            return 0
        with self._lock:
            now = self._clock()
            stale = [k for k, (expires, _) in self._entries.items() if expires <= now]
            for key in stale:
                del self._entries[key]
            self.expirations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = self.expirations = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.stats()["hit_rate"]

    def stats(self) -> dict[str, int | float | None]:
        """A snapshot of size, bounds and counters, for reports and tests."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }
