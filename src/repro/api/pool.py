"""Shared caching primitives of the thermal API.

:class:`LRUPool` keeps expensive per-key resources (prepared solver
backends: geometry + exact block basis, factorised
compact networks) resident with LRU eviction.  :class:`ResultCache` memoises whole
:class:`~repro.api.solution.ThermalSolution` answers keyed by the query that
produced them, bounded three ways: entry count, total payload bytes and an
optional per-entry time-to-live.  Both are thread-safe and expose
hit/miss/eviction counters that feed the service ``/stats`` endpoint and
:meth:`ThermalSession.stats`.

Historically ``LRUPool`` lived in :mod:`repro.serving.backends`; it moved
here when the session facade took ownership of the cross-cutting state, and
the serving module re-exports it for compatibility.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Default number of prepared solvers kept resident per backend pool.
DEFAULT_POOL_SIZE = 8

#: Default number of memoised answers in a session result cache.
DEFAULT_RESULT_CACHE_SIZE = 1024

#: Default byte budget of a session result cache.  Summary-only answers are
#: a few hundred bytes, but answers carrying per-layer maps at high
#: resolutions reach megabytes each, so the cache is bounded by payload size
#: as well as entry count.
DEFAULT_RESULT_CACHE_BYTES = 128 * 1024 * 1024


class LRUPool:
    """A small thread-safe LRU cache of expensive per-key resources.

    Used for prepared solver backends (geometry + block basis, or a
    transient solver and its geometry) and HotSpot networks.  ``get`` builds
    missing entries with the supplied factory and evicts the
    least-recently-used entry beyond ``capacity``.  Hit/miss/eviction
    counters feed the service ``/stats`` endpoint.
    """

    def __init__(self, capacity: int = DEFAULT_POOL_SIZE):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, build: Callable[[], Any]):
        """The entry for ``key``, building it with ``build`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
        # Build outside the lock: a build (a block basis, or a transient or
        # HotSpot factorisation, which can take hundreds of milliseconds on a
        # big grid) must not stall readers of other keys.
        entry = build()
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def discard_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose key matches; returns how many were dropped.

        Used to invalidate stale resources, e.g. when a chip design is
        re-registered under an existing name.
        """
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[Any]:
        """The currently resident keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Occupancy and hit/miss/eviction counters for ``/stats``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class _CacheEntry(NamedTuple):
    value: Any
    size_bytes: int
    stored_at: float


class ResultCache:
    """Thread-safe memo of fully computed thermal answers.

    Keys are built by the session from ``(chip, resolution, backend,
    power-map hash, detail flags)``; a repeated query costs one dictionary
    lookup instead of a back-substitution or a forward pass.  Lookups and
    insertions are explicit (unlike :class:`LRUPool` there is no build
    callback) because batch solves want to collect all misses first and
    answer them with one batched backend call.

    Three bounds apply, each with its own eviction counter:

    * ``capacity`` — entry count, LRU eviction (``evictions_count``),
    * ``max_bytes`` — total payload bytes, LRU eviction (``evictions_bytes``),
    * ``ttl_s`` — optional per-entry time-to-live; entries older than it are
      dropped on access or during insertion sweeps (``expirations``).  A TTL
      bounds staleness for deployments whose upstream state (chip registry,
      reloaded models) changes outside the session's invalidation hooks.

    ``clock`` is injectable (monotonic seconds) so TTL behaviour is testable
    without sleeping.

    ``eviction_listener`` (assignable after construction) is called as
    ``listener(cause, key)`` — cause one of ``"count"`` / ``"bytes"`` /
    ``"ttl"`` — for every entry dropped by a bound, *outside* the cache
    lock; the session uses it to publish
    :class:`~repro.obs.events.CacheEviction` telemetry.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RESULT_CACHE_SIZE,
        max_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
        ttl_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if capacity < 1:
            raise ValueError("result cache capacity must be >= 1")
        if max_bytes < 1:
            raise ValueError("result cache byte budget must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("result cache ttl_s must be positive (or None)")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self._clock = clock or time.monotonic
        self._entries: "OrderedDict[Any, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions_count = 0
        self.evictions_bytes = 0
        self.expirations = 0
        #: Optional ``listener(cause, key)`` invoked outside the lock for
        #: every bound-driven eviction (not for explicit discard/clear).
        self.eviction_listener: Optional[Callable[[str, Any], None]] = None

    @property
    def evictions(self) -> int:
        """Total LRU evictions (count- plus byte-bound; TTL expiries apart)."""
        return self.evictions_count + self.evictions_bytes

    def _expired(self, entry: _CacheEntry, now: float) -> bool:
        return self.ttl_s is not None and now - entry.stored_at >= self.ttl_s

    def _drop(self, key) -> _CacheEntry:
        entry = self._entries.pop(key)
        self.total_bytes -= entry.size_bytes
        return entry

    def _notify_evictions(self, evicted: List[Tuple[str, Any]]) -> None:
        """Invoke the eviction listener for each (cause, key), outside the lock."""
        listener = self.eviction_listener
        if listener is None:
            return
        for cause, key in evicted:
            listener(cause, key)

    def get(self, key) -> Optional[Any]:
        """The cached entry for ``key``, counting a hit or a miss.

        An entry past its TTL counts as a miss (plus an expiration) and is
        dropped, so the caller recomputes and re-inserts a fresh answer.
        """
        expired_key = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry, self._clock()):
                self._drop(key)
                self.expirations += 1
                expired_key = key
                entry = None
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                value: Optional[Any] = entry.value
            else:
                self.misses += 1
                value = None
        if expired_key is not None:
            self._notify_evictions([("ttl", expired_key)])
        return value

    def put(self, key, value, size_bytes: int = 0) -> None:
        """Insert ``value``; ``size_bytes`` is its approximate payload size."""
        size_bytes = max(int(size_bytes), 0)
        if size_bytes > self.max_bytes:
            return  # one oversized answer must not wipe the whole cache
        now = self._clock()
        evicted: List[Tuple[str, Any]] = []
        with self._lock:
            if self.ttl_s is not None and (
                len(self._entries) >= self.capacity
                or self.total_bytes + size_bytes > self.max_bytes
            ):
                # Sweep expired entries only under bound pressure: it keeps
                # dead entries from counting as LRU evictions (the counters
                # stay diagnostic) without paying an O(capacity) scan on
                # every insert of the hot serving path.  Entries that expire
                # without pressure are reaped lazily by get().
                stale = [k for k, e in self._entries.items() if self._expired(e, now)]
                for k in stale:
                    self._drop(k)
                    self.expirations += 1
                    evicted.append(("ttl", k))
            if key in self._entries:
                self._drop(key)
            self._entries[key] = _CacheEntry(value, size_bytes, now)
            self.total_bytes += size_bytes
            while len(self._entries) > self.capacity:
                dropped_key, dropped = self._entries.popitem(last=False)
                self.total_bytes -= dropped.size_bytes
                self.evictions_count += 1
                evicted.append(("count", dropped_key))
            while self.total_bytes > self.max_bytes:
                dropped_key, dropped = self._entries.popitem(last=False)
                self.total_bytes -= dropped.size_bytes
                self.evictions_bytes += 1
                evicted.append(("bytes", dropped_key))
        self._notify_evictions(evicted)

    def discard_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry whose key matches; returns how many were dropped."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                self._drop(key)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.total_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Occupancy, bounds and per-cause eviction counters for ``/stats``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "evictions_count": self.evictions_count,
                "evictions_bytes": self.evictions_bytes,
                "expirations": self.expirations,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }
