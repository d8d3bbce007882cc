"""Overload behaviour: admission control, TTL and size eviction.

Everything here is deterministic: a gated backend holds the engine's solve
lock while other threads wait for it, so the waiting set is known exactly;
cache-expiry tests drive a fake clock.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.pool import ResultCache
from repro.api.session import ThermalSession
from repro.serving.backends import Backend, build_backends
from repro.serving.engine import MicroBatchEngine, QueueFullError
from repro.serving.request import ThermalRequest, ThermalResult

RES = 8


def _request(backend="fvm", power=20.0, chip="chip1"):
    return ThermalRequest.create(
        chip, total_power_W=power, resolution=RES, backend=backend
    )


class _GatedBackend(Backend):
    """Blocks inside solve_batch until released (deterministic busy solver)."""

    def __init__(self, name="fvm"):
        self.name = name
        self.entered = threading.Event()
        self.release = threading.Event()

    def solve_batch(self, requests):
        self.entered.set()
        assert self.release.wait(timeout=60), "test forgot to release the gate"
        return [
            ThermalResult(
                request_id=r.request_id, chip=r.chip, resolution=r.resolution,
                backend=self.name, max_K=350.0, min_K=300.0, mean_K=320.0,
                total_power_W=r.total_power_W,
            )
            for r in requests
        ]


def _wait_for(predicate, timeout=30.0):
    """Poll until ``predicate()`` holds (the waiters run on other threads)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


class TestAdmissionControl:
    def test_queue_full_rejects_fast(self):
        gated = _GatedBackend()
        engine = MicroBatchEngine({"fvm": gated}, max_queue=2)
        with engine, ThreadPoolExecutor(max_workers=3) as pool:
            # One request holds the solver; two more wait for it.
            holder = pool.submit(engine.solve, _request(power=20))
            assert gated.entered.wait(timeout=60)
            waiters = [pool.submit(engine.solve, _request(power=p)) for p in (21, 22)]
            _wait_for(lambda: engine.stats()["queue_depth"] == 2)
            with pytest.raises(QueueFullError, match="overloaded"):
                engine.solve(_request(power=23))
            assert engine.stats()["rejected_requests"] == 1
            # The admitted requests still complete once the solver frees up.
            gated.release.set()
            for future in [holder, *waiters]:
                assert future.result(timeout=60).max_K == 350.0
        assert engine.stats()["total_requests"] == 3
        assert engine.stats()["queue_depth"] == 0

    def test_dispatch_frees_queue_slots(self):
        """A request holding the solve lock no longer counts as waiting."""
        gated = _GatedBackend()
        engine = MicroBatchEngine({"fvm": gated}, max_queue=1)
        with engine, ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(engine.solve, _request(power=20))
            assert gated.entered.wait(timeout=60)
            assert engine.stats()["queue_depth"] == 0
            second = pool.submit(engine.solve, _request(power=21))
            _wait_for(lambda: engine.stats()["queue_depth"] == 1)
            gated.release.set()
            assert first.result(timeout=60).max_K == 350.0
            assert second.result(timeout=60).max_K == 350.0
        assert engine.stats()["rejected_requests"] == 0

    def test_unbounded_by_default(self):
        gated = _GatedBackend()
        engine = MicroBatchEngine({"fvm": gated})
        with engine, ThreadPoolExecutor(max_workers=33) as pool:
            holder = pool.submit(engine.solve, _request(power=20))
            assert gated.entered.wait(timeout=60)
            waiters = [
                pool.submit(engine.solve, _request(power=21 + index))
                for index in range(32)
            ]
            _wait_for(lambda: engine.stats()["queue_depth"] == 32)
            gated.release.set()
            for future in [holder, *waiters]:
                future.result(timeout=60)
        assert engine.stats()["total_requests"] == 33

    def test_max_queue_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            MicroBatchEngine(build_backends(), max_queue=0)


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestResultCacheTTL:
    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = ResultCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("a", "answer", 16)
        assert cache.get("a") == "answer"
        clock.advance(9.999)
        assert cache.get("a") == "answer"
        clock.advance(0.001)  # exactly at the TTL boundary -> expired
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["entries"] == 0
        assert stats["evictions"] == 0  # expiry is not an LRU eviction
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_put_sweeps_expired_entries_under_bound_pressure(self):
        """When an insert would otherwise LRU-evict, expired entries are
        swept first and counted as expirations, not evictions."""
        clock = FakeClock()
        cache = ResultCache(capacity=2, ttl_s=5.0, clock=clock)
        cache.put("a", "old", 16)
        cache.put("b", "old", 16)
        clock.advance(6.0)
        cache.put("c", "new", 16)  # at capacity -> sweep, not LRU eviction
        stats = cache.stats()
        assert stats["expirations"] == 2
        assert stats["evictions"] == 0
        assert stats["entries"] == 1
        assert cache.get("c") == "new"

    def test_put_without_pressure_skips_the_sweep(self):
        """No bound pressure -> O(1) insert; expired entries linger until a
        get() reaps them or pressure triggers a sweep."""
        clock = FakeClock()
        cache = ResultCache(capacity=8, ttl_s=5.0, clock=clock)
        cache.put("a", "old", 16)
        clock.advance(6.0)
        cache.put("b", "new", 16)
        assert len(cache) == 2  # 'a' still resident, just dead
        assert cache.get("a") is None  # lazily reaped on access
        assert cache.stats()["expirations"] == 1

    def test_reinsert_refreshes_the_ttl(self):
        clock = FakeClock()
        cache = ResultCache(capacity=8, ttl_s=10.0, clock=clock)
        cache.put("a", "v1", 16)
        clock.advance(8.0)
        cache.put("a", "v2", 16)
        clock.advance(8.0)  # 16s after first insert, 8s after refresh
        assert cache.get("a") == "v2"

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(ttl_s=0.0)

    def test_session_ttl_expires_cached_answers(self):
        clock = FakeClock()
        session = ThermalSession(
            result_cache=ResultCache(capacity=8, ttl_s=30.0, clock=clock)
        )
        first = session.solve("chip1", total_power_W=20, resolution=RES)
        assert not first.cached
        assert session.solve("chip1", total_power_W=20, resolution=RES).cached
        clock.advance(31.0)
        stale = session.solve("chip1", total_power_W=20, resolution=RES)
        assert not stale.cached
        assert session.stats()["result_cache"]["expirations"] == 1
        # The recomputed answer is identical and re-cached.
        assert stale.max_K == first.max_K
        assert session.solve("chip1", total_power_W=20, resolution=RES).cached

    def test_session_rejects_conflicting_cache_configuration(self):
        with pytest.raises(ValueError, match="not both"):
            ThermalSession(result_cache=ResultCache(), result_cache_ttl_s=5.0)


class TestSizeAwareEviction:
    def test_byte_budget_evicts_lru_first(self):
        cache = ResultCache(capacity=100, max_bytes=100)
        cache.put("a", "A", 40)
        cache.put("b", "B", 40)
        cache.get("a")  # refresh 'a' -> 'b' is now least recently used
        cache.put("c", "C", 40)
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        stats = cache.stats()
        assert stats["evictions_bytes"] == 1
        assert stats["evictions_count"] == 0
        assert stats["evictions"] == 1
        assert stats["bytes"] <= 100

    def test_count_and_byte_evictions_are_counted_separately(self):
        by_count = ResultCache(capacity=2, max_bytes=1000)
        for key in ("a", "b", "c"):
            by_count.put(key, key, 10)
        assert by_count.stats()["evictions_count"] == 1
        assert by_count.stats()["evictions_bytes"] == 0

        by_bytes = ResultCache(capacity=100, max_bytes=25)
        for key in ("a", "b", "c"):
            by_bytes.put(key, key, 10)
        assert by_bytes.stats()["evictions_count"] == 0
        assert by_bytes.stats()["evictions_bytes"] == 1
        assert by_bytes.stats()["evictions"] == 1

    def test_session_surfaces_eviction_counters(self):
        session = ThermalSession(result_cache_max_bytes=1)
        # Summary answers are ~512 bytes, far above the 1-byte budget, so
        # nothing caches (oversized single answers are skipped outright).
        session.solve("chip1", total_power_W=20, resolution=RES)
        stats = session.stats()["result_cache"]
        assert set(stats) >= {
            "evictions", "evictions_count", "evictions_bytes", "expirations",
            "ttl_s", "max_bytes",
        }
        assert stats["entries"] == 0
