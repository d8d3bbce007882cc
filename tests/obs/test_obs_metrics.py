"""Reservoir sampling, the metrics ring buffer, the watchdog and the sampler."""

import numpy as np
import pytest

from repro.obs.bus import EventBus
from repro.obs.metrics import LatencyReservoir, MetricsStore, Sampler, Watchdog


class TestLatencyReservoir:
    def test_below_capacity_keeps_everything_exactly(self):
        reservoir = LatencyReservoir(capacity=8)
        reservoir.extend([1.0, 2.0, 3.0])
        assert sorted(reservoir.values()) == [1.0, 2.0, 3.0]
        assert reservoir.dropped == 0

    def test_memory_is_bounded_and_drops_are_counted(self):
        reservoir = LatencyReservoir(capacity=16)
        reservoir.extend(float(n) for n in range(10_000))
        assert len(reservoir) == 16
        assert reservoir.seen == 10_000
        assert reservoir.dropped == 10_000 - 16

    def test_is_deterministic_for_a_seed(self):
        a, b = LatencyReservoir(16, seed=3), LatencyReservoir(16, seed=3)
        stream = [float(n) for n in range(500)]
        a.extend(stream)
        b.extend(stream)
        assert np.array_equal(a.values(), b.values())

    def test_sample_is_roughly_uniform(self):
        # Offer 0..999; a uniform sample's mean stays near the stream mean.
        reservoir = LatencyReservoir(capacity=200, seed=0)
        reservoir.extend(float(n) for n in range(1000))
        assert 350 < float(np.mean(reservoir.values())) < 650

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LatencyReservoir(0)


class TestMetricsStore:
    def test_keeps_only_numeric_fields(self):
        store = MetricsStore(capacity=4, clock=lambda: 10.0)
        row = store.add({"requests_total": 3, "backend": "fvm", "ok": True, "p99_ms": 1.5})
        assert row == {"ts": 10.0, "requests_total": 3.0, "p99_ms": 1.5}

    def test_ring_buffer_is_bounded(self):
        store = MetricsStore(capacity=3, clock=lambda: 0.0)
        for n in range(10):
            store.add({"requests_total": n}, ts=float(n))
        assert len(store) == 3
        assert [r["ts"] for r in store.samples()] == [7.0, 8.0, 9.0]
        assert store.stats() == {"capacity": 3, "samples": 3, "added": 10}

    def test_window_filters_by_timestamp(self):
        store = MetricsStore(capacity=16)
        for second in range(10):
            store.add({"requests_total": second}, ts=float(second))
        recent = store.samples(window_s=2.0)
        assert [r["ts"] for r in recent] == [7.0, 8.0, 9.0]

    def test_rollup_turns_counters_into_deltas_and_rps(self):
        store = MetricsStore(capacity=16)
        store.add({"requests_total": 100, "shed_total": 1, "queue_depth": 0,
                   "p99_ms": 5.0}, ts=0.0)
        store.add({"requests_total": 130, "shed_total": 1, "queue_depth": 7,
                   "p99_ms": 6.0}, ts=10.0)
        store.add({"requests_total": 160, "shed_total": 4, "queue_depth": 2,
                   "p99_ms": 8.0}, ts=20.0)
        rollup = store.rollup(window_s=60.0)
        assert rollup["samples"] == 3
        assert rollup["requests"] == 60.0
        assert rollup["shed"] == 3.0
        assert rollup["rps"] == 3.0  # 60 requests over a 20 s span
        assert rollup["p99_ms"] == 8.0  # latest value, already an aggregate
        assert rollup["queue_depth"] == 2.0 and rollup["queue_depth_max"] == 7.0

    def test_rollup_of_empty_store(self):
        assert MetricsStore().rollup() == {"window_s": 60.0, "samples": 0}

    def test_rows_column_ordering(self):
        store = MetricsStore()
        store.add({"b": 1, "a": 2}, ts=1.0)
        dump = store.rows()
        assert dump["fields"] == ["ts", "a", "b"]
        assert dump["samples"][0]["a"] == 2.0


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestWatchdog:
    def test_queue_saturation_fires_once_with_hysteresis(self):
        bus = EventBus()
        dog = Watchdog(bus, max_queue=10, saturation_fraction=0.8)
        assert dog.observe({"queue_depth": 7}) == []
        [event] = dog.observe({"queue_depth": 9})
        assert event.kind == "queue_saturated"
        assert event.source == "watchdog"
        assert (event.depth, event.max_queue) == (9, 10)
        # Still saturated: edge-triggered, no repeat.
        assert dog.observe({"queue_depth": 10}) == []
        # Dip below the threshold but not below half of it: still armed off.
        assert dog.observe({"queue_depth": 6}) == []
        assert dog.observe({"queue_depth": 9}) == []
        # Clear below half the threshold, then re-fire.
        assert dog.observe({"queue_depth": 2}) == []
        [again] = dog.observe({"queue_depth": 9})
        assert again.kind == "queue_saturated"
        assert dog.alerts == 2
        assert bus.stats()["by_kind"] == {"queue_saturated": 2}

    def test_sample_max_queue_overrides_constructor(self):
        dog = Watchdog(max_queue=None)
        assert dog.observe({"queue_depth": 100}) == []  # unbounded queue: no rule
        [event] = dog.observe({"queue_depth": 100, "max_queue": 100})
        assert event.kind == "queue_saturated"

    def test_flatline_fires_after_idle_threshold_on_fake_clock(self):
        clock = FakeClock()
        dog = Watchdog(flatline_after_s=5.0, clock=clock)
        assert dog.observe({"requests_total": 10, "queue_depth": 3}) == []
        clock.now = 4.0
        assert dog.observe({"requests_total": 10, "queue_depth": 3}) == []
        clock.now = 6.0
        [event] = dog.observe({"requests_total": 10, "queue_depth": 3})
        assert event.kind == "throughput_flatlined"
        assert event.idle_s == 6.0 and event.queue_depth == 3
        # Edge-triggered while still stuck.
        clock.now = 9.0
        assert dog.observe({"requests_total": 10, "queue_depth": 3}) == []
        # Progress re-arms; a fresh stall fires again.
        clock.now = 10.0
        assert dog.observe({"requests_total": 11, "queue_depth": 3}) == []
        clock.now = 16.0
        [again] = dog.observe({"requests_total": 11, "queue_depth": 2})
        assert again.kind == "throughput_flatlined"

    def test_flatline_needs_queued_demand(self):
        clock = FakeClock()
        dog = Watchdog(flatline_after_s=5.0, clock=clock)
        dog.observe({"requests_total": 10, "queue_depth": 0})
        clock.now = 100.0
        # Idle with an empty queue is just a quiet service, not an incident.
        assert dog.observe({"requests_total": 10, "queue_depth": 0}) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Watchdog(saturation_fraction=0.0)
        with pytest.raises(ValueError):
            Watchdog(flatline_after_s=0.0)


class TestSampler:
    def test_tick_feeds_store_and_watchdog(self):
        store = MetricsStore()
        dog = Watchdog(max_queue=10)
        sampler = Sampler(lambda: {"requests_total": 5, "queue_depth": 9},
                          store, watchdog=dog, interval_s=60.0)
        sampler.tick()
        assert len(store) == 1
        assert dog.alerts == 1  # queue saturation seen on the first sample
        health = sampler.health()
        assert health["ticks"] == 1 and health["errors"] == 0
        assert health["alive"] is False  # never started as a thread

    def test_snapshot_errors_are_counted_not_raised(self):
        store = MetricsStore()

        def broken():
            raise RuntimeError("stats backend exploded")

        sampler = Sampler(broken, store, interval_s=60.0)
        sampler.tick()
        sampler.tick()
        assert sampler.health()["errors"] == 2
        assert len(store) == 0

    def test_thread_lifecycle_is_idempotent(self):
        store = MetricsStore()
        sampler = Sampler(lambda: {"requests_total": 1}, store, interval_s=0.01)
        sampler.start()
        sampler.start()
        assert sampler.alive
        sampler.stop()
        sampler.stop()
        assert not sampler.alive

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            Sampler(lambda: {}, MetricsStore(), interval_s=0.0)
