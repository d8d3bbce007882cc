"""EventBus semantics: dense cursors, replay, backpressure, long-poll."""

import threading
import time

import pytest

from repro.obs.bus import EventBus, publish_all
from repro.obs.events import CacheEviction, QueueSaturated, RequestDone


def _request(n):
    return RequestDone(request_id=f"r{n}")


class TestPublishAndReplay:
    def test_sequence_numbers_are_dense_and_monotonic(self):
        bus = EventBus()
        seqs = [bus.publish(_request(n)).seq for n in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert bus.cursor == 5

    def test_publish_stamps_wall_clock(self):
        bus = EventBus(clock=lambda: 123.5)
        event = bus.publish(_request(0))
        assert event.ts == 123.5

    def test_replay_from_cursor_returns_exactly_the_missed_events(self):
        bus = EventBus()
        for n in range(6):
            bus.publish(_request(n))
        tail = bus.replay(since=4)
        assert [e.seq for e in tail] == [5, 6]
        assert bus.replay(since=bus.cursor) == []

    def test_replay_respects_limit(self):
        bus = EventBus()
        for n in range(6):
            bus.publish(_request(n))
        assert [e.seq for e in bus.replay(since=0, limit=2)] == [1, 2]

    def test_history_ring_is_bounded(self):
        bus = EventBus(history=3)
        for n in range(10):
            bus.publish(_request(n))
        held = bus.replay(since=0)
        assert [e.seq for e in held] == [8, 9, 10]
        assert bus.stats()["history"] == 3

    def test_last_alert_skips_non_alert_events(self):
        bus = EventBus()
        assert bus.last_alert() is None
        bus.publish(_request(0))
        bus.publish(QueueSaturated(depth=8, max_queue=8))
        bus.publish(CacheEviction(cause="ttl", key="k"))
        alert = bus.last_alert()
        assert alert is not None and alert.kind == "queue_saturated"

    def test_publish_all_no_ops_on_none_bus(self):
        publish_all(None, [_request(0)])  # must not raise
        bus = EventBus()
        publish_all(bus, [_request(0), _request(1)])
        assert bus.cursor == 2


class TestBackpressure:
    def test_slow_subscriber_drops_oldest_and_counts(self):
        bus = EventBus()
        with bus.subscribe(maxlen=2) as slow:
            for n in range(5):
                bus.publish(_request(n))
            assert slow.dropped == 3
            kept = slow.drain()
            # The two freshest events survive; exact backfill is replay's job.
            assert [e.seq for e in kept] == [4, 5]
        assert bus.stats()["subscribers"] == 0

    def test_publisher_never_blocks_on_a_wedged_subscriber(self):
        bus = EventBus()
        subscription = bus.subscribe(maxlen=1)  # wedged: never drained
        started = time.perf_counter()
        for n in range(2000):
            bus.publish(_request(n))
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0  # would park forever if publish ever blocked
        assert subscription.dropped == 1999
        assert bus.stats()["dropped"] == 1999
        subscription.close()

    def test_get_timeout_returns_none(self):
        bus = EventBus()
        with bus.subscribe() as subscription:
            assert subscription.get(timeout=0.01) is None

    def test_get_wakes_on_publish_from_another_thread(self):
        bus = EventBus()
        with bus.subscribe() as subscription:
            timer = threading.Timer(0.05, lambda: bus.publish(_request(0)))
            timer.start()
            event = subscription.get(timeout=5.0)
            timer.join()
        assert event is not None and event.seq == 1

    def test_closed_subscription_rejects_offers_and_unblocks_get(self):
        bus = EventBus()
        subscription = bus.subscribe()
        subscription.close()
        bus.publish(_request(0))
        assert len(subscription) == 0
        assert subscription.get(timeout=0.0) is None
        subscription.close()  # double close is fine


class TestWaitFor:
    def test_returns_immediately_when_events_exist(self):
        bus = EventBus()
        bus.publish(_request(0))
        started = time.perf_counter()
        events = bus.wait_for(since=0, timeout=5.0)
        assert time.perf_counter() - started < 1.0
        assert [e.seq for e in events] == [1]

    def test_times_out_empty(self):
        bus = EventBus()
        assert bus.wait_for(since=0, timeout=0.05) == []

    def test_parks_until_a_publish_arrives(self):
        bus = EventBus()
        timer = threading.Timer(0.05, lambda: bus.publish(QueueSaturated(depth=9)))
        timer.start()
        events = bus.wait_for(since=0, timeout=5.0)
        timer.join()
        assert len(events) == 1 and events[0].kind == "queue_saturated"


class TestStats:
    def test_counters_by_kind(self):
        bus = EventBus()
        bus.publish(_request(0))
        bus.publish(_request(1))
        bus.publish(QueueSaturated(depth=8, max_queue=8))
        stats = bus.stats()
        assert stats["published"] == 3
        assert stats["cursor"] == 3
        assert stats["by_kind"] == {"request_done": 2, "queue_saturated": 1}
        assert stats["dropped"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EventBus(history=0)
        with pytest.raises(ValueError):
            EventBus().subscribe(maxlen=0)
