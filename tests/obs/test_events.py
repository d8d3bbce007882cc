"""The typed event catalog: construction, validation, wire round-trips."""

import dataclasses

import pytest

from repro.obs.events import (
    ALERT_KINDS,
    EVENT_KINDS,
    CacheEviction,
    QueueSaturated,
    RequestDone,
    TelemetryEvent,
    ThroughputFlatlined,
    event_from_json,
)


class TestCatalog:
    def test_registry_covers_every_subclass(self):
        expected = {
            "request_done": RequestDone,
            "queue_saturated": QueueSaturated,
            "throughput_flatlined": ThroughputFlatlined,
            "cache_eviction": CacheEviction,
        }
        assert EVENT_KINDS == expected

    def test_alert_kinds_are_registered_kinds(self):
        assert ALERT_KINDS <= set(EVENT_KINDS)
        assert "request_done" not in ALERT_KINDS
        assert ALERT_KINDS == {"queue_saturated", "throughput_flatlined"}

    def test_is_alert_property_matches_alert_kinds(self):
        assert ThroughputFlatlined(idle_s=5.0, queue_depth=2).is_alert
        assert QueueSaturated(depth=8, max_queue=8).is_alert
        assert not RequestDone(request_id="r1").is_alert
        assert not CacheEviction(cause="ttl", key="k").is_alert


class TestValidation:
    def test_request_done_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="status"):
            RequestDone(request_id="r1", status="weird")

    def test_cache_eviction_rejects_unknown_cause(self):
        with pytest.raises(ValueError, match="cause"):
            CacheEviction(cause="cosmic-rays", key="k")


class TestWireFormat:
    def test_to_json_carries_kind_and_every_field(self):
        event = RequestDone(
            request_id="r1", trace_id="t-1", chip="chip1", resolution=16,
            backend="fvm", status="ok", latency_ms=12.5,
        )
        body = event.to_json()
        assert body["kind"] == "request_done"
        field_names = {f.name for f in dataclasses.fields(event)}
        assert field_names <= set(body)

    def test_round_trip_preserves_payload(self):
        original = QueueSaturated(depth=6, max_queue=8, rejected=3)
        original.seq = 17
        original.ts = 123.5
        original.source = "session"
        restored = event_from_json(original.to_json())
        assert isinstance(restored, QueueSaturated)
        assert restored == original
        assert (restored.seq, restored.ts, restored.source) == (17, 123.5, "session")

    def test_from_json_ignores_unknown_fields(self):
        body = QueueSaturated(depth=8, max_queue=8).to_json()
        body["added_in_a_future_version"] = True
        restored = event_from_json(body)
        assert isinstance(restored, QueueSaturated)
        assert restored.depth == 8

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            event_from_json({"kind": "not_a_kind"})

    def test_base_event_not_registered(self):
        assert TelemetryEvent.kind not in EVENT_KINDS
