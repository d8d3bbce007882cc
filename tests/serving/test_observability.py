"""Observability plane through the HTTP service: /events, /metrics, tracing.

Covers the wire surfaces end to end — SSE framing and cursor resume across
reconnects, Prometheus exposition, long-poll delivery, trace spans in
``/solve`` answers, the enriched ``/healthz``, the structured access log
and one ``watch`` frame — against a real server on a real socket.
"""

import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.bus import EventBus
from repro.obs.events import event_from_json
from repro.obs.watch import ALERT_ROWS, render_dashboard, run_watch
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.server import ThermalServer

RES = 10


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def _get_raw(url, headers):
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.read().decode("utf-8")


def _solve(server, power=25.0):
    return _post(server.url + "/solve",
                 {"chip": "chip1", "total_power": power, "resolution": RES})


def _parse_sse(text):
    """SSE body -> list of (id, event, data-dict) frames (comments skipped)."""
    frames = []
    for block in text.split("\n\n"):
        fields = {}
        for line in block.splitlines():
            if not line or line.startswith(":"):
                continue
            name, _, value = line.partition(":")
            fields[name] = value.lstrip()
        if fields:
            frames.append(
                (int(fields["id"]), fields["event"], json.loads(fields["data"]))
            )
    return frames


@pytest.fixture(scope="module")
def server():
    engine = MicroBatchEngine(build_backends())
    with ThermalServer(engine, port=0, sample_interval_s=0.2) as running:
        yield running


class TestTracing:
    def test_solve_response_carries_trace_with_nonzero_spans(self, server):
        status, body = _solve(server, power=31.0)
        assert status == 200
        trace = body["trace"]
        assert trace["trace_id"]
        spans = trace["spans_ms"]
        assert set(spans) == {"queue_wait", "solve"}
        assert spans["solve"] > 0.0
        assert spans["queue_wait"] >= 0.0
        assert all(value >= 0.0 for value in spans.values())

    def test_trace_ids_are_distinct_per_request(self, server):
        _, first = _solve(server, power=32.0)
        _, second = _solve(server, power=33.0)
        assert first["trace"]["trace_id"] != second["trace"]["trace_id"]

    def test_cached_answer_keeps_a_trace(self, server):
        body = {"chip": "chip1", "total_power": 34.25, "resolution": RES}
        _post(server.url + "/solve", body)
        _, cached = _post(server.url + "/solve", body)
        assert cached["cached"] is True
        assert cached["trace"]["trace_id"]


class TestEventsEndpoint:
    def test_long_poll_delivers_request_done_and_advances_cursor(self, server):
        _, before = _get(server.url + "/events?timeout_s=0&since=0")
        _solve(server, power=41.0)
        _, after = _get(server.url + f"/events?timeout_s=5&since={before['cursor']}")
        kinds = [event["kind"] for event in after["events"]]
        assert "request_done" in kinds
        assert after["cursor"] > before["cursor"]
        # Every payload round-trips through the typed catalog.
        for payload in after["events"]:
            event = event_from_json(payload)
            assert event.seq > 0 and event.ts > 0

    def test_empty_poll_times_out_with_unchanged_cursor(self, server):
        _, now = _get(server.url + "/events?timeout_s=0")
        cursor = now["cursor"] + 1000  # nothing past here yet
        _, empty = _get(server.url + f"/events?timeout_s=0&since={cursor}")
        assert empty == {"events": [], "cursor": cursor}

    def test_bad_cursor_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/events?since=banana")
        assert excinfo.value.code == 400

    def test_sse_stream_frames_and_resume_after_reconnect(self, server):
        _, start = _get(server.url + "/events?timeout_s=0")
        cursor = start["cursor"]
        # One request_done event per solve: two solves, two frames.
        _solve(server, power=42.0)
        _solve(server, power=42.5)
        first = _parse_sse(_get_raw(
            server.url + f"/events?since={cursor}&max_events=2",
            {"Accept": "text/event-stream"},
        ))
        assert len(first) == 2
        for seq, kind, data in first:
            assert seq > cursor
            assert data["kind"] == kind
            assert data["seq"] == seq
        # Reconnect with the standard Last-Event-ID header: the stream
        # resumes exactly past the last seen frame, no duplicates.
        last_seen = first[-1][0]
        _solve(server, power=43.0)
        _solve(server, power=43.5)
        resumed = _parse_sse(_get_raw(
            server.url + "/events?max_events=2",
            {"Accept": "text/event-stream", "Last-Event-ID": str(last_seen)},
        ))
        assert len(resumed) == 2
        assert all(seq > last_seen for seq, _, _ in resumed)

    def test_explicit_since_wins_over_last_event_id(self, server):
        _, now = _get(server.url + "/events?timeout_s=0")
        _solve(server, power=44.0)
        frames = _parse_sse(_get_raw(
            server.url + f"/events?since={now['cursor']}&max_events=1",
            {"Accept": "text/event-stream", "Last-Event-ID": "999999"},
        ))
        assert len(frames) == 1 and frames[0][0] == now["cursor"] + 1


class TestMetricsEndpoint:
    def test_prometheus_exposition_parses_and_counts(self, server):
        _solve(server, power=51.0)
        request = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=60) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        assert "# HELP repro_requests_total" in text
        assert "# TYPE repro_requests_total counter" in text
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            float(value)  # every sample line ends in a number
            samples[name] = float(value)
        assert samples["repro_requests_total"] >= 1
        assert 'repro_backend_requests_total{backend="fvm"}' in samples
        assert 'repro_backend_latency_samples_dropped_total{backend="fvm"}' in samples
        assert samples["repro_events_published_total"] >= 2
        assert samples["repro_uptime_seconds"] > 0

    def test_metrics_history_returns_samples_and_rollup(self, server):
        _solve(server, power=52.0)
        status, body = _get(server.url + "/metrics/history")
        assert status == 200
        assert body["fields"][0] == "ts"
        assert body["samples"], "sampler should have ticked at least once"
        assert "requests_total" in body["samples"][-1]
        assert body["rollup"]["samples"] >= 1
        assert body["interval_s"] == 0.2

    def test_metrics_history_bad_window_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/metrics/history?window_s=banana")
        assert excinfo.value.code == 400


class TestHealthEnrichment:
    def test_healthz_reports_sampler_uptime_and_last_alert(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["uptime_seconds"] > 0
        assert "uptime_s" not in body
        sampler = body["sampler"]
        assert sampler["alive"] is True
        assert sampler["ticks"] >= 1
        assert sampler["errors"] == 0
        assert "last_alert" in body

    def test_stats_exposes_event_bus_and_samples_dropped(self, server):
        _solve(server, power=53.0)
        _, stats = _get(server.url + "/stats")
        assert stats["events"]["published"] >= 2
        assert "by_kind" in stats["events"]
        assert stats["backends"]["fvm"]["samples_dropped"] == 0


class TestWatchDashboard:
    def test_renders_a_frame_from_a_live_server(self, server):
        _solve(server, power=71.0)
        _, stats = _get(server.url + "/stats")
        _, health = _get(server.url + "/healthz")
        frame = render_dashboard(stats, health, [], url=server.url, color=False)
        lines = frame.splitlines()
        # The header goes on with the uptime, which moves between frames.
        header = f"repro-thermal watch  {server.url}  status=ok"
        assert lines[0].startswith(header)
        assert lines[1].startswith("engine: rps=")
        assert any(line.startswith("fvm ") for line in lines)
        assert lines[-2:] == [f"alerts (last {ALERT_ROWS}):", "  (none)"]
        assert "\x1b[" not in frame
        out = io.StringIO()
        assert run_watch(server.url, once=True, out=out) == 0
        assert out.getvalue().startswith(header)


class TestAccessLog:
    def test_log_json_emits_one_line_per_request(self, capsys):
        engine = MicroBatchEngine(build_backends())
        with ThermalServer(engine, port=0, log_json=True,
                           sample_interval_s=60.0) as running:
            _solve(running, power=61.0)
            _get(running.url + "/healthz")
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
        solves = [rec for rec in lines if rec["path"] == "/solve"]
        healths = [rec for rec in lines if rec["path"] == "/healthz"]
        assert len(solves) == 1 and len(healths) == 1
        record = solves[0]
        assert record["method"] == "POST" and record["status"] == 200
        assert record["latency_ms"] > 0
        assert record["trace_id"]
        assert record["backend"] == "fvm"
        assert record["cached"] is False and "degraded" not in record

    def test_plain_text_log_stays_the_default(self, capsys):
        engine = MicroBatchEngine(build_backends())
        with ThermalServer(engine, port=0, sample_interval_s=60.0) as running:
            _solve(running, power=62.0)
        json_lines = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("{")]
        assert json_lines == []


class TestEngineEventFlow:
    def test_shared_bus_between_engine_and_server(self):
        """A bus attached to the engine up front is reused by the server."""
        bus = EventBus()
        engine = MicroBatchEngine(build_backends(), events=bus)
        with ThermalServer(engine, port=0, sample_interval_s=60.0) as running:
            assert running.telemetry.bus is bus
            with bus.subscribe() as subscription:
                _solve(running, power=63.0)
                event = subscription.get(timeout=10.0)
                assert event is not None

    def test_queue_saturation_event_on_rejection(self):
        from repro.serving.backends import Backend
        from repro.serving.engine import QueueFullError
        from repro.serving.request import ThermalRequest, ThermalResult

        class Gated(Backend):
            name = "fvm"
            entered = threading.Event()
            release = threading.Event()

            def solve_batch(self, requests):
                self.entered.set()
                assert self.release.wait(timeout=60)
                return [ThermalResult(chip=r.chip, resolution=r.resolution,
                                      backend=self.name, max_K=350.0, min_K=300.0,
                                      mean_K=320.0, total_power_W=0.0)
                        for r in requests]

        def request():
            return ThermalRequest(chip="chip1", resolution=RES, assignment={})

        bus = EventBus()
        gated = Gated()
        engine = MicroBatchEngine({"fvm": gated}, max_queue=1, events=bus)
        with engine, ThreadPoolExecutor(max_workers=2) as pool:
            holder = pool.submit(engine.solve, request())
            assert gated.entered.wait(timeout=60)
            waiter = pool.submit(engine.solve, request())
            deadline = time.monotonic() + 30
            while engine.stats()["queue_depth"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.002)
            with pytest.raises(QueueFullError):
                engine.solve(request())
            gated.release.set()
            holder.result(timeout=60)
            waiter.result(timeout=60)
        kinds = [event.kind for event in bus.replay()]
        assert "queue_saturated" in kinds
