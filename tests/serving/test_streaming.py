"""SSE protocol conformance for streaming ``/solve_transient``.

Covers the wire contract end to end against a real socket: frame grammar
(``id:`` / ``event:`` / ``data:``), keepalive comments, ``Last-Event-ID``
resume mid-trace (the resumed stream is the exact complement of what was
seen), client disconnects releasing the integration slot, and deadlines
expiring mid-trace becoming typed shed frames (streamed) or 504s (blocking).
"""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.api.session import ThermalSession
from repro.serving.backends import build_backends
from repro.serving.engine import MicroBatchEngine
from repro.serving.server import ThermalServer

RES = 10

TRACE = {
    "chip": "chip1", "total_power": 30.0, "resolution": RES,
    "duration_s": 0.01, "dt_s": 0.002,
}


def _post_json(url, body, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post_raw(url, body, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.headers, response.read().decode("utf-8")


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
        if "data" in fields:
            frames.append(
                (int(fields["id"]), fields["event"], json.loads(fields["data"]))
            )
    return frames


@pytest.fixture(scope="module")
def server():
    session = ThermalSession()
    engine = MicroBatchEngine(build_backends(session=session))
    with ThermalServer(engine, port=0, session=session) as running:
        yield running


def _stats(server):
    with urllib.request.urlopen(server.url + "/stats", timeout=60) as response:
        return json.loads(response.read())


class TestFrameGrammar:
    def test_frames_and_final_result(self, server):
        headers, text = _post_raw(
            server.url + "/solve_transient?mode=stream", TRACE
        )
        assert headers["Content-Type"].startswith("text/event-stream")
        frames = _parse_sse(text)
        kinds = [kind for _, kind, _ in frames]
        assert kinds == ["segment"] * 6 + ["result"]
        # ``id:`` carries the step index — the resumable cursor.
        assert [seq for seq, kind, _ in frames if kind == "segment"] == list(range(6))
        for seq, kind, data in frames[:-1]:
            assert data["step"] == seq
            assert data["t_s"] == pytest.approx(seq * TRACE["dt_s"])
            assert data["peak_K"] >= data["mean_K"]

    def test_grammar_lines_are_sse(self, server):
        _, text = _post_raw(server.url + "/solve_transient?mode=stream", TRACE)
        # A comment keepalive opens the stream (proof of life before the
        # first segment); every non-comment line is id/event/data.
        lines = [line for line in text.splitlines() if line]
        assert any(line.startswith(":") for line in lines)
        for line in lines:
            assert line.startswith((":", "id:", "event:", "data:"))

    def test_accept_header_triggers_streaming_too(self, server):
        headers, text = _post_raw(
            server.url + "/solve_transient", TRACE,
            headers={"Accept": "text/event-stream"},
        )
        assert headers["Content-Type"].startswith("text/event-stream")
        assert _parse_sse(text)[-1][1] == "result"

    def test_unknown_mode_is_400(self, server):
        status, body = _post_json(
            server.url + "/solve_transient?mode=sideways", TRACE
        )
        assert status == 400
        assert "sideways" in body["error"]


class TestStreamedResultMatchesBlocking:
    def test_result_frame_is_the_blocking_answer(self, server):
        scheduled = {key: value for key, value in TRACE.items() if key != "total_power"}
        scheduled["schedule"] = [
            {"t_s": 0.0, "total_power": 40.0},
            {"t_s": 0.006, "total_power": 5.0},
        ]
        for body in (
            TRACE,
            dict(TRACE, include_maps=True),
            scheduled,
            dict(scheduled, include_maps=True),
        ):
            _, text = _post_raw(server.url + "/solve_transient?mode=stream", body)
            streamed = _parse_sse(text)[-1][2]
            status, blocking = _post_json(server.url + "/solve_transient", body)
            assert status == 200
            for volatile in ("request_id", "solve_seconds"):
                streamed.pop(volatile), blocking.pop(volatile)
            assert ("layer_maps" in blocking) == body.get("include_maps", False)
            streamed_prov = streamed.pop("history"), blocking.pop("history")
            assert streamed == blocking
            first, second = streamed_prov
            assert first["times_s"] == second["times_s"]
            assert first["peak_K"] == second["peak_K"]
            assert first["mean_K"] == second["mean_K"]

    def test_segments_replay_the_history_arrays(self, server):
        _, text = _post_raw(server.url + "/solve_transient?mode=stream", TRACE)
        frames = _parse_sse(text)
        segments = [data for _, kind, data in frames if kind == "segment"]
        result = frames[-1][2]
        assert [s["t_s"] for s in segments] == result["history"]["times_s"]
        assert [s["peak_K"] for s in segments] == result["history"]["peak_K"]
        assert [s["mean_K"] for s in segments] == result["history"]["mean_K"]


class TestResume:
    def test_last_event_id_resumes_the_complement(self, server):
        _, full = _post_raw(server.url + "/solve_transient?mode=stream", TRACE)
        full_frames = _parse_sse(full)
        cursor = 2
        _, resumed = _post_raw(
            server.url + "/solve_transient?mode=stream", TRACE,
            headers={"Last-Event-ID": str(cursor)},
        )
        resumed_frames = _parse_sse(resumed)
        resumed_segments = [f for f in resumed_frames if f[1] == "segment"]
        assert [seq for seq, _, _ in resumed_segments] == [3, 4, 5]
        # Seen + resumed = the full stream, with no overlap.
        full_segments = [f for f in full_frames if f[1] == "segment"]
        assert [f[2] for f in full_segments[cursor + 1:]] == [
            f[2] for f in resumed_segments
        ]
        assert resumed_frames[-1][2]["max_K"] == full_frames[-1][2]["max_K"]

    def test_explicit_since_wins_over_last_event_id(self, server):
        _, text = _post_raw(
            server.url + "/solve_transient?mode=stream&since=4", TRACE,
            headers={"Last-Event-ID": "0"},
        )
        segments = [f for f in _parse_sse(text) if f[1] == "segment"]
        assert [seq for seq, _, _ in segments] == [5]

    def test_bad_since_is_400(self, server):
        status, body = _post_json(
            server.url + "/solve_transient?mode=stream&since=banana", TRACE
        )
        assert status == 400
        assert "since" in body["error"]


class TestSlotLifecycle:
    def test_disconnect_mid_stream_frees_the_engine_slot(self, server):
        # A long trace (5000 steps) the client abandons after the first
        # bytes; the handler's next write hits the reset socket, closes the
        # server-side generator and must release the admission slot.
        long_trace = dict(TRACE, duration_s=5.0, dt_s=0.001)
        body = json.dumps(long_trace).encode("utf-8")
        raw = socket.create_connection((server.host, server.port), timeout=30)
        try:
            raw.sendall(
                b"POST /solve_transient?mode=stream HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            assert raw.recv(1024)  # the stream started
        finally:
            # Abort (RST) rather than close: unread frames must not linger.
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                           b"\x01\x00\x00\x00\x00\x00\x00\x00")
            raw.close()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if _stats(server)["transient_endpoint"]["pending"] == 0:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("disconnected stream leaked its admission slot")

    def test_stream_counters_advance(self, server):
        before = _stats(server)["transient_endpoint"]
        _post_raw(server.url + "/solve_transient?mode=stream", TRACE)
        after = _stats(server)["transient_endpoint"]
        assert after["streams"] == before["streams"] + 1
        assert after["requests"] == before["requests"] + 1


class TestDeadlineMidStream:
    def test_expired_budget_ends_with_a_typed_shed_frame(self, server):
        # 20k steps take seconds; a 200 ms budget lets the stream *start*
        # (a pre-start expiry maps to a plain HTTP 504 instead) but
        # guarantees it dies mid-trace.
        shed_before = _stats(server)["transient_endpoint"]["shed"]
        body = dict(TRACE, duration_s=20.0, dt_s=0.001, deadline_ms=200)
        _, text = _post_raw(server.url + "/solve_transient?mode=stream", body)
        frames = _parse_sse(text)
        assert frames[-1][1] == "error"
        error = frames[-1][2]
        assert error["shed"] is True
        assert error["status"] == 504
        assert "deadline" in error["error"]
        assert not any(kind == "result" for _, kind, _ in frames)
        assert _stats(server)["transient_endpoint"]["shed"] == shed_before + 1

    def test_blocking_trace_past_its_budget_is_shed(self, server):
        # The blocking mode drains the same stream, so the same budget ends
        # it with a 504 counted under shed, long before the 20k steps end.
        before = _stats(server)["transient_endpoint"]
        body = dict(TRACE, duration_s=20.0, dt_s=0.001, deadline_ms=200)
        status, answer = _post_json(server.url + "/solve_transient", body)
        assert status == 504
        assert "deadline" in answer["error"]
        after = _stats(server)["transient_endpoint"]
        assert after["shed"] == before["shed"] + 1
        assert after["requests"] == before["requests"]
        assert after["pending"] == 0

    def test_generous_budget_still_completes(self, server):
        body = dict(TRACE, deadline_ms=120_000)
        _, text = _post_raw(server.url + "/solve_transient?mode=stream", body)
        assert _parse_sse(text)[-1][1] == "result"
