"""Streaming smoke check: streamed transient answers through the real CLI
server.

Launched by ``benchmarks/run_benchmarks.sh --smoke``.  Boots one
``repro-thermal serve`` process and drives streaming
``POST /solve_transient`` end to end over actual sockets: per-step
``segment`` frames with the step index as the resume cursor, the
``result`` frame matching the blocking transient answer, time-to-first-
segment beating the blocking call's total latency, and a ``Last-Event-ID``
resume returning exactly the complement.

The server shuts down with SIGINT and must exit 0.
"""

import http.client
import json
import re
import select
import signal
import subprocess
import sys
import time
import urllib.parse
import urllib.request

STARTUP_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120

# 40 backward-Euler steps: long enough that the blocking call's total
# latency clearly dominates the streamed time-to-first-segment (the first
# segment lands after step 0, regardless of trace length).
TRANSIENT = {
    "chip": "chip1", "resolution": 16,
    "duration_s": 0.2, "dt_s": 0.005, "total_power": 40.0,
}


def _spawn(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _boot_url(process):
    ready, _, _ = select.select([process.stdout], [], [], STARTUP_TIMEOUT_S)
    assert ready, f"process printed nothing within {STARTUP_TIMEOUT_S}s"
    line = process.stdout.readline()
    match = re.search(r"listening on (http://\S+)", line)
    assert match, f"no URL announced; first line: {line!r}"
    return match.group(1)


def _post_timed(url, body, headers=None):
    """Blocking POST; returns (body-dict, seconds)."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    started = time.perf_counter()
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
        answer = json.loads(response.read())
    return answer, time.perf_counter() - started


def _parse_sse(text):
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


def _stream_timed(url, body, headers=None):
    """POST expecting SSE; returns (frames, first_frame_s, total_s).

    ``first_frame_s`` is the wall clock from just before the request bytes
    go out until the first complete *data* frame (comments don't count) has
    been received — the client-observed time-to-first-answer.
    """
    parsed = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(
        parsed.hostname, parsed.port, timeout=REQUEST_TIMEOUT_S
    )
    target = parsed.path + (f"?{parsed.query}" if parsed.query else "")
    payload = json.dumps(body).encode("utf-8")
    started = time.perf_counter()
    try:
        connection.request(
            "POST", target, payload,
            {"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        assert response.status == 200, response.status
        content_type = response.getheader("Content-Type", "")
        assert content_type.startswith("text/event-stream"), content_type
        buffer = b""
        first_frame_s = None
        while True:
            chunk = response.read1(8192)
            if not chunk:
                break
            buffer += chunk
            if first_frame_s is None and b"data:" in buffer:
                if b"\n\n" in buffer[buffer.index(b"data:"):]:
                    first_frame_s = time.perf_counter() - started
        total_s = time.perf_counter() - started
    finally:
        connection.close()
    assert first_frame_s is not None, "stream ended without a data frame"
    return _parse_sse(buffer.decode("utf-8")), first_frame_s, total_s


def _drive(url):
    """The full streaming drill against one server's base URL."""
    transient_blocking, transient_blocking_s = _post_timed(
        url + "/solve_transient", TRANSIENT
    )
    assert transient_blocking["backend"] == "transient", transient_blocking

    frames, first_segment_s, _ = _stream_timed(
        url + "/solve_transient?mode=stream", TRANSIENT
    )
    kinds = [kind for _, kind, _ in frames]
    steps = int(round(TRANSIENT["duration_s"] / TRANSIENT["dt_s"]))
    assert kinds == ["segment"] * (steps + 1) + ["result"], kinds
    assert [seq for seq, kind, _ in frames if kind == "segment"] == list(
        range(steps + 1)
    )
    streamed_result = frames[-1][2]
    assert streamed_result["history"]["peak_K"] == \
        transient_blocking["history"]["peak_K"], "streamed history diverged"
    assert first_segment_s < transient_blocking_s, (
        f"first segment took {first_segment_s * 1e3:.1f} ms, "
        f"slower than the {transient_blocking_s * 1e3:.1f} ms blocking trace"
    )

    # Resume from mid-trace: exactly the complement comes back.
    frames, _, _ = _stream_timed(
        url + "/solve_transient?mode=stream", TRANSIENT,
        headers={"Last-Event-ID": str(steps - 2)},
    )
    resumed = [seq for seq, kind, _ in frames if kind == "segment"]
    assert resumed == [steps - 1, steps], resumed
    assert frames[-1][1] == "result"

    print(f"  first transient segment {first_segment_s * 1e3:.1f} ms "
          f"vs blocking {transient_blocking_s * 1e3:.1f} ms")


def main() -> int:
    server = _spawn(["serve", "--port", "0", "--max-queue", "64"])
    try:
        _drive(_boot_url(server))
        server.send_signal(signal.SIGINT)
        returncode = server.wait(timeout=STARTUP_TIMEOUT_S)
        assert returncode == 0, f"serve exited {returncode} on SIGINT"
        print("streaming smoke ok: streamed transient first segment beat the "
              "blocking trace")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
