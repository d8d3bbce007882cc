"""Serving smoke check: boot the real CLI server, hit every solve path, shut
down cleanly.

Launched by ``benchmarks/run_benchmarks.sh --smoke``.  Starts
``repro-thermal serve --max-queue 64`` as a subprocess on a free port, performs
one ``POST /solve``, one ``POST /solve_transient`` and one ``GET /stats``,
then delivers SIGINT and asserts the process exits 0 (the CLI's clean
KeyboardInterrupt path).  This is the end-to-end guard the unit tests can't
give: the actual CLI wiring of the queue/cache flags, the actual HTTP
loop, the actual signal-driven shutdown.

The pass also exercises the telemetry end to end: every answered request
must carry a trace id with a non-zero solve span, ``/events`` must
deliver the ``request_done`` stream, ``/metrics`` must scrape as
Prometheus text, and ``repro-thermal watch --once`` must render a
dashboard frame (``status=ok`` and the backend table) against the live
server.
"""

import json
import re
import select
import signal
import subprocess
import sys
import urllib.request

STARTUP_TIMEOUT_S = 60
REQUEST_TIMEOUT_S = 120


def _readline_with_timeout(stream, timeout_s):
    """First line of ``stream``, or an assertion failure after ``timeout_s``
    (a hung server must fail the smoke run, not wedge CI forever)."""
    ready, _, _ = select.select([stream], [], [], timeout_s)
    assert ready, f"server printed nothing within {timeout_s}s"
    return stream.readline()


def _post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
        return response.status, json.loads(response.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as response:
        return json.loads(response.read())


def _get_text(url):
    with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as response:
        return response.read().decode("utf-8")


def _assert_traced(solved):
    """Every answered request must carry a trace with a real solve span."""
    trace = solved.get("trace") or {}
    assert trace.get("trace_id"), solved.get("trace")
    assert trace["spans_ms"]["solve"] > 0.0, trace


def _assert_metrics_scrape(url, expected=()):
    """``/metrics`` must serve Prometheus text containing ``expected`` lines."""
    exposition = _get_text(url + "/metrics")
    assert "# HELP repro_requests_total" in exposition, exposition[:400]
    assert "# TYPE repro_requests_total counter" in exposition, exposition[:400]
    for line in expected:
        assert line in exposition, (line, exposition[:800])
    return exposition


def _assert_watch_renders(url):
    """``repro-thermal watch --once`` must draw one frame against the server."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "watch", url, "--once"],
        capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr
    assert "status=ok" in result.stdout, result.stdout[:400]
    assert "backend" in result.stdout, result.stdout[:400]


def main() -> int:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--max-queue", "64",
            "--cache-ttl", "600",
            "--cache-max-mb", "32",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = _readline_with_timeout(process.stdout, STARTUP_TIMEOUT_S)
        match = re.search(r"listening on (http://\S+)", line)
        assert match, f"server did not announce its URL; first line: {line!r}"
        url = match.group(1)

        status, solved = _post(
            url + "/solve",
            {"chip": "chip1", "resolution": 16, "total_power": 40.0},
        )
        assert status == 200 and solved["max_K"] > 300.0, solved
        _assert_traced(solved)

        # The telemetry surfaces answer for the request just made: the
        # event feed delivers its request_done and /metrics scrapes.
        feed = _get(url + "/events?timeout_s=5")
        kinds = [event["kind"] for event in feed["events"]]
        assert "request_done" in kinds, kinds
        assert feed["cursor"] >= 1, feed
        _assert_metrics_scrape(url, expected=["repro_requests_total 1"])

        status, transient = _post(
            url + "/solve_transient",
            {"chip": "chip1", "resolution": 16, "duration_s": 0.01,
             "dt_s": 0.002, "total_power": 40.0},
        )
        assert status == 200 and transient["backend"] == "transient", transient
        assert len(transient["history"]["peak_K"]) >= 2, transient

        with urllib.request.urlopen(url + "/stats", timeout=REQUEST_TIMEOUT_S) as response:
            stats = json.loads(response.read())
        assert "workers" not in stats, stats  # one solve lock, no dispatcher pool
        assert stats["max_queue"] == 64, stats
        assert stats["total_requests"] >= 1, stats
        assert stats["transient_endpoint"]["requests"] == 1, stats
        assert stats["session"]["result_cache"]["ttl_s"] == 600.0, stats
        assert "plane" not in stats["session"], stats  # every solve runs inline
        _assert_watch_renders(url)

        process.send_signal(signal.SIGINT)
        returncode = process.wait(timeout=STARTUP_TIMEOUT_S)
        assert returncode == 0, f"server exited {returncode} on SIGINT"
        print("serving smoke ok: /solve /solve_transient /stats /events /metrics"
              " + watch + clean shutdown")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
