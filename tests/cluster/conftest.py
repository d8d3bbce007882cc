"""Shared fixtures for the cluster tests: a scriptable stub replica.

The stub speaks just enough of the replica HTTP surface (``/healthz``,
``/warm_up``, ``/solve``, ``/stats``, ``/metrics``, ``/chips``) for the
router and membership tests to exercise placement, draining, warm-up and
aggregation without booting the real solver stack.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *_args):
        pass

    def _reply(self, status, body, content_type="application/json"):
        payload = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        stub = self.server.stub
        path = self.path.split("?", 1)[0]
        with stub.lock:
            stub.requests.append(("GET", self.path))
        if path == "/healthz":
            self._reply(200 if stub.healthy else 503, {"status": "ok"})
        elif path == "/stats":
            self._reply(200, stub.stats_body)
        elif path == "/metrics":
            self._reply(200, stub.metrics_text.encode(),
                        content_type="text/plain; version=0.0.4")
        elif path == "/chips":
            self._reply(200, {"chips": [{"name": "chip1"}]})
        else:
            self._reply(404, {"error": "nope"})

    def do_POST(self):
        stub = self.server.stub
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        with stub.lock:
            stub.requests.append(("POST", self.path, body))
        if self.path == "/warm_up":
            keys = body.get("keys", [])
            with stub.lock:
                stub.warmed_keys.extend(keys)
            self._reply(200, {"warmed": [f"k{i}" for i in range(len(keys))],
                              "errors": {}})
        elif self.path in ("/solve", "/solve_transient"):
            self._reply(200, {"backend": body.get("backend", "fvm"),
                              "max_K": 300.0, "served_by": stub.name})
        else:
            self._reply(404, {"error": "nope"})


class StubReplica:
    """One scriptable replica: start/stop, flip health, inspect traffic."""

    def __init__(self):
        self.lock = threading.Lock()
        self.requests = []
        self.warmed_keys = []
        self.healthy = True
        self.stats_body = {
            "total_requests": 1, "rejected_requests": 0, "shed_requests": 0,
            "throughput_rps": 1.0, "queue_depth": 0,
            "backends": {"fvm": {"requests": 1, "errors": 0,
                                 "latency_ms": {"p50": 5.0}}},
        }
        self.metrics_text = (
            "# HELP repro_requests_total Requests answered by the engine.\n"
            "# TYPE repro_requests_total counter\n"
            "repro_requests_total 1\n"
            'repro_requests_total{chip="chip1",resolution="16",backend="fvm"} 1\n'
        )
        self._httpd = None
        self._thread = None
        self._port = 0

    @property
    def url(self):
        return f"http://127.0.0.1:{self._port}"

    @property
    def name(self):
        return f"127.0.0.1:{self._port}"

    def start(self):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", self._port), _StubHandler)
        self._httpd.daemon_threads = True
        self._httpd.stub = self
        self._port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join()
            self._httpd = None

    def post_count(self, path):
        with self.lock:
            return sum(1 for r in self.requests if r[0] == "POST" and r[1] == path)


@pytest.fixture
def stub_replicas():
    """Three running stub replicas, stopped at teardown."""
    stubs = [StubReplica().start() for _ in range(3)]
    yield stubs
    for stub in stubs:
        stub.stop()
