"""Stdlib HTTP JSON API in front of the serving engine.

Endpoints
---------
* ``POST /solve`` — answer one steady-state thermal query.  Body::

      {"chip": "chip1", "resolution": 32, "backend": "fvm",
       "powers": {"core_layer/Core": 20.0}, "include_maps": false}

  ``powers`` may be omitted in favour of ``"total_power": <watts>`` spread
  uniformly over all blocks.  ``?mode=exact`` is the only mode and the
  default.
* ``POST /solve_transient`` — integrate a constant or piecewise-constant
  power schedule and return the full quasi-steady trace.  Body::

      {"chip": "chip1", "resolution": 16, "duration_s": 0.05, "dt_s": 0.005,
       "total_power": 40.0, "store_every": 1}

  (or ``"schedule": [{"t_s": 0.0, "total_power": 40.0}, ...]``); the
  response carries ``history.times_s`` / ``history.peak_K`` /
  ``history.mean_K`` arrays.  With ``Accept: text/event-stream`` (or
  ``?mode=stream``) the trace arrives incrementally instead: one
  ``event: segment`` frame per stored step (``id:`` carries the step
  index as a resumable cursor; reconnect with ``Last-Event-ID`` or
  ``?since=`` to suppress already-seen segments) followed by one
  ``event: result`` frame with the blocking answer.  Both modes run the
  same integration, holding one snapshot at a time; a request whose
  ``deadline_ms`` budget expires before its trace completes is shed,
  with a 504 (blocking) or a typed ``event: error`` frame (streamed).
* ``POST /warm_up`` — pre-build solver state for a set of group keys
  (``{"keys": [{"chip": ..., "resolution": ..., "backend": ...}]}``)
  before traffic arrives, so the first requests for those keys do not
  pay for building the block basis, the HotSpot network or the transient
  geometry and time constant.
* ``GET /chips`` — built-in benchmark chips and their block names.
* ``GET /models`` — operator surrogates loaded into the model registry.
* ``GET /healthz`` — liveness probe (uptime, sampler liveness, last alert).
* ``GET /stats`` — engine/backend counters (throughput, latency
  percentiles, queue depth, admission rejections, solver-pool and
  result-cache hit/eviction rates).
* ``GET /events`` — the telemetry event stream.  Default is a long-poll:
  ``?since=<cursor>&timeout_s=<s>`` answers ``{"events": [...], "cursor":
  N}`` as soon as events past the cursor exist.  With ``Accept:
  text/event-stream`` the same stream arrives as Server-Sent Events
  (``id:`` carries the cursor; reconnect with ``Last-Event-ID`` or
  ``?since=`` to resume exactly where the stream broke).
* ``GET /metrics`` — Prometheus text exposition of the same counters.
* ``GET /metrics/history`` — the sampler's rolled-up ring-buffer time
  series (``?window_s=`` bounds the rollup window).

The server is a :class:`http.server.ThreadingHTTPServer`: each ``/solve`` is
answered on the handler thread that parsed it, through
:meth:`~repro.serving.engine.MicroBatchEngine.solve`, which lets one backend
call run at a time.  When the engine's admission control rejects a request
the client gets a fast ``429`` with a ``Retry-After`` hint instead of
queueing without bound.

With ``log_json=True`` (``serve --log-json``) every answered request emits
one JSON line to stderr — method, path, status, latency, trace id, backend,
cached/shed flags — for log shippers; the default plain-text access log
(gated on ``verbose``) is unchanged.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.api.session import DeadlineExceeded, ThermalSession
from repro.chip.designs import get_chip, list_chips
from repro.data.power import error_message
from repro.obs.promexport import render_prometheus
from repro.obs.telemetry import Telemetry
from repro.serving.backends import OperatorBackend
from repro.serving.engine import EngineStopped, MicroBatchEngine, QueueFullError
from repro.serving.request import ThermalRequest, TransientRequest, validate_warm_up_key

#: Largest accepted ``/solve`` body; far above any legitimate power map.
MAX_BODY_BYTES = 1 << 20

#: How long one ``/solve`` may wait for the engine's solver before answering 504.
SOLVE_TIMEOUT_S = 120.0

#: ``Retry-After`` seconds suggested on 429 admission rejections.
RETRY_AFTER_S = 1

#: Most ``/solve_transient`` requests admitted at once (running + waiting).
#: A trace is up to 20k separable backward-Euler solves in the handler
#: thread, so beyond this bound the endpoint answers 429 instead of
#: stacking handler threads.
TRANSIENT_MAX_PENDING = 4

#: Default and maximum ``/events`` long-poll park time; a client asking for
#: more is clamped so a handler thread can never be parked indefinitely.
EVENTS_DEFAULT_TIMEOUT_S = 25.0
EVENTS_MAX_TIMEOUT_S = 60.0

#: Most events answered by one ``/events`` long-poll (or SSE write burst).
EVENTS_MAX_BATCH = 500

#: Seconds of silence before an SSE stream emits a keepalive comment.
SSE_KEEPALIVE_S = 10.0


def _error_frame_payload(error: BaseException) -> Dict[str, Any]:
    """The server's one map from a failure to its answer.

    ``/solve``, both ``/solve_transient`` modes and the typed
    ``event: error`` SSE frames all answer with it: ``status`` is the HTTP
    code, ``error`` the client-safe message and ``shed`` flags
    deadline-driven load shedding.  DeadlineExceeded must be matched
    before TimeoutError, which it subclasses.
    """
    if isinstance(error, QueueFullError):
        return {"error": str(error), "status": 429, "shed": False}
    if isinstance(error, DeadlineExceeded):
        return {"error": str(error), "status": 504, "shed": True}
    if isinstance(error, TimeoutError):
        return {
            "error": "solve timed out; the service is overloaded",
            "status": 504,
            "shed": False,
        }
    if isinstance(error, EngineStopped):
        return {"error": str(error), "status": 503, "shed": False}
    if isinstance(error, (KeyError, ValueError)):
        return {"error": error_message(error), "status": 400, "shed": False}
    return {"error": f"solve failed: {error}", "status": 500, "shed": False}


class _HTTPServer(ThreadingHTTPServer):
    """Threading HTTP server with a listen backlog fit for bursty clients.

    A pooled keep-alive client (a closed-loop load generator such as
    perfbench's) opens its connections in one burst; with the stdlib
    backlog of 5 the accept queue overflows, the kernel drops the excess
    SYNs, and each dropped one costs that client a full 1 s retransmit
    timeout.
    """

    request_queue_size = 128


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the engine owned by the server."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-thermal/{__version__}"
    # Headers and body go out as separate small writes; without TCP_NODELAY,
    # Nagle holds the body behind the peer's delayed ACK (~40 ms) on every
    # reused keep-alive connection — fatal for any pooled keep-alive client.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status == 429:
            self.send_header("Retry-After", str(RETRY_AFTER_S))
        if self.close_connection:
            # Set when the request body was not (fully) read: the unread
            # bytes would desync the next keep-alive request on this socket.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)
        self._log_access(status)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self._log_access(status)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_error_frame(self, frame: Dict[str, Any]) -> None:
        """Answer an :func:`_error_frame_payload` frame as a plain HTTP error."""
        if frame["shed"]:
            self._access_extra["shed"] = True
        self._send_error_json(frame["status"], frame["error"])

    # ------------------------------------------------------------------
    # SSE plumbing shared by /events and streaming /solve_transient — one
    # frame grammar across every streaming surface.
    # ------------------------------------------------------------------
    def _sse_begin(self) -> None:
        """Write the SSE response head.

        The response is deliberately ``Connection: close`` — an unframed
        infinite body has no length, so the socket is the stream's lifetime.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()

    def _sse_frame(self, seq: int, kind: str, data: Dict[str, Any]) -> None:
        """One ``id:`` / ``event:`` / ``data:`` frame, flushed immediately."""
        frame = f"id: {seq}\nevent: {kind}\ndata: {json.dumps(data)}\n\n"
        self.wfile.write(frame.encode("utf-8"))
        self.wfile.flush()

    def _sse_comment(self, note: str = "keepalive") -> None:
        """A comment frame — ignored by clients, proves the stream lives."""
        self.wfile.write(f": {note}\n\n".encode("utf-8"))
        self.wfile.flush()

    # ------------------------------------------------------------------
    def _log_access(self, status: int) -> None:
        """One structured access-log line per answered request (opt-in)."""
        if not getattr(self.server, "log_json", False):
            return
        started = getattr(self, "_access_started", None)
        record = {
            "ts": round(time.time(), 3),
            "method": self.command,
            "path": self.path,
            "status": status,
            "latency_ms": (
                round((time.perf_counter() - started) * 1e3, 3)
                if started is not None
                else None
            ),
        }
        record.update(getattr(self, "_access_extra", None) or {})
        print(json.dumps(record), file=sys.stderr, flush=True)

    def _query(self) -> Dict[str, str]:
        """Flat (last-value-wins) query parameters of the request path."""
        parts = self.path.split("?", 1)
        if len(parts) == 1:
            return {}
        parsed = urllib.parse.parse_qs(parts[1], keep_blank_values=True)
        return {name: values[-1] for name, values in parsed.items()}

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        self._access_started = time.perf_counter()
        self._access_extra: Dict[str, Any] = {}
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, self.server.service.health())
        elif path == "/chips":
            self._send_json(200, {"chips": self.server.service.describe_chips()})
        elif path == "/models":
            self._send_json(200, {"models": self.server.service.describe_models()})
        elif path == "/stats":
            self._send_json(200, self.server.service.stats())
        elif path == "/metrics":
            self._send_text(
                200,
                self.server.service.render_metrics(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/metrics/history":
            self._get_metrics_history()
        elif path == "/events":
            self._get_events()
        else:
            self._send_error_json(404, f"unknown path '{self.path}'")

    # ------------------------------------------------------------------
    def _get_metrics_history(self) -> None:
        query = self._query()
        try:
            window_s = float(query["window_s"]) if "window_s" in query else None
        except ValueError:
            self._send_error_json(400, "'window_s' must be a number")
            return
        self._send_json(200, self.server.service.telemetry.history(window_s=window_s))

    def _get_events(self) -> None:
        """Long-poll (default) or SSE (``Accept: text/event-stream``) feed."""
        query = self._query()
        try:
            since = int(query.get("since", 0))
            timeout_s = float(query.get("timeout_s", EVENTS_DEFAULT_TIMEOUT_S))
            limit = int(query.get("limit", EVENTS_MAX_BATCH))
            max_events = int(query["max_events"]) if "max_events" in query else None
        except ValueError:
            self._send_error_json(
                400, "'since', 'timeout_s', 'limit' and 'max_events' must be numbers"
            )
            return
        # SSE reconnects resume via the standard Last-Event-ID header; an
        # explicit ?since= wins so both transports share cursor semantics.
        if "since" not in query and self.headers.get("Last-Event-ID"):
            try:
                since = int(self.headers["Last-Event-ID"])
            except ValueError:
                pass
        timeout_s = min(max(timeout_s, 0.0), EVENTS_MAX_TIMEOUT_S)
        limit = min(max(limit, 1), EVENTS_MAX_BATCH)
        bus = self.server.service.telemetry.bus
        if "text/event-stream" in (self.headers.get("Accept") or ""):
            self._stream_events(bus, since, max_events)
            return
        events = bus.wait_for(since=since, timeout=timeout_s, limit=limit)
        cursor = events[-1].seq if events else since
        self._send_json(
            200, {"events": [event.to_json() for event in events], "cursor": cursor}
        )

    def _stream_events(self, bus, since: int, max_events: Optional[int]) -> None:
        """Write an SSE stream until the client leaves (or ``max_events``).

        Each frame is ``id: <seq>`` / ``event: <kind>`` / ``data: <json>``;
        silence is bridged with comment keepalives so proxies and clients
        can tell "no events" from "dead server".  The response is
        deliberately ``Connection: close`` — an unframed infinite body has
        no length, so the socket is the stream's lifetime.
        """
        self._sse_begin()
        cursor = since
        sent = 0
        try:
            while True:
                events = bus.wait_for(
                    since=cursor, timeout=SSE_KEEPALIVE_S, limit=EVENTS_MAX_BATCH
                )
                if not events:
                    self._sse_comment()
                    continue
                for event in events:
                    cursor = event.seq
                    self._sse_frame(event.seq, event.kind, event.to_json())
                    sent += 1
                    if max_events is not None and sent >= max_events:
                        self._log_access(200)
                        return
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The subscriber hung up mid-stream: normal SSE lifecycle.
            self.close_connection = True

    def _read_json_body(self) -> Optional[Any]:
        """Read and decode the request body; answers the error and returns
        ``None`` when the body is missing, oversized or malformed."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self.close_connection = True
            self._send_error_json(400, "invalid Content-Length header")
            return None
        if length <= 0:
            # Covers chunked bodies too (no Content-Length): nothing is
            # read, so the connection must close to stay in sync.
            self.close_connection = True
            self._send_error_json(400, "request body with a Content-Length is required")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        # ValueError covers both decode errors and an integer literal past
        # Python's digit limit for int parsing (4300 digits).
        except ValueError as error:
            self._send_error_json(400, f"malformed JSON body: {error}")
            return None

    def do_POST(self) -> None:  # noqa: N802
        self._access_started = time.perf_counter()
        self._access_extra = {}
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/solve":
            self._post_solve()
        elif path == "/solve_transient":
            self._post_solve_transient()
        elif path == "/warm_up":
            self._post_warm_up()
        else:
            self.close_connection = True  # body never read — see _send_json
            self._send_error_json(404, f"unknown path '{self.path}'")

    def _post_solve(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        engine = self.server.service.engine
        try:
            request = ThermalRequest.from_payload(
                payload,
                allowed_backends=engine.backends,
                chips=self.server.service.session,
            )
            backend = engine.backends[request.backend]
            if isinstance(backend, OperatorBackend):
                # No model for this (chip, resolution) is the client's
                # error, refused before admission like an unknown backend.
                backend.registry.lookup(request.chip, request.resolution)
        except (KeyError, ValueError) as error:
            self._send_error_frame(_error_frame_payload(error))
            return
        mode = self._query().get("mode", "exact")
        if mode != "exact":
            self._send_error_json(400, f"unknown mode '{mode}'; use 'exact'")
            return
        try:
            result = engine.solve(request, timeout=SOLVE_TIMEOUT_S)
        except Exception as error:  # noqa: BLE001 — every failure maps to a status
            self._send_error_frame(_error_frame_payload(error))
            return
        trace = result.provenance.get("trace") or {}
        self._access_extra = {
            "trace_id": trace.get("trace_id", ""),
            "backend": result.backend,
            "cached": result.cached,
        }
        self._send_json(200, result.to_json())

    def _post_warm_up(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        service = self.server.service
        if service.session is None:
            self._send_error_json(
                503, "this deployment has no session; warm-up is disabled"
            )
            return
        keys = payload.get("keys") if isinstance(payload, dict) else None
        if not isinstance(keys, list):
            self._send_error_json(400, "body must be {\"keys\": [...]}")
            return
        try:
            self._send_json(200, service.warm_up(keys))
        except ValueError as error:
            self._send_error_json(400, str(error))
        except Exception as error:  # noqa: BLE001
            self._send_error_json(500, f"warm-up failed: {error}")

    def _post_solve_transient(self) -> None:
        payload = self._read_json_body()
        if payload is None:
            return
        service = self.server.service
        if service.session is None:
            self._send_error_json(
                503, "this deployment has no session; the transient endpoint is disabled"
            )
            return
        try:
            request = TransientRequest.from_payload(payload, chips=service.session)
        except (KeyError, ValueError) as error:
            self._send_error_frame(_error_frame_payload(error))
            return
        query = self._query()
        mode = query.get("mode", "")
        if mode not in ("", "block", "stream"):
            self._send_error_json(
                400, f"unknown mode '{mode}'; use 'block' or 'stream'"
            )
            return
        accept = self.headers.get("Accept") or ""
        if mode == "stream" or "text/event-stream" in accept:
            self._stream_solve_transient(service, request, query)
            return
        # Blocking: drain the stream, answering its last frame.
        try:
            for kind, _, data in service.stream_transient(request):
                pass
        except QueueFullError as error:
            kind, data = "error", _error_frame_payload(error)
        if kind == "result":
            self._send_json(200, data)
        else:
            self._send_error_frame(data)

    def _stream_solve_transient(
        self, service: "ThermalServer", request: "TransientRequest", query: Dict[str, str]
    ) -> None:
        """Stream one trace as SSE ``segment`` frames plus a final ``result``.

        ``id:`` carries the backward-Euler step index, which doubles as the
        resumable cursor: a client reconnecting with ``Last-Event-ID`` (or
        an explicit ``?since=``, which wins — the ``/events`` convention)
        re-runs the integration but already-seen segments are suppressed,
        so the re-joined stream is the exact complement of what it saw.
        The first frame is produced *before* the response head goes out, so
        admission rejections (slot limit, bad chip) still map to ordinary
        HTTP statuses instead of an in-band error frame.
        """
        try:
            since = int(query["since"]) if "since" in query else None
        except ValueError:
            self._send_error_json(400, "'since' must be an integer")
            return
        if since is None and self.headers.get("Last-Event-ID"):
            try:
                since = int(self.headers["Last-Event-ID"])
            except ValueError:
                pass
        frames = service.stream_transient(request)
        try:
            first = next(frames)
        except QueueFullError as error:
            self._send_error_frame(_error_frame_payload(error))
            return
        with service._transient_stats_lock:  # SSE-mode requests only
            service._transient_streams += 1
        self._access_extra["streamed"] = True
        if first[0] == "error":
            # The trace failed before a single step landed: answer the
            # status the blocking mode would have, not a one-frame stream.
            frames.close()
            self._send_error_frame(first[2])
            return
        self._sse_begin()
        try:
            self._sse_comment("stream open")
            last_write = time.monotonic()
            last_id = since if since is not None else 0
            frame = first
            while True:
                kind, cursor_id, data = frame
                if kind == "segment":
                    if since is None or cursor_id > since:
                        self._sse_frame(cursor_id, "segment", data)
                        last_write = time.monotonic()
                        last_id = cursor_id
                    elif time.monotonic() - last_write >= SSE_KEEPALIVE_S:
                        # A resume can suppress thousands of segments; the
                        # client still needs proof of life meanwhile.
                        self._sse_comment()
                        last_write = time.monotonic()
                elif kind == "result":
                    self._sse_frame(cursor_id, "result", data)
                    last_write = time.monotonic()
                else:  # error
                    if data.get("shed"):
                        self._access_extra["shed"] = True
                    self._sse_frame(last_id, "error", data)
                    last_write = time.monotonic()
                try:
                    frame = next(frames)
                except StopIteration:
                    break
            self._log_access(200)
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The client hung up mid-trace: closing the generator (below)
            # releases the integration slot and the solver lock.
            self.close_connection = True
        finally:
            frames.close()


class ThermalServer:
    """Owns the HTTP server, the engine and their lifecycles.

    Binding to port 0 picks a free port (used by the tests and benchmark);
    the bound port is available as :attr:`port`.
    """

    def __init__(
        self,
        engine: MicroBatchEngine,
        host: str = "127.0.0.1",
        port: int = 8471,
        verbose: bool = False,
        session: Optional["ThermalSession"] = None,
        telemetry: Optional[Telemetry] = None,
        log_json: bool = False,
        sample_interval_s: float = 1.0,
    ):
        self.engine = engine
        # The session behind the backends (for /stats result-cache counters);
        # discovered from the backends when not passed explicitly.
        self.session = session or next(
            (
                backend.session
                for backend in engine.backends.values()
                if getattr(backend, "session", None) is not None
            ),
            None,
        )
        # Telemetry: one bus shared by the engine, the session (cache
        # evictions) and the watchdog.  The engine may arrive with a
        # bus already attached (tests do this); it then becomes the server's.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(
                bus=engine.events,
                max_queue=engine.max_queue,
                interval_s=sample_interval_s,
            )
        )
        if engine.events is None:
            engine.events = self.telemetry.bus
        if self.session is not None:
            self.session.attach_events(self.telemetry.bus)
        self._started_at = time.time()
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self
        self._httpd.verbose = verbose
        self._httpd.log_json = log_json
        self._thread: Optional[threading.Thread] = None
        # Transient bookkeeping.  This lock guards only the counters (it is
        # never held across an integration, so /stats cannot block behind a
        # minutes-long trace); the solves themselves serialise inside the
        # pooled TransientBackendAdapter, per (chip, resolution).
        self._transient_stats_lock = threading.Lock()
        self._transient_pending = 0
        self._transient_requests = 0
        self._transient_errors = 0
        self._transient_seconds = 0.0
        self._transient_streams = 0
        self._transient_shed = 0

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Bound interface of the HTTP listener."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (useful with ``port=0`` free-port binding)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def stream_transient(self, request: "TransientRequest"):
        """Generator of ``(kind, cursor, payload)`` frames for one trace.

        The one path of ``/solve_transient``: the streaming mode forwards
        the frames as SSE, the blocking mode drains them and answers the
        last.  ``kind`` is ``"segment"`` (cursor = step index, payload = the
        per-step scalars), ``"result"`` (payload = the final solution's
        JSON body) or ``"error"`` (payload = an :func:`_error_frame_payload`
        frame).  At most :data:`TRANSIENT_MAX_PENDING` traces are admitted
        at once (running + waiting): beyond that the first ``next()``
        raises :class:`QueueFullError` (HTTP 429) instead of stacking
        handler threads.  The slot is released in a ``finally`` so a client
        disconnect (which closes the generator) can never leak it.  A
        request whose deadline expires between segments ends with a shed
        error frame (504) — the engine's deadline semantics, applied
        mid-trace.
        """
        with self._transient_stats_lock:
            if self._transient_pending >= TRANSIENT_MAX_PENDING:
                raise QueueFullError(
                    f"{self._transient_pending} transient requests are already "
                    f"running or queued (limit {TRANSIENT_MAX_PENDING}); retry later"
                )
            self._transient_pending += 1
        start = time.perf_counter()
        completed = False
        shed = False
        aborted = False
        stream = None
        try:
            adapter = self.session.backend("transient", request.chip, request.resolution)
            stream = adapter.stream_trace(
                request.trace(),
                request.duration_s,
                request.dt_s,
                store_every=request.store_every,
                include_maps=request.include_maps,
            )
            for kind, payload in stream:
                if request.expired():
                    shed = True
                    yield (
                        "error",
                        None,
                        {
                            "error": (
                                "deadline expired mid-trace after "
                                f"{time.perf_counter() - start:.3f}s; "
                                "the remaining trace was shed"
                            ),
                            "status": 504,
                            "shed": True,
                        },
                    )
                    return
                if kind == "segment":
                    yield ("segment", payload["step"], payload)
                else:
                    solution = payload
                    solution.request_id = request.request_id
                    completed = True
                    yield ("result", request.num_steps, solution.to_json())
        except GeneratorExit:
            aborted = True
            raise
        except Exception as error:  # noqa: BLE001 — becomes a typed frame
            yield ("error", None, _error_frame_payload(error))
        finally:
            if stream is not None:
                # Close on this thread: the adapter's generator holds the
                # per-(chip, resolution) solver RLock, which must be
                # released by the thread that took it.
                stream.close()
            with self._transient_stats_lock:
                self._transient_pending -= 1
                if completed:
                    self._transient_requests += 1
                    self._transient_seconds += time.perf_counter() - start
                elif shed:
                    self._transient_shed += 1
                elif not aborted:
                    self._transient_errors += 1

    # ------------------------------------------------------------------
    def warm_up(self, keys: List[Any]) -> Dict[str, Any]:
        """``POST /warm_up``: build solver state for group keys through the session.

        Each key must pass :func:`~repro.serving.request.validate_warm_up_key`;
        the first bad key raises :class:`ValueError` naming it (HTTP 400)
        before anything is built.  Delegates to :meth:`ThermalSession.warm_up`.
        """
        for key in keys:
            validate_warm_up_key(key)
        return self.session.warm_up(keys)

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Liveness payload of ``GET /healthz``; ``status`` reads ``"ok"``."""
        body: Dict[str, Any] = {
            "status": "ok",
            "version": __version__,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "backends": sorted(self.engine.backends),
            "engine_running": self.engine.is_running,
        }
        body.update(self.telemetry.health())
        return body

    def describe_chips(self) -> list:
        """Chip inventory of ``GET /chips`` (built-ins plus custom designs)."""
        names = self.session.list_chips() if self.session is not None else list_chips()
        resolve = self.session.get_chip if self.session is not None else get_chip
        chips = []
        for name in names:
            chip = resolve(name)
            chips.append(
                {
                    "name": name,
                    "die_mm": [chip.die_width_mm, chip.die_height_mm],
                    "layers": chip.layer_names,
                    "power_layers": chip.power_layer_names,
                    "blocks": chip.flat_block_names(),
                    "power_budget_W": list(chip.power_budget_W),
                }
            )
        return chips

    def describe_models(self) -> list:
        """Loaded operator surrogates of ``GET /models``."""
        if self.session is not None:
            return self.session.models.describe()
        backend = self.engine.backends.get("operator")
        if isinstance(backend, OperatorBackend):
            return backend.registry.describe()
        return []

    def stats(self) -> Dict[str, Any]:
        """Engine counters plus the shared session's cache/pool statistics."""
        body = self.engine.stats()
        with self._transient_stats_lock:
            body["transient_endpoint"] = {
                "requests": self._transient_requests,
                "pending": self._transient_pending,
                "max_pending": TRANSIENT_MAX_PENDING,
                "errors": self._transient_errors,
                "streams": self._transient_streams,
                "shed": self._transient_shed,
                "mean_seconds": (
                    round(self._transient_seconds / self._transient_requests, 4)
                    if self._transient_requests
                    else 0.0
                ),
            }
        if self.session is not None:
            body["session"] = self.session.stats()
        body["events"] = self.telemetry.stats()
        return body

    def render_metrics(self) -> str:
        """Prometheus text exposition of ``GET /metrics``."""
        return render_prometheus(self.stats(), uptime_s=time.time() - self._started_at)

    def _telemetry_sample(self) -> Dict[str, Any]:
        """One flat sample for the metrics store + watchdog, per tick."""
        stats = self.stats()
        backends = stats.get("backends") or {}
        latencies = [b.get("latency_ms") or {} for b in backends.values()]
        session = stats.get("session") or {}
        cache = session.get("result_cache") or {}
        events = stats.get("events") or {}
        sample: Dict[str, Any] = {
            "requests_total": stats.get("total_requests", 0),
            "rejected_total": stats.get("rejected_requests", 0),
            "shed_total": stats.get("shed_requests", 0),
            "errors_total": sum(b.get("errors", 0) for b in backends.values()),
            "queue_depth": stats.get("queue_depth", 0),
            "throughput_rps": stats.get("throughput_rps", 0.0),
            "p50_ms": max((l.get("p50", 0.0) for l in latencies), default=0.0),
            "p95_ms": max((l.get("p95", 0.0) for l in latencies), default=0.0),
            "p99_ms": max((l.get("p99", 0.0) for l in latencies), default=0.0),
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_hit_rate": cache.get("hit_rate", 0.0),
            "events_published": events.get("published", 0),
            "events_dropped": events.get("dropped", 0),
        }
        if self.engine.max_queue is not None:
            sample["max_queue"] = self.engine.max_queue
        return sample

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Open the engine and run the HTTP loop in this thread (CLI path)."""
        self.engine.start()
        self.telemetry.start(self._telemetry_sample)
        try:
            self._httpd.serve_forever()
        finally:
            self.telemetry.stop()
            self.engine.stop()

    def start_background(self) -> "ThermalServer":
        """Run the HTTP loop in a daemon thread (tests and benchmarks)."""
        self.engine.start()
        self.telemetry.start(self._telemetry_sample)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="thermal-http", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the HTTP loop, close the socket and stop the engine."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.telemetry.stop()
        self.engine.stop()

    def close(self) -> None:
        """Close the listening socket after ``serve_forever`` has returned.

        The foreground (CLI) path exits ``serve_forever`` via
        ``KeyboardInterrupt``, so the usual :meth:`shutdown` handshake with a
        background thread does not apply; this just releases the port.
        """
        self.telemetry.stop()
        self._httpd.server_close()

    def __enter__(self) -> "ThermalServer":
        return self.start_background()

    def __exit__(self, *_exc) -> None:
        self.shutdown()
