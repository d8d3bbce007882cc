"""The fleet front router: placement, health, draining, aggregation.

:class:`FleetRouter` is a stdlib :class:`~http.server.ThreadingHTTPServer`
that fronts N ``repro-thermal serve`` replicas:

* ``POST /solve`` / ``POST /solve_transient`` — admission-validates the
  body (malformed requests are bounced at the edge and never cost a
  replica hop), rendezvous-hashes the ``(chip, resolution, backend)``
  group key onto a healthy replica (each replica's LRU solver pools see a
  stable slice of keys) and proxies the original bytes — query string
  included, so ``?mode=stream`` passes through.  A
  connection-level failure drains the replica and retries **once** on the
  next-ranked healthy peer — solves are idempotent, so the retry is safe;
  the answering replica is named in the ``X-Repro-Replica`` header.
  Streamed transients (``/solve_transient`` SSE) are proxied
  **frame by frame**: each SSE chunk is forwarded as it arrives, never
  buffered to the end of the stream; a replica dying mid-stream becomes a
  typed in-band ``event: error`` frame (retries only happen before the
  first byte, so a retried stream can never duplicate frames).
* ``POST /warm_up`` — splits the keys by owner and forwards each slice.
* ``GET /healthz`` — fleet membership summary (ok / degraded / down).
* ``GET /stats`` — live-merged replica stats plus per-replica breakdown
  and the router's own routing counters.
* ``GET /metrics`` — every replica's Prometheus exposition re-labelled
  with ``replica="host:port"`` plus ``repro_router_*`` series.
* ``GET /chips`` / ``/models`` / ``/events`` / ``/metrics/history`` —
  proxied to one healthy replica (query string preserved), so dashboards
  like ``repro-thermal watch`` and ``report --serve-history`` point at a
  router URL transparently.

Membership is probed in the background (:class:`Membership`); a replica
that comes back is re-admitted only after the router replays its key
slice through ``POST /warm_up``, so its first real request hits warm
factorisations.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import __version__
from repro.cluster.hashing import rank
from repro.cluster.membership import Membership, Replica
from repro.cluster.proxy import ReplicaError
from repro.data.power import error_message
from repro.serving.request import ThermalRequest, TransientRequest, validate_warm_up_key

__all__ = ["FleetRouter"]

#: Largest accepted request body (same bound as the replica server).
MAX_BODY_BYTES = 1 << 20

#: Headers never forwarded verbatim between hops (stdlib http.server adds
#: its own framing; a stale Content-Length or keep-alive token from the
#: replica would desync the client connection).
_HOP_HEADERS = {
    "connection", "keep-alive", "transfer-encoding", "content-length",
    "server", "date",
}

#: Prometheus series the router itself exports.
_ROUTER_METRICS_HELP = {
    "repro_router_requests_total": "Requests proxied through the fleet router.",
    "repro_router_retries_total": "Requests retried on a peer after a replica failure.",
    "repro_router_errors_total": "Requests answered 502 after exhausting retries.",
    "repro_router_replicas_healthy": "Replicas currently taking traffic.",
    "repro_router_replicas_total": "Replicas in the configured membership.",
}


class _RouterServer(ThreadingHTTPServer):
    """Threading HTTP server with a listen backlog fit for bursty clients.

    Clients open their pooled keep-alive connections in one burst while the
    router's accept loop competes with its own proxy threads for the GIL;
    with the stdlib backlog of 5 the accept queue overflows, the kernel
    drops the excess SYNs, and each dropped one costs that client a full
    1 s retransmit timeout.
    """

    request_queue_size = 128


class _RouterHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the :class:`FleetRouter` owning the server."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-thermal-router/{__version__}"
    # Same rationale as the replica handler: keep-alive peers must not pay
    # a Nagle/delayed-ACK stall between the header and body writes.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_proxied(self, response, replica_name: str) -> None:
        """Forward a replica's answer verbatim (status, headers, body)."""
        self.send_response(response.status)
        for name, value in response.headers:
            if name.lower() not in _HOP_HEADERS:
                self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.send_header("X-Repro-Replica", replica_name)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response.body)

    def _send_proxied_stream(
        self, status: int, headers, chunks, replica_name: str
    ) -> None:
        """Forward a replica's streaming answer chunk by chunk.

        Unlike :meth:`_send_proxied` nothing is buffered: every chunk the
        replica writes is flushed straight to the client, so the router
        adds only a socket hop to time-to-first-frame.  The replica dying
        mid-stream becomes a typed in-band ``event: error`` frame (the SSE
        status line is long gone); the *client* hanging up just closes the
        upstream connection via the chunk generator.
        """
        self.send_response(status)
        for name, value in headers:
            if name.lower() not in _HOP_HEADERS:
                self.send_header(name, value)
        self.send_header("X-Repro-Replica", replica_name)
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        try:
            while True:
                try:
                    chunk = next(chunks)
                except StopIteration:
                    break
                except (OSError, http.client.HTTPException) as error:
                    payload = {
                        "error": f"replica {replica_name} failed mid-stream: {error}",
                        "status": 502,
                        "shed": False,
                    }
                    frame = f"id: 0\nevent: error\ndata: {json.dumps(payload)}\n\n"
                    self.wfile.write(frame.encode("utf-8"))
                    self.wfile.flush()
                    break
                self.wfile.write(chunk)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            self.close_connection = True  # the client hung up — normal SSE
        finally:
            chunks.close()

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _query(self) -> Dict[str, str]:
        """Flat (last-value-wins) query parameters of the request path."""
        parts = self.path.split("?", 1)
        if len(parts) == 1:
            return {}
        parsed = urllib.parse.parse_qs(parts[1], keep_blank_values=True)
        return {name: values[-1] for name, values in parsed.items()}

    def _read_body(self) -> Optional[bytes]:
        """Raw request body, or ``None`` after answering the error."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self.close_connection = True
            self._send_error_json(400, "invalid Content-Length header")
            return None
        if length <= 0:
            self.close_connection = True
            self._send_error_json(400, "request body with a Content-Length is required")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler contract
        router: "FleetRouter" = self.server.router
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, router.health())
        elif path == "/stats":
            self._send_json(200, router.stats())
        elif path == "/metrics":
            self._send_text(
                200, router.render_metrics(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path in ("/chips", "/models", "/events", "/metrics/history"):
            self._proxy_read()
        else:
            self._send_error_json(404, f"unknown path '{self.path}'")

    def _proxy_read(self) -> None:
        router: "FleetRouter" = self.server.router
        try:
            response, name = router.proxy_read(self.path)
        except ReplicaError as error:
            self._send_error_json(502, str(error))
            return
        except ValueError as error:
            self._send_error_json(503, str(error))
            return
        self._send_proxied(response, name)

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        path = self.path.split("?", 1)[0].rstrip("/")
        if path in ("/solve", "/solve_transient"):
            self._post_solve(path)
        elif path == "/warm_up":
            self._post_warm_up()
        else:
            self.close_connection = True  # body never read
            self._send_error_json(404, f"unknown path '{self.path}'")

    def _post_solve(self, path: str) -> None:
        router: "FleetRouter" = self.server.router
        raw = self._read_body()
        if raw is None:
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
            key = router.admit(path, payload)
        except (KeyError, ValueError) as error:
            self._send_error_json(400, error_message(error))
            return
        query = self._query()
        accept = self.headers.get("Accept") or ""
        wants_stream = path == "/solve_transient" and (
            query.get("mode") == "stream" or "text/event-stream" in accept
        )
        # The replica sees the original path *with* its query string (mode
        # selection happens there) plus the streaming-relevant headers.
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(raw)),
        }
        if accept:
            headers["Accept"] = accept
        if self.headers.get("Last-Event-ID"):
            headers["Last-Event-ID"] = self.headers["Last-Event-ID"]
        if wants_stream:
            try:
                status, up_headers, chunks, name = router.route_stream(
                    key, "POST", self.path, raw, headers
                )
            except ReplicaError as error:
                self._send_error_json(502, str(error))
                return
            except ValueError as error:  # no healthy replicas at all
                self._send_error_json(503, str(error))
                return
            self._send_proxied_stream(status, up_headers, chunks, name)
            return
        try:
            response, name = router.route(key, "POST", self.path, raw, headers)
        except ReplicaError as error:
            self._send_error_json(502, str(error))
            return
        except ValueError as error:  # no healthy replicas at all
            self._send_error_json(503, str(error))
            return
        self._send_proxied(response, name)

    def _post_warm_up(self) -> None:
        router: "FleetRouter" = self.server.router
        raw = self._read_body()
        if raw is None:
            return
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as error:  # decode errors, over-long integer literals
            self._send_error_json(400, f"malformed JSON body: {error}")
            return
        keys = payload.get("keys") if isinstance(payload, dict) else None
        if not isinstance(keys, list):
            self._send_error_json(400, "body must be {\"keys\": [...]}")
            return
        try:
            for key in keys:
                validate_warm_up_key(key)
        except ValueError as error:  # a malformed key, named in the message
            self._send_error_json(400, str(error))
            return
        try:
            self._send_json(200, router.warm_fleet(keys))
        except ValueError as error:  # no healthy replicas at all
            self._send_error_json(503, str(error))


class FleetRouter:
    """Owns the router HTTP server, the membership and routing state.

    Mirrors :class:`~repro.serving.server.ThermalServer`'s lifecycle:
    binding ``port=0`` picks a free port, :meth:`start_background` runs the
    loop in a daemon thread (tests), :meth:`serve_forever` in the calling
    thread (CLI), and the instance is a context manager.
    """

    def __init__(
        self,
        replica_urls: List[str],
        host: str = "127.0.0.1",
        port: int = 8470,
        probe_interval_s: float = 1.0,
        failure_threshold: int = 2,
        verbose: bool = False,
    ):
        self.membership = Membership(
            replica_urls,
            probe_interval_s=probe_interval_s,
            failure_threshold=failure_threshold,
            on_recover=self._warm_replica,
        )
        self._started_at = time.time()
        self._lock = threading.Lock()
        self._routed = 0
        self._retries = 0
        self._proxy_errors = 0
        self._routed_by_replica: Dict[str, int] = {}
        #: Every group key that has passed admission, as ``(chip,
        #: resolution, backend)`` — the slice replayed through ``/warm_up``
        #: when a drained replica rejoins.
        self._seen_keys: Set[Tuple[str, int, str]] = set()
        self._httpd = _RouterServer((host, port), _RouterHandler)
        self._httpd.daemon_threads = True
        self._httpd.router = self
        self._httpd.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Bound interface of the router listener."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (useful with ``port=0`` free-port binding)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running router."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def admit(self, path: str, payload: Any) -> Tuple[str, int, str]:
        """Validate a solve body at the edge; returns its group key.

        Uses the same request models the replicas use, so a request the
        router admits is one the replica will accept (built-in chips and
        known backends; replicas deployed with custom chips or a narrower
        backend set re-validate on arrival anyway).
        """
        if path == "/solve_transient":
            request = TransientRequest.from_payload(payload)
            return (request.chip, request.resolution, "transient")
        request = ThermalRequest.from_payload(payload)
        chip, resolution, backend = request.group_key[:3]
        key = (chip, resolution, backend)
        with self._lock:
            self._seen_keys.add(key)
        return key

    def route(
        self,
        key: Tuple[str, int, str],
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ):
        """Proxy one request to ``key``'s owner, retrying once on a peer.

        Returns ``(ReplicaResponse, replica_name)``.  Raises
        :class:`ValueError` when no replica is healthy and
        :class:`ReplicaError` when the owner *and* the retry peer both
        failed at the connection level.
        """
        names = self.membership.healthy_names()
        if not names:
            raise ValueError("no healthy replicas in the fleet")
        if headers is None:
            headers = {"Content-Type": "application/json",
                       "Content-Length": str(len(body))}
        last_error: Optional[ReplicaError] = None
        # The owner first, then at most one retry on the next-ranked peer.
        for attempt, name in enumerate(rank(key, names)[:2]):
            replica = self.membership.by_name(name)
            try:
                response = replica.client.request(method, path, body=body,
                                                  headers=headers)
            except ReplicaError as error:
                last_error = error
                self.membership.mark_failed(replica)
                with self._lock:
                    if attempt == 0:
                        self._retries += 1
                    else:
                        self._proxy_errors += 1
                continue
            with self._lock:
                self._routed += 1
                self._routed_by_replica[name] = (
                    self._routed_by_replica.get(name, 0) + 1
                )
            return response, name
        with self._lock:
            self._proxy_errors += 1
        raise ReplicaError(
            f"all candidate replicas for {key} failed: {last_error}"
        )

    def route_stream(
        self,
        key: Tuple[str, int, str],
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ):
        """Open a frame-by-frame stream to ``key``'s owner.

        Same placement and retry semantics as :meth:`route`, but the body
        arrives as a live chunk iterator instead of a buffered response —
        returns ``(status, headers, chunks, replica_name)``.  The one-peer
        retry only triggers while the connection is being opened (before
        any stream bytes exist), so a retried stream can never deliver a
        frame twice; once frames are flowing, a replica failure is the
        *handler's* problem to surface as an in-band error frame.
        """
        names = self.membership.healthy_names()
        if not names:
            raise ValueError("no healthy replicas in the fleet")
        last_error: Optional[ReplicaError] = None
        for attempt, name in enumerate(rank(key, names)[:2]):
            replica = self.membership.by_name(name)
            try:
                status, up_headers, chunks = replica.client.open_stream(
                    method, path, body=body, headers=headers
                )
            except ReplicaError as error:
                last_error = error
                self.membership.mark_failed(replica)
                with self._lock:
                    if attempt == 0:
                        self._retries += 1
                    else:
                        self._proxy_errors += 1
                continue
            with self._lock:
                self._routed += 1
                self._routed_by_replica[name] = (
                    self._routed_by_replica.get(name, 0) + 1
                )
            return status, up_headers, chunks, name
        with self._lock:
            self._proxy_errors += 1
        raise ReplicaError(
            f"all candidate replicas for {key} failed: {last_error}"
        )

    def proxy_read(self, path_and_query: str):
        """Proxy a read to one healthy replica, walking peers on failure."""
        replicas = self.membership.healthy()
        if not replicas:
            raise ValueError("no healthy replicas in the fleet")
        last_error: Optional[ReplicaError] = None
        for replica in replicas:
            try:
                return replica.client.request("GET", path_and_query), replica.name
            except ReplicaError as error:
                last_error = error
                self.membership.mark_failed(replica)
        raise ReplicaError(f"no replica answered the read: {last_error}")

    # ------------------------------------------------------------------
    def _keys_for(self, replica_name: str) -> List[Dict[str, Any]]:
        """Seen solve keys this replica would own once re-admitted."""
        with self._lock:
            seen = sorted(self._seen_keys)
        members = set(self.membership.healthy_names())
        members.add(replica_name)
        names = sorted(members)
        return [
            {"chip": chip, "resolution": resolution, "backend": backend}
            for chip, resolution, backend in seen
            if backend != "transient"
            and rank((chip, resolution, backend), names)[0] == replica_name
        ]

    def _warm_replica(self, replica: Replica) -> bool:
        """Membership recovery hook: replay the replica's slice via /warm_up."""
        keys = self._keys_for(replica.name)
        if not keys:
            return True  # nothing seen yet — nothing to pre-factorize
        try:
            response = replica.client.post_json("/warm_up", {"keys": keys})
        except ReplicaError:
            return False
        return response.status == 200

    def warm_fleet(self, keys: List[Dict[str, Any]]) -> Dict[str, Any]:
        """``POST /warm_up``: split ``keys`` by owner, forward each slice.

        Raises :class:`ValueError` for a malformed key (see
        :func:`~repro.serving.request.validate_warm_up_key`) and when no
        replica is healthy.
        """
        owners = [validate_warm_up_key(entry) for entry in keys]
        names = self.membership.healthy_names()
        if not names:
            raise ValueError("no healthy replicas in the fleet")
        slices: Dict[str, List[Dict[str, Any]]] = {}
        for entry, key in zip(keys, owners):
            owner_name = rank(key, names)[0]
            slices.setdefault(owner_name, []).append(entry)
        outcome: Dict[str, Any] = {"replicas": {}, "warmed": 0}
        for name, entries in sorted(slices.items()):
            replica = self.membership.by_name(name)
            try:
                response = replica.client.post_json("/warm_up", {"keys": entries})
                body = response.json() if response.status == 200 else {}
                warmed = len(body.get("warmed", []))
            except (ReplicaError, ValueError):
                warmed = 0
            outcome["replicas"][name] = {"keys": len(entries), "warmed": warmed}
            outcome["warmed"] += warmed
        return outcome

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Fleet membership summary of ``GET /healthz``."""
        body = self.membership.describe()
        uptime = round(time.time() - self._started_at, 3)
        body.update({
            "role": "router",
            "version": __version__,
            "uptime_seconds": uptime,
            "uptime_s": uptime,
        })
        return body

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``: merged replica stats + router routing counters."""
        merged: Dict[str, Any] = {
            "total_requests": 0,
            "rejected_requests": 0,
            "shed_requests": 0,
            "throughput_rps": 0.0,
            "queue_depth": 0,
            "backends": {},
        }
        per_replica: Dict[str, Any] = {}
        for replica in self.membership.healthy():
            try:
                stats = replica.client.get_json("/stats")
            except ReplicaError:
                self.membership.mark_failed(replica)
                continue
            per_replica[replica.name] = stats
            for counter in ("total_requests", "rejected_requests", "shed_requests"):
                merged[counter] += stats.get(counter, 0)
            merged["throughput_rps"] += stats.get("throughput_rps", 0.0)
            merged["queue_depth"] += stats.get("queue_depth", 0)
            for backend, summary in (stats.get("backends") or {}).items():
                into = merged["backends"].setdefault(
                    backend,
                    {"requests": 0, "errors": 0, "latency_ms": {}},
                )
                for counter in ("requests", "errors"):
                    into[counter] += summary.get(counter, 0)
                for quantile, value in (summary.get("latency_ms") or {}).items():
                    into["latency_ms"][quantile] = max(
                        into["latency_ms"].get(quantile, 0.0), value
                    )
        merged["throughput_rps"] = round(merged["throughput_rps"], 3)
        with self._lock:
            router_stats = {
                "routed": self._routed,
                "retries": self._retries,
                "proxy_errors": self._proxy_errors,
                "seen_keys": len(self._seen_keys),
                "routed_by_replica": dict(sorted(self._routed_by_replica.items())),
            }
        for replica in self.membership.replicas:
            router_stats.setdefault("connections", {})[replica.name] = (
                replica.client.stats()
            )
        merged["router"] = router_stats
        merged["membership"] = self.membership.describe()
        merged["replicas"] = per_replica
        return merged

    def render_metrics(self) -> str:
        """``GET /metrics``: replica expositions re-labelled + router series."""
        lines: List[str] = []
        declared: Set[str] = set()
        for replica in self.membership.healthy():
            try:
                response = replica.client.request("GET", "/metrics")
            except ReplicaError:
                self.membership.mark_failed(replica)
                continue
            if response.status != 200:
                continue
            exposition = response.body.decode("utf-8", "replace")
            lines.extend(
                _relabel(exposition, replica.name, declared)
            )
        health = self.membership.describe()
        with self._lock:
            own = {
                "repro_router_requests_total": self._routed,
                "repro_router_retries_total": self._retries,
                "repro_router_errors_total": self._proxy_errors,
            }
        own["repro_router_replicas_healthy"] = health["healthy_count"]
        own["repro_router_replicas_total"] = health["member_count"]
        for name, value in own.items():
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# HELP {name} {_ROUTER_METRICS_HELP[name]}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the prober and HTTP loop in the calling thread (CLI path)."""
        self.membership.start()
        try:
            self._httpd.serve_forever()
        finally:
            self.membership.stop()

    def start_background(self) -> "FleetRouter":
        """Run the HTTP loop in a daemon thread (tests and benchmarks)."""
        self.membership.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="fleet-router-http", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the HTTP loop, the prober and every replica client."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.membership.stop()

    def close(self) -> None:
        """Release the listening socket after ``serve_forever`` returned."""
        self.membership.stop()
        self._httpd.server_close()

    def __enter__(self) -> "FleetRouter":
        return self.start_background()

    def __exit__(self, *_exc) -> None:
        self.shutdown()


def _relabel(exposition: str, replica_name: str, declared: Set[str]) -> List[str]:
    """Inject ``replica="name"`` into every sample of one exposition.

    ``declared`` carries metric names whose ``# HELP`` / ``# TYPE`` lines
    were already emitted (Prometheus allows each declaration once per
    scrape, while the same series may then appear for every replica).
    """
    out: List[str] = []
    label = f'replica="{replica_name}"'
    for line in exposition.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                token = (parts[1], parts[2])
                if token in declared:
                    continue
                declared.add(token)
            out.append(line)
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            out.append(line)
            continue
        if "{" in name_part:
            head, _, tail = name_part.partition("{")
            sample = f"{head}{{{label},{tail} {value_part}"
        else:
            sample = f"{name_part}{{{label}}} {value_part}"
        out.append(sample)
    return out
