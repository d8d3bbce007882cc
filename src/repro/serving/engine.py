"""Request engine of the thermal inference service.

Each request is answered on the thread that calls :meth:`MicroBatchEngine.solve`
— in the server, the HTTP handler thread that parsed it.  The engine admits
the request, waits for its one **solve lock** and calls the backend with a
batch of one.  An fvm answer is one product against the pooled block basis
``T = T_amb + G·P`` (a fraction of a millisecond), so grouping concurrent
requests into micro-batches saved less than the batching window and the
dispatcher hop cost; the class keeps its historical name.

The solve lock lets one backend call run at a time.  That keeps two
invariants the serving stack relies on: each pooled adapter and each
operator model is driven by one thread at a time (:class:`~repro.api.pool.LRUPool`
builds a missing key outside its own lock), and two clients' operator
forwards never interleave on the GIL and stretch each other.  One process
therefore solves one request at a time; more cores mean more replicas behind
the fleet router.  With an execution plane (``repro-thermal serve --exec
processes``) the backend call runs on a warm worker process, still one task
at a time.

``max_queue`` bounds the requests waiting for the lock; beyond it
:meth:`~MicroBatchEngine.solve` fails fast with :class:`QueueFullError` (the
HTTP layer answers 429) instead of letting latency grow without bound.  A
request whose ``deadline_ms`` budget is spent — on arrival or while waiting
for the lock — is shed (504) and never reaches the backend.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.obs.bus import EventBus, publish_all
from repro.obs.events import QueueSaturated, RequestDone
from repro.obs.metrics import LatencyReservoir
from repro.obs.trace import build_trace, new_trace_id
from repro.runtime.plane import DeadlineExceeded
from repro.serving.backends import Backend
from repro.serving.request import ThermalRequest, ThermalResult

#: How many latency samples per backend back the p50/p95 estimates (the
#: capacity of each backend's :class:`~repro.obs.metrics.LatencyReservoir`).
LATENCY_WINDOW = 4096

#: Minimum seconds between two engine-emitted ``queue_saturated`` events —
#: under sustained overload every rejected request would otherwise publish
#: one, turning the alert stream into a second copy of the load.
SATURATION_EVENT_INTERVAL_S = 1.0


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatchEngine.solve` when admission control
    rejects a request because ``max_queue`` requests are already waiting."""


class EngineStopped(RuntimeError):
    """The engine is shutting down (or shut down) and cannot answer.

    Raised by :meth:`MicroBatchEngine.solve` after :meth:`MicroBatchEngine.stop`,
    both for new requests and for requests still waiting for the solve
    lock.  The HTTP layer maps it to 503.  Subclasses ``RuntimeError`` (with
    the historical "the engine has been stopped" message) so existing
    callers catching that keep working.
    """


@dataclass
class _BackendCounters:
    """Running statistics of one backend, guarded by the engine lock."""

    requests: int = 0
    errors: int = 0
    shed: int = 0
    # A fixed-size uniform sample, not a window: long-running servers hold
    # constant memory and the percentiles describe the whole run, with
    # `samples_dropped` in the snapshot saying how much was sampled away.
    latencies: LatencyReservoir = field(
        default_factory=lambda: LatencyReservoir(LATENCY_WINDOW)
    )

    def snapshot(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {
            "requests": self.requests,
            "errors": self.errors,
            "shed": self.shed,
            "samples_dropped": self.latencies.dropped,
        }
        if len(self.latencies):
            values = self.latencies.values()
            percentiles = np.percentile(values, [50, 95, 99])
            summary["latency_ms"] = {
                "mean": round(float(values.mean()) * 1e3, 3),
                "p50": round(float(percentiles[0]) * 1e3, 3),
                "p95": round(float(percentiles[1]) * 1e3, 3),
                "p99": round(float(percentiles[2]) * 1e3, 3),
            }
        return summary


class MicroBatchEngine:
    """Admit thermal requests and answer them one at a time under a lock.

    Parameters
    ----------
    backends:
        Mapping of backend name to :class:`~repro.serving.backends.Backend`
        (see :func:`~repro.serving.backends.build_backends`).
    max_queue:
        Admission bound on requests waiting for the solve lock; ``None``
        means unbounded.  Beyond it, :meth:`solve` raises
        :class:`QueueFullError` immediately.
    events:
        Optional :class:`~repro.obs.bus.EventBus`; when set the engine
        publishes :class:`~repro.obs.events.RequestDone` and (rate-limited)
        :class:`~repro.obs.events.QueueSaturated` events.  Tracing is
        unconditional — every answer carries ``provenance["trace"]``
        whether or not a bus is attached.

    The engine starts no thread.  It admits requests until :meth:`stop`;
    :meth:`start` reopens a stopped engine and restarts the uptime clock.
    """

    def __init__(
        self,
        backends: Mapping[str, Backend],
        max_queue: Optional[int] = None,
        events: Optional[EventBus] = None,
    ):
        if not backends:
            raise ValueError("the engine needs at least one backend")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self.backends = dict(backends)
        self.max_queue = max_queue
        self.events = events
        self._last_saturation_event = 0.0  # monotonic; guarded by _lock

        self._solve_lock = threading.Lock()  # one backend call at a time
        self._lock = threading.Lock()  # counters + waiting count + lifecycle
        self._counters: Dict[str, _BackendCounters] = {}
        # Per-(chip, resolution, backend) request counters — the group
        # granularity the fleet router shards on, exported as labelled
        # `repro_requests_total` series on /metrics.
        self._group_counts: Dict[tuple, Dict[str, int]] = {}
        self._waiting = 0  # admitted requests not yet holding the solve lock
        self._rejected = 0
        self._running = False
        self._stopped = False
        self._started_at = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchEngine":
        """Open admission (idempotent)."""
        with self._lock:
            if not self._running:
                self._running = True
                self._stopped = False
                self._started_at = time.perf_counter()
        return self

    def stop(self) -> None:
        """Close admission.

        New requests, and requests still waiting for the solve lock, raise
        :class:`EngineStopped`; a request already being solved completes.
        """
        with self._lock:
            self._running = False
            self._stopped = True

    def __enter__(self) -> "MicroBatchEngine":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        """Whether the engine has been started and not stopped since."""
        return self._running

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def solve(self, request: ThermalRequest, timeout: Optional[float] = 60.0) -> ThermalResult:
        """Answer one request on the calling thread.

        Raises :class:`KeyError` for a backend this engine does not serve,
        :class:`QueueFullError` when ``max_queue`` requests are already
        waiting, :class:`~repro.runtime.plane.DeadlineExceeded` when the
        request's deadline passed before it could be solved (counted as
        shed, never solved), :class:`TimeoutError` when the solve lock was
        not free within ``timeout`` seconds (``None`` waits forever) and
        :class:`EngineStopped` after :meth:`stop`.  A backend failure is
        counted and re-raised.
        """
        if request.backend not in self.backends:
            raise KeyError(
                f"backend '{request.backend}' is not enabled on this engine; "
                f"available: {', '.join(sorted(self.backends))}"
            )
        if request.expired():
            self._finish(request, "shed")
            raise DeadlineExceeded(
                f"request {request.request_id} arrived with its deadline already "
                "expired; shed without solving"
            )
        admitted_at = time.perf_counter()
        trace_id = new_trace_id()
        self._admit()
        acquired = self._solve_lock.acquire(timeout=-1 if timeout is None else timeout)
        with self._lock:
            self._waiting -= 1
        if not acquired:
            raise TimeoutError(
                f"request {request.request_id} waited {timeout:g}s for the solver; "
                "the service is overloaded"
            )
        try:
            locked_at = time.perf_counter()
            if self._stopped:
                raise EngineStopped("the engine has been stopped")
            if request.expired():
                self._finish(request, "shed", trace_id, locked_at - admitted_at)
                raise DeadlineExceeded(
                    f"request {request.request_id} spent its latency budget waiting "
                    "for the solver; shed without solving"
                )
            try:
                result = self.backends[request.backend].solve_batch([request])[0]
            except Exception:  # noqa: BLE001 — counted, then re-raised to the caller
                self._finish(request, "error", trace_id, time.perf_counter() - admitted_at)
                raise
        finally:
            self._solve_lock.release()
        done_at = time.perf_counter()
        result.latency_seconds = done_at - admitted_at
        result.provenance["trace"] = build_trace(
            trace_id,
            queue_wait_s=locked_at - admitted_at,
            solve_s=done_at - locked_at,
        )
        self._finish(request, "ok", trace_id, result.latency_seconds, result)
        return result

    def _admit(self) -> None:
        """Count one more request waiting for the solve lock, or refuse it."""
        saturated: Optional[QueueSaturated] = None
        with self._lock:
            if self._stopped:
                raise EngineStopped("the engine has been stopped")
            if self.max_queue is None or self._waiting < self.max_queue:
                self._waiting += 1
                return
            self._rejected += 1
            depth = self._waiting
            now = time.monotonic()
            if now - self._last_saturation_event >= SATURATION_EVENT_INTERVAL_S:
                self._last_saturation_event = now
                saturated = QueueSaturated(
                    source="engine",
                    depth=depth,
                    max_queue=self.max_queue,
                    rejected=self._rejected,
                )
        publish_all(self.events, [saturated] if saturated is not None else [])
        raise QueueFullError(
            f"the service is overloaded: {depth} requests are already "
            f"queued (max_queue={self.max_queue}); retry later"
        )

    def _finish(
        self,
        request: ThermalRequest,
        status: str,
        trace_id: str = "",
        latency_s: float = 0.0,
        result: Optional[ThermalResult] = None,
    ) -> None:
        """Count how a request left the engine and publish ``request_done``."""
        with self._lock:
            counter = self._counter(request.backend)
            group = self._group_counter(request)
            if status == "ok":
                counter.requests += 1
                counter.latencies.add(latency_s)
                group["requests"] += 1
            elif status == "error":
                counter.errors += 1
                group["errors"] += 1
            else:
                counter.shed += 1
                group["shed"] += 1
        publish_all(
            self.events,
            [
                RequestDone(
                    source="engine",
                    request_id=request.request_id,
                    trace_id=trace_id,
                    chip=request.chip,
                    resolution=request.resolution,
                    backend=request.backend,
                    status=status,
                    latency_ms=round(max(latency_s, 0.0) * 1e3, 3),
                    cached=bool(result.cached) if result is not None else False,
                    degraded=bool(result.degraded) if result is not None else False,
                )
            ],
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live counters for the ``/stats`` endpoint."""
        with self._lock:
            queue_depth = self._waiting
            rejected = self._rejected
            counters = {name: c.snapshot() for name, c in self._counters.items()}
            total = sum(c.requests for c in self._counters.values())
            shed = sum(c.shed for c in self._counters.values())
            groups = [
                {
                    "chip": chip,
                    "resolution": resolution,
                    "backend": backend,
                    **counts,
                }
                for (chip, resolution, backend), counts in sorted(
                    self._group_counts.items()
                )
            ]
        uptime = time.perf_counter() - self._started_at
        backends: Dict[str, Any] = {}
        for name, backend in self.backends.items():
            summary = counters.get(name, _BackendCounters().snapshot())
            summary.update(backend.stats())
            backends[name] = summary
        return {
            "running": self._running,
            "uptime_seconds": round(uptime, 3),
            "queue_depth": queue_depth,
            "max_queue": self.max_queue,
            "rejected_requests": rejected,
            "shed_requests": shed,
            "total_requests": total,
            "throughput_rps": round(total / uptime, 3) if uptime > 0 else 0.0,
            "backends": backends,
            "groups": groups,
        }

    def _counter(self, name: str) -> _BackendCounters:
        if name not in self._counters:
            self._counters[name] = _BackendCounters()
        return self._counters[name]

    def _group_counter(self, request: ThermalRequest) -> Dict[str, int]:
        """Running per-``(chip, resolution, backend)`` counters (hold _lock)."""
        key = (request.chip, request.resolution, request.backend)
        if key not in self._group_counts:
            self._group_counts[key] = {"requests": 0, "errors": 0, "shed": 0}
        return self._group_counts[key]
