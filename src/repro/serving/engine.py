"""Micro-batching request engine of the thermal inference service.

Concurrent clients submit :class:`~repro.serving.request.ThermalRequest`\\ s
and block on futures; **worker threads** drain the queue, group pending
requests by ``(chip, resolution, backend)`` and answer each group with one
batched backend call.  For the FVM backend that turns N concurrent queries
into one product per case against the pooled block basis ``T = T_amb + G·P``
— the serving-time twin of the dataset-generation pipeline's prepare-once /
solve-many split; for the operator backend it is one vectorised forward
pass.

With ``workers > 1`` the engine shards the key space: requests hash onto
workers by ``(chip, resolution, backend)`` — deliberately the granularity
of the session's solver pools, so the prepared fvm/transient adapters and
the per-``(chip, resolution)`` operator models are each driven by exactly
one worker thread (the hotspot compact network is pooled per chip and may
be shared across shards, but it is immutable after construction).  One
group's batching window or rasterise-plus-back-substitute therefore never
head-of-line blocks another group that is ready to dispatch.  ``workers=1``
is the exact degenerate case of the historical single-dispatcher engine.

A short batching window (``max_wait_ms``) lets a micro-batch accumulate
under concurrent load while adding at most that much latency to a lone
request.  Within a shard, dispatch order is by **backend priority** (lower
number first; by default the microsecond-scale ``hotspot`` and sub-ms
``operator`` backends outrank ``fvm``, which outranks the time-integrating
``transient`` backend) with request age breaking ties, so a burst of heavy
exact solves cannot starve cheap queries.  Priority is aged: a request
waiting longer than ``starvation_age_s`` outranks every fresh request, so
a sustained stream of cheap queries cannot starve heavy ones indefinitely
either.  ``max_queue`` bounds the number of queued-but-undispatched
requests; beyond it :meth:`submit` fails fast with :class:`QueueFullError`
(the HTTP layer answers 429) instead of letting latency grow without
bound.

Worker threads buy window overlap, not parallel compute: one group's
batched back-substitution still holds a core while the GIL serialises the
Python around it.  For true multi-core serving the session behind the
backends is given an execution plane
(:class:`~repro.runtime.plane.ProcessPlane`; ``repro-thermal serve --exec
processes``): the sharded dispatcher threads keep doing the queueing,
batching and priority work, but each group's batched solve that they
dispatch runs on a warm-state worker *process*, so concurrent groups solve
on separate cores.  Answers are bitwise-identical either way.
"""

from __future__ import annotations

import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs.bus import EventBus, publish_all
from repro.obs.events import BatchDispatched, QueueSaturated, RequestDone
from repro.obs.metrics import LatencyReservoir
from repro.obs.trace import build_trace, new_trace_id
from repro.runtime.plane import DeadlineExceeded
from repro.serving.backends import Backend
from repro.serving.request import ThermalRequest, ThermalResult

#: How many latency samples per backend back the p50/p95 estimates (the
#: capacity of each backend's :class:`~repro.obs.metrics.LatencyReservoir`).
LATENCY_WINDOW = 4096

#: Minimum seconds between two engine-emitted ``queue_saturated`` events —
#: under sustained overload every rejected submit would otherwise publish
#: one, turning the alert stream into a second copy of the load.
SATURATION_EVENT_INTERVAL_S = 1.0

#: Dispatch priority per backend, lower first: cheap estimate backends jump
#: the queue ahead of exact solves, exact solves ahead of time integration.
#: Backends absent from the mapping dispatch at priority 1 (the fvm tier).
DEFAULT_PRIORITIES: Mapping[str, int] = {
    "hotspot": 0,
    "operator": 0,
    "fvm": 1,
    "transient": 2,
}

#: Priority applied to backends missing from the priority mapping.
DEFAULT_PRIORITY = 1


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatchEngine.submit` when admission control
    rejects a request because ``max_queue`` requests are already waiting."""


class EngineStopped(RuntimeError):
    """The engine is shutting down (or shut down) and cannot answer.

    Raised by :meth:`MicroBatchEngine.submit` after :meth:`MicroBatchEngine.stop`
    begins, and set on any future still pending when the workers drain out —
    a silently parked future would block its client for the full solve
    timeout.  The HTTP layer maps it to 503.  Subclasses ``RuntimeError``
    (with the historical "the engine has been stopped" message) so existing
    callers catching that keep working.
    """


@dataclass
class _Pending:
    """A queued request together with its completion future.

    ``trace_id`` is assigned at admission; ``dispatched_at`` is stamped when
    a dispatcher picks the request out of its shard queue — the boundary
    between the ``queue_wait`` and ``dispatch`` trace spans.
    """

    request: ThermalRequest
    future: Future
    enqueued_at: float
    trace_id: str = ""
    dispatched_at: float = 0.0


@dataclass
class _Shard:
    """One worker's slice of the engine: a queue, its condition, a thread."""

    index: int
    queue: List[_Pending] = field(default_factory=list)
    wakeup: threading.Condition = field(default_factory=threading.Condition)
    thread: Optional[threading.Thread] = None
    closed: bool = False  # set during stop(); rejects racing submits


@dataclass
class _BackendCounters:
    """Running statistics of one backend, guarded by the engine lock."""

    requests: int = 0
    batches: int = 0
    errors: int = 0
    shed: int = 0
    # A fixed-size uniform sample, not a window: long-running servers hold
    # constant memory and the percentiles describe the whole run, with
    # `samples_dropped` in the snapshot saying how much was sampled away.
    latencies: LatencyReservoir = field(
        default_factory=lambda: LatencyReservoir(LATENCY_WINDOW)
    )

    def record(self, latencies: Sequence[float]) -> None:
        self.requests += len(latencies)
        self.batches += 1
        self.latencies.extend(latencies)

    def snapshot(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {
            "requests": self.requests,
            "batches": self.batches,
            "errors": self.errors,
            "shed": self.shed,
            "samples_dropped": self.latencies.dropped,
            "mean_batch_size": (
                round(self.requests / self.batches, 3) if self.batches else 0.0
            ),
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
    """Queue, group and dispatch thermal requests through batched backends.

    Parameters
    ----------
    backends:
        Mapping of backend name to :class:`~repro.serving.backends.Backend`
        (see :func:`~repro.serving.backends.build_backends`).
    max_batch_size:
        Upper bound on requests dispatched in one backend call; bounds the
        stacked-RHS memory of the FVM backend.
    max_wait_ms:
        Batching window: after the first request arrives its worker waits up
        to this long (or until ``max_batch_size`` requests of the group are
        queued) for companions before dispatching.
    workers:
        Dispatcher threads.  Requests are hashed onto workers by
        ``(chip, resolution, backend)`` — the solver pools' granularity —
        so each pooled adapter is driven by one worker.  ``1`` (the
        default) reproduces the historical single-dispatcher engine
        exactly.
    max_queue:
        Admission bound on queued-but-undispatched requests across all
        shards; ``None`` means unbounded.  Beyond it, :meth:`submit` raises
        :class:`QueueFullError` immediately.
    priorities:
        Backend-name to dispatch-priority mapping (lower dispatches first;
        default :data:`DEFAULT_PRIORITIES`).  Ties dispatch oldest-first.
    starvation_age_s:
        Requests queued longer than this outrank every priority tier
        (oldest first), bounding how long strict priority can defer heavy
        backends under sustained cheap-query load.  Defaults to ten
        batching windows, floored at 250 ms.
    events:
        Optional :class:`~repro.obs.bus.EventBus`; when set the engine
        publishes :class:`~repro.obs.events.RequestDone`,
        :class:`~repro.obs.events.BatchDispatched` and (rate-limited)
        :class:`~repro.obs.events.QueueSaturated` events.  Tracing is
        unconditional — every answer carries
        ``provenance["trace"]`` whether or not a bus is attached.
    """

    def __init__(
        self,
        backends: Mapping[str, Backend],
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        workers: int = 1,
        max_queue: Optional[int] = None,
        priorities: Optional[Mapping[str, int]] = None,
        starvation_age_s: Optional[float] = None,
        events: Optional[EventBus] = None,
    ):
        if not backends:
            raise ValueError("the engine needs at least one backend")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self.backends = dict(backends)
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1e3
        self.workers = workers
        self.max_queue = max_queue
        self.priorities = dict(DEFAULT_PRIORITIES if priorities is None else priorities)
        if starvation_age_s is not None and starvation_age_s <= 0:
            raise ValueError("starvation_age_s must be positive (or None for default)")
        self.starvation_age_s = (
            starvation_age_s
            if starvation_age_s is not None
            else max(10 * self.max_wait_s, 0.25)
        )

        self.events = events
        self._last_saturation_event = 0.0  # monotonic; guarded by _lock

        self._shards = [_Shard(index) for index in range(workers)]
        self._lock = threading.Lock()  # counters + queue depth + lifecycle
        self._counters: Dict[str, _BackendCounters] = {}
        # Per-(chip, resolution, backend) request counters — the group
        # granularity the fleet router shards on, exported as labelled
        # `repro_requests_total` series on /metrics.
        self._group_counts: Dict[tuple, Dict[str, int]] = {}
        self._depth = 0  # queued-but-undispatched requests, all shards
        self._rejected = 0
        self._running = False
        self._stopped = False
        self._started_at = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatchEngine":
        """Launch the worker threads (idempotent)."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._stopped = False
            self._started_at = time.perf_counter()
            for shard in self._shards:
                with shard.wakeup:
                    shard.closed = False
                shard.thread = threading.Thread(
                    target=self._run,
                    args=(shard,),
                    name=f"thermal-dispatch-{shard.index}",
                    daemon=True,
                )
                shard.thread.start()
        return self

    def stop(self) -> None:
        """Stop the workers after draining the queued requests."""
        with self._lock:
            self._running = False
            self._stopped = True
        for shard in self._shards:
            with shard.wakeup:
                shard.wakeup.notify_all()
        for shard in self._shards:
            if shard.thread is not None:
                shard.thread.join()
                shard.thread = None
        # Fail anything that raced into the queues after the workers drained
        # them — a silently parked future would block its client for the full
        # solve timeout.  Closing the shard under its own condition makes
        # later racing submits fail fast instead of parking forever.
        leftovers: List[_Pending] = []
        for shard in self._shards:
            with shard.wakeup:
                shard.closed = True
                leftovers.extend(shard.queue)
                shard.queue = []
        with self._lock:
            self._depth -= len(leftovers)
        for pending in leftovers:
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(EngineStopped("the engine has been stopped"))

    def __enter__(self) -> "MicroBatchEngine":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    @property
    def is_running(self) -> bool:
        """Whether the worker threads are (meant to be) running."""
        return self._running

    # ------------------------------------------------------------------
    # Client interface
    # ------------------------------------------------------------------
    def _shard_of(self, request: ThermalRequest) -> _Shard:
        """The shard owning this request.

        Sharding is by ``(chip, resolution, backend)`` — coarser than the
        micro-batch group key (which also separates detail levels) and
        exactly the granularity of the session's pooled solver resources,
        so each prepared adapter is only ever driven by one worker.  The
        hash is deterministic (CRC-32 of the key's repr) so a key always
        lands on the same worker across restarts.
        """
        if self.workers == 1:
            return self._shards[0]
        key = (request.chip, request.resolution, request.backend)
        digest = zlib.crc32(repr(key).encode("utf-8"))
        return self._shards[digest % self.workers]

    def submit(self, request: ThermalRequest) -> Future:
        """Enqueue a request; the returned future resolves to a ThermalResult.

        Requests may be submitted before :meth:`start`; they are answered as
        soon as the workers run (the tests use this to force determinate
        batch compositions).  Raises :class:`QueueFullError` when admission
        control rejects the request (``max_queue`` waiting already),
        :class:`~repro.runtime.plane.DeadlineExceeded` when the request's
        deadline already passed (counted as shed, never solved), and
        :class:`EngineStopped` once :meth:`stop` has begun.
        """
        if request.backend not in self.backends:
            raise KeyError(
                f"backend '{request.backend}' is not enabled on this engine; "
                f"available: {', '.join(sorted(self.backends))}"
            )
        if request.expired():
            with self._lock:
                self._counter(request.backend).shed += 1
                self._group_counter(request)["shed"] += 1
            publish_all(self.events, [self._request_event(request, "shed")])
            raise DeadlineExceeded(
                f"request {request.request_id} arrived with its deadline already "
                "expired; shed without solving"
            )
        pending = _Pending(
            request=request,
            future=Future(),
            enqueued_at=time.perf_counter(),
            trace_id=new_trace_id(),
        )
        saturated: Optional[QueueSaturated] = None
        with self._lock:
            if self._stopped:
                raise EngineStopped("the engine has been stopped")
            if self.max_queue is not None and self._depth >= self.max_queue:
                self._rejected += 1
                depth, rejected = self._depth, self._rejected
                now = time.monotonic()
                if now - self._last_saturation_event >= SATURATION_EVENT_INTERVAL_S:
                    self._last_saturation_event = now
                    saturated = QueueSaturated(
                        source="engine",
                        depth=depth,
                        max_queue=self.max_queue,
                        rejected=rejected,
                    )
            else:
                self._depth += 1
                depth = None
        if depth is not None:
            publish_all(self.events, [saturated] if saturated is not None else [])
            raise QueueFullError(
                f"the service is overloaded: {depth} requests are already "
                f"queued (max_queue={self.max_queue}); retry later"
            )
        shard = self._shard_of(request)
        with shard.wakeup:
            rejected_closed = shard.closed
            if not rejected_closed:
                shard.queue.append(pending)
                shard.wakeup.notify_all()
        if rejected_closed:
            # Outside shard.wakeup: start() nests self._lock -> shard.wakeup,
            # so taking self._lock while holding shard.wakeup could deadlock.
            with self._lock:
                self._depth -= 1
            raise EngineStopped("the engine has been stopped")
        return pending.future

    def solve(self, request: ThermalRequest, timeout: Optional[float] = 60.0) -> ThermalResult:
        """Submit one request and block until its result is available."""
        return self.submit(request).result(timeout=timeout)

    def submit_many(self, requests: Sequence[ThermalRequest]) -> List[Future]:
        """Enqueue a fan-out; one future per request, in request order.

        Every request is admitted before any result is awaited, so the
        whole fan-out coalesces into micro-batches immediately — a slow
        group in the batch (one cold FVM factorisation, say) never delays
        the *solving* of the surrogate-backed requests alongside it, whose
        futures resolve as soon as their own batches land.
        """
        return [self.submit(request) for request in requests]

    def solve_many(
        self, requests: Sequence[ThermalRequest], timeout: Optional[float] = 60.0
    ) -> List[ThermalResult]:
        """Submit many requests at once and collect their results in order.

        Rides :meth:`submit_many`, so ``timeout`` bounds the **whole**
        fan-out: the budget is shared across the collection loop instead of
        restarting per future (N slow requests used to be allowed N x
        ``timeout`` seconds in aggregate).
        """
        futures = self.submit_many(requests)
        collect_deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for future in futures:
            remaining = (
                None
                if collect_deadline is None
                else max(collect_deadline - time.monotonic(), 0.0)
            )
            results.append(future.result(timeout=remaining))
        return results

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live counters for the ``/stats`` endpoint."""
        shard_depths = []
        for shard in self._shards:
            with shard.wakeup:
                shard_depths.append(len(shard.queue))
        with self._lock:
            queue_depth = self._depth
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
            summary["priority"] = self.priorities.get(name, DEFAULT_PRIORITY)
            backends[name] = summary
        return {
            "running": self._running,
            "uptime_seconds": round(uptime, 3),
            "workers": self.workers,
            "queue_depth": queue_depth,
            "shard_queue_depths": shard_depths,
            "max_queue": self.max_queue,
            "rejected_requests": rejected,
            "shed_requests": shed,
            "total_requests": total,
            "throughput_rps": round(total / uptime, 3) if uptime > 0 else 0.0,
            "max_batch_size": self.max_batch_size,
            "batch_window_ms": self.max_wait_s * 1e3,
            "starvation_age_s": self.starvation_age_s,
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

    # ------------------------------------------------------------------
    # Dispatcher workers
    # ------------------------------------------------------------------
    def _priority(self, request: ThermalRequest) -> int:
        return self.priorities.get(request.backend, DEFAULT_PRIORITY)

    def _select_head(self, queue: List[_Pending]) -> _Pending:
        """The request whose group dispatches next from this queue.

        Oldest request of the highest-priority backend present, except
        that requests older than ``starvation_age_s`` outrank every tier
        (oldest first) — strict priority alone would let a sustained
        stream of cheap queries defer a queued heavy request until its
        client times out.  With one backend class queued this degenerates
        to plain oldest-first (the historical engine's order).
        """
        starved_before = time.perf_counter() - self.starvation_age_s

        def key(pending: _Pending):
            priority = self._priority(pending.request)
            if pending.enqueued_at <= starved_before:
                priority = -1
            return (priority, pending.enqueued_at)

        return min(queue, key=key)

    def _run(self, shard: _Shard) -> None:
        while True:
            with shard.wakeup:
                while self._running and not shard.queue:
                    shard.wakeup.wait()
                if not shard.queue:
                    if not self._running:
                        return
                    continue
                # Linger briefly so a micro-batch can accumulate under
                # concurrent load.  Anchoring the deadline to the head
                # request's enqueue time means no request waits more than one
                # window regardless of how many groups are backlogged, and
                # the early exit counts only the dispatchable group — other
                # groups' requests don't fill this batch.  The head is
                # re-selected after every wakeup so a newly arrived
                # higher-priority request preempts a lower-priority window.
                while True:
                    head = self._select_head(shard.queue)
                    group_key = head.request.group_key
                    group_size = sum(
                        1 for p in shard.queue if p.request.group_key == group_key
                    )
                    remaining = head.enqueued_at + self.max_wait_s - time.perf_counter()
                    if (
                        not self._running
                        or group_size >= self.max_batch_size
                        or remaining <= 0
                    ):
                        break
                    shard.wakeup.wait(timeout=remaining)
                batch = self._pop_group_locked(shard, group_key)
            with self._lock:
                self._depth -= len(batch)
            self._dispatch(batch)

    def _pop_group_locked(self, shard: _Shard, key) -> List[_Pending]:
        """Take one group from the shard queue, up to ``max_batch_size``."""
        batch: List[_Pending] = []
        rest: List[_Pending] = []
        for pending in shard.queue:
            if pending.request.group_key == key and len(batch) < self.max_batch_size:
                batch.append(pending)
            else:
                rest.append(pending)
        shard.queue = rest
        return batch

    def _shed_expired(self, batch: List[_Pending]) -> List[_Pending]:
        """Fail the expired-while-queued requests; return the live remainder.

        A request whose deadline passed in the queue is *shed*: its future
        fails with :class:`~repro.runtime.plane.DeadlineExceeded` and the
        backend never sees it — under overload, solver time goes to requests
        whose clients are still waiting for the answer.
        """
        now = time.monotonic()
        live = [p for p in batch if not p.request.expired(now)]
        expired = [p for p in batch if p.request.expired(now)]
        if expired:
            with self._lock:
                self._counter(expired[0].request.backend).shed += len(expired)
                for pending in expired:
                    self._group_counter(pending.request)["shed"] += 1
            for pending in expired:
                if pending.future.set_running_or_notify_cancel():
                    pending.future.set_exception(
                        DeadlineExceeded(
                            f"request {pending.request.request_id} spent its latency "
                            "budget waiting in the queue; shed without solving"
                        )
                    )
            publish_all(
                self.events,
                [
                    self._request_event(
                        p.request,
                        "shed",
                        trace_id=p.trace_id,
                        latency_s=time.perf_counter() - p.enqueued_at,
                    )
                    for p in expired
                ],
            )
        return live

    def _dispatch(self, batch: List[_Pending]) -> None:
        dispatched_at = time.perf_counter()
        for pending in batch:
            if not pending.dispatched_at:
                pending.dispatched_at = dispatched_at
        batch = self._shed_expired(batch)
        if not batch:
            return
        requests = [pending.request for pending in batch]
        backend_name = requests[0].backend
        backend = self.backends[backend_name]
        solve_started = time.perf_counter()
        try:
            results = backend.solve_batch(requests)
        except Exception as error:  # noqa: BLE001 — failures travel to clients
            with self._lock:
                self._counter(backend_name).errors += len(batch)
                for pending in batch:
                    self._group_counter(pending.request)["errors"] += 1
            for pending in batch:
                if not pending.future.set_running_or_notify_cancel():
                    continue
                pending.future.set_exception(error)
            now = time.perf_counter()
            publish_all(
                self.events,
                [
                    self._request_event(
                        p.request,
                        "error",
                        trace_id=p.trace_id,
                        latency_s=now - p.enqueued_at,
                        batch_size=len(batch),
                    )
                    for p in batch
                ],
            )
            return
        solve_s = time.perf_counter() - solve_started
        if self.events is not None:
            head = min(batch, key=lambda p: p.enqueued_at)
            self.events.publish(
                BatchDispatched(
                    source="engine",
                    backend=backend_name,
                    chip=requests[0].chip,
                    resolution=requests[0].resolution,
                    batch_size=len(batch),
                    queue_wait_ms=round(
                        max(head.dispatched_at - head.enqueued_at, 0.0) * 1e3, 3
                    ),
                    solve_ms=round(solve_s * 1e3, 3),
                )
            )

        self._finalize(batch, results, backend_name, solve_started, solve_s)

    def _finalize(
        self,
        batch: List[_Pending],
        results: List[ThermalResult],
        backend_name: str,
        solve_started: float,
        solve_s: float,
    ) -> None:
        """Stamp latency/batch/trace metadata, record stats, resolve futures."""
        now = time.perf_counter()
        latencies = []
        for pending, result in zip(batch, results):
            result.latency_seconds = now - pending.enqueued_at
            result.batch_size = len(batch)
            latencies.append(result.latency_seconds)
            if pending.trace_id:
                result.provenance["trace"] = build_trace(
                    pending.trace_id,
                    queue_wait_s=pending.dispatched_at - pending.enqueued_at,
                    dispatch_s=solve_started - pending.dispatched_at,
                    solve_s=solve_s,
                )
        with self._lock:
            self._counter(backend_name).record(latencies)
            for pending in batch:
                self._group_counter(pending.request)["requests"] += 1
        for pending, result in zip(batch, results):
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_result(result)
        publish_all(
            self.events,
            [
                self._request_event(
                    pending.request,
                    "ok",
                    trace_id=pending.trace_id,
                    latency_s=result.latency_seconds,
                    batch_size=len(batch),
                    result=result,
                )
                for pending, result in zip(batch, results)
            ],
        )

    def _request_event(
        self,
        request: ThermalRequest,
        status: str,
        trace_id: str = "",
        latency_s: float = 0.0,
        batch_size: int = 1,
        result: Optional[ThermalResult] = None,
    ) -> RequestDone:
        """One ``request_done`` event describing how a request left the engine."""
        return RequestDone(
            source="engine",
            request_id=request.request_id,
            trace_id=trace_id,
            chip=request.chip,
            resolution=request.resolution,
            backend=request.backend,
            status=status,
            latency_ms=round(max(latency_s, 0.0) * 1e3, 3),
            batch_size=batch_size,
            cached=bool(result.cached) if result is not None else False,
            degraded=bool(result.degraded) if result is not None else False,
        )
