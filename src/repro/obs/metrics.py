"""Rolling metrics: fixed-memory reservoirs, a ring-buffer time-series
store, the sampler thread that feeds it, and the alerting watchdog.

The flow, wired up by :class:`~repro.obs.telemetry.Telemetry`:

1. a :class:`Sampler` thread snapshots the service counters every
   ``interval_s`` seconds into one flat numeric sample,
2. the :class:`MetricsStore` ring buffer keeps the last ``capacity``
   samples (constant memory forever) and computes windowed rollups —
   requests/sec, latency percentiles, hit rate, queue depth — for
   ``/metrics/history`` and the ``watch`` dashboard,
3. the :class:`Watchdog` compares consecutive samples and converts bad
   trends into alert events on the bus: queue saturation and flatlined
   throughput.

:class:`LatencyReservoir` lives here too: the fixed-size uniform sample
(Vitter's Algorithm R) behind the engine's per-backend latency
percentiles, replacing the windowed list that had to shift memory on
every record.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.obs.bus import EventBus
from repro.obs.events import QueueSaturated, TelemetryEvent, ThroughputFlatlined

#: Samples kept by a default :class:`MetricsStore` (at the default 1 s
#: sampling interval: about 34 minutes of history in constant memory).
DEFAULT_STORE_CAPACITY = 2048

#: Default sampling interval of the :class:`Sampler` thread.
DEFAULT_SAMPLE_INTERVAL_S = 1.0

#: Default seconds of demand-without-progress before the watchdog calls
#: throughput flatlined.
DEFAULT_FLATLINE_AFTER_S = 5.0

#: Default fraction of ``max_queue`` at which the watchdog calls the
#: queue saturated.
DEFAULT_SATURATION_FRACTION = 0.8


class LatencyReservoir:
    """Fixed-size uniform sample of a latency stream (Algorithm R).

    Holds at most ``capacity`` values no matter how many are offered;
    once full, each new value replaces a uniformly random slot with
    probability ``capacity / seen`` so the retained set stays a uniform
    sample of the whole stream.  ``dropped`` counts the values not
    retained — exposed as ``samples_dropped`` in the engine's stats so
    operators can tell a percentile computed from a sample from one
    computed exactly.  Deterministically seeded; not thread-safe (the
    engine guards it with its counters lock).
    """

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = int(capacity)
        self._values: List[float] = []
        self._rng = random.Random(seed)
        self.seen = 0

    @property
    def dropped(self) -> int:
        """Values offered but not retained (``seen - len(reservoir)``)."""
        return self.seen - len(self._values)

    def add(self, value: float) -> None:
        """Offer one value to the reservoir."""
        self.seen += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._values[slot] = float(value)

    def extend(self, values: Sequence[float]) -> None:
        """Offer many values."""
        for value in values:
            self.add(value)

    def values(self) -> np.ndarray:
        """The retained sample as a float array (copy)."""
        return np.asarray(self._values, dtype=float)

    def __len__(self) -> int:
        return len(self._values)


class MetricsStore:
    """Fixed-memory ring buffer of flat numeric samples.

    :meth:`add` keeps only the numeric fields of a sample (plus its
    timestamp), so the sampler can hand the same dict to the store and
    the watchdog.  ``clock`` injects the timestamp source for tests.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_STORE_CAPACITY,
        clock: Callable[[], float] = time.time,
    ):
        if capacity < 1:
            raise ValueError("metrics store capacity must be >= 1")
        self.capacity = int(capacity)
        self._clock = clock
        self._lock = threading.Lock()
        self._samples: Deque[Dict[str, float]] = deque(maxlen=capacity)
        self._added = 0

    def add(self, sample: Mapping[str, Any], ts: Optional[float] = None) -> Dict[str, float]:
        """Store the numeric fields of ``sample``; returns the stored row."""
        row: Dict[str, float] = {"ts": float(ts if ts is not None else self._clock())}
        for name, value in sample.items():
            if name == "ts":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            row[name] = float(value)
        with self._lock:
            self._samples.append(row)
            self._added += 1
        return row

    def samples(self, window_s: Optional[float] = None) -> List[Dict[str, float]]:
        """Stored rows, oldest first; optionally only the last ``window_s`` seconds."""
        with self._lock:
            rows = list(self._samples)
        if window_s is None or not rows:
            return rows
        cutoff = rows[-1]["ts"] - float(window_s)
        return [row for row in rows if row["ts"] >= cutoff]

    def rollup(self, window_s: float = 60.0) -> Dict[str, Any]:
        """Windowed aggregate of the stored samples.

        Cumulative counters (``requests_total``, ``shed_total``,
        ``rejected_total``, ``errors_total``) become window deltas and a
        ``rps`` rate; gauges report their last value (queue depth also its
        window max — the pessimistic edge is what alerting wants).
        Percentile fields pass through as their
        latest value: they are already aggregates of the engine's latency
        reservoirs.
        """
        rows = self.samples(window_s=window_s)
        if not rows:
            return {"window_s": float(window_s), "samples": 0}
        first, last = rows[0], rows[-1]
        span = max(last["ts"] - first["ts"], 0.0)
        summary: Dict[str, Any] = {
            "window_s": float(window_s),
            "samples": len(rows),
            "span_s": round(span, 3),
            "ts": last["ts"],
        }
        for counter in ("requests_total", "shed_total", "rejected_total", "errors_total"):
            if counter in last:
                delta = last[counter] - first.get(counter, 0.0)
                summary[counter.replace("_total", "")] = max(delta, 0.0)
        if "requests_total" in last and span > 0:
            summary["rps"] = round(max(last["requests_total"] - first.get("requests_total", 0.0), 0.0) / span, 3)
        for gauge in ("p50_ms", "p95_ms", "p99_ms", "cache_hit_rate", "throughput_rps"):
            if gauge in last:
                summary[gauge] = last[gauge]
        if "queue_depth" in last:
            summary["queue_depth"] = last["queue_depth"]
            summary["queue_depth_max"] = max(row.get("queue_depth", 0.0) for row in rows)
        return summary

    def rows(self) -> Dict[str, Any]:
        """Column-ordered dump for JSON/CSV export (``repro-thermal report``)."""
        samples = self.samples()
        fields = sorted({name for row in samples for name in row} - {"ts"})
        return {"fields": ["ts"] + fields, "samples": samples}

    def stats(self) -> Dict[str, Any]:
        """Occupancy counters."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "samples": len(self._samples),
                "added": self._added,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


class Watchdog:
    """Turns consecutive metric samples into alert events on the bus.

    Two rules, each edge-triggered (one event per incident, re-armed when
    the condition clears):

    * **queue saturation** — queue depth at or past
      ``saturation_fraction`` of ``max_queue`` (re-armed below half the
      threshold),
    * **flatlined throughput** — requests are queued but
      ``requests_total`` has not moved for ``flatline_after_s`` seconds.

    ``clock`` injects monotonic time so the flatline rule is testable
    without sleeping.
    """

    def __init__(
        self,
        bus: Optional[EventBus] = None,
        *,
        max_queue: Optional[int] = None,
        saturation_fraction: float = DEFAULT_SATURATION_FRACTION,
        flatline_after_s: float = DEFAULT_FLATLINE_AFTER_S,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 0.0 < saturation_fraction <= 1.0:
            raise ValueError("saturation_fraction must be in (0, 1]")
        if flatline_after_s <= 0:
            raise ValueError("flatline_after_s must be positive")
        self.bus = bus
        self.max_queue = max_queue
        self.saturation_fraction = float(saturation_fraction)
        self.flatline_after_s = float(flatline_after_s)
        self._clock = clock
        self._last_requests: Optional[float] = None
        self._progress_at: Optional[float] = None
        self._saturated = False
        self._flatlined = False
        self._alerts = 0

    @property
    def alerts(self) -> int:
        """Alert events this watchdog has emitted so far."""
        return self._alerts

    def observe(self, sample: Mapping[str, Any]) -> List[TelemetryEvent]:
        """Inspect one sample; publish and return any alert events fired."""
        fired: List[TelemetryEvent] = []
        fired.extend(self._check_queue(sample))
        fired.extend(self._check_flatline(sample))
        self._alerts += len(fired)
        if self.bus is not None:
            for event in fired:
                self.bus.publish(event)
        return fired

    # ------------------------------------------------------------------
    def _check_queue(self, sample: Mapping[str, Any]) -> List[TelemetryEvent]:
        max_queue = sample.get("max_queue", self.max_queue)
        depth = sample.get("queue_depth")
        if not max_queue or depth is None:
            return []
        threshold = self.saturation_fraction * float(max_queue)
        if depth >= threshold and not self._saturated:
            self._saturated = True
            return [
                QueueSaturated(
                    source="watchdog",
                    depth=int(depth),
                    max_queue=int(max_queue),
                    rejected=int(sample.get("rejected_total", 0)),
                )
            ]
        if depth <= threshold / 2:
            self._saturated = False
        return []

    def _check_flatline(self, sample: Mapping[str, Any]) -> List[TelemetryEvent]:
        requests = sample.get("requests_total")
        depth = float(sample.get("queue_depth", 0) or 0)
        if requests is None:
            return []
        now = self._clock()
        if self._last_requests is None or requests > self._last_requests or depth <= 0:
            # Progress (or no demand): re-arm.
            self._last_requests = float(requests)
            self._progress_at = now
            self._flatlined = False
            return []
        self._last_requests = float(requests)
        idle = now - (self._progress_at if self._progress_at is not None else now)
        if idle >= self.flatline_after_s and not self._flatlined:
            self._flatlined = True
            return [
                ThroughputFlatlined(
                    source="watchdog", idle_s=round(idle, 3), queue_depth=int(depth)
                )
            ]
        return []


class Sampler:
    """Daemon thread snapshotting service counters at a fixed interval.

    ``snapshot`` is a zero-argument callable returning one flat sample
    dict (the server builds it from engine + session stats); every tick
    the sample lands in ``store`` and is shown to ``watchdog``.  A
    snapshot that raises is counted (``errors``) and the loop keeps
    going — observability must not be able to take the service down.
    """

    def __init__(
        self,
        snapshot: Callable[[], Mapping[str, Any]],
        store: MetricsStore,
        watchdog: Optional[Watchdog] = None,
        interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.snapshot = snapshot
        self.store = store
        self.watchdog = watchdog
        self.interval_s = float(interval_s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_sample_at: Optional[float] = None
        self._ticks = 0
        self._errors = 0

    # ------------------------------------------------------------------
    def start(self) -> "Sampler":
        """Launch the sampling thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop and join the sampling thread (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    @property
    def alive(self) -> bool:
        """Whether the sampling thread is currently running."""
        return self._thread is not None and self._thread.is_alive()

    def tick(self) -> None:
        """Take one sample synchronously (used at startup and by tests)."""
        try:
            sample = self.snapshot()
            self.store.add(sample)
            if self.watchdog is not None:
                self.watchdog.observe(sample)
            self._last_sample_at = time.monotonic()
            self._ticks += 1
        except Exception:  # noqa: BLE001 — sampling must never kill serving
            self._errors += 1

    def _run(self) -> None:
        while not self._stop.wait(timeout=self.interval_s):
            self.tick()

    def health(self) -> Dict[str, Any]:
        """Liveness summary for ``/healthz``."""
        age = (
            None
            if self._last_sample_at is None
            else round(time.monotonic() - self._last_sample_at, 3)
        )
        return {
            "alive": self.alive,
            "interval_s": self.interval_s,
            "ticks": self._ticks,
            "errors": self._errors,
            "last_sample_age_s": age,
        }
