"""Observability plane: typed events, rolling metrics, tracing, dashboards.

The telemetry layer under the serving stack:

* :mod:`repro.obs.events` — the typed event catalog (``RequestDone``,
  ``QueueSaturated``, ``CacheEviction``, …) that is also the wire schema
  of ``GET /events``,
* :mod:`repro.obs.bus` — the in-process :class:`EventBus` with bounded
  per-subscriber queues, drop counters, and cursor-replayable history,
* :mod:`repro.obs.metrics` — :class:`LatencyReservoir`,
  :class:`MetricsStore` (fixed-memory ring time-series),
  :class:`Sampler` and the alerting :class:`Watchdog`,
* :mod:`repro.obs.promexport` — hand-written Prometheus text exposition
  for ``GET /metrics``,
* :mod:`repro.obs.trace` — per-request trace ids and span dicts,
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` bundle the server
  wires in one call,
* :mod:`repro.obs.watch` — the ``repro-thermal watch`` live dashboard.

Nothing in this package imports from the rest of ``repro`` (stdlib +
numpy only), so the engine and the session can both depend on it
without cycles.
"""

from repro.obs.bus import EventBus, Subscription, publish_all
from repro.obs.events import (
    ALERT_KINDS,
    EVENT_KINDS,
    CacheEviction,
    QueueSaturated,
    RequestDone,
    TelemetryEvent,
    ThroughputFlatlined,
    event_from_json,
)
from repro.obs.metrics import LatencyReservoir, MetricsStore, Sampler, Watchdog
from repro.obs.promexport import render_prometheus
from repro.obs.telemetry import Telemetry
from repro.obs.trace import build_trace, new_trace_id

__all__ = [
    "ALERT_KINDS",
    "EVENT_KINDS",
    "CacheEviction",
    "EventBus",
    "LatencyReservoir",
    "MetricsStore",
    "QueueSaturated",
    "RequestDone",
    "Sampler",
    "Subscription",
    "Telemetry",
    "TelemetryEvent",
    "ThroughputFlatlined",
    "Watchdog",
    "build_trace",
    "event_from_json",
    "new_trace_id",
    "publish_all",
    "render_prometheus",
]
