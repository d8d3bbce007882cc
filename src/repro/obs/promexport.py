"""Prometheus text exposition for ``GET /metrics`` — stdlib only.

Renders the service's merged stats snapshot (engine + session + event
bus, the same dict ``/stats`` serves as JSON) into the Prometheus
`text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ by hand:
``# HELP`` / ``# TYPE`` headers, one ``name{labels} value`` line per
sample, label values escaped per the spec.  No client library — the
format is simple enough that depending on one would cost more than these
hundred lines.

Metric names follow Prometheus conventions: ``repro_`` prefix,
``_total`` suffix on counters, base units in the name (``_seconds``,
``_ms`` kept for latency quantiles to match the JSON stats surface).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Tuple


def _escape_label(value: Any) -> str:
    """Escape a label value per the exposition-format rules."""
    return str(value).replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Lines:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._declared: set = set()

    def add(
        self,
        name: str,
        value: Any,
        help_text: str,
        kind: str = "gauge",
        labels: Iterable[Tuple[str, Any]] = (),
    ) -> None:
        if value is None:
            return
        if name not in self._declared:
            self._lines.append(f"# HELP {name} {help_text}")
            self._lines.append(f"# TYPE {name} {kind}")
            self._declared.add(name)
        label_text = ",".join(f'{key}="{_escape_label(val)}"' for key, val in labels)
        if label_text:
            label_text = "{" + label_text + "}"
        self._lines.append(f"{name}{label_text} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


def render_prometheus(stats: Mapping[str, Any], uptime_s: Optional[float] = None) -> str:
    """Render the merged ``/stats`` snapshot as Prometheus exposition text.

    ``stats`` is the dict :meth:`repro.serving.server.ThermalServer.stats`
    returns (engine counters at the top level, plus optional ``session``,
    ``transient_endpoint`` and ``events`` blocks).  Absent blocks are
    simply skipped, so the exporter renders whatever subset of the stack
    is actually wired up.
    """
    out = _Lines()
    if uptime_s is None:
        uptime_s = stats.get("uptime_seconds")
    out.add("repro_uptime_seconds", uptime_s, "Seconds since the engine started.", "counter")
    out.add(
        "repro_requests_total",
        stats.get("total_requests"),
        "Requests answered by the engine.",
        "counter",
    )
    # Per-(chip, resolution, backend) breakdown of the same counter — one
    # series per pooled solver key.  The unlabelled sample above stays the
    # all-groups total.
    for group in stats.get("groups") or ():
        labels = [
            ("chip", group.get("chip")),
            ("resolution", group.get("resolution")),
            ("backend", group.get("backend")),
        ]
        out.add(
            "repro_requests_total",
            group.get("requests"),
            "Requests answered by the engine.",
            "counter",
            labels,
        )
        out.add(
            "repro_group_errors_total",
            group.get("errors"),
            "Failed requests per (chip, resolution, backend) group.",
            "counter",
            labels,
        )
        out.add(
            "repro_group_shed_total",
            group.get("shed"),
            "Deadline-shed requests per (chip, resolution, backend) group.",
            "counter",
            labels,
        )
    out.add(
        "repro_requests_rejected_total",
        stats.get("rejected_requests"),
        "Requests rejected at admission (queue full).",
        "counter",
    )
    out.add(
        "repro_requests_shed_total",
        stats.get("shed_requests"),
        "Requests shed past their deadline.",
        "counter",
    )
    out.add("repro_queue_depth", stats.get("queue_depth"), "Requests waiting for the engine's solver.")
    out.add(
        "repro_queue_max", stats.get("max_queue"), "Admission bound of the engine queue."
    )
    out.add(
        "repro_throughput_rps",
        stats.get("throughput_rps"),
        "Requests per second over the engine lifetime.",
    )

    _render_backends(out, stats.get("backends") or {})
    _render_session(out, stats.get("session") or {})
    _render_events(out, stats.get("events") or {})

    transient = stats.get("transient_endpoint") or {}
    out.add(
        "repro_transient_requests_total",
        transient.get("requests"),
        "Transient endpoint requests answered.",
        "counter",
    )
    return out.render()


def _render_backends(out: _Lines, backends: Mapping[str, Any]) -> None:
    for name, summary in sorted(backends.items()):
        labels = [("backend", name)]
        out.add(
            "repro_backend_requests_total",
            summary.get("requests"),
            "Requests answered per backend.",
            "counter",
            labels,
        )
        out.add(
            "repro_backend_errors_total",
            summary.get("errors"),
            "Failed requests per backend.",
            "counter",
            labels,
        )
        out.add(
            "repro_backend_latency_samples_dropped_total",
            summary.get("samples_dropped"),
            "Latency observations not retained by the fixed-size reservoir.",
            "counter",
            labels,
        )
        latency = summary.get("latency_ms") or {}
        for quantile in ("p50", "p95", "p99"):
            out.add(
                "repro_backend_latency_ms",
                latency.get(quantile),
                "Request latency quantiles per backend (reservoir-sampled).",
                "gauge",
                labels + [("quantile", quantile[1:] and "0." + quantile[1:])],
            )


def _render_session(out: _Lines, session: Mapping[str, Any]) -> None:
    cache = session.get("result_cache") or {}
    out.add(
        "repro_cache_hits_total", cache.get("hits"), "Result cache hits.", "counter"
    )
    out.add(
        "repro_cache_misses_total", cache.get("misses"), "Result cache misses.", "counter"
    )
    out.add("repro_cache_entries", cache.get("entries"), "Entries in the result cache.")
    out.add("repro_cache_bytes", cache.get("bytes"), "Bytes held by the result cache.")
    out.add("repro_cache_hit_rate", cache.get("hit_rate"), "Result cache hit rate [0, 1].")
    for cause, field in (
        ("count", "evictions_count"),
        ("bytes", "evictions_bytes"),
        ("ttl", "expirations"),
    ):
        out.add(
            "repro_cache_evictions_total",
            cache.get(field),
            "Result cache evictions by cause.",
            "counter",
            [("cause", cause)],
        )


def _render_events(out: _Lines, events: Mapping[str, Any]) -> None:
    out.add(
        "repro_events_published_total",
        events.get("published"),
        "Telemetry events published to the bus.",
        "counter",
    )
    out.add(
        "repro_events_dropped_total",
        events.get("dropped"),
        "Telemetry events dropped by slow subscribers.",
        "counter",
    )
    out.add(
        "repro_event_subscribers",
        events.get("subscribers"),
        "Live event bus subscribers.",
    )
    for kind, count in sorted((events.get("by_kind") or {}).items()):
        out.add(
            "repro_events_by_kind_total",
            count,
            "Telemetry events published per kind.",
            "counter",
            [("kind", kind)],
        )
