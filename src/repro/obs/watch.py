"""``repro-thermal watch <url>`` — a live terminal dashboard for one server.

The URL is a running ``repro-thermal serve`` instance.  Polls ``/stats``
and ``/healthz`` every refresh and drains ``/events`` with a sequence
cursor (so no alert is missed between frames), then
redraws a full-screen ANSI view: engine throughput and queue, per-backend
latency quantiles, cache hit rate, and a scrolling row of the most recent
alert events.  Pure stdlib; when
`Textual <https://textual.textualize.io>`_ happens to be importable and
stdout is a TTY the same data renders into a ``DataTable`` app instead
(the ``Dacs`` idiom from gridworks-scada) — but nothing requires it.

:func:`render_dashboard` is a pure function of the fetched snapshots so
tests can assert on the frame without a server or a terminal.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.events import ALERT_KINDS

#: Alert events kept on the dashboard's scrolling row.
ALERT_ROWS = 6

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_CLEAR = "\x1b[H\x1b[2J"


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _fetch_json(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _fmt(value: Any, digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _describe_alert(event: Mapping[str, Any]) -> str:
    kind = event.get("kind", "?")
    if kind == "queue_saturated":
        return f"queue saturated {event.get('depth')}/{event.get('max_queue')}"
    if kind == "throughput_flatlined":
        return (
            f"throughput flatlined {_fmt(event.get('idle_s'))}s"
            f" (depth {event.get('queue_depth')})"
        )
    return kind


def render_dashboard(
    stats: Mapping[str, Any],
    health: Mapping[str, Any],
    alerts: List[Mapping[str, Any]],
    url: str = "",
    color: bool = True,
) -> str:
    """One dashboard frame as a string (pure; no I/O)."""
    lines: List[str] = []
    status = health.get("status", "?")
    status_code = _GREEN if status == "ok" else _YELLOW
    lines.append(
        _paint("repro-thermal watch", _BOLD, color)
        + f"  {url}  status="
        + _paint(str(status), status_code, color)
        + f"  uptime={_fmt(health.get('uptime_seconds'))}s"
    )

    session = stats.get("session") or {}
    cache = session.get("result_cache") or {}
    lines.append(
        f"engine: rps={_fmt(stats.get('throughput_rps'), 2)}"
        f"  queue={stats.get('queue_depth', 0)}/{stats.get('max_queue') or '∞'}"
        f"  total={stats.get('total_requests', 0)}"
        f"  rejected={stats.get('rejected_requests', 0)}"
        f"  shed={stats.get('shed_requests', 0)}"
        f"  cache_hit_rate={_fmt(cache.get('hit_rate'), 3)}"
    )

    lines.append(_paint("backend      req    err   p50ms   p95ms   p99ms  dropped", _DIM, color))
    for name, summary in sorted((stats.get("backends") or {}).items()):
        latency = summary.get("latency_ms") or {}
        errors = summary.get("errors", 0)
        row = (
            f"{name:<10} {summary.get('requests', 0):>5}"
            f" {errors:>6}"
            f" {_fmt(latency.get('p50')):>7}"
            f" {_fmt(latency.get('p95')):>7}"
            f" {_fmt(latency.get('p99')):>7}"
            f" {summary.get('samples_dropped', 0):>8}"
        )
        lines.append(_paint(row, _RED, color) if errors else row)

    sampler = (health.get("sampler") or {})
    lines.append(
        _paint(
            f"sampler: alive={sampler.get('alive')} ticks={sampler.get('ticks', 0)}"
            f"  events: published={((stats.get('events') or {}).get('published', 0))}"
            f" dropped={((stats.get('events') or {}).get('dropped', 0))}",
            _DIM,
            color,
        )
    )

    lines.append(_paint(f"alerts (last {ALERT_ROWS}):", _BOLD, color))
    if not alerts:
        lines.append(_paint("  (none)", _DIM, color))
    for event in alerts:
        stamp = time.strftime("%H:%M:%S", time.localtime(event.get("ts", 0)))
        lines.append(
            _paint(f"  {stamp}  #{event.get('seq')}  {_describe_alert(event)}", _YELLOW, color)
        )
    return "\n".join(lines)


def _poll(
    base: str, cursor: int, timeout: float
) -> Tuple[Dict[str, Any], Dict[str, Any], List[Dict[str, Any]], int]:
    stats = _fetch_json(f"{base}/stats", timeout=timeout)
    health = _fetch_json(f"{base}/healthz", timeout=timeout)
    feed = _fetch_json(f"{base}/events?since={cursor}&timeout_s=0", timeout=timeout)
    return stats, health, feed.get("events", []), int(feed.get("cursor", cursor))


def run_watch(
    url: str,
    interval_s: float = 1.0,
    once: bool = False,
    out=None,
) -> int:
    """Drive the dashboard loop against ``url`` until interrupted.

    With ``once`` a single frame is printed and the function returns —
    that path is what the smoke harness exercises.  Returns a process
    exit code (``0`` ok, ``1`` when the server is unreachable).
    """
    out = out if out is not None else sys.stdout
    base = url.rstrip("/")
    color = hasattr(out, "isatty") and out.isatty()
    textual_run = _textual_entrypoint() if (not once and color) else None
    if textual_run is not None:
        return textual_run(base, interval_s)  # pragma: no cover - needs textual
    cursor = 0
    alerts: Deque[Dict[str, Any]] = deque(maxlen=ALERT_ROWS)
    while True:
        try:
            stats, health, events, cursor = _poll(base, cursor, timeout=max(interval_s * 4, 5.0))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"watch: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
        alerts.extend(e for e in events if e.get("kind") in ALERT_KINDS)
        frame = render_dashboard(stats, health, list(alerts), url=base, color=color)
        if color and not once:
            out.write(_CLEAR)
        out.write(frame + "\n")
        out.flush()
        if once:
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def _textual_entrypoint() -> Optional[Any]:
    """The Textual dashboard runner, or ``None`` when Textual is absent."""
    try:  # pragma: no cover - exercised only where textual is installed
        from textual.app import App
        from textual.widgets import DataTable, Log
    except Exception:
        return None

    def run(base: str, interval_s: float) -> int:  # pragma: no cover
        class _WatchApp(App):
            def compose(self):
                yield DataTable(id="backends")
                yield Log(id="alerts")

            def on_mount(self) -> None:
                table = self.query_one("#backends", DataTable)
                table.add_columns("backend", "req", "err", "p50ms", "p95ms", "p99ms")
                self._cursor = 0
                self.set_interval(interval_s, self.refresh_data)

            def refresh_data(self) -> None:
                try:
                    stats, _health, events, self._cursor = _poll(
                        base, self._cursor, timeout=max(interval_s * 4, 5.0)
                    )
                except Exception:
                    return
                table = self.query_one("#backends", DataTable)
                table.clear()
                for name, summary in sorted((stats.get("backends") or {}).items()):
                    latency = summary.get("latency_ms") or {}
                    table.add_row(
                        name,
                        str(summary.get("requests", 0)),
                        str(summary.get("errors", 0)),
                        _fmt(latency.get("p50")),
                        _fmt(latency.get("p95")),
                        _fmt(latency.get("p99")),
                    )
                log = self.query_one("#alerts", Log)
                for event in events:
                    if event.get("kind") in ALERT_KINDS:
                        log.write_line(_describe_alert(event))

        _WatchApp().run()
        return 0

    return run
