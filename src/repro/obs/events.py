"""Typed telemetry events of the observability plane.

Every notable incident in the serving stack — a request answered, a cache
eviction, a saturated queue — is described by one small
validated dataclass here and published onto the in-process
:class:`~repro.obs.bus.EventBus`.  The wire surfaces (``GET /events``
long-poll and SSE) serialise events with :meth:`TelemetryEvent.to_json`
and clients rebuild them with :func:`event_from_json`, so the catalog
below *is* the wire schema (documented in ``docs/OBSERVABILITY.md``).

Events are deliberately tiny: scalar fields only, validated on
construction, no references into live engine state.  The pattern follows
the SCADA-style loop of gridworks-scada (small named message types plus a
flatline watchdog) rather than a generic dict firehose — a typo'd field is
a ``ValueError`` at the emitter, not a silent ``null`` at the dashboard.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Mapping, Optional, Type

#: Registry of event kind -> event class, fed by ``_register`` below.
EVENT_KINDS: Dict[str, Type["TelemetryEvent"]] = {}

#: Event kinds that represent operator-facing alerts (the ``watch``
#: dashboard's scrolling alert row and ``/healthz``'s ``last_alert``).
ALERT_KINDS = frozenset(
    {
        "queue_saturated",
        "throughput_flatlined",
    }
)


def _register(cls: Type["TelemetryEvent"]) -> Type["TelemetryEvent"]:
    """Class decorator adding an event type to :data:`EVENT_KINDS`."""
    EVENT_KINDS[cls.kind] = cls
    return cls


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def _require_in(name: str, value: str, allowed) -> None:
    if value not in allowed:
        raise ValueError(
            f"{name} must be one of {sorted(allowed)}, got {value!r}"
        )


@dataclass
class TelemetryEvent:
    """Base class of every telemetry event.

    ``seq`` (a monotonically increasing sequence number) and ``ts`` (wall
    clock seconds) are stamped by the :class:`~repro.obs.bus.EventBus` at
    publish time; emitters leave them zero.  ``source`` names the emitting
    subsystem (``engine``, ``session``, ``watchdog``).
    """

    kind: ClassVar[str] = "event"
    seq: int = 0
    ts: float = 0.0
    source: str = ""

    @property
    def is_alert(self) -> bool:
        """Whether this event kind is operator-facing (see :data:`ALERT_KINDS`)."""
        return self.kind in ALERT_KINDS

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable view: the fields plus the ``kind`` discriminator."""
        return {"kind": self.kind, **dataclasses.asdict(self)}


@_register
@dataclass
class RequestDone(TelemetryEvent):
    """One serving request left the engine (answered, failed, or shed)."""

    kind: ClassVar[str] = "request_done"
    request_id: str = ""
    trace_id: str = ""
    chip: str = ""
    resolution: int = 0
    backend: str = ""
    status: str = "ok"
    latency_ms: float = 0.0
    cached: bool = False

    def __post_init__(self) -> None:
        _require_in("status", self.status, ("ok", "error", "shed"))
        _require_non_negative("latency_ms", self.latency_ms)


@_register
@dataclass
class QueueSaturated(TelemetryEvent):
    """The engine queue crossed its saturation threshold (or rejected work)."""

    kind: ClassVar[str] = "queue_saturated"
    depth: int = 0
    max_queue: Optional[int] = None
    rejected: int = 0

    def __post_init__(self) -> None:
        _require_non_negative("depth", self.depth)
        _require_non_negative("rejected", self.rejected)


@_register
@dataclass
class ThroughputFlatlined(TelemetryEvent):
    """Requests are queued but nothing has completed for a while."""

    kind: ClassVar[str] = "throughput_flatlined"
    idle_s: float = 0.0
    queue_depth: int = 0

    def __post_init__(self) -> None:
        _require_non_negative("idle_s", self.idle_s)
        _require_non_negative("queue_depth", self.queue_depth)


@_register
@dataclass
class CacheEviction(TelemetryEvent):
    """The session result cache dropped an entry under one of its bounds."""

    kind: ClassVar[str] = "cache_eviction"
    cause: str = "count"
    key: str = ""

    def __post_init__(self) -> None:
        _require_in("cause", self.cause, ("count", "bytes", "ttl"))


def event_from_json(payload: Mapping[str, Any]) -> TelemetryEvent:
    """Rebuild a :class:`TelemetryEvent` from its :meth:`~TelemetryEvent.to_json` form.

    Unknown fields are ignored (forward compatibility with newer servers);
    an unknown ``kind`` raises ``ValueError``.
    """
    kind = payload.get("kind")
    cls = EVENT_KINDS.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(
            f"unknown event kind {kind!r}; known kinds: {', '.join(sorted(EVENT_KINDS))}"
        )
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{name: value for name, value in payload.items() if name in names})
