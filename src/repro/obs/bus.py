"""In-process event bus: bounded fan-out with a replayable history ring.

Instrumented subsystems (engine, session, watchdog) call
:meth:`EventBus.publish`; consumers either **subscribe** (a bounded queue
per subscriber, drained by the SSE streamer and the tests) or **replay**
from the bus's fixed-size history ring by sequence cursor (the ``/events``
long-poll and SSE reconnect resume).

Two properties are load-bearing:

* **Publishers never block.**  A slow subscriber's queue fills and the
  oldest queued event is dropped (counted in
  :attr:`Subscription.dropped`); the serving hot path must never stall on
  a wedged dashboard connection.
* **Sequence numbers are dense and monotonic.**  A client that saw
  ``seq=N`` asks for ``since=N`` and receives exactly the events it
  missed (as far as the history ring still holds them), which is what
  makes SSE reconnects and long-poll cursors exact rather than
  best-effort.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

from repro.obs.events import ALERT_KINDS, TelemetryEvent

#: Events kept in the bus history ring for cursor replay.
DEFAULT_HISTORY = 2048

#: Default bound of one subscriber's queue.
DEFAULT_SUBSCRIBER_QUEUE = 256


class Subscription:
    """One consumer's bounded queue of published events.

    Obtained from :meth:`EventBus.subscribe`; iterate with :meth:`get` /
    :meth:`drain` and release with :meth:`close` (or use it as a context
    manager).  When the queue is full the *oldest* queued event is dropped
    to make room (a live consumer wants fresh events; exact backfill is
    the history ring's job) and :attr:`dropped` counts the loss.
    """

    def __init__(self, bus: "EventBus", maxlen: int):
        if maxlen < 1:
            raise ValueError("subscription queue bound must be >= 1")
        self._bus = bus
        self.maxlen = maxlen
        self._queue: Deque[TelemetryEvent] = deque()
        self._cond = threading.Condition()
        #: Events dropped because this subscriber was too slow to drain.
        self.dropped = 0
        self._closed = False

    def _offer(self, event: TelemetryEvent) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._queue) >= self.maxlen:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(event)
            self._cond.notify_all()

    def get(self, timeout: Optional[float] = None) -> Optional[TelemetryEvent]:
        """The next queued event, waiting up to ``timeout``; ``None`` on timeout/close."""
        with self._cond:
            if not self._queue and not self._closed:
                self._cond.wait(timeout=timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def drain(self) -> List[TelemetryEvent]:
        """Every currently queued event, without waiting."""
        with self._cond:
            events = list(self._queue)
            self._queue.clear()
        return events

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self) -> None:
        """Detach from the bus and wake any blocked :meth:`get`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._bus._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class EventBus:
    """Publish/subscribe hub with sequence cursors and a history ring.

    ``history`` bounds the replay ring (memory stays constant no matter
    how long the service runs); ``clock`` injects the wall-clock used to
    stamp ``event.ts`` so tests can pin timestamps.
    """

    def __init__(
        self,
        history: int = DEFAULT_HISTORY,
        default_queue: int = DEFAULT_SUBSCRIBER_QUEUE,
        clock: Callable[[], float] = time.time,
    ):
        if history < 1:
            raise ValueError("history must be >= 1")
        self.default_queue = int(default_queue)
        self._clock = clock
        self._cond = threading.Condition()
        self._seq = 0
        self._history: Deque[TelemetryEvent] = deque(maxlen=history)
        self._subscribers: List[Subscription] = []
        self._published = 0
        self._kind_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def publish(self, event: TelemetryEvent) -> TelemetryEvent:
        """Stamp ``seq``/``ts`` onto ``event``, fan it out, and return it.

        Never blocks on subscribers: full subscriber queues drop their
        oldest entry instead (counted per subscription).
        """
        with self._cond:
            self._seq += 1
            event.seq = self._seq
            if not event.ts:
                event.ts = self._clock()
            self._history.append(event)
            self._published += 1
            self._kind_counts[event.kind] = self._kind_counts.get(event.kind, 0) + 1
            subscribers = list(self._subscribers)
            self._cond.notify_all()
        for subscription in subscribers:
            subscription._offer(event)
        return event

    @property
    def cursor(self) -> int:
        """Sequence number of the most recently published event (0 if none)."""
        with self._cond:
            return self._seq

    # ------------------------------------------------------------------
    def subscribe(self, maxlen: Optional[int] = None) -> Subscription:
        """A new bounded :class:`Subscription` receiving future events."""
        subscription = Subscription(self, self.default_queue if maxlen is None else maxlen)
        with self._cond:
            self._subscribers.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: Subscription) -> None:
        with self._cond:
            try:
                self._subscribers.remove(subscription)
            except ValueError:
                pass  # already removed (double close is fine)

    # ------------------------------------------------------------------
    def replay(self, since: int = 0, limit: Optional[int] = None) -> List[TelemetryEvent]:
        """Events with ``seq > since`` still held by the history ring, in order."""
        with self._cond:
            events = [event for event in self._history if event.seq > since]
        return events[:limit] if limit is not None else events

    def wait_for(
        self, since: int = 0, timeout: Optional[float] = None, limit: Optional[int] = None
    ) -> List[TelemetryEvent]:
        """Like :meth:`replay`, but waits up to ``timeout`` for the first event.

        The long-poll building block: returns immediately when events past
        the cursor already exist, otherwise parks the caller until one is
        published or the timeout elapses (then returns whatever there is —
        possibly an empty list).
        """
        deadline = None if timeout is None else time.monotonic() + max(timeout, 0.0)
        with self._cond:
            while self._seq <= since:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(timeout=remaining)
        return self.replay(since, limit=limit)

    def last_alert(self) -> Optional[TelemetryEvent]:
        """The most recent alert-kind event still in the history ring."""
        with self._cond:
            for event in reversed(self._history):
                if event.kind in ALERT_KINDS:
                    return event
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Publish/drop counters for ``/stats``, ``/metrics`` and the docs."""
        with self._cond:
            subscribers = list(self._subscribers)
            summary: Dict[str, Any] = {
                "published": self._published,
                "cursor": self._seq,
                "history": len(self._history),
                "subscribers": len(subscribers),
                "by_kind": dict(sorted(self._kind_counts.items())),
            }
        summary["dropped"] = sum(s.dropped for s in subscribers)
        return summary


def publish_all(bus: Optional[EventBus], events: Iterable[TelemetryEvent]) -> None:
    """Publish every event onto ``bus``; a ``None`` bus is a silent no-op.

    The helper instrumented subsystems use so their emission sites stay
    one-liners whether or not telemetry is wired up.
    """
    if bus is None:
        return
    for event in events:
        bus.publish(event)
