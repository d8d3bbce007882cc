"""Deterministic fault injection for the session's backends.

Recovery paths that only ever run during real outages are recovery paths
nobody has tested.  This module makes backend failures injectable so the
breaker and fallback machinery is exercised on purpose: raise
:class:`InjectedFault` from the first *n* solve calls of a named backend,
or delay them by a fixed number of seconds.

A :class:`FaultPlan` is parsed from the compact spec grammar the CLI's
``serve --chaos`` flag accepts::

    fail-backend:<name>@<n>          first n solves of <name> raise InjectedFault
    delay-backend:<name>:<sec>@<n>   first n solves of <name> sleep <sec>s

Directives are comma-separated: ``fail-backend:fvm@3,delay-backend:fvm:0.1@5``.
They are evaluated in the session under a lock, so "the first n solves" is
well-defined even with concurrent callers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


class InjectedFault(RuntimeError):
    """The error raised by a ``fail-backend`` directive.

    A distinct type so tests (and the circuit breaker's stats) can tell an
    injected failure from a genuine solver error.
    """


@dataclass(frozen=True)
class BackendFault:
    """Faults of one named session backend.

    Attributes
    ----------
    backend:
        Backend name (``fvm``/``hotspot``/``transient``/``operator``).
    fail_first:
        Raise :class:`InjectedFault` from the first this-many solve calls.
    delay_s / delay_first:
        Sleep ``delay_s`` seconds inside the first ``delay_first`` solve
        calls (applied before any injected failure check so a directive
        pair can model a slow-then-dead backend).
    """

    backend: str
    fail_first: int = 0
    delay_s: float = 0.0
    delay_first: int = 0


@dataclass
class _BackendFaultState:
    """Mutable per-backend injection counters (guarded by the plan lock)."""

    fault: BackendFault
    calls: int = 0
    injected_failures: int = 0
    injected_delays: int = 0


class FaultPlan:
    """An immutable set of fault directives plus injection bookkeeping.

    Build one from the spec grammar with :meth:`parse` (what ``serve
    --chaos`` does) or directly from directive objects in tests.  The
    :class:`~repro.api.session.ThermalSession` fires its directives in
    :meth:`on_backend_solve`; :meth:`stats` reports what actually fired so
    chaos runs can assert counters against the plan exactly.
    """

    def __init__(
        self,
        backend_faults: Tuple[BackendFault, ...] = (),
        spec: Optional[str] = None,
    ):
        self.backend_faults = tuple(backend_faults)
        self.spec = spec
        self._lock = threading.Lock()
        self._backend_state = {
            fault.backend: _BackendFaultState(fault) for fault in self.backend_faults
        }

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the comma-separated ``--chaos`` spec grammar (see module doc)."""
        backend_faults: List[BackendFault] = []
        for raw in str(spec).split(","):
            directive = raw.strip()
            if not directive:
                continue
            head, _, count_text = directive.partition("@")
            kind, _, target = head.partition(":")
            if not target or not count_text:
                raise ValueError(
                    f"bad chaos directive '{directive}': expected "
                    "<kind>:<target>@<count>"
                )
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(
                    f"bad chaos directive '{directive}': '@{count_text}' is not an integer"
                ) from None
            if count < 0:
                raise ValueError(f"bad chaos directive '{directive}': count must be >= 0")
            if kind == "fail-backend":
                backend_faults.append(BackendFault(backend=target, fail_first=count))
            elif kind == "delay-backend":
                name, _, seconds_text = target.partition(":")
                if not seconds_text:
                    raise ValueError(
                        f"bad chaos directive '{directive}': expected "
                        "delay-backend:<name>:<seconds>@<count>"
                    )
                try:
                    seconds = float(seconds_text)
                except ValueError:
                    raise ValueError(
                        f"bad chaos directive '{directive}': "
                        f"'{seconds_text}' is not a number of seconds"
                    ) from None
                backend_faults.append(
                    BackendFault(backend=name, delay_s=seconds, delay_first=count)
                )
            else:
                raise ValueError(
                    f"unknown chaos directive kind '{kind}' in '{directive}'; "
                    "known: fail-backend, delay-backend"
                )
        return cls(backend_faults=_merge_backend_faults(backend_faults), spec=str(spec))

    # ------------------------------------------------------------------
    def on_backend_solve(self, backend: str) -> None:
        """Injection point called by the session before each backend solve.

        Sleeps and/or raises :class:`InjectedFault` according to the plan;
        counts every call so :meth:`stats` reflects what actually fired.
        Thread-safe: the call counter is advanced under a lock so "the
        first n solves" is deterministic under concurrent callers.
        """
        state = self._backend_state.get(backend)
        if state is None:
            return
        with self._lock:
            state.calls += 1
            call = state.calls
            delay = state.fault.delay_s if call <= state.fault.delay_first else 0.0
            fail = call <= state.fault.fail_first
            if delay > 0.0:
                state.injected_delays += 1
            if fail:
                state.injected_failures += 1
        if delay > 0.0:
            time.sleep(delay)
        if fail:
            raise InjectedFault(
                f"chaos: injected failure {call} of {state.fault.fail_first} "
                f"for backend '{backend}'"
            )

    def stats(self) -> Dict[str, Any]:
        """What the plan has injected so far (for ``/stats`` and chaos tests)."""
        with self._lock:
            backends = {
                name: {
                    "calls": state.calls,
                    "injected_failures": state.injected_failures,
                    "injected_delays": state.injected_delays,
                }
                for name, state in self._backend_state.items()
            }
        return {"spec": self.spec, "backends": backends}


def _merge_backend_faults(faults: List[BackendFault]) -> Tuple[BackendFault, ...]:
    """Merge per-backend directives (fail + delay on one name become one)."""
    merged: "Dict[str, BackendFault]" = {}
    for fault in faults:
        current = merged.get(fault.backend)
        if current is None:
            merged[fault.backend] = fault
            continue
        merged[fault.backend] = BackendFault(
            backend=fault.backend,
            fail_first=max(current.fail_first, fault.fail_first),
            delay_s=max(current.delay_s, fault.delay_s),
            delay_first=max(current.delay_first, fault.delay_first),
        )
    return tuple(merged.values())
