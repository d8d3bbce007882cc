"""Per-request tracing: trace ids at admission, span timings at completion.

The engine assigns every admitted request a :func:`new_trace_id` and, when
the answer is finalised, attaches a trace dict (built by
:func:`build_trace`) to ``ThermalSolution.provenance["trace"]`` — which
``to_json`` echoes back to the client, so every HTTP response carries the
id and the span breakdown of its own journey:

``queue_wait``
    admission → the request holds the engine's solve lock,
``solve``
    the backend call that answers it.

Ids are process-unique and cheap: a per-process random prefix plus a
counter, not a uuid4 per request — admission sits on the hot path.
"""

from __future__ import annotations

import itertools
import uuid
from typing import Any, Dict

#: Per-process prefix of every trace id (8 hex chars).
_PREFIX = uuid.uuid4().hex[:8]
_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id, e.g. ``"3f9c2a1b-000017"``."""
    return f"{_PREFIX}-{next(_COUNTER):06d}"


def build_trace(
    trace_id: str,
    queue_wait_s: float = 0.0,
    solve_s: float = 0.0,
) -> Dict[str, Any]:
    """The trace dict stored in provenance and echoed in responses.

    Span inputs are in seconds (what ``time.perf_counter`` deltas give);
    the stored spans are milliseconds rounded to microsecond precision,
    clamped at zero so clock jitter can never produce a negative span.
    """
    return {
        "trace_id": trace_id,
        "spans_ms": {
            "queue_wait": round(max(queue_wait_s, 0.0) * 1e3, 6),
            "solve": round(max(solve_s, 0.0) * 1e3, 6),
        },
    }
