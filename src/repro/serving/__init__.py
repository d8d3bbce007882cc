"""Thermal inference serving: online answers to power-map queries.

The subsystem turns the repository's solvers and trained operator surrogates
into a long-running service:

* :mod:`repro.serving.request` — validated request/response model.
* :mod:`repro.serving.backends` — exact (FVM, pooled LRU block bases),
  learned (operator surrogate) and compact (HotSpot) execution backends.
* :mod:`repro.serving.engine` — the request engine: answers each request on
  its caller's thread under one solve lock and rejects work beyond a
  bounded number of waiters (:class:`QueueFullError` → HTTP 429).
* :mod:`repro.serving.server` — the stdlib HTTP JSON API
  (``repro-thermal serve``): ``/solve``, ``/solve_transient``, ``/chips``,
  ``/models``, ``/healthz``, ``/stats``.

Reliability: requests may carry a ``deadline_ms`` latency budget — work that
expires while waiting for the solver is shed (504) instead of solved; a
stopped engine refuses new and waiting requests with :class:`EngineStopped`
(503); a backend that raises answers 500 with its message (400 for a
request it cannot serve).
"""

from repro.serving.backends import (
    Backend,
    FVMBackend,
    HotSpotBackend,
    LRUPool,
    ModelRegistry,
    OperatorBackend,
    SessionBackend,
    TransientBackend,
    build_backends,
)
from repro.serving.engine import EngineStopped, MicroBatchEngine, QueueFullError
from repro.serving.request import (
    KNOWN_BACKENDS,
    ThermalRequest,
    ThermalResult,
    TransientRequest,
)
from repro.serving.server import ThermalServer

__all__ = [
    "Backend",
    "EngineStopped",
    "FVMBackend",
    "HotSpotBackend",
    "LRUPool",
    "ModelRegistry",
    "OperatorBackend",
    "QueueFullError",
    "SessionBackend",
    "TransientBackend",
    "build_backends",
    "MicroBatchEngine",
    "KNOWN_BACKENDS",
    "ThermalRequest",
    "ThermalResult",
    "ThermalServer",
    "TransientRequest",
]
