"""Unified thermal API: one protocol, one session, one answer type.

* :class:`~repro.api.backends.ThermalBackend` — the protocol every engine
  (exact FVM, compact HotSpot, transient, learned operator) is adapted to.
* :class:`~repro.api.session.ThermalSession` — the facade owning the
  cross-cutting state (chip registry, solver pools, loaded
  models, result cache) behind the CLI, the serving subsystem, the
  evaluation harness and the examples.
* :class:`~repro.api.solution.ThermalSolution` — the one result type,
  merging the historical ``TemperatureField`` / ``ThermalResult`` split.
"""

from repro.api.backends import (
    BACKEND_NAMES,
    FVMBackendAdapter,
    HotSpotBackendAdapter,
    OperatorBackendAdapter,
    ThermalBackend,
    TransientBackendAdapter,
    as_assignment,
)
from repro.api.pool import DEFAULT_POOL_SIZE, LRUPool, ResultCache
from repro.api.registry import ModelRegistry
from repro.api.session import (
    DEFAULT_RESOLUTION,
    ThermalSession,
    TrainedOperator,
    get_session,
    power_map_hash,
)
from repro.api.solution import ThermalSolution

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_POOL_SIZE",
    "DEFAULT_RESOLUTION",
    "FVMBackendAdapter",
    "HotSpotBackendAdapter",
    "LRUPool",
    "ModelRegistry",
    "OperatorBackendAdapter",
    "ResultCache",
    "ThermalBackend",
    "ThermalSession",
    "ThermalSolution",
    "TrainedOperator",
    "TransientBackendAdapter",
    "as_assignment",
    "get_session",
    "power_map_hash",
]
