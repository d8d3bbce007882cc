"""Serving backends: thin request/response adapters over a ThermalSession.

Since the :mod:`repro.api` facade exists, this module no longer constructs
solvers, pools block bases or loads models itself — all of that is
cross-cutting state owned by one :class:`~repro.api.session.ThermalSession`
shared by every backend of a deployment.  What remains here is the serving
shape of the problem: take validated
:class:`~repro.serving.request.ThermalRequest`\\ s that share a group key (the
serving engine sends one at a time), route them through the session (which
consults its result cache and answers the misses with one batched call),
and stamp the request ids onto the returned
:class:`~repro.api.solution.ThermalSolution`\\ s.

Four backends answer the same power-map question at different cost/accuracy
points: exact (``fvm``), learned (``operator``), compact (``hotspot``) and
time-integrating quasi-steady (``transient``).

``LRUPool`` and ``ModelRegistry`` originated here and now live in
:mod:`repro.api`; they are re-exported for compatibility.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.api.pool import DEFAULT_POOL_SIZE, LRUPool  # noqa: F401 — compat re-export
from repro.api.registry import ModelRegistry  # noqa: F401 — compat re-export
from repro.api.session import ThermalSession
from repro.serving.request import ThermalRequest, ThermalResult


class Backend:
    """Interface every serving backend implements."""

    #: Registry name; requests address backends by it.
    name: str = "base"

    def solve_batch(self, requests: Sequence[ThermalRequest]) -> List[ThermalResult]:
        """Answer requests sharing one group key, in order."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Counters surfaced under ``/stats`` (pool occupancy, hit rates...)."""
        return {}


class SessionBackend(Backend):
    """Shared plumbing: requests in, session-cached solutions out.

    Subclasses only pick the backend name; an explicitly passed ``session``
    shares pools, models and the result cache across a deployment, while the
    no-argument form builds a private session (used by tests and ad-hoc
    embedding).
    """

    def __init__(
        self,
        session: Optional[ThermalSession] = None,
        pool_size: int = DEFAULT_POOL_SIZE,
        cells_per_layer: int = 2,
    ):
        self.session = session or ThermalSession(
            pool_size=pool_size, cells_per_layer=cells_per_layer
        )

    @property
    def pool(self) -> LRUPool:
        """The session's adapter pool for this backend kind."""
        return self.session.pool(self.name)

    def solve_batch(self, requests: Sequence[ThermalRequest]) -> List[ThermalResult]:
        """Answer requests sharing one group key through the shared session."""
        # The requests share a group key, which includes include_maps, so one
        # session call answers them all and every answer caches under the
        # right detail key.
        first = requests[0]
        # The batch deadline is the loosest member deadline: one member with
        # no deadline means the batch as a whole must be allowed to finish.
        deadlines = [request.deadline for request in requests]
        deadline = None if any(d is None for d in deadlines) else max(deadlines)
        solutions = self.session.solve_batch(
            first.chip,
            [request.assignment for request in requests],
            resolution=first.resolution,
            backend=self.name,
            include_maps=first.include_maps,
            deadline=deadline,
        )
        for request, solution in zip(requests, solutions):
            solution.request_id = request.request_id
        return solutions


class FVMBackend(SessionBackend):
    """Exact finite-volume answers through pooled per-geometry block bases."""

    name = "fvm"

    def stats(self) -> Dict[str, Any]:
        """Solver-pool occupancy and hit rates for ``/stats``."""
        # The result cache is session-wide (shared by every backend) and
        # reported once under the /stats "session" section, not here.
        return {"solver_pool": self.session.pool("fvm").stats()}


class HotSpotBackend(SessionBackend):
    """Fast block-level estimates from the compact RC network."""

    name = "hotspot"

    def stats(self) -> Dict[str, Any]:
        """Compact-model pool occupancy and hit rates for ``/stats``."""
        return {"model_pool": self.session.pool("hotspot").stats()}


class TransientBackend(SessionBackend):
    """Quasi-steady answers by backward-Euler time integration.

    Constant-power queries integrated over several thermal time constants:
    slower than ``fvm`` but exercises the transient discretisation, through
    the same :meth:`~repro.api.backends.TransientBackendAdapter.stream_trace`
    loop that answers ``/solve_transient``.
    """

    name = "transient"

    def stats(self) -> Dict[str, Any]:
        """Transient-solver pool occupancy and hit rates for ``/stats``."""
        return {"solver_pool": self.session.pool("transient").stats()}


class OperatorBackend(SessionBackend):
    """Learned-surrogate answers from the registered operator model."""

    name = "operator"

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        session: Optional[ThermalSession] = None,
    ):
        if session is None:
            session = ThermalSession(models=registry)
        super().__init__(session=session)

    @property
    def registry(self) -> ModelRegistry:
        """The session's model registry (compat accessor)."""
        return self.session.models

    def stats(self) -> Dict[str, Any]:
        """Loaded-model count for ``/stats``."""
        return {"models": len(self.session.models)}


def build_backends(
    model_paths: Sequence[str] = (),
    pool_size: int = DEFAULT_POOL_SIZE,
    cells_per_layer: int = 2,
    session: Optional[ThermalSession] = None,
) -> Dict[str, Backend]:
    """Assemble the standard backend set of a service deployment.

    All backends share one :class:`~repro.api.session.ThermalSession` (the
    given one, or a fresh one), so solver pools, loaded models and
    the result cache are deployment-wide.  ``model_paths`` are operator
    weight files saved through :func:`~repro.operators.factory.save_operator`;
    the ``operator`` backend is present even when empty so requests for it
    fail with a clear "no model registered" message rather than "unknown
    backend".
    """
    session = session or ThermalSession(
        pool_size=pool_size, cells_per_layer=cells_per_layer
    )
    for path in model_paths:
        session.load_model(path)
    backends: Dict[str, Backend] = {}
    for backend in (
        FVMBackend(session=session),
        OperatorBackend(session=session),
        HotSpotBackend(session=session),
        TransientBackend(session=session),
    ):
        backends[backend.name] = backend
    return backends
