""":class:`ThermalSession` — the one-stop Python API of the reproduction.

Before the facade existed every consumer hand-wired the same cross-cutting
state: the CLI built ``FVMSolver`` instances per invocation, the serving
backends kept their own LRU pools of factorisations, the evaluation runners
re-implemented the train/evaluate loop, and the examples did all of the
above again.  A session owns that state once:

* a **chip registry** — the built-in benchmark designs plus any custom
  :class:`~repro.chip.ChipStack` registered at runtime,
* **backend pools** — prepared :mod:`repro.api.backends` adapters (cached
  geometry, block bases, compact networks) with LRU eviction,
* a **model registry** of trained operator surrogates,
* a **result cache** keyed by ``(chip, resolution, backend, power-map
  hash)`` so repeated queries cost a dictionary lookup,

and exposes the whole workflow through a handful of methods::

    session = ThermalSession()
    answer  = session.solve("chip1", total_power_W=60, backend="fvm")
    data    = session.generate_dataset("chip1", resolution=32, num_samples=256)
    trained = session.train(data.split(0.8).train, method="sau_fno")
    report  = session.evaluate(trained, data.split(0.8).test)

The serving subsystem, the CLI, the evaluation harness and the examples are
all thin layers over this class.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.backends import (
    BACKEND_NAMES,
    Case,
    FVMBackendAdapter,
    HotSpotBackendAdapter,
    OperatorBackendAdapter,
    ThermalBackend,
    TransientBackendAdapter,
)
from repro.api.breaker import CircuitBreaker, CircuitOpenError
from repro.api.pool import (
    DEFAULT_POOL_SIZE,
    DEFAULT_RESULT_CACHE_BYTES,
    DEFAULT_RESULT_CACHE_SIZE,
    LRUPool,
    ResultCache,
)
from repro.api.registry import ModelRegistry
from repro.api.solution import ThermalSolution
from repro.chip import designs
from repro.chip.stack import ChipStack
from repro.data.dataset import ThermalDataset
from repro.data.generation import (
    DEFAULT_BATCH_SIZE,
    DatasetSpec,
    generate_dataset as _generate_dataset,
    generate_multifidelity_pair as _generate_multifidelity_pair,
)
from repro.data.power import (
    PowerCase,
    uniform_power_assignment,
    validate_power_assignment,
)
from repro.metrics.errors import MetricReport, evaluate_all
from repro.obs.bus import EventBus, publish_all
from repro.obs.events import BreakerTransition, CacheEviction
from repro.operators.factory import (
    LoadedOperator,
    build_operator,
    load_operator,
    save_operator,
)
from repro.operators.gar import GARRegressor
from repro.runtime.faults import FaultPlan
from repro.runtime.plane import DeadlineExceeded, ExecutionPlane, PlaneTask
from repro.runtime.tasks import (
    BackendSpec,
    backend_state_key,
    build_backend_adapter,
    solve_cases,
    warm_state,
)
from repro.solvers.hotspot import HotSpotModel
from repro.solvers.transient import PowerTrace
from repro.training.trainer import Trainer, TrainingConfig, TrainingHistory

#: Grid resolution used when a query does not specify one.
DEFAULT_RESOLUTION = 32

#: Backends a session dispatches onto its execution plane.  ``operator``
#: surrogates live in the parent session's model registry and solve inline;
#: ``hotspot`` answers in microseconds, so shipping it across a process
#: boundary would cost more than the solve — it stays inline too (its state
#: *can* be rebuilt on a worker, see :mod:`repro.runtime.tasks`).
PLANE_BACKENDS = ("fvm", "transient")

#: EWMA smoothing of the per-case plane latency estimate that drives the
#: adaptive batch-split decision — recent batches dominate so the estimate
#: tracks load shifts within a few batches.
ADAPTIVE_SPLIT_ALPHA = 0.3

#: Estimated whole-batch seconds below which splitting cannot pay: below
#: this, per-chunk dispatch overhead (task pickling, queue hops, extra warm
#: states) exceeds the parallel win and the batch travels whole.
ADAPTIVE_SPLIT_MIN_SECONDS = 0.05

#: The opt-in graceful-degradation order (``fallback=True``): when a
#: requested backend fails or its circuit breaker is open, the session walks
#: this chain and returns the first answer it can get, stamped
#: ``degraded: true`` in provenance.  Chains prefer physically faithful
#: surrogates first (a trained operator where one is registered) and end on
#: ``hotspot``, the compact model that practically cannot fail.
DEFAULT_FALLBACK_CHAIN: Dict[str, Tuple[str, ...]] = {
    "fvm": ("operator", "hotspot"),
    "transient": ("fvm", "hotspot"),
    "operator": ("hotspot",),
}

#: Threads of the session's lazily created async executor (behind
#: :meth:`ThermalSession.submit` / :meth:`ThermalSession.solve_many`).  The
#: threads mostly *wait* — plane-eligible backends dispatch the actual solve
#: onto the execution plane — so the count bounds concurrent fan-out groups,
#: not CPU use.
ASYNC_POOL_WORKERS = 8

#: Consecutive failures that open a backend's circuit breaker.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open breaker rests before letting one half-open probe through.
DEFAULT_BREAKER_COOLDOWN_S = 30.0

ChipLike = Union[str, ChipStack]


def _chip_fingerprint(chip: ChipStack) -> str:
    """Structural identity of a chip design (see :meth:`ChipStack.fingerprint`).

    Kept as a module-level helper for compatibility; the logic moved onto
    :class:`~repro.chip.stack.ChipStack` so the execution planes can embed
    the same identity in warm-state keys without importing the session.
    """
    return chip.fingerprint()


def _solution_nbytes(solution: ThermalSolution) -> int:
    """Approximate payload size of a solution for the cache byte budget."""
    size = 512  # scalars, hotspot dict, provenance
    if solution.layer_maps:
        size += sum(int(np.asarray(v).nbytes) for v in solution.layer_maps.values())
    if solution.values is not None:
        size += int(solution.values.nbytes)
    if solution.history:
        size += sum(int(np.asarray(v).nbytes) for v in solution.history.values())
    return size


def power_map_hash(assignment: Mapping[str, float]) -> str:
    """Deterministic digest of a flat power assignment.

    Result-cache keys embed it so two queries with the same per-block watts
    collide regardless of mapping order.  Floats are hashed by their exact
    IEEE bits — "close" powers are different queries.
    """
    digest = hashlib.sha1()
    for name in sorted(assignment):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(struct.pack("<d", float(assignment[name])))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Training result
# ----------------------------------------------------------------------
@dataclass
class TrainedOperator:
    """A model trained through :meth:`ThermalSession.train`.

    Bundles the model with the trainer that owns its normalisers (absent for
    the closed-form GAR baseline) so prediction, evaluation, persistence and
    serving registration are one call each.
    """

    method: str
    model: Any
    chip_name: Optional[str]
    resolution: Optional[int]
    train_seconds: float
    trainer: Optional[Trainer] = None
    history: Optional[TrainingHistory] = None

    @property
    def servable(self) -> bool:
        """Whether the model can be saved/registered for the serving stack."""
        return self.trainer is not None

    @property
    def num_parameters(self) -> int:
        """Trainable parameter count (components for the GAR baseline)."""
        if isinstance(self.model, GARRegressor):
            return int(self.model.n_components)
        return int(self.model.num_parameters())

    def predict(self, inputs: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Temperature maps in kelvin for raw power-density inputs."""
        if self.trainer is not None:
            return self.trainer.predict(inputs, batch_size=batch_size)
        return self.model.predict(inputs)

    def evaluate(self, dataset: ThermalDataset) -> MetricReport:
        """Physical-unit metrics (the Table II bundle) on a dataset."""
        return evaluate_all(self.predict(dataset.inputs), dataset.targets)

    def inference_seconds_per_case(self, dataset: ThermalDataset, repeats: int = 3) -> float:
        """Median wall-clock prediction cost per case on a dataset."""
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        timings = []
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            self.predict(dataset.inputs)
            timings.append((time.perf_counter() - start) / len(dataset))
        return float(np.median(timings))

    def _require_servable(self, action: str) -> None:
        if not self.servable:
            raise ValueError(
                f"cannot {action} a '{self.method}' model: it has no trainer-owned "
                "normalisers (the closed-form GAR baseline is not servable)"
            )

    def save(self, path: str) -> None:
        """Persist weights + normalisers + chip/resolution provenance."""
        self._require_servable("save")
        save_operator(
            self.model,
            path,
            input_normalizer=self.trainer.input_normalizer,
            output_normalizer=self.trainer.output_normalizer,
            chip_name=self.chip_name,
            resolution=self.resolution,
        )

    def as_loaded(self) -> LoadedOperator:
        """A registry-ready view (what :func:`load_operator` would rebuild)."""
        self._require_servable("register")
        config = getattr(self.model, "config", {}) or {}
        return LoadedOperator(
            model=self.model,
            name=self.method,
            in_channels=int(config.get("in_channels", 0)),
            out_channels=int(config.get("out_channels", 0)),
            options=dict(config.get("options", {})),
            chip_name=self.chip_name,
            resolution=self.resolution,
            input_normalizer=self.trainer.input_normalizer,
            output_normalizer=self.trainer.output_normalizer,
        )


# ----------------------------------------------------------------------
# The session facade
# ----------------------------------------------------------------------
class ThermalSession:
    """Shared state + one call signature over every thermal engine.

    Parameters
    ----------
    pool_size:
        Prepared backend adapters kept resident per backend kind (LRU).
    cells_per_layer:
        Vertical discretisation used by the field solvers this session
        builds.
    result_cache_size:
        Memoised answers kept in the result cache.
    result_cache_max_bytes:
        Byte budget of the result cache; least-recently-used answers are
        evicted once the summed payload sizes exceed it.
    result_cache_ttl_s:
        Optional per-answer time-to-live in seconds; ``None`` (the default)
        keeps answers until evicted by the count/byte bounds.
    result_cache:
        A pre-built :class:`~repro.api.pool.ResultCache` to use instead of
        constructing one from the knobs above (tests inject a fake clock
        this way); mutually exclusive with the three cache parameters.
    models:
        An existing :class:`ModelRegistry` to share; a fresh one otherwise.
    operator_batch_size:
        Forward-pass batch size of the operator backend.
    plane:
        An optional :class:`~repro.runtime.plane.ExecutionPlane` this
        session dispatches its batched field solves onto (see
        :data:`PLANE_BACKENDS`).  ``None`` — the default — solves inline on
        the calling thread, exactly the historical behaviour.  The caller
        owns the plane's lifecycle (``close()`` it, or use it as a context
        manager); one plane may be shared by several sessions.
    breaker_threshold:
        Consecutive solve failures that open a backend's circuit breaker
        (see :class:`~repro.api.breaker.CircuitBreaker`).
    breaker_cooldown_s:
        Seconds an open breaker rests before letting one probe through.
    fallback:
        Graceful degradation.  ``False`` (default): a failing backend
        raises, an open breaker raises
        :class:`~repro.api.breaker.CircuitOpenError`.  ``True``: walk
        :data:`DEFAULT_FALLBACK_CHAIN` and return the first obtainable
        answer, stamped ``degraded: true`` in provenance (and never
        cached).  A mapping of ``backend -> (fallback, ...)`` names
        customises the chains.
    faults:
        An optional chaos :class:`~repro.runtime.faults.FaultPlan`; its
        backend directives fire inside this session's solve path.
    """

    def __init__(
        self,
        pool_size: int = DEFAULT_POOL_SIZE,
        cells_per_layer: int = 2,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        result_cache_max_bytes: int = DEFAULT_RESULT_CACHE_BYTES,
        result_cache_ttl_s: Optional[float] = None,
        result_cache: Optional[ResultCache] = None,
        models: Optional[ModelRegistry] = None,
        operator_batch_size: int = 32,
        plane: Optional[ExecutionPlane] = None,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        fallback: Union[bool, Mapping[str, Sequence[str]]] = False,
        faults: Optional[FaultPlan] = None,
    ):
        self.cells_per_layer = cells_per_layer
        self.operator_batch_size = operator_batch_size
        self.plane = plane
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.faults = faults
        if fallback is True:
            self.fallback_chain: Dict[str, Tuple[str, ...]] = dict(DEFAULT_FALLBACK_CHAIN)
        elif fallback is False or fallback is None:
            self.fallback_chain = {}
        else:
            self.fallback_chain = {
                str(name): tuple(str(alt) for alt in alternates)
                for name, alternates in dict(fallback).items()
            }
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._reliability_lock = threading.Lock()
        self._fallbacks = 0
        self._breaker_rejections = 0
        # Plane-dispatch bookkeeping: a per-state-key EWMA of observed
        # per-case solve seconds feeds the adaptive batch-split decision in
        # _solve_batch_on_plane; the counters surface in stats()["dispatch"].
        self._dispatch_lock = threading.Lock()
        self._latency_ewma: Dict[Tuple, float] = {}
        self._plane_batches = 0
        self._split_batches = 0
        self._adaptive_splits = 0
        self._chips: Dict[str, ChipStack] = {}
        self._pools: Dict[str, LRUPool] = {
            name: LRUPool(pool_size) for name in ("fvm", "hotspot", "transient")
        }
        self.models = models if models is not None else ModelRegistry(self.get_chip)
        if result_cache is not None and (
            result_cache_size != DEFAULT_RESULT_CACHE_SIZE
            or result_cache_max_bytes != DEFAULT_RESULT_CACHE_BYTES
            or result_cache_ttl_s is not None
        ):
            raise ValueError(
                "pass either a pre-built result_cache or the cache size/bytes/ttl "
                "knobs, not both"
            )
        # `is not None`, not truthiness: an empty ResultCache has len() == 0
        # and would be silently replaced.
        self.result_cache = (
            result_cache
            if result_cache is not None
            else ResultCache(
                result_cache_size,
                max_bytes=result_cache_max_bytes,
                ttl_s=result_cache_ttl_s,
            )
        )
        #: Telemetry bus (set via :meth:`attach_events`); ``None`` keeps
        #: every emission site a no-op.
        self.events: Optional[EventBus] = None
        self.result_cache.eviction_listener = self._on_cache_eviction
        # Async facade: the executor behind submit()/solve_many(), built on
        # first use so synchronous-only sessions never spawn threads.
        self._async_lock = threading.Lock()
        self._async_pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_events(self, bus: EventBus) -> None:
        """Publish this session's telemetry onto ``bus``.

        Wires the result cache's eviction listener, every existing (and
        future) circuit breaker's transition listener, and — if the session
        drives an execution plane that has no bus yet — the plane's
        worker-death/retry events.  Safe to call once after construction;
        sessions without a bus emit nothing.
        """
        self.events = bus
        if self.plane is not None and getattr(self.plane, "events", None) is None:
            self.plane.attach_events(bus)

    def _on_cache_eviction(self, cause: str, key: Any) -> None:
        publish_all(
            self.events, [CacheEviction(source="session", cause=cause, key=str(key))]
        )

    def _on_breaker_transition(
        self, backend: str, old_state: str, new_state: str, streak: int
    ) -> None:
        publish_all(
            self.events,
            [
                BreakerTransition(
                    source="session",
                    backend=backend,
                    from_state=old_state,
                    to_state=new_state,
                    consecutive_failures=streak,
                )
            ],
        )

    # ------------------------------------------------------------------
    # Chips
    # ------------------------------------------------------------------
    def register_chip(self, chip: ChipStack) -> ChipStack:
        """Make a custom design addressable by name in this session.

        Re-registering a structurally *different* design under an existing
        name evicts every pooled adapter and cached answer for that name —
        otherwise the session would keep solving against the old geometry.
        Re-registering an equivalent design (e.g. a freshly rebuilt object)
        keeps the already-registered instance and all its warm state.
        """
        previous = self._chips.get(chip.name)
        if previous is not None and previous is not chip:
            if _chip_fingerprint(previous) == _chip_fingerprint(chip):
                return previous  # same design: keep warm pools and caches
            self.invalidate_chip(chip.name)
        self._chips[chip.name] = chip
        return chip

    def invalidate_chip(self, chip_name: str) -> None:
        """Drop every pooled adapter and cached answer for one chip."""
        for pool in self._pools.values():
            pool.discard_where(
                lambda key: (key[0] if isinstance(key, tuple) else key) == chip_name
            )
        self.result_cache.discard_where(lambda key: key[0] == chip_name)

    def get_chip(self, name: str) -> ChipStack:
        """Resolve a chip name (case-insensitive) to its :class:`ChipStack`.

        Custom designs registered through :meth:`register_chip` shadow the
        built-in benchmark designs of the same name.
        """
        if name in self._chips:
            return self._chips[name]
        lowered = str(name).lower()
        for registered, chip in self._chips.items():
            if registered.lower() == lowered:
                return chip
        return designs.get_chip(name)

    def list_chips(self) -> List[str]:
        """Every addressable chip name: built-ins first, then custom designs."""
        return list(designs.list_chips()) + sorted(
            name for name in self._chips if name not in designs.list_chips()
        )

    def _resolve_chip(self, chip: ChipLike) -> ChipStack:
        if isinstance(chip, ChipStack):
            # Auto-register so follow-up queries can address it by name.
            # register_chip keeps the already-registered instance for an
            # equivalent design (preserving warm pools) and invalidates
            # stale state when the name was taken by a different design.
            return self.register_chip(chip)
        return self.get_chip(str(chip))

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def load_model(self, path: str) -> LoadedOperator:
        """Load a saved operator ``.npz`` into the session's registry."""
        loaded = self.models.register_file(path)
        self._invalidate_operator_answers(loaded)
        return loaded

    def register_model(self, loaded: LoadedOperator, path: str = "<memory>") -> None:
        """Register an in-memory operator for its trained chip/resolution."""
        self.models.register(loaded, path=path)
        self._invalidate_operator_answers(loaded)

    def _invalidate_operator_answers(self, loaded: LoadedOperator) -> None:
        """Evict cached answers the replaced surrogate produced.

        A registration replaces whatever model previously served this
        ``(chip, resolution)``; without eviction a hot-reloaded retrained
        model would keep serving the old model's cached predictions.
        """
        chip_name, resolution = loaded.chip_name, int(loaded.resolution)
        self.result_cache.discard_where(
            lambda key: key[0] == chip_name
            and key[1] == resolution
            and key[2] == "operator"
        )

    # ------------------------------------------------------------------
    # Backends
    # ------------------------------------------------------------------
    def backends(self) -> Tuple[str, ...]:
        """Names of the backend kinds this session can build, registry order."""
        return BACKEND_NAMES

    def pool(self, backend: str) -> LRUPool:
        """The LRU pool of prepared adapters for one pooled backend kind."""
        if backend not in self._pools:
            raise KeyError(
                f"backend '{backend}' has no adapter pool; pooled backends: "
                f"{', '.join(sorted(self._pools))}"
            )
        return self._pools[backend]

    def backend(
        self, name: str, chip: ChipLike, resolution: int = DEFAULT_RESOLUTION
    ) -> ThermalBackend:
        """A (pooled) prepared :class:`ThermalBackend` adapter.

        ``fvm`` / ``hotspot`` / ``transient`` adapters are built once per
        ``(chip, resolution)`` and kept in LRU pools; ``operator`` adapters
        are a thin view over the registry's loaded model and built on demand.
        """
        chip_stack = self._resolve_chip(chip)
        resolution = int(resolution)
        key = (chip_stack.name, resolution)
        if name == "fvm":
            return self._pools["fvm"].get(
                key,
                lambda: FVMBackendAdapter(
                    chip_stack, resolution, cells_per_layer=self.cells_per_layer
                ).prepare(),
            )
        if name == "hotspot":
            # The RC network is resolution-independent (resolution only
            # rasterises the optional maps), so the factorised model is
            # pooled per chip and wrapped per call.
            model = self._pools["hotspot"].get(
                chip_stack.name, lambda: HotSpotModel(chip_stack)
            )
            return HotSpotBackendAdapter(chip_stack, resolution, model=model)
        if name == "transient":
            return self._pools["transient"].get(
                key,
                lambda: TransientBackendAdapter(
                    chip_stack, resolution, cells_per_layer=self.cells_per_layer
                ),
            )
        if name == "operator":
            loaded = self.models.lookup(chip_stack.name, resolution)
            return OperatorBackendAdapter(
                chip_stack, loaded, batch_size=self.operator_batch_size
            )
        raise ValueError(
            f"unknown backend '{name}'; available: {', '.join(BACKEND_NAMES)}"
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _coerce_assignment(
        self,
        chip_stack: ChipStack,
        powers: Union[Case, float, None],
        total_power_W: Optional[float] = None,
    ) -> Dict[str, float]:
        if powers is not None and total_power_W is not None:
            raise ValueError("specify either 'powers' or 'total_power_W', not both")
        if powers is None:
            return uniform_power_assignment(chip_stack, total_power_W)
        if isinstance(powers, PowerCase):
            return validate_power_assignment(chip_stack, powers.assignment)
        if isinstance(powers, bool):
            raise TypeError("'powers' cannot be a boolean")
        if isinstance(powers, (int, float)):
            return uniform_power_assignment(chip_stack, float(powers))
        if isinstance(powers, Mapping):
            return validate_power_assignment(chip_stack, powers)
        raise TypeError(
            "'powers' must be a mapping of 'layer/block' to watts, a PowerCase "
            f"or a total power in watts, got {type(powers).__name__}"
        )

    def solve(
        self,
        chip: ChipLike,
        powers: Union[Case, float, None] = None,
        *,
        total_power_W: Optional[float] = None,
        resolution: int = DEFAULT_RESOLUTION,
        backend: str = "fvm",
        include_maps: bool = False,
        include_values: bool = False,
        use_cache: bool = True,
    ) -> ThermalSolution:
        """Answer one power-map query with any backend.

        ``powers`` accepts a flat ``"layer/block" -> watts`` mapping, a
        :class:`~repro.data.power.PowerCase`, or a bare number (total watts
        spread uniformly); omitted entirely, ``total_power_W`` (or the chip
        budget midpoint) is spread uniformly.  Repeated identical queries hit
        the session result cache (``solution.cached``).
        """
        chip_stack = self._resolve_chip(chip)
        assignment = self._coerce_assignment(chip_stack, powers, total_power_W)
        return self.solve_batch(
            chip_stack,
            [assignment],
            resolution=resolution,
            backend=backend,
            include_maps=include_maps,
            include_values=include_values,
            use_cache=use_cache,
        )[0]

    def solve_batch(
        self,
        chip: ChipLike,
        cases: Sequence[Union[Case, float]],
        *,
        resolution: int = DEFAULT_RESOLUTION,
        backend: str = "fvm",
        include_maps: bool = False,
        include_values: bool = False,
        use_cache: bool = True,
        plane: Optional[ExecutionPlane] = None,
        deadline: Optional[float] = None,
    ) -> List[ThermalSolution]:
        """Answer many power cases in one batched backend call.

        Cached answers are returned immediately; only the misses reach the
        backend, together, so a warm cache turns a batch into one dictionary
        pass and the cold remainder still amortises the factorisation.

        ``plane`` (default: the session's configured plane) routes the miss
        batch of a plane-eligible backend (:data:`PLANE_BACKENDS`) onto an
        execution plane: small batches travel whole to the worker owning
        the key's warm state, while batches large enough to feed every
        worker are split into per-worker chunks — each worker warms its own
        factorisation, so a big batch genuinely runs on several cores.  The
        answers are bitwise-identical to inline solving either way.

        ``deadline`` (absolute ``time.monotonic()`` seconds) propagates to
        the plane tasks and is re-checked before each solve attempt;
        expired work raises :class:`~repro.runtime.plane.DeadlineExceeded`
        instead of burning solver time.  Cached answers are still served —
        a dictionary lookup beats any deadline worth having.

        When the session was built with ``fallback`` enabled, a failing (or
        breaker-open) backend degrades to its fallback chain instead of
        raising; degraded answers carry ``degraded: true`` plus the
        ``requested_backend`` in provenance and are never cached.
        """
        chip_stack = self._resolve_chip(chip)
        assignments = [self._coerce_assignment(chip_stack, case) for case in cases]
        if not assignments:
            return []
        resolution = int(resolution)
        # Full 3-D fields are too large to memoise profitably (and such
        # calls are interactive one-offs); only summary/map answers cache.
        use_cache = use_cache and not include_values
        detail = (bool(include_maps), bool(include_values))
        solutions: List[Optional[ThermalSolution]] = [None] * len(assignments)
        misses = list(range(len(assignments)))
        keys: List[Optional[Tuple]] = [None] * len(assignments)
        if use_cache:
            misses = []
            for index, assignment in enumerate(assignments):
                key = (
                    chip_stack.name,
                    resolution,
                    backend,
                    power_map_hash(assignment),
                    detail,
                )
                keys[index] = key
                hit = self.result_cache.get(key)
                if hit is not None:
                    solutions[index] = hit.clone(
                        provenance={**hit.provenance, "cached": True}
                    )
                else:
                    misses.append(index)
        if misses:
            plane = plane if plane is not None else self.plane
            miss_assignments = [assignments[index] for index in misses]
            solved, producer = self._solve_misses(
                plane,
                chip_stack,
                resolution,
                backend,
                miss_assignments,
                include_maps=include_maps,
                include_values=include_values,
                deadline=deadline,
            )
            degraded = producer != backend
            for index, solution in zip(misses, solved):
                solutions[index] = solution
                if use_cache and not degraded:
                    # Store a pristine clone: consumers (the serving engine)
                    # stamp latency/batch metadata onto what we return.
                    # Degraded answers are never cached — the real backend
                    # must get to answer again once it recovers.
                    self.result_cache.put(
                        keys[index], solution.clone(), _solution_nbytes(solution)
                    )
        return solutions  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Async facade
    # ------------------------------------------------------------------
    def _async_executor(self) -> ThreadPoolExecutor:
        with self._async_lock:
            if self._async_pool is None:
                self._async_pool = ThreadPoolExecutor(
                    max_workers=ASYNC_POOL_WORKERS,
                    thread_name_prefix="session-async",
                )
            return self._async_pool

    def submit(
        self,
        chip: ChipLike,
        powers: Union[Case, float, None] = None,
        *,
        total_power_W: Optional[float] = None,
        resolution: int = DEFAULT_RESOLUTION,
        backend: str = "fvm",
        include_maps: bool = False,
        include_values: bool = False,
        use_cache: bool = True,
        deadline: Optional[float] = None,
    ) -> Future:
        """Asynchronous :meth:`solve`: returns a future, never blocks.

        The query is validated eagerly (bad input raises here, not inside
        the future) and solved on the session's async executor; the future
        resolves to the same :class:`ThermalSolution` the blocking call
        would return, including cache hits and fallback/breaker semantics.
        ``deadline`` (absolute ``time.monotonic()`` seconds) propagates
        exactly as in :meth:`solve_batch`.
        """
        chip_stack = self._resolve_chip(chip)
        assignment = self._coerce_assignment(chip_stack, powers, total_power_W)
        return self._async_executor().submit(
            lambda: self.solve_batch(
                chip_stack,
                [assignment],
                resolution=resolution,
                backend=backend,
                include_maps=include_maps,
                include_values=include_values,
                use_cache=use_cache,
                deadline=deadline,
            )[0]
        )

    def solve_many(
        self,
        queries: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> List[ThermalSolution]:
        """Answer many heterogeneous queries concurrently in one call.

        ``queries`` is a sequence of mappings with the :meth:`solve`
        keywords (``chip`` required; ``powers`` / ``total_power_W`` /
        ``resolution`` / ``backend`` / ``include_maps`` /
        ``include_values`` / ``use_cache`` optional).  Queries sharing
        ``(chip, resolution, backend, detail)`` are coalesced into one
        batched solve — which rides the execution plane when the session
        drives one — and distinct groups run concurrently on the async
        executor, so a fan-out across chips costs the wall-clock of its
        slowest group instead of the sum.  Results come back in query
        order; ``timeout`` bounds the *whole* call, not each group.
        """
        prepared: List[Tuple[int, Dict[str, float]]] = []
        groups: Dict[Tuple, Dict[str, Any]] = {}
        for index, query in enumerate(queries):
            if not isinstance(query, Mapping):
                raise TypeError(
                    f"query {index} must be a mapping of solve() keywords, "
                    f"got {type(query).__name__}"
                )
            options = dict(query)
            if "chip" not in options:
                raise ValueError(f"query {index} is missing the required 'chip' field")
            chip_stack = self._resolve_chip(options.pop("chip"))
            assignment = self._coerce_assignment(
                chip_stack, options.pop("powers", None), options.pop("total_power_W", None)
            )
            key = (
                chip_stack.name,
                int(options.pop("resolution", DEFAULT_RESOLUTION)),
                str(options.pop("backend", "fvm")),
                bool(options.pop("include_maps", False)),
                bool(options.pop("include_values", False)),
                bool(options.pop("use_cache", True)),
            )
            if options:
                raise ValueError(
                    f"query {index} has unknown fields: {', '.join(sorted(options))}"
                )
            group = groups.setdefault(
                key, {"chip": chip_stack, "indices": [], "assignments": []}
            )
            group["indices"].append(index)
            group["assignments"].append(assignment)
            prepared.append((index, assignment))
        if not prepared:
            return []
        executor = self._async_executor()
        futures = []
        for key, group in groups.items():
            _, resolution, backend, include_maps, include_values, use_cache = key
            futures.append(
                (
                    group["indices"],
                    executor.submit(
                        self.solve_batch,
                        group["chip"],
                        group["assignments"],
                        resolution=resolution,
                        backend=backend,
                        include_maps=include_maps,
                        include_values=include_values,
                        use_cache=use_cache,
                        deadline=deadline,
                    ),
                )
            )
        collect_deadline = None if timeout is None else time.monotonic() + timeout
        solutions: List[Optional[ThermalSolution]] = [None] * len(prepared)
        for indices, future in futures:
            remaining = (
                None
                if collect_deadline is None
                else max(collect_deadline - time.monotonic(), 0.0)
            )
            for index, solution in zip(indices, future.result(timeout=remaining)):
                solutions[index] = solution
        return solutions  # type: ignore[return-value]

    def _solve_misses(
        self,
        plane: Optional[ExecutionPlane],
        chip_stack: ChipStack,
        resolution: int,
        backend: str,
        assignments: List[Dict[str, float]],
        *,
        include_maps: bool,
        include_values: bool,
        deadline: Optional[float],
    ) -> Tuple[List[ThermalSolution], str]:
        """Solve one miss batch through the breaker + fallback chain.

        Returns ``(solutions, producer)`` where ``producer`` is the backend
        that actually answered.  Walks ``(backend, *fallback_chain)``: a
        candidate whose breaker is open is skipped (counted as a
        rejection), a candidate that cannot serve the request shape (no
        registered model, no 3-D field capability) is skipped without
        touching its breaker, and a candidate whose *solve* fails records a
        breaker failure before the next one is tried.  With no fallback
        configured the chain is just the requested backend and errors
        surface exactly as before.
        """
        chain = (backend,) + self.fallback_chain.get(backend, ())
        first_error: Optional[BaseException] = None
        for candidate in chain:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    f"request deadline expired before backend '{candidate}' "
                    "could start solving"
                )
            try:
                solve = self._prepare_candidate(
                    plane,
                    chip_stack,
                    resolution,
                    candidate,
                    assignments,
                    include_maps=include_maps,
                    include_values=include_values,
                    deadline=deadline,
                )
            except Exception as error:  # noqa: BLE001 — config, not health
                # The candidate cannot serve this request *shape* (unknown
                # backend, no registered model, no field capability): skip
                # it without charging its breaker.
                first_error = first_error if first_error is not None else error
                continue
            breaker = self._breaker(candidate)
            if not breaker.allow():
                with self._reliability_lock:
                    self._breaker_rejections += 1
                if first_error is None:
                    first_error = CircuitOpenError(
                        f"circuit breaker for backend '{candidate}' is open "
                        f"(cooldown {breaker.cooldown_s:.0f}s)"
                    )
                continue
            try:
                if self.faults is not None:
                    self.faults.on_backend_solve(candidate)
                solved = solve()
            except DeadlineExceeded:
                # A shed is the deadline's fault, not the backend's: leave
                # the breaker verdict-free and stop the whole chain.
                breaker.release_probe()
                raise
            except Exception as error:  # noqa: BLE001 — fall through chain
                breaker.record_failure()
                first_error = first_error if first_error is not None else error
                continue
            breaker.record_success()
            if candidate != backend:
                with self._reliability_lock:
                    self._fallbacks += len(assignments)
                for solution in solved:
                    solution.provenance["degraded"] = True
                    solution.provenance["requested_backend"] = backend
            return solved, candidate
        assert first_error is not None  # chain is never empty
        raise first_error

    def _prepare_candidate(
        self,
        plane: Optional[ExecutionPlane],
        chip_stack: ChipStack,
        resolution: int,
        candidate: str,
        assignments: List[Dict[str, float]],
        *,
        include_maps: bool,
        include_values: bool,
        deadline: Optional[float],
    ) -> Callable[[], List[ThermalSolution]]:
        """A zero-argument solve closure for one fallback-chain candidate.

        Raises immediately (before any breaker bookkeeping) when the
        candidate cannot serve the request shape at all.
        """
        if plane is not None and candidate in PLANE_BACKENDS:
            return lambda: self._solve_batch_on_plane(
                plane,
                chip_stack,
                resolution,
                candidate,
                assignments,
                include_maps=include_maps,
                include_values=include_values,
                deadline=deadline,
            )
        adapter = self.backend(candidate, chip_stack, resolution)
        if include_values and not adapter.capabilities().get("values", False):
            raise ValueError(
                f"backend '{candidate}' cannot produce a 3-D field; drop "
                "include_values or use a field backend (fvm, transient)"
            )
        return lambda: adapter.solve_batch(
            assignments,
            include_maps=include_maps,
            include_values=include_values,
        )

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    def _breaker(self, backend: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker of one backend name."""
        with self._breaker_lock:
            breaker = self._breakers.get(backend)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown_s=self.breaker_cooldown_s,
                    listener=(
                        lambda old, new, streak, _name=backend:
                        self._on_breaker_transition(_name, old, new, streak)
                    ),
                )
                self._breakers[backend] = breaker
            return breaker

    def open_breakers(self) -> List[str]:
        """Backends currently refusing work (open *or* half-open breakers).

        ``/healthz`` reports ``degraded`` while this list is non-empty: a
        half-open breaker is still recovering and most traffic to it is
        refused until its probe succeeds.
        """
        with self._breaker_lock:
            breakers = list(self._breakers.items())
        return sorted(name for name, breaker in breakers if breaker.state != "closed")

    def _solve_batch_on_plane(
        self,
        plane: ExecutionPlane,
        chip_stack: ChipStack,
        resolution: int,
        backend: str,
        assignments: List[Dict[str, float]],
        *,
        include_maps: bool,
        include_values: bool,
        deadline: Optional[float] = None,
    ) -> List[ThermalSolution]:
        """Dispatch one homogeneous miss batch onto an execution plane.

        The batch becomes one task (routed by warm-state key affinity) when
        it is small, or ``plane.workers`` chunk tasks pinned to distinct
        worker slots when splitting pays — the chunk results are
        re-concatenated in order, so callers see exactly the inline answer
        list (chunked answers are bitwise-identical to whole-batch ones).

        The split decision is adaptive: a batch deep enough to feed every
        worker twice always splits (the historical static rule), and a
        smaller batch (>= one case per worker) splits when the live
        per-case latency EWMA for this state key says the whole batch
        would cost at least :data:`ADAPTIVE_SPLIT_MIN_SECONDS` — heavy
        keys (high resolutions) split earlier, trivial keys never pay the
        chunk-dispatch overhead.  Splits the static rule would not have
        made are counted as ``adaptive_splits`` in :meth:`stats`.
        """
        spec = BackendSpec(
            chip=chip_stack,
            resolution=resolution,
            backend=backend,
            cells_per_layer=self.cells_per_layer,
        )
        key = backend_state_key(spec)
        count = len(assignments)
        with self._dispatch_lock:
            per_case_s = self._latency_ewma.get(key)
        static_split = plane.workers > 1 and count >= 2 * plane.workers
        adaptive_split = (
            not static_split
            and plane.workers > 1
            and count >= plane.workers
            and per_case_s is not None
            and count * per_case_s >= ADAPTIVE_SPLIT_MIN_SECONDS
        )
        if static_split or adaptive_split:
            bounds = np.linspace(0, count, plane.workers + 1).astype(int)
            chunks = [
                (slot, assignments[bounds[slot]:bounds[slot + 1]])
                for slot in range(plane.workers)
                if bounds[slot] < bounds[slot + 1]
            ]
        else:
            chunks = [(None, assignments)]
        tasks = [
            PlaneTask(
                fn=solve_cases,
                payload={
                    "assignments": chunk,
                    "include_maps": include_maps,
                    "include_values": include_values,
                },
                state_key=key,
                state_factory=build_backend_adapter,
                state_spec=spec,
                affinity=slot,
                deadline=deadline,
            )
            for slot, chunk in chunks
        ]
        started = time.perf_counter()
        solved: List[ThermalSolution] = []
        for chunk_solutions in plane.run_all(tasks):
            solved.extend(chunk_solutions)
        elapsed = time.perf_counter() - started
        # Chunks run concurrently, so wall-clock over the batch times the
        # chunk count approximates one worker's sequential per-case cost.
        per_case_observed = elapsed * len(chunks) / count
        with self._dispatch_lock:
            previous = self._latency_ewma.get(key)
            self._latency_ewma[key] = (
                per_case_observed
                if previous is None
                else ADAPTIVE_SPLIT_ALPHA * per_case_observed
                + (1.0 - ADAPTIVE_SPLIT_ALPHA) * previous
            )
            self._plane_batches += 1
            if len(chunks) > 1:
                self._split_batches += 1
            if adaptive_split:
                self._adaptive_splits += 1
        return solved

    def solve_transient(
        self,
        chip: ChipLike,
        power_trace: PowerTrace,
        duration_s: float,
        dt_s: float,
        *,
        resolution: int = DEFAULT_RESOLUTION,
        store_every: int = 1,
        initial_field: Optional[np.ndarray] = None,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> ThermalSolution:
        """Integrate a (possibly time-varying) power trace.

        The returned :class:`ThermalSolution` summarises the final snapshot
        and carries the peak/mean time histories in ``solution.history``.
        Traces are not cacheable, so this path bypasses the result cache.
        """
        adapter = self.backend("transient", chip, resolution)
        return adapter.solve_trace(
            power_trace,
            duration_s,
            dt_s,
            store_every=store_every,
            initial_field=initial_field,
            include_maps=include_maps,
            include_values=include_values,
        )

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------
    def warm_up(
        self,
        keys: Sequence[Any],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Pre-build solver state for a set of group keys before traffic.

        ``keys`` is a sequence of ``(chip, resolution, backend)`` triples or
        ``{"chip": ..., "resolution": ..., "backend": ...}`` mappings.
        Plane-eligible backends (:data:`PLANE_BACKENDS`, when this session
        drives a plane) warm through
        :meth:`~repro.runtime.plane.ExecutionPlane.warm_up`, building each
        key's factorisation on the worker that owns it; everything else
        warms by touching the session's adapter pools inline.  Returns
        ``{"warmed": [labels...], "errors": {label: message}}``.

        This is the session half of the fleet warm-up protocol: a replica
        answering ``POST /warm_up`` calls this so a (re)joining node
        pre-factorizes its key slice before the router admits traffic.
        """
        warmed: List[str] = []
        errors: Dict[str, str] = {}
        plane_jobs: List[Tuple[str, PlaneTask]] = []
        for entry in keys:
            if isinstance(entry, Mapping):
                chip_name = entry.get("chip")
                resolution = entry.get("resolution", DEFAULT_RESOLUTION)
                backend = entry.get("backend", "fvm")
            else:
                chip_name, resolution, backend = entry
            label = f"{chip_name}/{resolution}/{backend}"
            try:
                chip_stack = self._resolve_chip(chip_name)
                resolution = int(resolution)
                backend = str(backend)
                if self.plane is not None and backend in PLANE_BACKENDS:
                    spec = BackendSpec(
                        chip=chip_stack,
                        resolution=resolution,
                        backend=backend,
                        cells_per_layer=self.cells_per_layer,
                    )
                    plane_jobs.append(
                        (
                            label,
                            PlaneTask(
                                fn=warm_state,
                                state_key=backend_state_key(spec),
                                state_factory=build_backend_adapter,
                                state_spec=spec,
                            ),
                        )
                    )
                else:
                    # Pool touch: building the adapter is the warm-up.
                    self.backend(backend, chip_stack, resolution)
                    warmed.append(label)
            except Exception as error:  # noqa: BLE001 — collected per key
                errors[label] = str(error)
        if plane_jobs:
            # Submit every plane job before collecting so distinct keys warm
            # concurrently on their owning workers; errors stay per-key.
            futures = [
                (label, self.plane.submit(task)) for label, task in plane_jobs
            ]
            for label, future in futures:
                try:
                    future.result(timeout=timeout)
                    warmed.append(label)
                except Exception as error:  # noqa: BLE001
                    errors[label] = str(error)
        return {"warmed": warmed, "errors": errors}

    # ------------------------------------------------------------------
    # Dataset generation
    # ------------------------------------------------------------------
    def generate_dataset(
        self,
        chip: ChipLike = "chip1",
        resolution: int = DEFAULT_RESOLUTION,
        num_samples: int = 64,
        seed: int = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        verbose: bool = False,
        plane: Optional[ExecutionPlane] = None,
        **spec_options: Any,
    ) -> ThermalDataset:
        """Generate a (power map -> temperature field) training dataset.

        Runs the prepare-once / solve-many FVM pipeline, sharded across
        ``plane`` (default: the session's configured plane, else inline
        serial); ``spec_options`` forwards the remaining
        :class:`~repro.data.generation.DatasetSpec` fields (``core_bias``,
        ``idle_probability``, ``total_power_range_W``).
        """
        chip_stack = self._resolve_chip(chip)
        spec = DatasetSpec(
            chip_name=chip_stack.name,
            resolution=int(resolution),
            num_samples=int(num_samples),
            seed=seed,
            cells_per_layer=self.cells_per_layer,
            **spec_options,
        )
        return _generate_dataset(
            spec,
            chip=chip_stack,
            verbose=verbose,
            batch_size=batch_size,
            plane=plane if plane is not None else self.plane,
        )

    def generate_multifidelity_pair(
        self,
        chip: ChipLike,
        low_resolution: int,
        high_resolution: int,
        num_low: int,
        num_high: int,
        seed: int = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        plane: Optional[ExecutionPlane] = None,
    ) -> Tuple[ThermalDataset, ThermalDataset]:
        """The low/high-fidelity dataset pair used by transfer learning.

        When the high resolution is an integer multiple of the low, the chip
        is voxelised once at the high resolution and the low-fidelity
        geometry is derived by
        :meth:`~repro.solvers.voxelize.GridGeometry.coarsen`, sharing the
        vertical layout and floorplan rasters across the pair.
        """
        chip_stack = self._resolve_chip(chip)
        return _generate_multifidelity_pair(
            chip_stack.name,
            low_resolution,
            high_resolution,
            num_low,
            num_high,
            seed=seed,
            cells_per_layer=self.cells_per_layer,
            batch_size=batch_size,
            chip=chip_stack,
            plane=plane if plane is not None else self.plane,
        )

    # ------------------------------------------------------------------
    # Training and evaluation
    # ------------------------------------------------------------------
    def train(
        self,
        train_data: ThermalDataset,
        method: str = "sau_fno",
        config: Optional[Dict[str, Any]] = None,
        training: Optional[TrainingConfig] = None,
        rng: Optional[np.random.Generator] = None,
        register: bool = False,
    ) -> TrainedOperator:
        """Train one operator baseline on a dataset.

        Handles both the gradient-trained models (FNO family, DeepOHeat) and
        the closed-form GAR baseline transparently.  With ``register=True``
        the trained surrogate immediately becomes servable through this
        session's ``operator`` backend.
        """
        method_key = method.lower().replace("-", "_")
        training = training or TrainingConfig()
        rng = rng if rng is not None else np.random.default_rng(training.seed)
        model = build_operator(
            method_key,
            train_data.num_input_channels,
            train_data.num_output_channels,
            dict(config or {}),
            rng,
        )
        if isinstance(model, GARRegressor):
            start = time.perf_counter()
            model.fit(train_data.inputs, train_data.targets)
            trained = TrainedOperator(
                method=method_key,
                model=model,
                chip_name=train_data.chip_name,
                resolution=train_data.resolution,
                train_seconds=time.perf_counter() - start,
            )
        else:
            trainer = Trainer(model, training)
            start = time.perf_counter()
            history = trainer.fit(train_data)
            trained = TrainedOperator(
                method=method_key,
                model=model,
                chip_name=train_data.chip_name,
                resolution=train_data.resolution,
                train_seconds=time.perf_counter() - start,
                trainer=trainer,
                history=history,
            )
        if register:
            self.register_model(trained.as_loaded())
        return trained

    def evaluate(
        self,
        model: Union[TrainedOperator, LoadedOperator, str],
        dataset: ThermalDataset,
    ) -> MetricReport:
        """Physical-unit metrics of any model on a dataset.

        ``model`` may be a :class:`TrainedOperator`, a
        :class:`~repro.operators.factory.LoadedOperator`, or a path to a
        saved ``.npz``.
        """
        if isinstance(model, str):
            model = load_operator(model)
        if isinstance(model, TrainedOperator):
            return model.evaluate(dataset)
        if isinstance(model, LoadedOperator):
            return evaluate_all(model.predict(dataset.inputs), dataset.targets)
        raise TypeError(
            f"cannot evaluate a {type(model).__name__}; expected a TrainedOperator, "
            "LoadedOperator or weights path"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-friendly inventory: chips, backends, loaded models, settings."""
        return {
            "chips": self.list_chips(),
            "backends": list(BACKEND_NAMES),
            "models": self.models.describe(),
            "cells_per_layer": self.cells_per_layer,
        }

    def stats(self) -> Dict[str, Any]:
        """Counters for ``/stats`` and interactive inspection."""
        with self._breaker_lock:
            breakers = {name: b.stats() for name, b in sorted(self._breakers.items())}
        with self._reliability_lock:
            fallbacks = self._fallbacks
            rejections = self._breaker_rejections
        with self._dispatch_lock:
            dispatch = {
                "plane_batches": self._plane_batches,
                "split_batches": self._split_batches,
                "adaptive_splits": self._adaptive_splits,
                "latency_ewma_keys": len(self._latency_ewma),
            }
        return {
            "result_cache": self.result_cache.stats(),
            "pools": {name: pool.stats() for name, pool in self._pools.items()},
            "models": len(self.models),
            "custom_chips": sorted(self._chips),
            "plane": self.plane.stats() if self.plane is not None else None,
            "dispatch": dispatch,
            "reliability": {
                "breakers": breakers,
                "open_breakers": self.open_breakers(),
                "fallbacks": fallbacks,
                "breaker_rejections": rejections,
                "fallback_chain": {
                    name: list(chain) for name, chain in self.fallback_chain.items()
                },
                "faults": self.faults.stats() if self.faults is not None else None,
            },
        }


# ----------------------------------------------------------------------
# Process-wide default session (convenience for the evaluation harness and
# quick interactive use; long-lived services build their own).
# ----------------------------------------------------------------------
_DEFAULT_SESSION: Optional[ThermalSession] = None


def get_session() -> ThermalSession:
    """The lazily created process-wide default :class:`ThermalSession`."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = ThermalSession()
    return _DEFAULT_SESSION
