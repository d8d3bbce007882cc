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
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
from repro.obs.events import CacheEviction
from repro.operators.factory import (
    LoadedOperator,
    build_operator,
    load_operator,
    save_operator,
)
from repro.operators.gar import GARRegressor
from repro.runtime.plane import SerialPlane
from repro.solvers.hotspot import HotSpotModel
from repro.solvers.transient import PowerTrace
from repro.training.trainer import Trainer, TrainingConfig, TrainingHistory

#: Grid resolution used when a query does not specify one.
DEFAULT_RESOLUTION = 32

ChipLike = Union[str, ChipStack]


class DeadlineExceeded(TimeoutError):
    """A request's deadline expired before its work was started.

    Raised by the session's deadline check and by the serving engine when
    it sheds a request that expired while waiting.  The work was *never
    solved*: callers distinguishing "slow" from "shed" can rely on that.
    """


def _chip_fingerprint(chip: ChipStack) -> str:
    """Structural identity of a chip design (see :meth:`ChipStack.fingerprint`).

    Kept as a module-level helper for compatibility; the logic lives on
    :class:`~repro.chip.stack.ChipStack` so generation's warm-state keys
    share the same identity without importing the session.
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
    ):
        self.cells_per_layer = cells_per_layer
        self.operator_batch_size = operator_batch_size
        self._chips: Dict[str, ChipStack] = {}
        self._pools: Dict[str, LRUPool] = {
            name: LRUPool(pool_size) for name in ("fvm", "hotspot", "transient")
        }
        self.models = models if models is not None else ModelRegistry(self.get_chip)
        # One plane for every generate_dataset call: its warm-solver LRU
        # keeps each (chip, resolution) basis across datasets.  The plane is
        # not thread-safe, so generation runs under its own lock.
        self._generation_plane = SerialPlane()
        self._generation_lock = threading.Lock()
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

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_events(self, bus: EventBus) -> None:
        """Publish this session's telemetry (result-cache evictions) onto ``bus``.

        Safe to call once after construction; sessions without a bus emit
        nothing.
        """
        self.events = bus

    def _on_cache_eviction(self, cause: str, key: Any) -> None:
        publish_all(
            self.events, [CacheEviction(source="session", cause=cause, key=str(key))]
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
                ).prepare(),
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
            # Unconverted: float() of an integer past the float range would
            # raise OverflowError; the helper reads it as infinity and
            # rejects it with a ValueError.
            return uniform_power_assignment(chip_stack, powers)
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
        deadline: Optional[float] = None,
    ) -> List[ThermalSolution]:
        """Answer many power cases in one batched backend call.

        Cached answers are returned immediately; only the misses reach the
        backend, together, so a warm cache turns a batch into one dictionary
        pass and the cold remainder still reaches the backend in one call.

        ``deadline`` (absolute ``time.monotonic()`` seconds) is checked
        before the misses are solved; expired work raises
        :class:`DeadlineExceeded` instead of burning solver time.  Cached
        answers are still served — a dictionary lookup beats any deadline
        worth having.
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
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceeded(
                    f"request deadline expired before backend '{backend}' "
                    "could start solving"
                )
            adapter = self.backend(backend, chip_stack, resolution)
            if include_values and not adapter.capabilities().get("values", False):
                raise ValueError(
                    f"backend '{backend}' cannot produce a 3-D field; drop "
                    "include_values or use a field backend (fvm, transient)"
                )
            solved = adapter.solve_batch(
                [assignments[index] for index in misses],
                include_maps=include_maps,
                include_values=include_values,
            )
            for index, solution in zip(misses, solved):
                solutions[index] = solution
                if use_cache:
                    # Store a pristine clone: consumers (the serving engine)
                    # stamp latency and trace metadata onto what we return.
                    self.result_cache.put(
                        keys[index], solution.clone(), _solution_nbytes(solution)
                    )
        return solutions  # type: ignore[return-value]

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
    def warm_up(self, keys: Sequence[Any]) -> Dict[str, Any]:
        """Pre-build solver state for a set of group keys before traffic.

        ``keys`` is a sequence of ``(chip, resolution, backend)`` triples or
        ``{"chip": ..., "resolution": ..., "backend": ...}`` mappings.  Each
        key warms by touching the session's adapter pools, which builds the
        prepared adapter: the geometry and block basis of an ``fvm`` key,
        the geometry and time constant of a ``transient`` key.  Returns
        ``{"warmed": [labels...], "errors": {label: message}}``.

        A server answering ``POST /warm_up`` calls this, so it can build
        that state for the keys it expects before their first requests.
        """
        warmed: List[str] = []
        errors: Dict[str, str] = {}
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
                # Pool touch: building the adapter is the warm-up.
                self.backend(str(backend), chip_stack, int(resolution))
                warmed.append(label)
            except Exception as error:  # noqa: BLE001 — collected per key
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
        **spec_options: Any,
    ) -> ThermalDataset:
        """Generate a (power map -> temperature field) training dataset.

        Runs the prepare-once / solve-many FVM pipeline; ``spec_options``
        forwards the remaining
        :class:`~repro.data.generation.DatasetSpec` fields (``core_bias``,
        ``idle_probability``, ``total_power_range_W``).  Every call goes
        through the session's one generation plane, so a later dataset on
        the same chip and resolution reuses its block basis: it neither
        voxelises nor builds a basis again.  Concurrent calls run one at a time.
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
        with self._generation_lock:
            return _generate_dataset(
                spec,
                chip=chip_stack,
                verbose=verbose,
                batch_size=batch_size,
                plane=self._generation_plane,
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
    ) -> Tuple[ThermalDataset, ThermalDataset]:
        """The low/high-fidelity dataset pair used by transfer learning.

        When the high resolution is an integer multiple of the low, the chip
        is voxelised once at the high resolution and the low-fidelity
        geometry is derived by
        :meth:`~repro.solvers.voxelize.GridGeometry.coarsen`, sharing the
        vertical layout and floorplan rasters across the pair.  Both datasets
        go through the session's generation plane, as in
        :meth:`generate_dataset`, so a repeated pair builds no basis.
        """
        chip_stack = self._resolve_chip(chip)
        with self._generation_lock:
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
                plane=self._generation_plane,
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
        return {
            "result_cache": self.result_cache.stats(),
            "pools": {name: pool.stats() for name, pool in self._pools.items()},
            "models": len(self.models),
            "custom_chips": sorted(self._chips),
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
