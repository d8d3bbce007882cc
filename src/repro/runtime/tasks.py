"""Picklable task functions and warm-state recipes for execution planes.

:class:`~repro.runtime.plane.ProcessPlane` ships tasks to spawned workers by
pickling, which constrains everything a task references to module-level
definitions: the functions here are the vocabulary the rest of the codebase
speaks when it hands solver work to a plane.

Two families of warm state exist:

* **Generation state** (:func:`build_fvm_solver`) — a prepared
  :class:`~repro.solvers.fvm.FVMSolver` (cached geometry + assembled matrix
  + exact block basis; the factorisation that built the basis is dropped).
  :func:`generate_batch` answers one batch of power cases from the basis
  and returns the training targets; dataset generation shards its batches
  round-robin across workers, each of which builds its own basis once.
* **Backend state** (:func:`build_backend_adapter`) — a prepared
  :class:`repro.api` backend adapter for one ``(chip, resolution, backend)``.
  :func:`solve_cases` answers a batch of power assignments with it and
  returns :class:`~repro.api.solution.ThermalSolution` objects; the session's
  ``solve_batch`` and (through it) the serving engine run their plane
  solves this way.

State *specs* carry the pickled :class:`~repro.chip.ChipStack` itself (not
just its name) so custom runtime-registered designs work in worker
processes; state *keys* embed a digest of the chip fingerprint so two
different designs sharing a name never share warm solver state.

Heavyweight ``repro.api`` imports happen inside the factory functions: this
module is imported by :mod:`repro.data.generation`, which the API session
itself imports, and a module-level import back into ``repro.api`` would be
circular.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.chip.stack import ChipStack
from repro.solvers.fvm import FVMSolver
from repro.solvers.voxelize import GridGeometry


def chip_digest(chip: ChipStack) -> str:
    """Short structural digest of a chip design for warm-state keys."""
    return hashlib.sha1(chip.fingerprint().encode("utf-8")).hexdigest()[:8]


# ----------------------------------------------------------------------
# Dataset-generation tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolverSpec:
    """Everything a worker needs to rebuild one prepared FVM solver.

    ``geometry`` optionally carries a pre-built (possibly shared/coarsened)
    :class:`~repro.solvers.voxelize.GridGeometry`; omitted, the worker
    voxelises the chip itself — both produce bitwise-identical systems.
    """

    chip: ChipStack
    resolution: int
    cells_per_layer: int = 2
    geometry: Optional[GridGeometry] = None


def solver_state_key(spec: SolverSpec) -> Tuple:
    """Warm-state cache key of a generation solver (geometry-independent)."""
    return (
        "fvm-solver",
        spec.chip.name,
        chip_digest(spec.chip),
        int(spec.resolution),
        int(spec.cells_per_layer),
    )


def build_fvm_solver(spec: SolverSpec) -> FVMSolver:
    """State factory: an FVM solver with its block basis built."""
    solver = FVMSolver(
        spec.chip,
        nx=spec.resolution,
        cells_per_layer=spec.cells_per_layer,
        geometry=spec.geometry,
    )
    solver.block_basis()
    return solver


def generate_batch(
    solver: FVMSolver, assignments: Sequence[Mapping[str, float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve one batch of power cases and return training targets.

    Returns ``(targets, solve_seconds)`` where ``targets`` has shape
    ``(B, C, ny, nx)`` (per-power-layer temperature maps, the dataset's
    regression targets, straight from the block basis — no 3-D field is
    built) and ``solve_seconds`` the amortised per-case wall-clock costs.
    """
    start = time.perf_counter()
    targets = solver.solve_layer_maps(assignments)
    per_case = (time.perf_counter() - start) / len(assignments)
    return targets, np.full(len(assignments), per_case)


# ----------------------------------------------------------------------
# Session / serving backend tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendSpec:
    """Everything a worker needs to rebuild one prepared backend adapter."""

    chip: ChipStack
    resolution: int
    backend: str
    cells_per_layer: int = 2


def backend_state_key(spec: BackendSpec) -> Tuple:
    """Warm-state cache key of a backend adapter."""
    return (
        "backend",
        spec.backend,
        spec.chip.name,
        chip_digest(spec.chip),
        int(spec.resolution),
        int(spec.cells_per_layer),
    )


def build_backend_adapter(spec: BackendSpec) -> Any:
    """State factory: a prepared :mod:`repro.api` backend adapter.

    Only the self-contained solver backends can be rebuilt from a spec —
    ``operator`` surrogates live in the parent session's model registry and
    stay inline there.
    """
    # Imported here, not at module level: repro.data.generation imports this
    # module, and repro.api imports repro.data.generation (see module doc).
    from repro.api.backends import (
        FVMBackendAdapter,
        HotSpotBackendAdapter,
        TransientBackendAdapter,
    )

    if spec.backend == "fvm":
        return FVMBackendAdapter(
            spec.chip, spec.resolution, cells_per_layer=spec.cells_per_layer
        ).prepare()
    if spec.backend == "hotspot":
        return HotSpotBackendAdapter(spec.chip, spec.resolution)
    if spec.backend == "transient":
        return TransientBackendAdapter(
            spec.chip, spec.resolution, cells_per_layer=spec.cells_per_layer
        )
    raise ValueError(
        f"backend '{spec.backend}' cannot be rebuilt on a plane worker; "
        "plane-executable backends: fvm, hotspot, transient"
    )


def solve_cases(adapter: Any, payload: Dict[str, Any]) -> List[Any]:
    """Answer one homogeneous batch with a warm backend adapter.

    ``payload`` carries ``assignments`` plus the detail flags; the result is
    the list of :class:`~repro.api.solution.ThermalSolution` answers, in
    order, exactly as the adapter would have produced them inline.
    """
    return adapter.solve_batch(
        payload["assignments"],
        include_maps=bool(payload.get("include_maps", False)),
        include_values=bool(payload.get("include_values", False)),
    )


# ----------------------------------------------------------------------
# Plumbing tasks
# ----------------------------------------------------------------------
def warm_state(state: Any, _payload: Any) -> bool:
    """Touch a task's warm state so the worker builds (or refreshes) it.

    The task function itself does nothing: routing a task carrying a
    ``state_key`` + factory to a worker is what forces the expensive
    construction (geometry + block basis) through the worker's LRU.
    Returns whether a state was actually resident afterwards, which
    :meth:`~repro.runtime.plane.ExecutionPlane.warm_up` counts.
    """
    return state is not None


def ping(_state: Any, payload: Any) -> Any:
    """Stateless round-trip used by health checks, warm-up and the tests."""
    return payload


def slow_ping(_state: Any, payload: Any) -> Any:
    """A ping that sleeps first — fodder for deadline and lease tests.

    ``payload`` is ``(seconds, value)``; the task sleeps ``seconds`` and
    returns ``value``.  Module-level (hence picklable) so process-plane
    tests can exercise stragglers, lost answers and queue backlogs.
    """
    seconds, value = payload
    time.sleep(float(seconds))
    return value
