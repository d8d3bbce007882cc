"""Task functions and warm-state recipes of dataset generation.

:func:`build_fvm_solver` builds the warm state: a prepared
:class:`~repro.solvers.fvm.FVMSolver` (cached geometry and exact block
basis, built by one separable solve with no matrix and no factorisation).
:func:`generate_batch` answers one batch of power cases from that basis and
returns the training targets.  :func:`repro.data.generation.generate_dataset`
submits one :class:`~repro.runtime.plane.PlaneTask` per batch to a
:class:`~repro.runtime.plane.SerialPlane`.

Solver specs carry the :class:`~repro.chip.ChipStack` itself, not just its
name, so custom designs work; state keys embed a digest of the chip
fingerprint, so two different designs sharing a name never share a warm
solver.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.chip.stack import ChipStack
from repro.solvers.fvm import FVMSolver
from repro.solvers.voxelize import GridGeometry


def chip_digest(chip: ChipStack) -> str:
    """Short structural digest of a chip design for warm-state keys."""
    return hashlib.sha1(chip.fingerprint().encode("utf-8")).hexdigest()[:8]


@dataclass(frozen=True)
class SolverSpec:
    """Everything needed to build one prepared FVM solver.

    ``geometry`` optionally carries a pre-built (possibly shared/coarsened)
    :class:`~repro.solvers.voxelize.GridGeometry`; omitted, the factory
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
