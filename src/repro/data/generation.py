"""Dataset generation: run the FVM solver over random power cases.

``generate_dataset`` is the reproduction of the paper's data-generation step
(Section IV-A): for a chip and a grid resolution, draw random power
distributions and solve each with the finite-volume solver, storing the
per-power-layer power-density maps as inputs and the corresponding per-layer
temperature maps as targets.

The loop is built on the solver's exact block basis
(:meth:`~repro.solvers.fvm.FVMSolver.block_basis`: one 1 W response per
floorplan block, so every case's targets are one small product) **and** on
the runtime's execution planes (:mod:`repro.runtime`): cases are drawn up
front (preserving the exact seed RNG sequence), grouped into batches, and
the batches are submitted to an :class:`~repro.runtime.plane.ExecutionPlane`
as tasks carrying a warm-solver state key.  On the default
:class:`~repro.runtime.plane.SerialPlane` this runs inline against one
cached basis; on a :class:`~repro.runtime.plane.ProcessPlane` the batches
shard round-robin across worker processes, each of which builds and keeps
its own basis.  Every case is answered by its own product, so the targets
are bitwise-identical whatever the batch size or plane.  This is where the
paper's cost asymmetry lives (thousands of PDE solves per dataset): one
factorisation per geometry, then no back-substitution at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.chip.designs import get_chip
from repro.chip.stack import ChipStack
from repro.data.dataset import ThermalDataset
from repro.data.power import PowerSampler
from repro.runtime.plane import ExecutionPlane, PlaneTask, SerialPlane
from repro.runtime.tasks import SolverSpec, build_fvm_solver, generate_batch, solver_state_key
from repro.solvers.fvm import SOLVER_VERSION
from repro.solvers.voxelize import GridGeometry, build_geometry

#: Number of power cases per generation task: the unit of work sharded
#: across execution-plane workers.
DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to (re)generate a dataset deterministically."""

    chip_name: str
    resolution: int
    num_samples: int
    seed: int = 0
    cells_per_layer: int = 2
    core_bias: float = 3.0
    idle_probability: float = 0.15
    total_power_range_W: Optional[Tuple[float, float]] = None

    def cache_key(self) -> str:
        """A filesystem-safe identifier for caching.

        Embeds the solver pipeline version so cached datasets regenerate
        whenever the solver changes.
        """
        power = (
            "default"
            if self.total_power_range_W is None
            else f"{self.total_power_range_W[0]:g}-{self.total_power_range_W[1]:g}"
        )
        return (
            f"{self.chip_name}_r{self.resolution}_n{self.num_samples}_s{self.seed}"
            f"_c{self.cells_per_layer}_b{self.core_bias:g}_i{self.idle_probability:g}_p{power}"
            f"_v{SOLVER_VERSION}"
        )


def generate_dataset(
    spec: DatasetSpec,
    chip: Optional[ChipStack] = None,
    verbose: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    plane: Optional[ExecutionPlane] = None,
    geometry: Optional[GridGeometry] = None,
) -> ThermalDataset:
    """Generate a full dataset according to ``spec``.

    The random number generator is seeded from ``spec.seed`` so the same spec
    always produces the same dataset, which the caching layer and the
    experiment harness rely on.  Cases are solved in batches of
    ``batch_size`` against a cached block basis.

    ``plane`` selects *who* solves the batches: ``None`` (a private
    :class:`~repro.runtime.plane.SerialPlane`) runs them inline; a shared
    :class:`~repro.runtime.plane.ProcessPlane` shards the batches
    round-robin across its worker processes, each building its own basis.
    The solved answers are identical either way — each case is its own
    product against the basis.

    ``geometry`` optionally injects a pre-built voxelisation (the
    multifidelity pair shares one across its two fidelities).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    chip = chip or get_chip(spec.chip_name)
    rng = np.random.default_rng(spec.seed)
    sampler = PowerSampler(
        chip,
        total_power_range_W=spec.total_power_range_W,
        core_bias=spec.core_bias,
        idle_probability=spec.idle_probability,
    )

    # Sampling is the only consumer of the RNG, so drawing every case up
    # front produces the exact sequence the per-case loop used to.
    cases = sampler.sample_many(spec.num_samples, rng)
    batches = [
        cases[batch_start:batch_start + batch_size]
        for batch_start in range(0, spec.num_samples, batch_size)
    ]

    solver_spec = SolverSpec(
        chip=chip,
        resolution=spec.resolution,
        cells_per_layer=spec.cells_per_layer,
        geometry=geometry,
    )
    state_key = solver_state_key(solver_spec)
    plane = plane if plane is not None else SerialPlane()
    # Explicit round-robin affinity: every batch shares one state key, so
    # key-hash routing would pin the whole dataset to one worker.  Sharding
    # by batch index instead spreads the work across all workers, each of
    # which builds its own copy of the basis.
    tasks = [
        PlaneTask(
            fn=generate_batch,
            payload=[case.assignment for case in batch],
            state_key=state_key,
            state_factory=build_fvm_solver,
            state_spec=solver_spec,
            affinity=index,
        )
        for index, batch in enumerate(batches)
    ]
    if plane.synchronous:
        # A synchronous plane runs each task inside submit(), so submitting
        # lazily keeps the verbose progress lines interleaved with the work
        # instead of all flushing after the last batch.
        pending = ((batch, plane.submit(task)) for batch, task in zip(batches, tasks))
    else:
        pending = zip(batches, [plane.submit(task) for task in tasks])

    inputs: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    totals: List[float] = []
    solve_times: List[float] = []
    done = 0
    for batch, future in pending:
        batch_targets, batch_seconds = future.result()
        for case, case_targets, case_seconds in zip(batch, batch_targets, batch_seconds):
            inputs.append(sampler.rasterize(case, spec.resolution, spec.resolution))
            targets.append(case_targets)
            totals.append(case.total_W)
            solve_times.append(float(case_seconds))
        done += len(batch)
        if verbose:
            print(f"  generated {done}/{spec.num_samples} cases for {spec.chip_name}")

    return ThermalDataset(
        inputs=np.stack(inputs),
        targets=np.stack(targets),
        chip_name=chip.name,
        resolution=spec.resolution,
        metadata={
            "total_power_W": np.asarray(totals),
            "solve_seconds": np.asarray(solve_times),
        },
    )


def generate_multifidelity_pair(
    chip_name: str,
    low_resolution: int,
    high_resolution: int,
    num_low: int,
    num_high: int,
    seed: int = 0,
    cells_per_layer: int = 2,
    batch_size: int = DEFAULT_BATCH_SIZE,
    chip: Optional[ChipStack] = None,
    plane: Optional[ExecutionPlane] = None,
) -> Tuple[ThermalDataset, ThermalDataset]:
    """Generate the low-fidelity / high-fidelity dataset pair for transfer learning.

    The paper pre-trains on abundant low-resolution data (e.g. 4,000 cases)
    and fine-tunes on a small amount of high-resolution data (1,000 cases, a
    4:1 ratio).  The two datasets here use different seeds so the fine-tuning
    data is not a subset of the pre-training data.  Each dataset runs through
    the batched solver path with its own cached block basis, optionally
    sharded across an execution ``plane``.

    When the high resolution is an integer multiple of the low, the chip is
    voxelised **once** at the high resolution and the low-fidelity geometry
    is derived from it by
    :meth:`~repro.solvers.voxelize.GridGeometry.coarsen` — the two
    geometries then share their vertical layout and floorplan rasters, and
    the datasets are bitwise-identical to building both independently.
    """
    if low_resolution >= high_resolution:
        raise ValueError("low_resolution must be strictly smaller than high_resolution")
    chip = chip or get_chip(chip_name)
    low_geometry = high_geometry = None
    if high_resolution % low_resolution == 0:
        high_geometry = build_geometry(
            chip, nx=high_resolution, cells_per_layer=cells_per_layer
        )
        low_geometry = high_geometry.coarsen(high_resolution // low_resolution)
    low = generate_dataset(
        DatasetSpec(
            chip_name=chip_name,
            resolution=low_resolution,
            num_samples=num_low,
            seed=seed,
            cells_per_layer=cells_per_layer,
        ),
        chip=chip,
        batch_size=batch_size,
        plane=plane,
        geometry=low_geometry,
    )
    high = generate_dataset(
        DatasetSpec(
            chip_name=chip_name,
            resolution=high_resolution,
            num_samples=num_high,
            seed=seed + 1,
            cells_per_layer=cells_per_layer,
        ),
        chip=chip,
        batch_size=batch_size,
        plane=plane,
        geometry=high_geometry,
    )
    return low, high
