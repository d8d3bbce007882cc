"""Transient (time-dependent) thermal simulation.

The paper simplifies Eq. 1 to the steady state (Eq. 3) for its experiments
and leaves "a broader range of thermal analysis tasks" to future work.  This
module implements that extension on top of the same finite-volume spatial
discretisation: the semi-discrete system

    C dT/dt = -A T + b(t)

(with ``A`` and ``b`` exactly the steady-state matrix and right-hand side and
``C`` the per-cell heat capacities from Table I) is integrated with the
unconditionally stable backward-Euler scheme

    (C/dt + A) T_{n+1} = C/dt * T_n + b_{n+1}.

Power traces may be time-varying (per-block power as a function of time),
which is what a transient workload study needs.

The solver shares the steady solver's prepare-once machinery: the voxelised
geometry, the conduction matrix and the per-cell heat capacities are built
once per solver instance, and each time step (or trace re-evaluation) only
re-rasterises the power assignment onto the cached grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from repro.chip.stack import ChipStack
from repro.solvers.factor import factorize
from repro.solvers.fvm import FVMSolver, TemperatureField
from repro.solvers.voxelize import VoxelGrid, build_geometry

PowerTrace = Union[Mapping[str, float], Callable[[float], Mapping[str, float]]]


class TransientStep(NamedTuple):
    """One stored snapshot yielded by :meth:`TransientFVMSolver.iter_steps`.

    ``step`` is the backward-Euler step index (0 for the initial state),
    which doubles as the resumable cursor of the streaming
    ``/solve_transient`` endpoint; ``grid`` is the (constant) voxel grid so
    consumers can derive layer maps without re-voxelising.
    """

    step: int
    t_s: float
    snapshot: "np.ndarray"
    grid: VoxelGrid


@dataclass
class TransientResult:
    """Time history of a transient simulation.

    Attributes
    ----------
    times_s:
        Time stamps (seconds) of the stored snapshots, including t = 0.
    snapshots:
        Temperature fields, shape ``(num_steps + 1, nz, ny, nx)`` in kelvin.
    grid:
        The voxel grid shared by every snapshot.
    solve_seconds:
        Wall-clock cost of the whole integration.
    """

    chip: ChipStack
    grid: VoxelGrid
    times_s: np.ndarray
    snapshots: np.ndarray
    solve_seconds: float

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    def max_K(self, step: int = -1) -> float:
        return float(self.snapshots[step].max())

    def peak_history(self) -> np.ndarray:
        """Junction temperature at every stored time step."""
        return self.snapshots.reshape(len(self.times_s), -1).max(axis=1)

    def mean_history(self) -> np.ndarray:
        """Mean die temperature at every stored time step."""
        return self.snapshots.reshape(len(self.times_s), -1).mean(axis=1)

    def layer_history(self, layer_name: str) -> np.ndarray:
        """Per-step average temperature maps of one power layer, shape (T, ny, nx)."""
        indices = self.grid.power_layer_slices.get(layer_name)
        if not indices:
            raise KeyError(f"'{layer_name}' is not a power layer of chip '{self.chip.name}'")
        return self.snapshots[:, indices].mean(axis=1)


class TransientFVMSolver:
    """Backward-Euler transient solver sharing the FVM spatial discretisation.

    Parameters
    ----------
    chip, nx, ny, cells_per_layer:
        Same meaning as for :class:`~repro.solvers.fvm.FVMSolver`.  The
        backward-Euler system ``C/dt + A`` is factorised with the same SPD
        kernel as the steady system (adding the positive diagonal ``C/dt``
        only strengthens definiteness).
    """

    def __init__(
        self,
        chip: ChipStack,
        nx: int = 32,
        ny: Optional[int] = None,
        cells_per_layer: int = 2,
    ):
        self.chip = chip
        self.nx = nx
        self.ny = ny or nx
        self.cells_per_layer = cells_per_layer
        self._steady = FVMSolver(chip, nx=nx, ny=self.ny, cells_per_layer=cells_per_layer)
        self._capacity: Optional[np.ndarray] = None
        self._factor_cache = None  # (dt_s, SPDFactor) of the last Euler system

    # ------------------------------------------------------------------
    def _capacity_vector(self, grid: VoxelGrid) -> np.ndarray:
        """Per-cell heat capacity C = rho c_p * V in J/K."""
        capacities = np.empty(grid.cell_count)
        volumes = grid.dx_m * grid.dy_m * grid.dz_m
        index = 0
        for cell, layer_index in enumerate(grid.layer_of_cell):
            layer = self.chip.layers[layer_index]
            plane = layer.effective_material.volumetric_heat_capacity
            cells_in_plane = grid.ny * grid.nx
            capacities[index:index + cells_in_plane] = plane * volumes[cell]
            index += cells_in_plane
        return capacities

    def _power_at(self, trace: PowerTrace, t: float) -> Mapping[str, float]:
        if callable(trace):
            return trace(t)
        return trace

    # ------------------------------------------------------------------
    def iter_steps(
        self,
        power_trace: PowerTrace,
        duration_s: float,
        dt_s: float,
        initial_field: Optional[np.ndarray] = None,
        store_every: int = 1,
    ) -> Iterator[TransientStep]:
        """Integrate incrementally, yielding each stored snapshot as it lands.

        The generator behind both :meth:`solve` (which collects every
        yielded snapshot into a :class:`TransientResult`) and the streaming
        ``/solve_transient`` endpoint (which forwards each snapshot as an
        SSE frame instead of buffering up to 20k steps).  The first yield is
        always the initial state at ``(step=0, t=0)``; afterwards every
        ``store_every``-th step (plus the final one) is yielded.  The
        arithmetic is byte-for-byte the pre-generator loop, so collected
        results are bitwise-identical to the historical blocking path.
        """
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("duration and time step must be positive")
        if dt_s > duration_s:
            raise ValueError("time step cannot exceed the duration")
        if store_every < 1:
            raise ValueError("store_every must be >= 1")

        initial_assignment = self._power_at(power_trace, 0.0)
        # Reuse the steady solver's cached geometry and assembly; only the
        # heat source depends on the trace.
        prepared = self._steady.prepare()
        geometry = self._steady.geometry
        grid = geometry.grid_for(initial_assignment)
        matrix = prepared.matrix
        rhs = prepared.rhs_boundary + (grid.heat_source * prepared.cell_volumes).ravel()
        if self._capacity is None:
            self._capacity = self._capacity_vector(grid)
        capacity = self._capacity

        num_steps = int(round(duration_s / dt_s))
        ambient = self.chip.cooling.ambient_K
        if initial_field is None:
            state = np.full(grid.cell_count, ambient)
        else:
            if initial_field.shape != (grid.nz, grid.ny, grid.nx):
                raise ValueError("initial_field has the wrong shape")
            state = initial_field.reshape(-1).astype(np.float64).copy()

        # The backward-Euler system matrix depends only on dt, so repeated
        # traces with the same step reuse one factorisation.  ``matrix`` is
        # already CSC and diagonal + CSC stays CSC, so no format conversion
        # happens before the factorisation.
        if self._factor_cache is None or self._factor_cache[0] != dt_s:
            system = sparse.diags(capacity / dt_s) + matrix
            self._factor_cache = (dt_s, factorize(system))
        factor = self._factor_cache[1].solve

        time_varying = callable(power_trace)
        volumes = (grid.dx_m * grid.dy_m * grid.dz_m[:, None, None])

        yield TransientStep(
            0, 0.0, state.reshape(grid.nz, grid.ny, grid.nx).copy(), grid
        )
        current_rhs = rhs
        for step in range(1, num_steps + 1):
            t = step * dt_s
            if time_varying:
                assignment = self._power_at(power_trace, t)
                # Only the source term changes; boundary terms are power-free,
                # so a cheap re-rasterisation on the cached geometry suffices.
                step_source = geometry.rasterize_power(assignment)
                source_change = (step_source - grid.heat_source) * volumes
                current_rhs = rhs + source_change.ravel()
            state = factor(capacity / dt_s * state + current_rhs)
            if step % store_every == 0 or step == num_steps:
                yield TransientStep(
                    step, t, state.reshape(grid.nz, grid.ny, grid.nx).copy(), grid
                )

    def solve(
        self,
        power_trace: PowerTrace,
        duration_s: float,
        dt_s: float,
        initial_field: Optional[np.ndarray] = None,
        store_every: int = 1,
    ) -> TransientResult:
        """Integrate the transient heat equation.

        Parameters
        ----------
        power_trace:
            Either a constant flat power assignment (``"layer/block" -> W``)
            or a callable ``t -> assignment`` for time-varying workloads.
        duration_s, dt_s:
            Total simulated time and time-step size.
        initial_field:
            Initial temperature field of shape ``(nz, ny, nx)``; defaults to a
            uniform ambient-temperature die.
        store_every:
            Keep every ``store_every``-th snapshot (plus the initial state).
        """
        start = time.perf_counter()
        times: List[float] = []
        snapshots: List[np.ndarray] = []
        grid: Optional[VoxelGrid] = None
        for item in self.iter_steps(
            power_trace,
            duration_s,
            dt_s,
            initial_field=initial_field,
            store_every=store_every,
        ):
            grid = item.grid
            times.append(item.t_s)
            snapshots.append(item.snapshot)
        return TransientResult(
            chip=self.chip,
            grid=grid,
            times_s=np.asarray(times),
            snapshots=np.stack(snapshots),
            solve_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def steady_state(self, power_assignment: Mapping[str, float]) -> TemperatureField:
        """Convenience access to the underlying steady-state solver."""
        return self._steady.solve(power_assignment)

    def thermal_time_constant_estimate(self) -> float:
        """Rough RC estimate of the die's thermal time constant (seconds).

        Used to pick sensible transient durations: the product of the total
        die heat capacity and the die-to-ambient resistance.
        """
        grid = build_geometry(self.chip, nx=4, ny=4, cells_per_layer=1).grid_for({})
        capacity = self._capacity_vector(grid).sum()
        resistance = self.chip.cooling.top_resistance(self.chip.die_area_m2)
        return float(capacity * resistance)
