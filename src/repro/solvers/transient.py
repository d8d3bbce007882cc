"""Transient (time-dependent) thermal simulation.

The paper simplifies Eq. 1 to the steady state (Eq. 3) for its experiments
and leaves "a broader range of thermal analysis tasks" to future work.  This
module implements that extension on top of the same finite-volume spatial
discretisation: the semi-discrete system

    C dT/dt = -A T + b(t)

(with ``A`` and ``b`` exactly the steady-state matrix and right-hand side and
``C`` the per-cell heat capacities from Table I) is integrated with the
unconditionally stable backward-Euler scheme.  Every row of ``A`` sums to
its boundary conductance, so ``A T_amb = b(0 W)`` and the rise above
ambient ``u = T - T_amb`` obeys

    (C/dt + A) u_{n+1} = C/dt * u_n + s_{n+1},

where ``s`` is the heat source alone.  Heat capacity, like conductivity, is
one number per cell plane, so ``C/dt + A`` is separable exactly as ``A`` is:
each step is one :class:`~repro.solvers.separable.SeparableConduction`
solve built with the per-plane ``C_z/dt``.  Nothing is assembled or
factorised, and a new ``dt`` costs one such build (about a millisecond).

Power traces may be time-varying (per-block power as a function of time),
which is what a transient workload study needs.  The voxelised geometry is
built once per solver instance and shared with
:meth:`TransientFVMSolver.steady_state`'s reference solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Mapping, NamedTuple, Optional, Union

import numpy as np

from repro.chip.stack import ChipStack
from repro.solvers.fvm import FVMSolver, TemperatureField
from repro.solvers.separable import SeparableConduction
from repro.solvers.voxelize import GridGeometry, build_geometry

PowerTrace = Union[Mapping[str, float], Callable[[float], Mapping[str, float]]]


class TransientStep(NamedTuple):
    """One stored snapshot yielded by :meth:`TransientFVMSolver.iter_steps`.

    ``step`` is the backward-Euler step index (0 for the initial state),
    which doubles as the resumable cursor of the streaming
    ``/solve_transient`` endpoint; ``grid`` is the solver's geometry so
    consumers can derive layer maps without re-voxelising.
    """

    step: int
    t_s: float
    snapshot: "np.ndarray"
    grid: GridGeometry


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
        The geometry shared by every snapshot.
    solve_seconds:
        Wall-clock cost of the whole integration.
    """

    chip: ChipStack
    grid: GridGeometry
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
        Same meaning as for :class:`~repro.solvers.fvm.FVMSolver`.  Each
        integration solves ``C/dt + A`` separably (adding the positive
        per-plane diagonal ``C_z/dt`` only strengthens definiteness), so
        it raises :class:`ValueError` for a geometry whose conductivity
        varies inside a plane, as the block basis does.
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

    @property
    def geometry(self) -> GridGeometry:
        """The voxelised geometry, built on first use and shared with
        :meth:`steady_state`'s reference solver."""
        return self._steady.geometry

    # ------------------------------------------------------------------
    def _plane_capacity(self, geometry: GridGeometry) -> np.ndarray:
        """Heat capacity ``rho c_p * V`` of one cell of each z-plane, in J/K."""
        rho_cp = np.array([
            self.chip.layers[layer].effective_material.volumetric_heat_capacity
            for layer in geometry.layer_of_cell
        ])
        return rho_cp * (geometry.dx_m * geometry.dy_m * geometry.dz_m)

    def _capacity_vector(self, geometry: GridGeometry) -> np.ndarray:
        """Per-cell heat capacity C = rho c_p * V in J/K, in cell order."""
        return np.repeat(self._plane_capacity(geometry), geometry.ny * geometry.nx)

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
        ``store_every``-th step (plus the final one) is yielded, each a
        fresh array, so streamed and collected results are bitwise equal.
        """
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("duration and time step must be positive")
        if dt_s > duration_s:
            raise ValueError("time step cannot exceed the duration")
        if store_every < 1:
            raise ValueError("store_every must be >= 1")

        geometry = self.geometry
        shape = (geometry.nz, geometry.ny, geometry.nx)
        ambient = self.chip.cooling.ambient_K
        if initial_field is None:
            initial = np.full(shape, ambient)
        elif initial_field.shape != shape:
            raise ValueError("initial_field has the wrong shape")
        else:
            initial = initial_field.astype(np.float64)
        rise = initial - ambient

        inertia = self._plane_capacity(geometry) / dt_s  # C_z / dt per cell, W/K
        system = SeparableConduction(geometry, inertia=inertia)
        inertia = inertia[:, None, None]  # broadcast over each plane's cells

        def source_at(t: float) -> np.ndarray:
            return geometry.rasterize_power(self._power_at(power_trace, t)) * system.cell_volumes

        source = source_at(0.0)
        time_varying = callable(power_trace)
        num_steps = int(round(duration_s / dt_s))
        yield TransientStep(0, 0.0, initial, geometry)
        for step in range(1, num_steps + 1):
            t = step * dt_s
            if time_varying:
                source = source_at(t)
            rise = system.solve(inertia * rise + source)
            if step % store_every == 0 or step == num_steps:
                yield TransientStep(step, t, ambient + rise, geometry)

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
        grid: Optional[GridGeometry] = None
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
        geometry = build_geometry(self.chip, nx=4, ny=4, cells_per_layer=1)
        capacity = self._capacity_vector(geometry).sum()
        resistance = self.chip.cooling.top_resistance(self.chip.die_area_m2)
        return float(capacity * resistance)
