"""One protocol, four engines: the :class:`ThermalBackend` adapters.

The paper's value proposition is "one query surface, many engines": the same
power-map question answered by an exact field solver, a compact RC network, a
time-integrating transient solver or a trained neural-operator surrogate at
different cost/accuracy points.  Before this module each engine had its own
call signature (``FVMSolver.solve(assignment) -> TemperatureField``,
``HotSpotModel.solve(assignment) -> BlockTemperatures``,
``TransientFVMSolver.solve(trace, duration, dt) -> TransientResult``,
``LoadedOperator.predict(array) -> array``); here each is wrapped behind

    solve(case)        -> ThermalSolution
    solve_batch(cases) -> List[ThermalSolution]
    capabilities()     -> what the engine can produce
    describe()         -> JSON-friendly identity

where a *case* is a :class:`~repro.data.power.PowerCase` or a plain
``"layer/block" -> watts`` mapping.  :class:`~repro.api.session.ThermalSession`
pools prepared adapters; consumers (CLI, serving, evaluation, examples) only
ever see the protocol.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Protocol, Sequence, Tuple, Union,
    runtime_checkable,
)

import numpy as np

from repro.api.solution import ThermalSolution
from repro.chip.stack import ChipStack
from repro.data.power import PowerCase, rasterize_assignment
from repro.operators.factory import LoadedOperator
from repro.solvers.fvm import FVMSolver, TemperatureField
from repro.solvers.hotspot import BlockTemperatures, HotSpotModel
from repro.solvers.transient import PowerTrace, TransientFVMSolver

#: Backend names every session knows how to build, in registry order.
BACKEND_NAMES = ("fvm", "hotspot", "transient", "operator")

#: Cases per forward pass of the operator backend.
OPERATOR_BATCH_SIZE = 32

Case = Union[PowerCase, Mapping[str, float]]

#: One frame of :meth:`TransientBackendAdapter.stream_trace`.
TraceFrame = Tuple[str, Any]


def as_assignment(case: Case) -> Mapping[str, float]:
    """Normalise a power case to the flat ``"layer/block" -> watts`` mapping."""
    if isinstance(case, PowerCase):
        return case.assignment
    if isinstance(case, Mapping):
        return case
    raise TypeError(
        f"a power case must be a PowerCase or a mapping, got {type(case).__name__}"
    )


def _total_power(assignment: Mapping[str, float]) -> float:
    return float(sum(assignment.values()))


def result_frame(frames: Iterator[TraceFrame]) -> ThermalSolution:
    """Drain a :meth:`TransientBackendAdapter.stream_trace` generator and
    return its final ``result`` payload, holding one frame at a time."""
    return collections.deque(frames, maxlen=1)[0][1]


@runtime_checkable
class ThermalBackend(Protocol):
    """What every thermal engine looks like from the outside."""

    #: Registry name; sessions and requests address backends by it.
    name: str

    def solve(
        self, case: Case, *, include_maps: bool = False, include_values: bool = False
    ) -> ThermalSolution:
        """Answer one power case."""
        ...

    def solve_batch(
        self,
        cases: Sequence[Case],
        *,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> List[ThermalSolution]:
        """Answer many power cases, amortising shared work where possible."""
        ...

    def capabilities(self) -> Dict[str, Any]:
        """What this engine can produce (exactness, fields, batching...)."""
        ...

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity for ``/stats`` style endpoints."""
        ...


# ----------------------------------------------------------------------
# Exact finite-volume backend
# ----------------------------------------------------------------------
class FVMBackendAdapter:
    """Exact steady-state answers from the finite-volume field solver.

    Wraps one prepared :class:`~repro.solvers.fvm.FVMSolver` (cached
    geometry + exact block basis) for one
    ``(chip, resolution)``.  Every answer, single or batched, comes from
    :meth:`~repro.solvers.fvm.FVMSolver.solve_batch`: one product per case
    against the basis, so a case's answer never depends on its batch and
    no request ever factorises.
    """

    name = "fvm"

    def __init__(self, chip: ChipStack, resolution: int, cells_per_layer: int = 2):
        self.chip = chip
        self.resolution = int(resolution)
        self.solver = FVMSolver(chip, nx=self.resolution, cells_per_layer=cells_per_layer)
        # Serialise solves: the adapter is pooled per (chip, resolution) and
        # the serving engine's solve lock gives it one caller at a time, but
        # session callers (solve, warm_up) may drive it from other threads,
        # and the lazy basis build must run once even under concurrent first
        # requests.
        self._solver_lock = threading.Lock()

    def prepare(self) -> "FVMBackendAdapter":
        """Build the block basis eagerly (pools prepare on first build)."""
        with self._solver_lock:
            self.solver.block_basis()
        return self

    def _solution(
        self,
        field: TemperatureField,
        assignment: Mapping[str, float],
        include_maps: bool,
        include_values: bool,
    ) -> ThermalSolution:
        return ThermalSolution(
            chip=self.chip.name,
            resolution=self.resolution,
            backend=self.name,
            max_K=field.max_K,
            min_K=field.min_K,
            mean_K=field.mean_K,
            total_power_W=_total_power(assignment),
            hotspot=field.hotspot_location(),
            solve_seconds=field.solve_seconds,
            layer_maps=(
                {name: field.layer_map(name) for name in self.chip.power_layer_names}
                if include_maps
                else None
            ),
            values=field.values if include_values else None,
            provenance={"source": "fvm"},
        )

    def solve(
        self, case: Case, *, include_maps: bool = False, include_values: bool = False
    ) -> ThermalSolution:
        """Answer one power case as a batch of one."""
        return self.solve_batch(
            [case], include_maps=include_maps, include_values=include_values
        )[0]

    def solve_batch(
        self,
        cases: Sequence[Case],
        *,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> List[ThermalSolution]:
        """Answer many cases from the block basis, one product per case."""
        assignments = [as_assignment(case) for case in cases]
        with self._solver_lock:
            fields = self.solver.solve_batch(assignments)
        return [
            self._solution(field, assignment, include_maps, include_values)
            for field, assignment in zip(fields, assignments)
        ]

    def capabilities(self) -> Dict[str, Any]:
        """Exact, batched, produces layer maps and the full 3-D field."""
        return {
            "exact": True,
            "layer_maps": True,
            "values": True,
            "batched": True,
            "transient": False,
        }

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity: chip, resolution, vertical cells."""
        return {
            "backend": self.name,
            "chip": self.chip.name,
            "resolution": self.resolution,
            "cells_per_layer": self.solver.cells_per_layer,
        }


# ----------------------------------------------------------------------
# Compact (HotSpot-style) backend
# ----------------------------------------------------------------------
class HotSpotBackendAdapter:
    """Fast block-level estimates from the compact RC network.

    ``resolution`` only affects the rasterisation of the per-layer maps; the
    network itself is at block granularity and factorised once.
    """

    name = "hotspot"

    def __init__(self, chip: ChipStack, resolution: int, model: Optional[HotSpotModel] = None):
        self.chip = chip
        self.resolution = int(resolution)
        self.model = model or HotSpotModel(chip)

    def _hotspot(self, solution: BlockTemperatures) -> Dict[str, float]:
        """Centre of the hottest block (the compact model's best location)."""
        temperatures = solution.temperatures
        key = max(temperatures, key=temperatures.get)
        layer_name, block_name = key.split("/", 1)
        layer = self.chip.get_layer(layer_name)
        block = next(b for b in layer.floorplan.blocks if b.name == block_name)
        return {
            "x_mm": block.x + block.width / 2,
            "y_mm": block.y + block.height / 2,
            "temperature_K": temperatures[key],
        }

    def solve(
        self, case: Case, *, include_maps: bool = False, include_values: bool = False
    ) -> ThermalSolution:
        """Answer one power case from the factorised compact network."""
        assignment = as_assignment(case)
        solution = self.model.solve(assignment)
        return ThermalSolution(
            chip=self.chip.name,
            resolution=self.resolution,
            backend=self.name,
            max_K=solution.max_K,
            min_K=solution.min_K,
            mean_K=solution.mean_K,
            total_power_W=_total_power(assignment),
            hotspot=self._hotspot(solution),
            solve_seconds=solution.solve_seconds,
            layer_maps=(
                {
                    name: solution.layer_map(name, self.resolution, self.resolution)
                    for name in self.chip.power_layer_names
                }
                if include_maps
                else None
            ),
            provenance={"source": "hotspot", "nodes": len(self.model.node_names)},
        )

    def solve_batch(
        self,
        cases: Sequence[Case],
        *,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> List[ThermalSolution]:
        """Answer cases one by one (each solve is a cheap triangular pass)."""
        return [
            self.solve(case, include_maps=include_maps, include_values=include_values)
            for case in cases
        ]

    def capabilities(self) -> Dict[str, Any]:
        """Approximate block-level estimates; no 3-D field, no batching."""
        return {
            "exact": False,
            "layer_maps": True,
            "values": False,
            "batched": False,
            "transient": False,
        }

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity: chip, resolution, network size."""
        return {
            "backend": self.name,
            "chip": self.chip.name,
            "resolution": self.resolution,
            "nodes": len(self.model.node_names),
        }


# ----------------------------------------------------------------------
# Transient backend
# ----------------------------------------------------------------------
#: Thermal time constants a quasi-steady ``solve`` integrates for: long
#: enough to sit within a fraction of a kelvin of the steady answer.
HORIZON_TIME_CONSTANTS = 8.0

#: Backward-Euler steps per thermal time constant of a quasi-steady ``solve``.
STEPS_PER_TIME_CONSTANT = 4


class TransientBackendAdapter:
    """Time-integrating answers from the backward-Euler transient solver.

    :meth:`stream_trace` is the one integration loop: it yields each stored
    step as it lands, then the answer for the final snapshot.  For the
    protocol's steady question (``solve`` on a constant power case) it
    integrates the constant trace for :data:`HORIZON_TIME_CONSTANTS`
    thermal time constants in :data:`STEPS_PER_TIME_CONSTANT` steps each,
    with the integration parameters recorded in the provenance.

    Each integration builds its own separable backward-Euler operator and
    keeps nothing between calls; the adapter itself holds only the solver's
    geometry and the time constant, which :meth:`prepare` builds (the
    session's pool calls it) and a bare adapter builds on first use.  It is
    pooled per ``(chip, resolution)`` and reachable concurrently from
    ``/solve`` handler threads (under the engine's solve lock) and
    ``/solve_transient`` handler threads (outside it), so an internal lock
    serialises its integrations.
    """

    name = "transient"

    def __init__(self, chip: ChipStack, resolution: int, cells_per_layer: int = 2):
        self.chip = chip
        self.resolution = int(resolution)
        self.solver = TransientFVMSolver(
            chip, nx=self.resolution, cells_per_layer=cells_per_layer
        )
        self._time_constant: Optional[float] = None
        # Serialises the lazy time-constant build and whole traces (a trace
        # holds it for its generator's lifetime).  RLock, not Lock:
        # prepare() reads time_constant_s while holding it.
        self._solver_lock = threading.RLock()

    def prepare(self) -> "TransientBackendAdapter":
        """Build the geometry and the time constant eagerly (pools prepare
        on first build), so a warmed key's first integration builds neither."""
        with self._solver_lock:
            self.solver.geometry  # built once, cached by the solver
            self.time_constant_s  # estimated once, cached here
        return self

    @property
    def time_constant_s(self) -> float:
        """Lazily estimated thermal time constant driving the horizon."""
        with self._solver_lock:
            if self._time_constant is None:
                self._time_constant = self.solver.thermal_time_constant_estimate()
            return self._time_constant

    def solve(
        self, case: Case, *, include_maps: bool = False, include_values: bool = False
    ) -> ThermalSolution:
        """Integrate the constant case to quasi-steady state."""
        tau = self.time_constant_s
        dt_s = tau / STEPS_PER_TIME_CONSTANT
        duration_s = HORIZON_TIME_CONSTANTS * tau
        num_steps = int(round(duration_s / dt_s))
        solution = result_frame(
            self.stream_trace(
                as_assignment(case),
                duration_s,
                dt_s,
                store_every=max(num_steps // 8, 1),
                include_maps=include_maps,
                include_values=include_values,
            )
        )
        del solution.provenance["time_varying"]
        solution.provenance["quasi_steady"] = True
        return solution

    def solve_batch(
        self,
        cases: Sequence[Case],
        *,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> List[ThermalSolution]:
        """Integrate each case in turn (no stacked-RHS trick exists here)."""
        # Each case is a full time integration; only the solver's geometry
        # and the time constant are shared across the batch.
        return [
            self.solve(case, include_maps=include_maps, include_values=include_values)
            for case in cases
        ]

    def stream_trace(
        self,
        power_trace: PowerTrace,
        duration_s: float,
        dt_s: float,
        *,
        store_every: int = 1,
        initial_field: Optional[np.ndarray] = None,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> Iterator[TraceFrame]:
        """Integrate a (possibly time-varying) power trace as typed frames.

        Yields ``("segment", {"step", "t_s", "peak_K", "mean_K"})`` for each
        stored snapshot as the integrator advances, then one
        ``("result", ThermalSolution)`` whose summary statistics, hotspot,
        layer maps and field describe the **final** snapshot, with the
        peak/mean time histories in ``solution.history``.  Every transient
        answer is this frame: :func:`result_frame` drains the generator for
        :meth:`solve` and the session, and the ``/solve_transient`` endpoint
        forwards the frames (streamed) or drains them (blocking).

        Only the running scalar histories and the latest snapshot are held
        in memory, whatever the trace length.  The solver lock is held for
        the generator's whole lifetime; closing the generator early
        releases it.
        """
        trace = power_trace if callable(power_trace) else as_assignment(power_trace)
        started = time.perf_counter()
        times: List[float] = []
        peaks: List[float] = []
        means: List[float] = []
        with self._solver_lock:
            for item in self.solver.iter_steps(
                trace,
                duration_s,
                dt_s,
                initial_field=initial_field,
                store_every=store_every,
            ):
                final = item.snapshot
                peak = final.max()
                mean = final.mean()
                times.append(item.t_s)
                peaks.append(peak)
                means.append(mean)
                yield (
                    "segment",
                    {
                        "step": int(item.step),
                        "t_s": float(item.t_s),
                        "peak_K": float(peak),
                        "mean_K": float(mean),
                    },
                )
        grid = self.solver.geometry
        z, y, x = np.unravel_index(int(np.argmax(final)), final.shape)
        yield (
            "result",
            ThermalSolution(
                chip=self.chip.name,
                resolution=self.resolution,
                backend=self.name,
                max_K=float(peaks[-1]),
                min_K=float(final.min()),
                mean_K=float(means[-1]),
                total_power_W=_total_power(trace(0.0) if callable(trace) else trace),
                hotspot={
                    "x_mm": (x + 0.5) * self.chip.die_width_mm / grid.nx,
                    "y_mm": (y + 0.5) * self.chip.die_height_mm / grid.ny,
                    "cell_z": float(z),
                    "temperature_K": float(final[z, y, x]),
                },
                solve_seconds=time.perf_counter() - started,
                layer_maps=(
                    {
                        name: final[grid.power_layer_slices[name]].mean(axis=0)
                        for name in self.chip.power_layer_names
                    }
                    if include_maps
                    else None
                ),
                values=final if include_values else None,
                provenance={
                    "source": "transient",
                    "duration_s": float(duration_s),
                    "dt_s": float(dt_s),
                    "num_steps": int(round(duration_s / dt_s)),
                    "time_varying": callable(power_trace),
                },
                history={
                    "times_s": np.asarray(times),
                    "peak_K": np.asarray(peaks),
                    "mean_K": np.asarray(means),
                },
            ),
        )

    def capabilities(self) -> Dict[str, Any]:
        """Exact in the quasi-steady limit; the only transient-capable engine."""
        return {
            "exact": True,
            "layer_maps": True,
            "values": True,
            "batched": False,
            "transient": True,
            "streaming": True,
        }

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity: chip, resolution, integration horizon."""
        return {
            "backend": self.name,
            "chip": self.chip.name,
            "resolution": self.resolution,
            "horizon_time_constants": HORIZON_TIME_CONSTANTS,
            "steps_per_time_constant": STEPS_PER_TIME_CONSTANT,
        }


# ----------------------------------------------------------------------
# Learned-surrogate backend
# ----------------------------------------------------------------------
class OperatorBackendAdapter:
    """Learned answers: one vectorised forward pass per batch.

    Wraps a :class:`~repro.operators.factory.LoadedOperator` (weights +
    normalisers + provenance) for the chip/resolution it was trained on.
    """

    name = "operator"

    def __init__(self, chip: ChipStack, loaded: LoadedOperator):
        if loaded.resolution is None:
            raise ValueError("the loaded operator records no training resolution")
        self.chip = chip
        self.loaded = loaded
        self.resolution = int(loaded.resolution)

    def solve(
        self, case: Case, *, include_maps: bool = False, include_values: bool = False
    ) -> ThermalSolution:
        """Answer one power case as a batch of one."""
        return self.solve_batch(
            [case], include_maps=include_maps, include_values=include_values
        )[0]

    def solve_batch(
        self,
        cases: Sequence[Case],
        *,
        include_maps: bool = False,
        include_values: bool = False,
    ) -> List[ThermalSolution]:
        """Rasterise every case and answer with one vectorised forward pass."""
        assignments = [as_assignment(case) for case in cases]
        start = time.perf_counter()
        inputs = np.stack(
            [
                rasterize_assignment(self.chip, assignment, self.resolution)
                for assignment in assignments
            ]
        ).astype(np.float32)
        maps = self.loaded.predict(inputs, batch_size=OPERATOR_BATCH_SIZE)
        per_case = (time.perf_counter() - start) / len(assignments)

        layer_names = self.chip.power_layer_names
        solutions = []
        for assignment, case_maps in zip(assignments, maps):
            flat_index = int(np.argmax(case_maps))
            layer, y, x = np.unravel_index(flat_index, case_maps.shape)
            hotspot = {
                "x_mm": (x + 0.5) * self.chip.die_width_mm / case_maps.shape[2],
                "y_mm": (y + 0.5) * self.chip.die_height_mm / case_maps.shape[1],
                "temperature_K": float(case_maps[layer, y, x]),
            }
            solutions.append(
                ThermalSolution(
                    chip=self.chip.name,
                    resolution=self.resolution,
                    backend=self.name,
                    max_K=float(case_maps.max()),
                    min_K=float(case_maps.min()),
                    mean_K=float(case_maps.mean()),
                    total_power_W=_total_power(assignment),
                    hotspot=hotspot,
                    solve_seconds=per_case,
                    layer_maps=(
                        dict(zip(layer_names, case_maps)) if include_maps else None
                    ),
                    provenance={
                        "source": "operator",
                        "model": self.loaded.name,
                        "normalized": self.loaded.has_normalizers,
                    },
                )
            )
        return solutions

    def capabilities(self) -> Dict[str, Any]:
        """Learned approximation; batched, maps only (no 3-D field)."""
        return {
            "exact": False,
            "layer_maps": True,
            "values": False,
            "batched": True,
            "transient": False,
        }

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity: the loaded model and its provenance."""
        return {"backend": self.name, **self.loaded.describe()}
