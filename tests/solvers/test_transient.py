"""Tests for the transient (backward-Euler) thermal solver extension."""

import numpy as np
import pytest
from scipy import sparse

from repro.api.session import ThermalSession
from repro.chip.designs import get_chip
from repro.solvers import FVMSolver, TransientFVMSolver, factorize


def _uniform_assignment(chip, total):
    names = chip.flat_block_names()
    return {name: total / len(names) for name in names}


@pytest.fixture
def transient_solver(tiny_chip):
    return TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1)


class TestTransientSolver:
    def test_argument_validation(self, transient_solver, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 10.0)
        with pytest.raises(ValueError):
            transient_solver.solve(assignment, duration_s=-1.0, dt_s=0.1)
        with pytest.raises(ValueError):
            transient_solver.solve(assignment, duration_s=1.0, dt_s=2.0)
        with pytest.raises(ValueError):
            transient_solver.solve(assignment, duration_s=1.0, dt_s=0.1, store_every=0)
        with pytest.raises(ValueError):
            transient_solver.solve(
                assignment, duration_s=1.0, dt_s=0.5, initial_field=np.zeros((1, 2, 2))
            )

    def test_starts_at_ambient_and_heats_up(self, transient_solver, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 20.0)
        result = transient_solver.solve(assignment, duration_s=0.2, dt_s=0.02)
        ambient = tiny_chip.cooling.ambient_K
        np.testing.assert_allclose(result.snapshots[0], ambient, atol=1e-9)
        peaks = result.peak_history()
        assert peaks[-1] > peaks[1] > ambient
        # Monotone heating towards the steady state under constant power.
        assert np.all(np.diff(peaks) >= -1e-9)

    def test_converges_to_steady_state(self, tiny_chip):
        """After several thermal time constants the transient matches the steady solver."""
        solver = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1)
        assignment = _uniform_assignment(tiny_chip, 15.0)
        tau = solver.thermal_time_constant_estimate()
        result = solver.solve(assignment, duration_s=8 * tau, dt_s=tau / 10, store_every=10)
        steady = FVMSolver(tiny_chip, nx=8, cells_per_layer=1).solve(assignment)
        np.testing.assert_allclose(result.final, steady.values, rtol=2e-3)

    def test_zero_power_stays_at_ambient(self, transient_solver, tiny_chip):
        result = transient_solver.solve({}, duration_s=0.1, dt_s=0.02)
        np.testing.assert_allclose(result.final, tiny_chip.cooling.ambient_K, atol=1e-8)

    def test_cooldown_from_hot_initial_state(self, transient_solver, tiny_chip):
        """A pre-heated die with no power must relax towards ambient."""
        ambient = tiny_chip.cooling.ambient_K
        # Build the correctly shaped initial state from a dry-run grid.
        probe = transient_solver.solve({}, duration_s=0.02, dt_s=0.02)
        hot = np.full(probe.final.shape, ambient + 50.0)
        result = transient_solver.solve({}, duration_s=0.5, dt_s=0.05, initial_field=hot)
        assert result.peak_history()[-1] < ambient + 50.0
        assert np.all(np.diff(result.peak_history()) <= 1e-9)

    def test_time_varying_power_trace(self, transient_solver, tiny_chip):
        """A power step at t=0.1 s must show up as renewed heating."""
        names = tiny_chip.flat_block_names()

        def trace(t):
            scale = 5.0 if t < 0.1 else 30.0
            return {name: scale / len(names) for name in names}

        result = transient_solver.solve(trace, duration_s=0.2, dt_s=0.02)
        peaks = result.peak_history()
        early_slope = peaks[3] - peaks[2]
        late_slope = peaks[7] - peaks[6]
        assert late_slope > early_slope

    def test_snapshot_storage_and_histories(self, transient_solver, tiny_chip):
        assignment = _uniform_assignment(tiny_chip, 10.0)
        result = transient_solver.solve(assignment, duration_s=0.2, dt_s=0.02, store_every=2)
        assert len(result.times_s) == len(result.snapshots)
        assert result.times_s[0] == 0.0
        assert result.times_s[-1] == pytest.approx(0.2)
        layer_history = result.layer_history(tiny_chip.power_layer_names[0])
        assert layer_history.shape[0] == len(result.times_s)
        with pytest.raises(KeyError):
            result.layer_history("tim")
        assert result.mean_history()[-1] > result.mean_history()[0]
        assert result.max_K() >= result.mean_history()[-1]

    def test_time_constant_estimate_is_physical(self, transient_solver):
        tau = transient_solver.thermal_time_constant_estimate()
        # Sub-millimetre silicon stacks have millisecond-scale time constants.
        assert 1e-5 < tau < 10.0

    def test_result_is_dt_insensitive_when_resolved(self, tiny_chip):
        """Backward Euler converges: halving dt changes the answer only slightly."""
        solver = TransientFVMSolver(tiny_chip, nx=6, cells_per_layer=1)
        assignment = _uniform_assignment(tiny_chip, 12.0)
        coarse = solver.solve(assignment, duration_s=0.08, dt_s=0.02)
        fine = solver.solve(assignment, duration_s=0.08, dt_s=0.01)
        assert abs(coarse.max_K() - fine.max_K()) < 1.0


def _assembled_backward_euler(solver, trace, duration_s, dt_s, initial_field):
    """Reference integrator: SuperLU on the assembled ``C/dt + A``, in
    absolute temperature, sharing no code with the separable steps."""
    steady = FVMSolver(solver.chip, nx=solver.nx, cells_per_layer=solver.cells_per_layer)
    geometry = steady.geometry
    matrix, rhs_boundary, volumes = steady._assemble_system(geometry)
    inertia = solver._capacity_vector(geometry) / dt_s
    step = factorize(sparse.diags(inertia) + matrix)
    state = initial_field.ravel().copy()
    snapshots = [state]
    for n in range(1, int(round(duration_s / dt_s)) + 1):
        power = trace(n * dt_s) if callable(trace) else trace
        source = (geometry.rasterize_power(power) * volumes).ravel()
        state = step.solve(inertia * state + rhs_boundary + source)
        snapshots.append(state)
    return np.stack(snapshots).reshape(-1, geometry.nz, geometry.ny, geometry.nx)


class TestSeparableSteps:
    """Every backward-Euler step is one separable solve of ``C/dt + A``."""

    @pytest.mark.parametrize("chip_name", ["chip1", "chip2", "chip3"])
    def test_matches_an_assembled_sparse_lu_integrator(self, chip_name):
        chip = get_chip(chip_name)
        names = chip.flat_block_names()

        def trace(t):
            scale = 10.0 if t < 0.01 else 70.0
            return {name: scale / len(names) for name in names}

        solver = TransientFVMSolver(chip, nx=12)
        shape = solver.solve({}, duration_s=0.002, dt_s=0.002).final.shape
        initial = chip.cooling.ambient_K + 20.0 * np.random.default_rng(3).random(shape)
        for power, start in ((trace, initial), (trace(1.0), np.full(shape, chip.cooling.ambient_K))):
            ours = solver.solve(power, duration_s=0.02, dt_s=0.002, initial_field=start)
            reference = _assembled_backward_euler(solver, power, 0.02, 0.002, start)
            assert np.array_equal(ours.snapshots[0], start)
            assert np.abs(ours.snapshots - reference).max() <= 1e-9

    def test_blocking_and_streamed_traces_neither_factorise_nor_back_substitute(
        self, tiny_chip, count_solver_calls
    ):
        session = ThermalSession(cells_per_layer=1)
        adapter = session.backend("transient", tiny_chip, 8)
        assignment = _uniform_assignment(tiny_chip, 20.0)
        calls = count_solver_calls()
        blocking = session.solve_transient(tiny_chip, assignment, 0.01, 0.002, resolution=8)
        frames = list(adapter.stream_trace(assignment, duration_s=0.01, dt_s=0.002))
        assert calls == {"factorize": 0, "backsub": 0, "separable": 2}
        streamed = frames[-1][1]
        assert streamed.max_K == blocking.max_K
        assert np.array_equal(streamed.history["peak_K"], blocking.history["peak_K"])

    def test_laterally_varying_plane_is_refused(self, tiny_chip):
        solver = TransientFVMSolver(tiny_chip, nx=8)
        geometry = solver._steady.geometry
        geometry.conductivity = geometry.conductivity.copy()
        geometry.conductivity[0, 3, 4] *= 2.0
        with pytest.raises(ValueError, match="z-plane 0 .* laterally varying"):
            solver.solve(_uniform_assignment(tiny_chip, 10.0), duration_s=0.004, dt_s=0.002)
