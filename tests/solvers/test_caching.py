"""Regression tests for the prepare-once / solve-many solver pipeline.

The refactor must not change physics: batched solves have to match per-case
solves, and the cached-assembly HotSpot / transient solvers have to produce
bit-identical outputs no matter how often (or in what order) a solver
instance is reused.
"""

import numpy as np
import pytest

from repro.data.power import PowerSampler
from repro.solvers import (
    FVMSolver,
    HotSpotModel,
    TransientFVMSolver,
    build_geometry,
    voxelize,
)


def _uniform_assignment(chip, total):
    names = chip.flat_block_names()
    return {name: total / len(names) for name in names}


@pytest.fixture
def cases(tiny_chip):
    sampler = PowerSampler(tiny_chip)
    return sampler.sample_many(5, np.random.default_rng(42))


class TestGeometryCache:
    def test_grid_for_matches_voxelize(self, tiny_chip, cases):
        geometry = build_geometry(tiny_chip, nx=12, cells_per_layer=2)
        for case in cases:
            fresh = voxelize(tiny_chip, case.assignment, nx=12, cells_per_layer=2)
            cached = geometry.grid_for(case.assignment)
            assert np.array_equal(fresh.heat_source, cached.heat_source)
            assert np.array_equal(fresh.conductivity, cached.conductivity)
            assert np.array_equal(fresh.dz_mm, cached.dz_mm)
            assert fresh.power_layer_slices == cached.power_layer_slices

    def test_rasterize_power_validation(self, tiny_chip):
        geometry = build_geometry(tiny_chip, nx=8)
        with pytest.raises(KeyError):
            geometry.rasterize_power({"core_layer/not_a_block": 1.0})
        with pytest.raises(ValueError):
            geometry.rasterize_power({"core_layer/core": -1.0})

    def test_geometry_is_power_free(self, tiny_chip):
        geometry = build_geometry(tiny_chip, nx=8)
        first = geometry.rasterize_power(_uniform_assignment(tiny_chip, 30.0))
        second = geometry.rasterize_power({})
        assert second.max() == 0.0
        assert first.max() > 0.0


class TestSolveBatch:
    def test_matches_per_case_solve(self, tiny_chip, cases):
        """Each batch answer is bitwise its batch-of-one answer and within
        1e-9 K of the per-case direct solve."""
        solver = FVMSolver(tiny_chip, nx=12)
        singles = [solver.solve(case.assignment) for case in cases]
        batch = solver.solve_batch([case.assignment for case in cases])
        assert len(batch) == len(cases)
        for case, single, batched in zip(cases, singles, batch):
            alone = solver.solve_batch([case.assignment])[0]
            assert np.array_equal(batched.values, alone.values)
            np.testing.assert_allclose(batched.values, single.values, rtol=0, atol=1e-9)

    def test_matches_cold_solver(self, tiny_chip, cases):
        """A long-lived batched solver agrees with a fresh solver per case."""
        warm = FVMSolver(tiny_chip, nx=10)
        batch = warm.solve_batch([case.assignment for case in cases])
        for case, batched in zip(cases, batch):
            cold = FVMSolver(tiny_chip, nx=10).solve(case.assignment)
            np.testing.assert_allclose(batched.values, cold.values, atol=1e-9, rtol=0)

    def test_empty_batch(self, tiny_chip):
        assert FVMSolver(tiny_chip, nx=8).solve_batch([]) == []

    def test_batch_reports_amortized_seconds(self, tiny_chip, cases):
        solver = FVMSolver(tiny_chip, nx=10)
        batch = solver.solve_batch([case.assignment for case in cases])
        seconds = {field.solve_seconds for field in batch}
        assert len(seconds) == 1
        assert seconds.pop() > 0.0

    def test_no_cache_pollution_across_cases(self, tiny_chip):
        """Solving case B must not disturb a repeat solve of case A."""
        solver = FVMSolver(tiny_chip, nx=10)
        a = _uniform_assignment(tiny_chip, 10.0)
        b = {"core_layer/core": 40.0}
        first = solver.solve(a)
        solver.solve(b)
        again = solver.solve(a)
        assert np.array_equal(first.values, again.values)


class TestHotSpotCaching:
    def test_repeated_solves_bit_identical(self, tiny_chip, cases):
        model = HotSpotModel(tiny_chip)
        fresh = HotSpotModel(tiny_chip)
        for case in cases:
            first = model.solve(case.assignment)
            second = model.solve(case.assignment)
            reference = fresh.solve(case.assignment)
            assert first.temperatures == second.temperatures == reference.temperatures
            assert first.sink_temperature_K == reference.sink_temperature_K

    def test_matches_dense_solve_of_network(self, tiny_chip):
        """The cached LU path reproduces a direct dense solve of the network."""
        model = HotSpotModel(tiny_chip)
        assignment = _uniform_assignment(tiny_chip, 25.0)
        result = model.solve(assignment)
        power = model._base_power.copy()
        for key, value in assignment.items():
            power[model._node_index[key]] += value
        expected = np.linalg.solve(model._conductance, power)
        got = [result.temperatures[name] for name in model.node_names]
        np.testing.assert_allclose(got, expected[: len(got)], rtol=1e-9)


class TestTransientCaching:
    def test_repeated_solves_bit_identical(self, tiny_chip):
        solver = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1)
        fresh = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1)
        assignment = _uniform_assignment(tiny_chip, 15.0)
        first = solver.solve(assignment, duration_s=0.1, dt_s=0.02)
        second = solver.solve(assignment, duration_s=0.1, dt_s=0.02)
        reference = fresh.solve(assignment, duration_s=0.1, dt_s=0.02)
        assert np.array_equal(first.snapshots, second.snapshots)
        assert np.array_equal(first.snapshots, reference.snapshots)

    def test_time_varying_trace_bit_identical_across_reuse(self, tiny_chip):
        names = tiny_chip.flat_block_names()

        def trace(t):
            scale = 5.0 if t < 0.05 else 30.0
            return {name: scale / len(names) for name in names}

        solver = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1)
        # Pollute the caches with an unrelated constant-power solve first.
        solver.solve(_uniform_assignment(tiny_chip, 40.0), duration_s=0.04, dt_s=0.02)
        reused = solver.solve(trace, duration_s=0.1, dt_s=0.02)
        fresh = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1).solve(
            trace, duration_s=0.1, dt_s=0.02
        )
        assert np.array_equal(reused.snapshots, fresh.snapshots)

    def test_dt_change_invalidates_factor_cache(self, tiny_chip):
        solver = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1)
        assignment = _uniform_assignment(tiny_chip, 15.0)
        coarse = solver.solve(assignment, duration_s=0.08, dt_s=0.04)
        fine = solver.solve(assignment, duration_s=0.08, dt_s=0.01)
        reference = TransientFVMSolver(tiny_chip, nx=8, cells_per_layer=1).solve(
            assignment, duration_s=0.08, dt_s=0.01
        )
        assert np.array_equal(fine.snapshots, reference.snapshots)
        assert coarse.max_K() != pytest.approx(fine.max_K(), abs=0)
