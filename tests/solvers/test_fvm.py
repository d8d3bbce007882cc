"""Tests for the voxelizer and the steady-state finite-volume solver."""

import numpy as np
import pytest
from scipy import sparse

from repro.chip.designs import get_chip
from repro.data.power import PowerSampler
from repro.solvers import (
    FVMSolver,
    HotSpotModel,
    TransientFVMSolver,
    build_geometry,
    slab_1d_robin,
)
from repro.solvers.analytic import poisson_2d_dirichlet_series


def _uniform_assignment(chip, total):
    names = chip.flat_block_names()
    return {name: total / len(names) for name in names}


class TestVoxelize:
    def test_grid_shapes_and_power_conservation(self, tiny_chip):
        geometry = build_geometry(tiny_chip, nx=16, cells_per_layer=2)
        heat_source = geometry.rasterize_power(_uniform_assignment(tiny_chip, 30.0))
        assert geometry.conductivity.shape == heat_source.shape
        assert geometry.conductivity.shape[1:] == (16, 16)
        volumes = geometry.dx_m * geometry.dy_m * geometry.dz_m[:, None, None]
        assert float((heat_source * volumes).sum()) == pytest.approx(30.0, rel=1e-6)

    def test_power_layer_slices_cover_power_layers(self, tiny_chip):
        geometry = build_geometry(tiny_chip, nx=8)
        assert set(geometry.power_layer_slices) == set(tiny_chip.power_layer_names)
        for indices in geometry.power_layer_slices.values():
            assert indices

    def test_materials_mapped_correctly(self, tiny_chip):
        geometry = build_geometry(tiny_chip, nx=8)
        # TIM cells (top of the stack) must carry the TIM conductivity.
        assert geometry.conductivity[-1].max() == pytest.approx(4.0)
        assert geometry.conductivity[0].max() == pytest.approx(100.0)

    def test_minimum_resolution_enforced(self, tiny_chip):
        with pytest.raises(ValueError):
            build_geometry(tiny_chip, nx=1)


class TestFVMSolver:
    def test_no_power_gives_ambient_temperature(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=12)
        field = solver.solve({name: 0.0 for name in tiny_chip.flat_block_names()})
        ambient = tiny_chip.cooling.ambient_K
        np.testing.assert_allclose(field.values, ambient, atol=1e-6)

    def test_temperature_above_ambient_with_power(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=12)
        field = solver.solve(_uniform_assignment(tiny_chip, 30.0))
        assert field.min_K > tiny_chip.cooling.ambient_K
        assert field.max_K > field.min_K

    def test_energy_balance(self, tiny_chip):
        """Heat leaving through the boundaries equals the injected power."""
        total = 25.0
        solver = FVMSolver(tiny_chip, nx=16, cells_per_layer=2)
        field = solver.solve(_uniform_assignment(tiny_chip, total))
        grid = field.grid
        ambient = tiny_chip.cooling.ambient_K
        face_area = grid.dx_m * grid.dy_m
        top_htc = tiny_chip.cooling.effective_top_htc(tiny_chip.die_area_m2)
        half = 0.5 * grid.dz_m[-1] / grid.conductivity[-1]
        top_conductance = face_area / (half + 1.0 / top_htc)
        top_flux = (top_conductance * (field.values[-1] - ambient)).sum()
        bottom_htc = tiny_chip.cooling.secondary_htc
        half_b = 0.5 * grid.dz_m[0] / grid.conductivity[0]
        bottom_conductance = face_area / (half_b + 1.0 / bottom_htc)
        bottom_flux = (bottom_conductance * (field.values[0] - ambient)).sum()
        assert top_flux + bottom_flux == pytest.approx(total, rel=1e-6)

    def test_monotone_in_power(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=10)
        cold = solver.solve(_uniform_assignment(tiny_chip, 10.0))
        hot = solver.solve(_uniform_assignment(tiny_chip, 40.0))
        assert hot.max_K > cold.max_K
        assert hot.mean_K > cold.mean_K

    def test_superposition_of_sources(self, tiny_chip):
        """The steady heat equation is linear: temperature rises superpose."""
        solver = FVMSolver(tiny_chip, nx=10)
        ambient = tiny_chip.cooling.ambient_K
        names = tiny_chip.flat_block_names()
        case_a = {names[0]: 12.0}
        case_b = {names[-1]: 8.0}
        combined = {names[0]: 12.0, names[-1]: 8.0}
        rise_a = solver.solve(case_a).values - ambient
        rise_b = solver.solve(case_b).values - ambient
        rise_ab = solver.solve(combined).values - ambient
        np.testing.assert_allclose(rise_ab, rise_a + rise_b, rtol=1e-6, atol=1e-8)

    def test_hotspot_under_powered_block(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=16)
        field = solver.solve({"core_layer/core": 25.0})
        location = field.hotspot_location()
        # The "core" block occupies the upper half (y in [4, 8] mm).
        assert location["y_mm"] > 4.0

    def test_layer_maps_shape_and_ordering(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=12)
        field = solver.solve(_uniform_assignment(tiny_chip, 20.0))
        maps = field.power_layer_maps()
        assert maps.shape == (2, 12, 12)
        with pytest.raises(KeyError):
            field.layer_map("tim")

    def test_grid_refinement_converges(self, tiny_chip):
        """Peak temperature changes less and less as the mesh is refined."""
        assignment = _uniform_assignment(tiny_chip, 25.0)
        peaks = [
            FVMSolver(tiny_chip, nx=n, cells_per_layer=2).solve(assignment).max_K
            for n in (8, 16, 32)
        ]
        assert abs(peaks[2] - peaks[1]) < abs(peaks[1] - peaks[0]) + 0.2


class TestAgainstAnalyticSolutions:
    def test_1d_slab_robin_profile(self, tiny_chip):
        """Uniform heating of a wide thin chip reduces to the 1D slab solution."""
        total = 20.0
        solver = FVMSolver(tiny_chip, nx=24, cells_per_layer=4)
        field = solver.solve(_uniform_assignment(tiny_chip, total))
        # Centre column, away from lateral boundaries.
        centre = field.values[:, 12, 12]

        grid = field.grid
        die_area = tiny_chip.die_area_m2
        volumetric = total / (die_area * grid.dz_m.sum())
        z_centres = np.cumsum(grid.dz_m) - grid.dz_m / 2
        # Use an area-weighted effective conductivity (the stack is nearly
        # silicon; the thin TIM layer only shifts the top slightly).
        analytic = slab_1d_robin(
            thickness_m=float(grid.dz_m.sum()),
            conductivity=100.0,
            volumetric_source=volumetric,
            top_htc=tiny_chip.cooling.effective_top_htc(die_area),
            bottom_htc=tiny_chip.cooling.secondary_htc,
            ambient_K=tiny_chip.cooling.ambient_K,
            z=z_centres,
        )
        # The uniform-heating profile through a sub-millimetre stack is nearly
        # flat; the numerical and analytic rises should agree within ~15%.
        rise_fvm = centre - tiny_chip.cooling.ambient_K
        rise_analytic = analytic - tiny_chip.cooling.ambient_K
        assert np.abs(rise_fvm - rise_analytic).max() / rise_analytic.max() < 0.15

    def test_analytic_slab_energy_consistency(self):
        profile = slab_1d_robin(1e-3, 100.0, 1e7, 5000.0, 0.0, 300.0, np.array([0.0, 1e-3]))
        assert profile[0] > profile[1] > 300.0

    def test_poisson_series_solution_is_symmetric(self):
        x, y, temperature = poisson_2d_dirichlet_series(
            1.0, 1.0, 1.0, lambda gx, gy: np.ones_like(gx), nx=16, ny=16, terms=30
        )
        assert temperature.shape == (16, 16)
        np.testing.assert_allclose(temperature, temperature.T, atol=1e-6)
        np.testing.assert_allclose(temperature, temperature[::-1, :], atol=1e-6)
        assert temperature.max() == pytest.approx(0.0737, rel=0.05)


class TestHotSpotModel:
    def test_block_temperatures_above_ambient(self, tiny_chip):
        model = HotSpotModel(tiny_chip)
        result = model.solve(_uniform_assignment(tiny_chip, 25.0))
        assert result.min_K > tiny_chip.cooling.ambient_K
        assert result.max_K >= result.min_K
        assert set(result.temperatures) == set(model.node_names)

    def test_powered_block_is_hottest(self, tiny_chip):
        model = HotSpotModel(tiny_chip)
        result = model.solve({"core_layer/core": 20.0})
        hottest = max(result.temperatures, key=result.temperatures.get)
        assert hottest == "core_layer/core"

    def test_zero_power_gives_ambient(self, tiny_chip):
        model = HotSpotModel(tiny_chip)
        result = model.solve({})
        np.testing.assert_allclose(
            list(result.temperatures.values()), tiny_chip.cooling.ambient_K, atol=1e-6
        )

    def test_unknown_block_rejected(self, tiny_chip):
        with pytest.raises(KeyError):
            HotSpotModel(tiny_chip).solve({"nonexistent/block": 5.0})

    def test_layer_map_rasterisation(self, tiny_chip):
        model = HotSpotModel(tiny_chip)
        result = model.solve(_uniform_assignment(tiny_chip, 25.0))
        maps = result.power_layer_maps(16, 16)
        assert maps.shape == (2, 16, 16)
        assert maps.min() > tiny_chip.cooling.ambient_K

    def test_compact_model_warmer_than_fvm(self, tiny_chip):
        """The lumped model neglects in-plane spreading detail and runs hotter,
        matching the HotSpot-vs-FEM gap reported in Table IV."""
        assignment = _uniform_assignment(tiny_chip, 25.0)
        fvm_peak = FVMSolver(tiny_chip, nx=16).solve(assignment).max_K
        compact_peak = HotSpotModel(tiny_chip).solve(assignment).max_K
        assert compact_peak > fvm_peak - 1.0

    def test_much_faster_than_fvm(self, tiny_chip):
        import time

        assignment = _uniform_assignment(tiny_chip, 25.0)
        start = time.perf_counter()
        FVMSolver(tiny_chip, nx=24).solve(assignment)
        fvm_time = time.perf_counter() - start
        start = time.perf_counter()
        HotSpotModel(tiny_chip).solve(assignment)
        compact_time = time.perf_counter() - start
        assert compact_time < fvm_time


#: (chip, path) pairs the residual oracle checks: both steady paths and one
#: backward-Euler step on every chip.
_ORACLE_CASES = [
    (chip, path)
    for chip in ("tiny", "chip1", "chip2", "chip3")
    for path in ("solve", "solve_batch", "transient_step")
]


class TestResidualOracle:
    """Answers satisfy their linear system to round-off.

    ``A`` and ``b`` come from the assembled reference system, which shares
    no code with the separable solve behind ``solve_batch`` and every
    transient step, so a bug there cannot vouch for itself.  ``solve``
    factorises that same matrix; for it the oracle checks the factor and
    the back-substitution.
    """

    @pytest.mark.parametrize("chip_name, path", _ORACLE_CASES)
    def test_relative_residual_within_1e_10(self, request, chip_name, path):
        chip = request.getfixturevalue("tiny_chip") if chip_name == "tiny" else get_chip(chip_name)
        solver = FVMSolver(chip, nx=12)
        geometry = solver.geometry
        matrix, rhs_boundary, cell_volumes = solver._assemble_system(geometry)
        cases = PowerSampler(chip).sample_many(3, np.random.default_rng(7))
        assignments = [case.assignment for case in cases]
        if path == "solve":
            answers = [solver.solve(a).values for a in assignments]
        elif path == "solve_batch":
            answers = [field.values for field in solver.solve_batch(assignments)]
        else:
            # One step from the ambient start: (C/dt + A) T1 = C/dt T0 + b.
            dt_s = 1e-3
            transient = TransientFVMSolver(chip, nx=12)
            assignments = assignments[:1]
            result = transient.solve(assignments[0], duration_s=dt_s, dt_s=dt_s)
            inertia = transient._capacity_vector(result.grid) / dt_s
            matrix = sparse.diags(inertia) + matrix
            rhs_boundary = rhs_boundary + inertia * result.snapshots[0].ravel()
            answers = [result.snapshots[1]]
        for assignment, answer in zip(assignments, answers, strict=True):
            rhs = rhs_boundary + (geometry.rasterize_power(assignment) * cell_volumes).ravel()
            residual = matrix @ answer.ravel() - rhs
            assert np.linalg.norm(residual) / np.linalg.norm(rhs) <= 1e-10


class TestInjectedGeometry:
    """FVMSolver accepts (and validates) a pre-built GridGeometry."""

    def test_shared_geometry_matches_lazy_build(self, tiny_chip):
        from repro.solvers.voxelize import build_geometry

        geometry = build_geometry(tiny_chip, nx=12, cells_per_layer=2)
        assignment = _uniform_assignment(tiny_chip, 15.0)
        shared = FVMSolver(tiny_chip, nx=12, geometry=geometry).solve(assignment)
        lazy = FVMSolver(tiny_chip, nx=12).solve(assignment)
        assert np.array_equal(shared.values, lazy.values)

    def test_resolution_mismatch_rejected(self, tiny_chip):
        from repro.solvers.voxelize import build_geometry

        geometry = build_geometry(tiny_chip, nx=12)
        with pytest.raises(ValueError, match="resolution"):
            FVMSolver(tiny_chip, nx=16, geometry=geometry)

    def test_chip_mismatch_rejected(self, tiny_chip):
        from repro.chip.designs import get_chip
        from repro.solvers.voxelize import build_geometry

        geometry = build_geometry(get_chip("chip1"), nx=12)
        with pytest.raises(ValueError, match="chip"):
            FVMSolver(tiny_chip, nx=12, geometry=geometry)
