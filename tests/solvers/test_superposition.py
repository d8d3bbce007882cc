"""Oracles for the exact block basis behind every fvm batch answer.

The basis is checked against things other than itself:

* each 1 W column satisfies the independently COO-assembled system
  (relative residual) and closes the energy balance: the boundary outflow
  ``rowsum(A) . g_b`` is the 1 W injected;
* batch answers and layer maps agree with direct back-substitution
  (:meth:`FVMSolver.solve`) to 1e-9 K, and the zero-power field is ``T_amb``;
* the power matrix rejects exactly what ``rasterize_power`` rejects, with
  the same exception type and message;
* answers are bitwise batch-invariant; the basis is one separable build
  that factorises and back-substitutes nothing, and once it exists no call
  builds, factorises or back-substitutes again.
"""

import numpy as np
import pytest

from repro.chip.cooling import CoolingSpec, HeatSink, HeatSpreader
from repro.chip.designs import get_chip
from repro.chip.floorplan import Floorplan, FloorplanBlock
from repro.chip.layers import Layer
from repro.chip.materials import SILICON, TIM
from repro.chip.stack import ChipStack
from repro.data.generation import DatasetSpec, generate_dataset
from repro.data.power import PowerSampler
from repro.runtime.plane import SerialPlane
from repro.solvers import FVMSolver

BENCH_CHIPS = ("chip1", "chip2", "chip3")


def _chip(name, tiny_chip):
    return tiny_chip if name == "tiny" else get_chip(name)


def _cases(chip, count, seed=0):
    sampler = PowerSampler(chip)
    return [case.assignment for case in sampler.sample_many(count, np.random.default_rng(seed))]


@pytest.fixture
def sliver_chip():
    """A two-power-layer chip whose ``sliver`` block covers no cell centre
    on an 8 x 8 grid (it lies between the centres at y = 3.5 and 4.5 mm)."""
    core = Floorplan(
        8.0,
        8.0,
        [
            FloorplanBlock("core", 0.0, 4.0, 8.0, 4.0),
            FloorplanBlock("sliver", 0.0, 3.8, 8.0, 0.1),
            FloorplanBlock("cache", 0.0, 0.0, 8.0, 3.8),
        ],
        name="sliver_core",
    )
    lower = Floorplan(8.0, 8.0, [FloorplanBlock("l2", 0.0, 0.0, 8.0, 8.0)], name="sliver_l2")
    return ChipStack(
        name="sliver",
        die_width_mm=8.0,
        die_height_mm=8.0,
        layers=[
            Layer("l2_layer", 0.15, SILICON, lower, is_power_layer=True),
            Layer("core_layer", 0.15, SILICON, core, is_power_layer=True),
            Layer("tim", 0.02, TIM),
        ],
        cooling=CoolingSpec(
            spreader=HeatSpreader(width_mm=16.0, height_mm=16.0),
            sink=HeatSink(base_width_mm=30.0, base_height_mm=30.0),
        ),
        power_budget_W=(10.0, 20.0),
    )


def _basis_and_coo_system(chip):
    solver = FVMSolver(chip, nx=12)
    basis = solver.block_basis()
    matrix, _, volumes = solver._assemble_system(solver.geometry)
    return solver, basis, matrix, volumes


class TestBasisOracles:
    @pytest.mark.parametrize("chip_name", ("tiny",) + BENCH_CHIPS)
    def test_columns_satisfy_the_coo_system(self, chip_name, tiny_chip):
        chip = _chip(chip_name, tiny_chip)
        solver, basis, matrix, volumes = _basis_and_coo_system(chip)
        assert basis.names == tuple(chip.flat_block_names())
        assert basis.fields.shape == (len(basis.names), solver.geometry.cell_count)
        assert basis.fields.flags.c_contiguous
        for name, column in zip(basis.names, basis.fields):
            source = (solver.geometry.rasterize_power({name: 1.0}) * volumes).ravel()
            residual = matrix @ column - source
            assert np.linalg.norm(residual) / np.linalg.norm(source) <= 1e-10, name

    @pytest.mark.parametrize("chip_name", ("tiny",) + BENCH_CHIPS)
    def test_columns_close_the_energy_balance(self, chip_name, tiny_chip):
        """Row sums of the matrix are the cells' boundary conductances, so
        ``rowsum(A) . g_b`` is the heat leaving the die: the 1 W put in."""
        _, basis, matrix, _ = _basis_and_coo_system(_chip(chip_name, tiny_chip))
        boundary_conductance = np.asarray(matrix.sum(axis=1)).ravel()
        for name, column in zip(basis.names, basis.fields):
            assert abs(boundary_conductance @ column - 1.0) <= 1e-12, name

    def test_unresolved_block_has_a_zero_row(self, sliver_chip):
        solver = FVMSolver(sliver_chip, nx=8)
        basis = solver.block_basis()
        row = basis.names.index("core_layer/sliver")
        assert not basis.fields[row].any()
        assert not basis.layer_maps[row].any()
        resolved = [index for index in range(len(basis.names)) if index != row]
        assert (basis.fields[resolved] > 0).all()

    @pytest.mark.parametrize("resolution", (12, 32, 48))
    @pytest.mark.parametrize("chip_name", BENCH_CHIPS)
    def test_answers_match_direct_back_substitution(self, chip_name, resolution):
        chip = get_chip(chip_name)
        solver = FVMSolver(chip, nx=resolution)
        cases = _cases(chip, 3)
        fields = solver.solve_batch(cases)
        maps = solver.solve_layer_maps(cases)
        assert maps.shape == (3, chip.num_power_layers, resolution, resolution)
        for case, field, case_maps in zip(cases, fields, maps):
            direct = solver.solve(case)
            np.testing.assert_allclose(field.values, direct.values, rtol=0, atol=1e-9)
            np.testing.assert_allclose(
                case_maps, direct.power_layer_maps(), rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("chip_name", BENCH_CHIPS)
    def test_zero_power_field_is_ambient(self, chip_name):
        chip = get_chip(chip_name)
        solver = FVMSolver(chip, nx=12)
        ambient = chip.cooling.ambient_K
        assert solver.block_basis().ambient_K == ambient
        np.testing.assert_allclose(solver.solve({}).values, ambient, rtol=0, atol=1e-9)
        assert np.all(solver.solve_batch([{}])[0].values == ambient)


class TestValidationParity:
    BAD_CASES = {
        "key without a slash": {"core": 1.0},
        "unknown layer": {"no_layer/core": 1.0},
        "unknown block": {"core_layer/no_block": 1.0},
        "negative power": {"core_layer/core": -1.0},
        "unresolved block": {"core_layer/sliver": 0.5},
    }

    @pytest.mark.parametrize("label", sorted(BAD_CASES))
    def test_basis_paths_raise_what_rasterize_power_raises(self, label, sliver_chip):
        solver = FVMSolver(sliver_chip, nx=8)
        good = {"core_layer/core": 3.0, "l2_layer/l2": 1.0}
        bad = dict(good, **self.BAD_CASES[label])
        with pytest.raises(Exception) as expected:
            solver.geometry.rasterize_power(bad)
        for entry_point in (solver.solve_batch, solver.solve_layer_maps):
            with pytest.raises(expected.type) as raised:
                entry_point([good, bad])
            assert str(raised.value) == str(expected.value)

    def test_zero_power_on_an_unresolved_block_is_accepted(self, sliver_chip):
        solver = FVMSolver(sliver_chip, nx=8)
        case = {"core_layer/core": 3.0, "core_layer/sliver": 0.0}
        field = solver.solve_batch([case])[0]
        np.testing.assert_allclose(field.values, solver.solve(case).values, rtol=0, atol=1e-9)


class TestBatchInvariance:
    @pytest.mark.parametrize("chip_name", BENCH_CHIPS)
    def test_answers_do_not_depend_on_the_batch(self, chip_name):
        chip = get_chip(chip_name)
        solver = FVMSolver(chip, nx=16)
        cases = _cases(chip, 32, seed=5)
        splits = [cases[:5], cases[5:6], cases[6:]]

        together = solver.solve_batch(cases)
        singly = [solver.solve_batch([case])[0] for case in cases]
        split = [field for part in splits for field in solver.solve_batch(part)]
        for a, b, c in zip(together, singly, split):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.values, c.values)

        maps = solver.solve_layer_maps(cases)
        assert np.array_equal(maps, np.concatenate([solver.solve_layer_maps([c]) for c in cases]))
        assert np.array_equal(maps, np.concatenate([solver.solve_layer_maps(p) for p in splits]))


class TestWarmPath:
    def test_basis_build_is_one_factorisation_and_one_back_substitution(
        self, count_solver_calls
    ):
        """The name predates the separable solve and is kept so the test's id
        stays stable: the basis is one separable build, with no matrix
        assembled, no factorisation and no back-substitution."""
        calls = count_solver_calls()
        solver = FVMSolver(get_chip("chip1"), nx=12)
        solver.block_basis()
        assert calls == {"factorize": 0, "backsub": 0, "separable": 1}
        assert solver._prepared is None
        assert solver.prepare().factor is None

    def test_warm_calls_neither_factorise_nor_back_substitute(self, count_solver_calls):
        chip = get_chip("chip2")
        solver = FVMSolver(chip, nx=12)
        solver.block_basis()
        plane = SerialPlane()
        generate_dataset(DatasetSpec("chip2", 12, 4, seed=1), plane=plane)

        calls = count_solver_calls()
        cases = _cases(chip, 8)
        solver.solve_batch(cases)
        solver.solve_layer_maps(cases)
        generate_dataset(DatasetSpec("chip2", 12, 8, seed=2), plane=plane)
        assert calls == {"factorize": 0, "backsub": 0, "separable": 0}
        assert solver.prepare().factor is None
