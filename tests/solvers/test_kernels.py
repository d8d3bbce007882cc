"""The steady solver's one kernel path.

* direct CSC assembly is **bitwise** equal to the COO reference assembly;
* :func:`~repro.solvers.factorize` is sparse LU, and its factor keeps the
  bound ``SuperLU.solve`` whose stored entries size each back-substitution;
* it factorises the SPD system symmetrically (minimum-degree ordering on
  ``A^T + A``, diagonal pivots): at most 60 % of a default COLAMD
  ``splu``'s fill, residuals of 1e-12 or better, and block bases within
  1e-12 relative of COLAMD-built ones;
* the factor is transient: ``prepare()`` and ``block_basis()`` leave none
  resident, only ``solve()`` keeps one;
* the backward-Euler system is factorised the same way and stays CSC;
* a float64 ``solve_batch`` is batch-invariant bitwise and within 1e-9 K
  of per-case ``solve`` answers.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.chip.designs import get_chip
from repro.solvers import fvm as fvm_module
from repro.solvers import (
    FVMSolver,
    SOLVER_VERSION,
    SPDFactor,
    TransientFVMSolver,
    factorize,
)


def _uniform_assignment(chip, total):
    names = chip.flat_block_names()
    return {name: total / len(names) for name in names}


class TestFactorizationSelection:
    def test_factorize_runs_the_platform_kernel(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=8)
        matrix, _, _ = solver._assemble_system(solver.geometry)
        factor = factorize(matrix)
        assert isinstance(factor, SPDFactor)
        assert isinstance(factor._solve.__self__, sparse_linalg.SuperLU)
        rhs = np.linspace(1.0, 2.0, matrix.shape[0])
        assert np.abs(matrix @ factor.solve(rhs) - rhs).max() < 1e-9

    def test_solver_version_bumped_for_kernel_tier(self):
        assert SOLVER_VERSION == "5"


def _colamd_factorize(matrix):
    """SuperLU's defaults: COLAMD column ordering and partial pivoting."""
    return SPDFactor(sparse_linalg.splu(matrix).solve)


def _relative_residual(matrix, factor):
    rhs = np.random.default_rng(0).standard_normal(matrix.shape[0])
    return np.linalg.norm(matrix @ factor.solve(rhs) - rhs) / np.linalg.norm(rhs)


class TestSymmetricOrdering:
    """``factorize`` treats the conduction system as the SPD matrix it is."""

    def test_fill_is_at_most_60_percent_of_colamd(self):
        matrix = FVMSolver(get_chip("chip2"), nx=32).prepare().matrix
        symmetric = factorize(matrix)._solve.__self__.nnz
        colamd = sparse_linalg.splu(matrix).nnz
        assert symmetric <= 0.6 * colamd  # measured 0.45

    def test_steady_residual_at_res_48(self):
        matrix = FVMSolver(get_chip("chip2"), nx=48).prepare().matrix
        assert _relative_residual(matrix, factorize(matrix)) <= 1e-12

    def test_backward_euler_residual(self):
        chip = get_chip("chip2")
        solver = TransientFVMSolver(chip, nx=32)
        dt_s = 0.002
        solver.solve(_uniform_assignment(chip, 40.0), duration_s=dt_s, dt_s=dt_s)
        system = sparse.diags(solver._capacity / dt_s) + solver._steady.prepare().matrix
        assert _relative_residual(system, solver._factor_cache[1]) <= 1e-12

    @pytest.mark.parametrize("chip_name", ["chip1", "chip2", "chip3"])
    def test_basis_matches_colamd_built_basis(self, monkeypatch, chip_name):
        chip = get_chip(chip_name)
        basis = FVMSolver(chip, nx=32).block_basis()
        monkeypatch.setattr(fvm_module, "factorize", _colamd_factorize)
        reference = FVMSolver(chip, nx=32).block_basis()
        for ours, theirs in ((basis.fields, reference.fields),
                             (basis.layer_maps, reference.layer_maps)):
            assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()


class TestCSCAssembly:
    def test_bitwise_equal_to_coo_reference(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=10, cells_per_layer=2)
        matrix, rhs, volumes = solver._assemble_system(solver.geometry)
        legacy, legacy_rhs, legacy_volumes = solver._assemble_system_coo(solver.geometry)
        legacy_csc = legacy.tocsc()
        legacy_csc.sort_indices()
        assert matrix.format == "csc"
        assert np.array_equal(matrix.indptr, legacy_csc.indptr)
        assert np.array_equal(matrix.indices, legacy_csc.indices)
        assert np.array_equal(matrix.data, legacy_csc.data)
        assert np.array_equal(rhs, legacy_rhs)
        assert np.array_equal(volumes, legacy_volumes)

    def test_indices_sorted_and_duplicate_free(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=6, cells_per_layer=1)
        matrix, _, _ = solver._assemble_system(solver.geometry)
        assert matrix.has_sorted_indices
        for column in range(matrix.shape[1]):
            rows = matrix.indices[matrix.indptr[column]:matrix.indptr[column + 1]]
            assert np.all(np.diff(rows) > 0)

    def test_prepared_matrix_is_csc(self, tiny_chip):
        solver = FVMSolver(tiny_chip, nx=8)
        prepared = solver.prepare()
        assert prepared.matrix.format == "csc"
        assert prepared.factor is None
        solver.block_basis()
        assert solver.prepare().factor is None
        solver.solve(_uniform_assignment(tiny_chip, 10.0))
        assert solver.prepare().factor is not None


class TestKernelEquivalence:
    def test_transient_euler_factor_uses_selected_kernel(self, tiny_chip):
        solver = TransientFVMSolver(tiny_chip, nx=8)
        solver.solve(_uniform_assignment(tiny_chip, 20.0), duration_s=0.01, dt_s=0.002)
        euler = solver._factor_cache[1]
        assert isinstance(euler, SPDFactor)
        assert isinstance(euler._solve.__self__, sparse_linalg.SuperLU)

    def test_transient_euler_matrix_stays_csc(self, tiny_chip):
        solver = TransientFVMSolver(tiny_chip, nx=8)
        list(solver.iter_steps(_uniform_assignment(tiny_chip, 10.0), 0.004, 0.002))
        assert solver._steady.prepare().matrix.format == "csc"


class TestFloat32Modes:
    """Batch solves run in float64 only; they must not drift from single solves."""

    def test_float64_batch_matches_sequential_solves(self, tiny_chip):
        """A batch answer is bitwise its batch-of-one answer (batch
        invariance) and within 1e-9 K of direct back-substitution."""
        assignments = [
            _uniform_assignment(tiny_chip, total) for total in (12.0, 30.0)
        ]
        solver = FVMSolver(tiny_chip, nx=12)
        batched = solver.solve_batch(assignments)
        for assignment, batch_field in zip(assignments, batched):
            alone = solver.solve_batch([assignment])[0]
            assert np.array_equal(alone.values, batch_field.values)
            single = solver.solve(assignment)
            np.testing.assert_allclose(batch_field.values, single.values, rtol=0, atol=1e-9)
