"""The separable solve behind every block basis, against independent oracles.

* each basis column, as the temperature field under 1 W on its block,
  agrees with :meth:`FVMSolver.solve` (sparse LU on the assembled matrix)
  within 1e-12 relative, on chips 1-3 at two resolutions and three vertical
  refinements and on one grid with ``nx != ny``;
* each column satisfies the assembled system of
  :meth:`FVMSolver._assemble_system`: ``|A g_b - s_b|_inf / |s_b|_inf``
  is at most 1e-11;
* the cosine modes are orthonormal eigenvectors of the Neumann Laplacian;
* a geometry with a laterally varying conductivity is refused.
"""

import numpy as np
import pytest

from repro.chip.designs import get_chip
from repro.solvers import FVMSolver
from repro.solvers.separable import SeparableConduction, neumann_modes

GRIDS = [
    (chip, resolution, resolution, cells_per_layer)
    for chip in ("chip1", "chip2", "chip3")
    for resolution in (12, 32)
    for cells_per_layer in (1, 2, 3)
] + [("chip2", 20, 12, 2)]


def _grid_id(grid):
    chip, nx, ny, cells_per_layer = grid
    return f"{chip}-{nx}x{ny}-c{cells_per_layer}"


@pytest.fixture(scope="module", params=GRIDS, ids=_grid_id)
def built(request):
    chip, nx, ny, cells_per_layer = request.param
    solver = FVMSolver(get_chip(chip), nx=nx, ny=ny, cells_per_layer=cells_per_layer)
    return solver, solver.block_basis()


def test_columns_agree_with_direct_solve(built):
    solver, basis = built
    for row, name in enumerate(basis.names):
        direct = solver.solve({name: 1.0}).values.ravel()
        column = basis.ambient_K + basis.fields[row]
        assert np.abs(column - direct).max() <= 1e-12 * np.abs(direct).max(), name


def test_columns_satisfy_the_assembled_system(built):
    solver, basis = built
    matrix, _, volumes = solver._assemble_system(solver.geometry)
    for row, name in enumerate(basis.names):
        source = (solver.geometry.rasterize_power({name: 1.0}) * volumes).ravel()
        residual = matrix @ basis.fields[row] - source
        assert np.abs(residual).max() <= 1e-11 * np.abs(source).max(), name


@pytest.mark.parametrize("n", [1, 2, 7, 48])
def test_cosine_modes_diagonalise_the_neumann_laplacian(n):
    laplacian = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    laplacian[0, 0] = laplacian[-1, -1] = 1.0 if n > 1 else 0.0
    modes, eigenvalues = neumann_modes(n)
    np.testing.assert_allclose(modes.T @ modes, np.eye(n), rtol=0, atol=1e-14)
    np.testing.assert_allclose(laplacian @ modes, modes * eigenvalues, rtol=0, atol=1e-13)


def test_laterally_varying_plane_is_refused():
    solver = FVMSolver(get_chip("chip1"), nx=12)
    geometry = solver.geometry
    geometry.conductivity = geometry.conductivity.copy()
    geometry.conductivity[2, 5, 7] *= 1.5
    with pytest.raises(ValueError, match="z-plane 2 .* laterally varying"):
        solver.block_basis()
    with pytest.raises(ValueError, match="z-plane 2"):
        SeparableConduction(geometry)
