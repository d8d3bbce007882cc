"""Exact separable solve of the conduction system, steady or backward Euler.

:func:`~repro.solvers.voxelize.build_geometry` fills every vertical cell
plane with one conductivity, the in-plane grid is uniform, the lateral
faces are adiabatic and the top and bottom Robin conductances are the same
under every cell.  The conduction matrix of
:meth:`~repro.solvers.fvm.FVMSolver._assemble_system` is then a sum of
Kronecker products (z slowest, x fastest)::

    A = T_z (x) I_y (x) I_x  +  diag(c_x) (x) I_y (x) L_x  +  diag(c_y) (x) L_y (x) I_x

where ``T_z`` is the ``nz x nz`` tridiagonal of the vertical face and Robin
conductances, ``c_x[z]`` / ``c_y[z]`` are plane ``z``'s in-plane face
conductances and ``L_x`` / ``L_y`` are the 1-D Neumann Laplacians
(``tridiag(-1, 2, -1)`` with 1 in both corners).  The orthonormal cosine
modes ``C[i, k] = w_k cos(pi k (i + 1/2) / n)`` diagonalise ``L`` with
eigenvalues ``4 sin^2(pi k / 2n)``, so in mode space ``A`` falls apart into
one ``nz x nz`` symmetric positive definite tridiagonal system per in-plane
mode ``(k_y, k_x)``::

    (T_z + diag(c_x lambda_kx + c_y lambda_ky)) u = C_y^T s C_x

(Hockney's fast Poisson method, J. ACM 12(1), 1965).  Heat capacity is one
number per plane too, so the backward-Euler operator ``C/dt + A`` of the
transient solver has the same form with ``C_z/dt`` added to ``T_z``'s
diagonal (the ``inertia`` argument).  A solve is two GEMMs
into mode space, one forward and one backward Thomas sweep over ``z``
(vectorised across every mode and right-hand side), and two GEMMs back.
The solve is exact: it differs from sparse LU on the assembled matrix only
by rounding (measured ≤ 1.6e-13 relative on chips 1-3).

Thomas elimination needs no pivoting here: every mode's system is
symmetric, diagonally dominant and positive definite, so the pivots are
positive and the recurrence is backward stable.

A geometry whose conductivity varies inside a plane (laterally varying TSV
density, per-block materials) is not separable; :class:`SeparableConduction`
raises :class:`ValueError` for it.  Non-uniform cooling would break the
same structure through the Robin terms; ``DESIGN.md`` discusses both.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solvers.voxelize import GridGeometry


def neumann_modes(n: int):
    """Orthonormal cosine modes of the ``n``-cell Neumann Laplacian.

    Returns ``(modes, eigenvalues)``: ``modes[:, k]`` is mode ``k`` (column
    ``k`` of an ``n x n`` orthogonal matrix) and ``eigenvalues[k] = 4
    sin^2(pi k / 2n)`` its eigenvalue, ascending from the constant mode's 0.
    """
    k = np.arange(n)
    modes = np.cos(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    modes *= np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    eigenvalues = 4.0 * np.sin(np.pi * k / (2 * n)) ** 2
    return modes, eigenvalues


class SeparableConduction:
    """The conduction operator of one geometry, diagonalised in-plane.

    Built once per geometry: the per-plane face and Robin conductances (the
    formulas of ``FVMSolver._assemble_system``), the cosine modes in ``x``
    and ``y`` as dense matrices, and each mode's Thomas pivots.
    :meth:`solve` then answers any stack of right-hand sides.

    Parameters
    ----------
    geometry:
        The voxelised chip.
    inertia:
        Optional per-plane term added to every cell's diagonal, shape
        ``(nz,)`` in W/K: the backward-Euler ``C_z / dt``, making the
        operator ``C/dt + A`` instead of the steady ``A``.

    Raises
    ------
    ValueError
        If any z-plane's conductivity is not uniform, so the operator is
        not separable.
    """

    def __init__(self, geometry: GridGeometry, inertia: Optional[np.ndarray] = None):
        chip = geometry.chip
        nz, ny, nx = geometry.nz, geometry.ny, geometry.nx
        k = geometry.conductivity[:, 0, 0]
        uneven = np.flatnonzero(
            (geometry.conductivity != k[:, None, None]).reshape(nz, -1).any(axis=1)
        )
        if uneven.size:
            raise ValueError(
                f"z-plane {int(uneven[0])} of the '{chip.name}' geometry has a "
                f"laterally varying conductivity; the separable solve needs one "
                f"conductivity per plane"
            )
        dx, dy, dz = geometry.dx_m, geometry.dy_m, geometry.dz_m
        face_area = dx * dy
        #: Cell volumes, shape ``(nz, 1, 1)``: a volumetric heat source
        #: times these is the right-hand side :meth:`solve` takes.
        self.cell_volumes = face_area * dz[:, None, None]

        # A face between two cells of one plane conducts with the plane's own
        # conductivity (the harmonic mean of two equal values).
        c_x = k * (dy * dz) / dx
        c_y = k * (dx * dz) / dy
        # Vertical faces: series conduction through the two half-cells.
        g = face_area / ((0.5 * dz[:-1]) / k[:-1] + (0.5 * dz[1:]) / k[1:])
        diagonal = np.zeros(nz)
        diagonal[:-1] += g
        diagonal[1:] += g
        top_htc = chip.cooling.effective_top_htc(chip.die_area_m2)
        diagonal[-1] += face_area / ((0.5 * dz[-1]) / k[-1] + 1.0 / top_htc)
        bottom_htc = chip.cooling.secondary_htc
        if bottom_htc > 0:
            diagonal[0] += face_area / ((0.5 * dz[0]) / k[0] + 1.0 / bottom_htc)
        if inertia is not None:
            diagonal += inertia

        self._cx, lambda_x = neumann_modes(nx)
        self._cy, lambda_y = neumann_modes(ny)
        # Mode (k_y, k_x)'s diagonal, shape (nz, ny, nx), then its pivots.
        shifted = (
            diagonal[:, None, None]
            + c_x[:, None, None] * lambda_x
            + c_y[:, None, None] * lambda_y[:, None]
        )
        pivots = np.empty_like(shifted)
        pivots[0] = shifted[0]
        for z in range(1, nz):
            pivots[z] = shifted[z] - g[z - 1] ** 2 / pivots[z - 1]
        self._couplings = g
        self._pivots = pivots

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A u = rhs`` (``(C/dt + A) u = rhs`` with ``inertia``) for
        a stack of right-hand sides.

        ``rhs`` has shape ``(..., nz, ny, nx)``, in the cell order of the
        assembled system; the answer has the same shape.
        """
        g, pivots = self._couplings, self._pivots
        modes = self._cy.T @ rhs @ self._cx
        for z in range(1, len(pivots)):
            modes[..., z, :, :] += (g[z - 1] / pivots[z - 1]) * modes[..., z - 1, :, :]
        modes[..., -1, :, :] /= pivots[-1]
        for z in range(len(pivots) - 2, -1, -1):
            modes[..., z, :, :] += g[z] * modes[..., z + 1, :, :]
            modes[..., z, :, :] /= pivots[z]
        return self._cy @ modes @ self._cx.T
