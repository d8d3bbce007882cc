"""SPD factorization of the conduction system.

The steady conduction matrix (and the backward-Euler system ``C/dt + A``
built on top of it) is symmetric positive definite: every off-diagonal is a
negative face conductance, every diagonal dominates its row, and the Robin
boundary rows keep the system strictly definite.  :func:`factorize` is the
one place a factorisation is made: sparse LU via
:func:`scipy.sparse.linalg.splu`, wrapped in an :class:`SPDFactor`.
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
    """Factorise one SPD system with sparse LU.

    ``matrix`` should already be CSC (the assembly path produces CSC
    directly); other formats are converted — paying the copy the CSC
    assembly exists to avoid — so hot paths must hand CSC in.
    """
    csc = matrix if sparse.issparse(matrix) and matrix.format == "csc" else matrix.tocsc()
    return SPDFactor(sparse_linalg.splu(csc).solve)
