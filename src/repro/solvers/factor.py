"""SPD factorization kernel for the conduction system.

The steady conduction matrix (and the backward-Euler system ``C/dt + A``
built on top of it) is symmetric positive definite: every off-diagonal is a
negative face conductance, every diagonal dominates its row, and the Robin
boundary rows keep the system strictly definite.  A general-purpose
pivoting LU ignores all of that structure; a sparse Cholesky factorisation
exploits it — roughly half the factor flops and memory, and no pivoting.

This module is the only place that knows which kernel runs.  The platform
picks it once, at import: CHOLMOD Cholesky via ``sksparse.cholmod`` when
that package is importable, :func:`scipy.sparse.linalg.splu` otherwise.
:data:`KERNEL` names the choice.  The two kernels agree only to ~1e-9 K, so
dataset cache keys and fvm provenance embed it.
"""

from __future__ import annotations

from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

try:  # pragma: no cover - exercised only where scikit-sparse is installed
    from sksparse.cholmod import cholesky as _cholmod_cholesky

    KERNEL = "cholmod"
except ImportError:
    _cholmod_cholesky = None
    KERNEL = "lu"


class SPDFactor:
    """One factorised SPD system with a uniform ``solve`` surface."""

    def __init__(self, solve_fn):
        self._solve = solve_fn

    def solve(self, rhs):
        """Back-substitute one RHS vector or a stacked ``(n, B)`` matrix."""
        return self._solve(rhs)


def factorize(matrix: sparse.spmatrix) -> SPDFactor:
    """Factorise one SPD system with the platform's kernel (:data:`KERNEL`).

    ``matrix`` should already be CSC (the assembly path produces CSC
    directly); other formats are converted — paying the copy the CSC
    assembly exists to avoid — so hot paths must hand CSC in.
    """
    csc = matrix if sparse.issparse(matrix) and matrix.format == "csc" else matrix.tocsc()
    if KERNEL == "cholmod":
        return SPDFactor(_cholmod_cholesky(csc))
    return SPDFactor(sparse_linalg.splu(csc).solve)
