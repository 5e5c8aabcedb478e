"""Sparse linear solvers for the segregated solver.

Both systems of a step live on one sparsity pattern per mesh: the
diagonal plus the owner/neighbour pair of every internal face.
``Pattern`` builds that CSR structure once, and the CSR matrices on it;
each step overwrites their values in place (``Pattern.fill``), so no step
sorts or merges coordinates or constructs a sparse matrix.

On 2D meshes ``band_order`` computes once a reverse Cuthill-McKee
ordering of the pattern (Cuthill & McKee, 1969), in which the matrix is
banded with a narrow bandwidth k. While the banded LU work n k^2 stays
within ``BAND_MAX_WORK``, each step makes a LAPACK banded LU (``factor``,
``dgbtrf``) of the momentum matrix, whose components share one solve, and
a banded Cholesky factor (``cholesky``, ``dpbtrf``) of the symmetric
positive definite pressure matrix, which every pressure corrector of the
step reuses. On wider 2D bands the pressure factor is a sparse LU
(``sparse_factor``), again shared by the correctors, and momentum is
iterative. The iterations: pressure (SPD, 3D meshes) uses
Jacobi-preconditioned conjugate gradients and momentum (mildly
non-symmetric, diagonal rho V / dt > 0) Jacobi-preconditioned BiCGStab;
both fall back to a sparse LU when they do not converge.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..errors import SolverFailure

# Largest n k^2 (cells times squared RCM bandwidth) that ``band_order``
# accepts. Timed on bifurcation meshes of resolution 8-64, one host: the
# banded pressure factor plus four solves beat ``sparse_factor`` up to
# n k^2 = 3.4e7 (16 against 24 ms per step there), tied at 5.2e7 and lost
# from 7.7e7 on (54 against 45 ms). Below the bound the banded momentum
# solve ran from 5x faster to 1.5x slower than Jacobi-BiCGStab, and both
# systems together were faster banded at every size tried.
BAND_MAX_WORK = 4e7


class Pattern:
    """Fixed CSR structure of an n x n matrix.

    ``rows``/``cols`` list every entry the pattern may hold, in any order
    and with repeats; ``indptr``/``indices`` are the sorted, merged CSR
    structure.
    """

    def __init__(self, n, rows, cols):
        self.shape = (n, n)
        # row-major keys: sorted, they are the CSR slot order
        self._keys = np.unique(np.asarray(rows) * n + cols)
        self.indices = self._keys % n
        self.indptr = np.searchsorted(self._keys // n, np.arange(n + 1))
        self.nnz = len(self._keys)

    def slots(self, rows, cols):
        """Data slot of each (row, col) entry; every entry must be in the
        pattern."""
        return np.searchsorted(self._keys, np.asarray(rows) * self.shape[0]
                               + cols)

    def matrix(self):
        """A zero CSR matrix on this pattern, to be filled by ``fill``."""
        return sp.csr_matrix((np.zeros(self.nnz), self.indices, self.indptr),
                             shape=self.shape)

    def fill(self, A, slots, vals):
        """Overwrite the values of ``A`` (from ``matrix``) with ``vals``
        summed into ``slots``; returns ``A``."""
        A.data[:] = np.bincount(slots, weights=vals, minlength=self.nnz)
        return A


class BandOrder:
    """Reverse Cuthill-McKee ordering of a structurally symmetric CSR
    pattern, its bandwidth ``k``, the position of every CSR slot in LAPACK
    (3k + 1, n) band storage for the LU, and of every upper-triangle slot
    in (k + 1, n) storage for the Cholesky factor (Fortran order,
    flattened)."""

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        ones = np.ones(len(indices))
        self.perm = reverse_cuthill_mckee(
            sp.csr_matrix((ones, indices, indptr), shape=(n, n)),
            symmetric_mode=True).astype(np.int64)
        pos = np.empty(n, dtype=np.int64)
        pos[self.perm] = np.arange(n)
        i = pos[np.repeat(np.arange(n), np.diff(indptr))]
        j = pos[indices]
        self.n = n
        self.k = int(np.abs(i - j).max(initial=0))
        self.ldab = 3 * self.k + 1
        # A[i, j] sits at ab[2k + i - j, j] (kl = ku = k)
        self.at = (2 * self.k + i - j) + j * self.ldab
        # upper triangle: A[i, j] (i <= j) sits at ab[k + i - j, j]
        self.upper = np.flatnonzero(i <= j)
        self.at_upper = ((self.k + i - j) + j * (self.k + 1))[self.upper]

    def band(self, A):
        """``A`` (CSR, this pattern) permuted and in band storage; the
        first k rows are left zero for the fill of the LU."""
        ab = np.zeros(self.ldab * self.n)
        ab[self.at] = A.data
        return ab.reshape((self.ldab, self.n), order="F")

    def upper_band(self, A):
        """The upper triangle of the symmetric ``A`` (CSR, this pattern)
        permuted and in (k + 1, n) band storage."""
        ab = np.zeros((self.k + 1) * self.n)
        ab[self.at_upper] = A.data[self.upper]
        return ab.reshape((self.k + 1, self.n), order="F")


class BandFactor:
    """Banded factor of a matrix in ``BandOrder``; ``solve`` takes one or
    more right-hand side columns in the original ordering."""

    name = ""

    def __init__(self, order):
        self.order = order

    def solve(self, b):
        perm = self.order.perm
        x, info = self._solve(b[perm])
        if info != 0:
            raise SolverFailure(
                f"banded {self.name} solve failed (info={info})")
        out = np.empty_like(x)
        out[perm] = x
        return out


class BandLU(BandFactor):
    name = "LU"

    def __init__(self, lu, piv, order):
        super().__init__(order)
        self.lu, self.piv = lu, piv

    def _solve(self, b):
        k = self.order.k
        return dgbtrs(self.lu, k, k, b, self.piv, overwrite_b=1)


class BandCholesky(BandFactor):
    name = "Cholesky"

    def __init__(self, c, order):
        super().__init__(order)
        self.c = c

    def _solve(self, b):
        return dpbtrs(self.c, b, overwrite_b=1)


def band_order(indptr, indices):
    """``BandOrder`` of a CSR pattern, or None when its banded LU work
    n k^2 exceeds ``BAND_MAX_WORK``."""
    order = BandOrder(indptr, indices)
    return order if order.n * order.k ** 2 <= BAND_MAX_WORK else None


def factor(A, order):
    """Banded LU of the CSR matrix ``A`` in ``order``, the ``BandOrder``
    of its pattern; SolverFailure if singular."""
    lu, piv, info = dgbtrf(order.band(A), order.k, order.k, overwrite_ab=1)
    if info != 0:
        raise SolverFailure(f"LU factorization failed (info={info})")
    return BandLU(lu, piv, order)


def cholesky(A, order):
    """Banded Cholesky factor of the symmetric positive definite CSR matrix
    ``A`` in ``order``, the ``BandOrder`` of its pattern; SolverFailure if
    ``A`` is not positive definite."""
    c, info = dpbtrf(order.upper_band(A), overwrite_ab=1)
    if info != 0:
        raise SolverFailure(f"Cholesky factorization failed (info={info})")
    return BandCholesky(c, order)


def sparse_factor(A):
    """Sparse LU of ``A``; SolverFailure if it is singular."""
    try:
        return spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverFailure(f"LU factorization failed: {exc}")


def _jacobi(A):
    d = A.diagonal()
    return spla.LinearOperator(A.shape, lambda v: v / d)


def solve_cg(A, b, x0=None, tol=1e-6, maxiter=5000, lu=None):
    """Solve the SPD system A x = b.

    With ``lu`` (a factor of ``A`` from ``cholesky``, ``factor`` or
    ``sparse_factor``) the solve is direct.
    Otherwise Jacobi-preconditioned CG, converged against the initial
    residual (not ||b||) so that large boundary source terms do not mask
    a poorly solved interior; LU fallback, SolverFailure on divergence.
    """
    if lu is not None:
        return lu.solve(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0 and x0 is None:
        return np.zeros_like(b)
    r0 = np.linalg.norm(b if x0 is None else b - A @ x0)
    if r0 == 0.0:
        return np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    x, info = spla.cg(A, b, x0=x0, rtol=0.0, atol=tol * r0, M=_jacobi(A),
                      maxiter=maxiter)
    if info != 0:
        res = float(np.linalg.norm(b - A @ x) / r0)
        try:
            return spla.splu(A.tocsc()).solve(b)
        except RuntimeError:
            raise SolverFailure(f"pressure CG diverged (info={info})", [res])
    return x


def solve_bicgstab(A, B, x0=None, tol=1e-6, maxiter=2000, lu=None):
    """Solve A x = b for each column of B.

    With ``lu`` (a factor of ``A`` from ``factor``) all columns are one
    direct solve. Otherwise Jacobi-preconditioned BiCGStab per column
    (shared matrix and preconditioner, one LU fallback shared by the
    columns that stall).
    """
    B = np.atleast_2d(B.T).T
    if lu is not None:
        return lu.solve(B)
    X = np.empty_like(B, dtype=float)
    M = _jacobi(A)
    fallback = None
    for j in range(B.shape[1]):
        b = B[:, j]
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            X[:, j] = 0.0
            continue
        xj0 = None if x0 is None else x0[:, j]
        r0 = bnorm if xj0 is None else np.linalg.norm(b - A @ xj0)
        if r0 == 0.0:
            X[:, j] = xj0
            continue
        x, info = spla.bicgstab(A, b, x0=xj0, rtol=0.0, atol=tol * r0,
                                M=M, maxiter=maxiter)
        if info != 0:
            if fallback is None:
                try:
                    fallback = spla.splu(A.tocsc())
                except RuntimeError:
                    raise SolverFailure(
                        f"momentum solve failed (info={info}) and LU fallback failed",
                        [float(np.linalg.norm(b - A @ x) / bnorm)])
            x = fallback.solve(b)
        X[:, j] = x
    return X
