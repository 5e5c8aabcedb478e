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
iterative.

On 3D meshes the pressure is solved by conjugate gradients preconditioned
with ``TwoGrid``, a symmetric aggregation two-grid cycle (Notay, ETNA 37,
2010): Jacobi smoothing on the fine grid and an exact solve on aggregates
of cells, whose small banded Cholesky factor is lagged across steps
(Knoll & Keyes, JCP 193, 2004). The aggregates depend only on the mesh,
so the solver builds them once. Momentum (mildly non-symmetric, diagonal
rho V / dt > 0) uses Jacobi-preconditioned BiCGStab. Both Krylov solves
fall back to a sparse LU when they do not converge.
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

# The 3D pressure two-grid cycle. Face ij is a strong connection when its
# geometric weight w_ij >= AGG_THETA sqrt(d_i d_j), d the row sums of the
# weights. Over the 30 steps of the 8000-cell pipe (Re 500), theta 0.02,
# 0.05, 0.08, 0.10 and 0.15 gave 1137, 1320, 1474, 1535 and 2029
# aggregates (coarse bandwidth k 179-215) and 1340, 945, 828, 835 and 790
# CG iterations over the 60 solves. The coarse solve costs about n k per
# iteration, so 0.15 does more work for 5% fewer iterations; at 0.25 3840
# cells have no strong neighbour, and 5226 aggregates with k = 461 need a
# 19 MB factor.
AGG_THETA = 0.08
# Damping of the Jacobi smoother. The cycle is positive definite while
# omega < 2 / max eig(D^-1 A), which is >= 1 for the weakly diagonally
# dominant pressure matrix. On the same run omega 0.5, 2/3, 0.8 and 1.0
# took 920, 828, 788 and 1101 iterations; 2/3 keeps a margin from the
# smoothing loss at 1 on meshes other than this one.
SMOOTH_OMEGA = 2.0 / 3.0
# The lagged coarse factor is rebuilt when a solve takes more than this
# many times the iterations of the first solve after the last rebuild.
# On the same run the first step's factor held the solves at 12-15
# iterations, 828 in all against 829 with a fresh factor every step,
# while A moved 1.6e-3 relative: the rule only has to catch a matrix
# that changes a lot.
REFACTOR_GROWTH = 2


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


def aggregates(W):
    """Greedy aggregation of the graph of ``W`` (CSR, symmetric, weights
    >= 0 off the diagonal, zero on it); returns the aggregate of every
    row, numbered from 0.

    Entry ij is strong if w_ij >= AGG_THETA sqrt(d_i d_j), d the row sums
    of ``W``. In row order, a row whose strong neighbours are all still free
    seeds an aggregate with them (Vanek, Mandel & Brezina, Computing 56,
    1996). Every row left over then joins the first-pass aggregate that
    it is tied to most strongly in total, or starts its own when it has
    no neighbour in one.
    """
    n = W.shape[0]
    d = np.asarray(W.sum(axis=1)).ravel()
    rows = np.repeat(np.arange(n), np.diff(W.indptr))
    strong = (W.data > 0) & (W.data >= AGG_THETA * np.sqrt(d[rows]
                                                           * d[W.indices]))
    ptr = np.searchsorted(rows[strong], np.arange(n + 1)).tolist()
    nbrs = W.indices[strong].tolist()
    agg = [-1] * n
    na = 0
    for i in range(n):
        group = nbrs[ptr[i]:ptr[i + 1]]
        if agg[i] < 0 and all(agg[j] < 0 for j in group):
            agg[i] = na
            for j in group:
                agg[j] = na
            na += 1
    agg = np.array(agg, dtype=np.int64)
    left = np.flatnonzero(agg < 0)
    if len(left):
        done = np.flatnonzero(agg >= 0)
        P = sp.csr_matrix((np.ones(len(done)), (done, agg[done])),
                          shape=(n, na))
        # weight from each left row to each aggregate, strongest first
        ties = W[left] @ P
        r = np.repeat(np.arange(len(left)), np.diff(ties.indptr))
        k = np.lexsort((-ties.data, r))
        r, first = np.unique(r[k], return_index=True)
        join = na + np.arange(len(left))    # alone: a new aggregate
        join[r] = ties.indices[k[first]]
        agg[left] = join
        agg = np.unique(agg, return_inverse=True)[1]    # close the gaps
    return agg


class TwoGrid:
    """Symmetric aggregation two-grid preconditioner for CG on the SPD
    matrices of one ``Pattern``, with a lagged coarse factor.

    ``i``, ``j`` and ``w`` give the weight of every symmetric pair of
    off-diagonal entries (repeated pairs add up); the aggregates come from
    these weights alone, so they are built once. With P the
    piecewise-constant prolongation from the aggregates, one application
    of M^-1 to r is

        z = S r;  z += P A_c^-1 P^T (r - A z);  z += S (r - A z),

    with S = omega D^-1 and A_c = P^T A P: symmetric, and positive
    definite for an SPD ``A``. A_c is summed from ``A.data`` into its own
    fixed pattern, and its banded Cholesky factor is kept from solve to
    solve until ``solve`` finds it stale.
    """

    def __init__(self, pattern, i, j, w):
        n = pattern.shape[0]
        W = pattern.fill(pattern.matrix(), pattern.slots(
            np.concatenate([i, j]), np.concatenate([j, i])),
            np.concatenate([w, w]))
        self.aggregate = agg = aggregates(W)
        na = int(agg.max()) + 1
        rows = agg[np.repeat(np.arange(n), np.diff(pattern.indptr))]
        cols = agg[pattern.indices]
        self.coarse = Pattern(na, rows, cols)
        self._slots = self.coarse.slots(rows, cols)
        self._A_c = self.coarse.matrix()
        self.order = BandOrder(self.coarse.indptr, self.coarse.indices)
        # each fine row's aggregate, as its position in the band order:
        # restriction and prolongation then need no permutation
        pos = np.empty(na, dtype=np.int64)
        pos[self.order.perm] = np.arange(na)
        self._to_band = pos[agg]
        self._diag = pattern.slots(np.arange(n), np.arange(n))
        self._factor = None
        self._base_iters = None

    def coarse_matrix(self, A):
        """P^T A P, filled in place from ``A`` (CSR, this pattern)."""
        return self.coarse.fill(self._A_c, self._slots, A.data)

    def refactor(self, A):
        """Factor the coarse matrix of ``A``; the next solve sets the
        iteration count against which the factor is judged stale."""
        self._factor = cholesky(self.coarse_matrix(A), self.order)
        self._base_iters = None

    def operator(self, A):
        """M^-1 for ``A`` as a LinearOperator: the smoother uses the
        diagonal of ``A``, the coarse solve the current factor."""
        if self._factor is None:
            self.refactor(A)
        c = self._factor.c
        to_band = self._to_band
        na = self.order.n
        s = SMOOTH_OMEGA / A.data[self._diag]

        def cycle(r):
            z = s * r
            rc = np.bincount(to_band, weights=r - A @ z, minlength=na)
            e, info = dpbtrs(c, rc, overwrite_b=1)
            if info != 0:
                raise SolverFailure(
                    f"coarse Cholesky solve failed (info={info})")
            z += e[to_band]
            z += s * (r - A @ z)
            return z
        return spla.LinearOperator(A.shape, cycle)

    def solve(self, A, b, x0, atol, maxiter):
        """CG on A x = b to ``atol``, preconditioned by this cycle;
        returns (x, info) as ``scipy.sparse.linalg.cg``.

        The coarse factor is rebuilt when a solve takes more than
        REFACTOR_GROWTH times the iterations of the first solve after the
        last rebuild, and before one retry, from the last iterate, when a
        solve with a factor of an older matrix does not converge.
        """
        fresh = self._factor is None
        x, info, iters = self._cg(A, b, x0, atol, maxiter)
        if info != 0 and not fresh:
            self.refactor(A)
            x, info, iters = self._cg(A, b, x, atol, maxiter)
        if info == 0:
            if self._base_iters is None:
                self._base_iters = iters
            elif iters > REFACTOR_GROWTH * self._base_iters:
                self.refactor(A)
        return x, info

    def _cg(self, A, b, x0, atol, maxiter):
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1
        x, info = spla.cg(A, b, x0=x0, rtol=0.0, atol=atol,
                          M=self.operator(A), maxiter=maxiter,
                          callback=count)
        return x, info, iters


def _jacobi(A):
    d = A.diagonal()
    return spla.LinearOperator(A.shape, lambda v: v / d)


def solve_cg(A, b, x0=None, tol=1e-6, maxiter=5000, lu=None, two_grid=None):
    """Solve the SPD system A x = b.

    With ``lu`` (a factor of ``A`` from ``cholesky``, ``factor`` or
    ``sparse_factor``) the solve is direct.
    Otherwise CG, preconditioned by ``two_grid`` (a ``TwoGrid`` of the
    pattern of ``A``) or else by Jacobi, converged against the initial
    residual (not ||b||) so that large boundary source terms do not mask
    a poorly solved interior; LU fallback, taken without iterating when
    the initial residual is not finite (no iteration could converge);
    SolverFailure on divergence.
    """
    if lu is not None:
        return lu.solve(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0 and x0 is None:
        return np.zeros_like(b)
    r0 = np.linalg.norm(b if x0 is None else b - A @ x0)
    if r0 == 0.0:
        return np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if not np.isfinite(r0):
        x, info = None, "non-finite initial residual"
    elif two_grid is None:
        x, info = spla.cg(A, b, x0=x0, rtol=0.0, atol=tol * r0,
                          M=_jacobi(A), maxiter=maxiter)
    else:
        x, info = two_grid.solve(A, b, x0, tol * r0, maxiter)
    if info != 0:
        res = r0 if x is None else np.linalg.norm(b - A @ x) / r0
        try:
            return spla.splu(A.tocsc()).solve(b)
        except RuntimeError:
            raise SolverFailure(f"pressure CG diverged (info={info})", [float(res)])
    return x


def solve_bicgstab(A, B, x0=None, tol=1e-6, maxiter=2000, lu=None):
    """Solve A x = b for each column of B.

    With ``lu`` (a factor of ``A`` from ``factor``) all columns are one
    direct solve. Otherwise Jacobi-preconditioned BiCGStab per column
    (shared matrix and preconditioner, one LU fallback shared by the
    columns that stall and by those with a non-finite initial residual,
    which skip the iteration).
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
        if np.isfinite(r0):
            x, info = spla.bicgstab(A, b, x0=xj0, rtol=0.0, atol=tol * r0,
                                    M=M, maxiter=maxiter)
        else:
            x, info = None, "non-finite initial residual"
        if info != 0:
            if fallback is None:
                try:
                    fallback = spla.splu(A.tocsc())
                except RuntimeError:
                    res = r0 if x is None else np.linalg.norm(b - A @ x) / bnorm
                    raise SolverFailure(
                        f"momentum solve failed (info={info}) and LU fallback failed",
                        [float(res)])
            x = fallback.solve(b)
        X[:, j] = x
    return X
