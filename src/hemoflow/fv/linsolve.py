"""Sparse linear solvers for the segregated solver.

Both systems of a step live on one sparsity pattern per mesh: the
diagonal plus the owner/neighbour pair of every internal face.
``Pattern`` builds that CSR structure once, and the CSR matrices on it;
each step overwrites their values in place (``Pattern.fill``), so no step
sorts or merges coordinates or constructs a sparse matrix.

``system_solvers`` is where the method of each system is chosen, once
per mesh. It returns one solver object per system; a step calls
``factor(A)`` on it with the step's matrix, then solves through
``solve_bicgstab`` (momentum) or ``solve_cg`` (pressure), one call per
solve whatever the method:

    mesh                    momentum          pressure
    2D, narrow RCM band     BandLU            BandCholesky
    2D, wide RCM band       JacobiBiCGStab    SparseLU
    3D                      JacobiBiCGStab    TwoGrid (CG)

On 2D meshes ``band_order`` computes a reverse Cuthill-McKee ordering of
the pattern (Cuthill & McKee, 1969), in which the matrix is banded with a
narrow bandwidth k. While the banded LU work n k^2 stays within
``BAND_MAX_WORK``, each step makes a LAPACK banded LU (``dgbtrf``) of the
momentum matrix, whose components share one solve, and a banded Cholesky
factor (``dpbtrf``) of the symmetric positive definite pressure matrix,
which every pressure corrector of the step reuses. On wider 2D bands the
pressure factor is a sparse LU, again shared by the correctors: per step
it beat the two-grid CG below on bifurcations of 11000-28000 cells.

On 3D meshes the pressure is solved by conjugate gradients preconditioned
with ``TwoGrid``, a symmetric aggregation two-grid cycle (Notay, ETNA 37,
2010): Jacobi smoothing on the fine grid and an exact solve on aggregates
of cells, whose small banded Cholesky factor is lagged across steps
(Knoll & Keyes, JCP 193, 2004). The aggregates depend only on the mesh,
so the solver builds them once. Momentum (mildly non-symmetric, diagonal
rho V / dt > 0) uses Jacobi-preconditioned BiCGStab. Both Krylov solvers
share one guard (``Krylov.solve``) and fall back to a sparse LU when they
do not converge.
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
# banded pressure factor plus four solves beat ``SparseLU`` up to
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


def band_order(indptr, indices):
    """``BandOrder`` of a CSR pattern, or None when its banded LU work
    n k^2 exceeds ``BAND_MAX_WORK``."""
    order = BandOrder(indptr, indices)
    return order if order.n * order.k ** 2 <= BAND_MAX_WORK else None


class BandFactor:
    """Banded factor of each step's matrix in ``order``, the ``BandOrder``
    of its pattern; ``solve`` takes one or more right-hand side columns in
    the original ordering."""

    name = ""

    def __init__(self, order):
        self.order = order

    def factor(self, A):
        """Factor ``A`` (CSR, the order's pattern); SolverFailure if it is
        singular or, for the Cholesky factor, not positive definite."""
        self.A = A
        info = self._factor(A)
        if info != 0:
            raise SolverFailure(
                f"{self.name} factorization failed (info={info})")
        return self

    def solve(self, B, x0=None, tol=None, maxiter=None):
        perm = self.order.perm
        x, info = self._solve(B[perm])
        if info != 0:
            raise SolverFailure(
                f"banded {self.name} solve failed (info={info})")
        out = np.empty_like(x)
        out[perm] = x
        return out


class BandLU(BandFactor):
    name = "LU"

    def _factor(self, A):
        k = self.order.k
        self.lu, self.piv, info = dgbtrf(self.order.band(A), k, k,
                                         overwrite_ab=1)
        return info

    def _solve(self, b):
        k = self.order.k
        return dgbtrs(self.lu, k, k, b, self.piv, overwrite_b=1)


class BandCholesky(BandFactor):
    name = "Cholesky"

    def _factor(self, A):
        self.c, info = dpbtrf(self.order.upper_band(A), overwrite_ab=1)
        return info

    def _solve(self, b):
        return dpbtrs(self.c, b, overwrite_b=1)


class SparseLU:
    """Sparse LU of each step's matrix; SolverFailure if it is
    singular."""

    def factor(self, A):
        self.A = A
        try:
            self.lu = spla.splu(A.tocsc())
        except RuntimeError as exc:
            raise SolverFailure(f"LU factorization failed: {exc}")
        return self

    def solve(self, B, x0=None, tol=None, maxiter=None):
        return self.lu.solve(B)


class Krylov:
    """A system solved by a preconditioned Krylov method. Subclasses give
    ``name`` and ``_iterate(b, x0, atol, maxiter)``, which returns (x,
    info) as ``scipy.sparse.linalg.cg``."""

    name = ""

    def factor(self, A):
        self.A = A

    def solve(self, B, x0=None, tol=1e-6, maxiter=5000):
        """Solve A x = b for ``B``, one vector or columns, from ``x0``
        (zero if None): each column to ``tol`` times its initial residual
        r0, not ||b||, so that large boundary source terms do not mask a
        poorly solved interior. A zero b gives x = 0. Columns that do not
        converge, or whose r0 is not finite (they skip the iteration),
        share one sparse LU of A; SolverFailure if it fails too, with the
        column's ||b - A x|| / r0 at its last iterate.
        """
        A = self.A
        cols = B.reshape(len(B), -1)
        starts = None if x0 is None else x0.reshape(cols.shape)
        X = np.zeros(cols.shape)
        lu = None
        for j in range(cols.shape[1]):
            b = cols[:, j]
            if not b.any():
                continue
            x = None if starts is None else starts[:, j]
            r0 = np.linalg.norm(b if x is None else b - A @ x)
            if r0 == 0.0:
                X[:, j] = 0.0 if x is None else x
                continue
            info = "non-finite initial residual"
            if np.isfinite(r0):
                x, info = self._iterate(b, x, tol * r0, maxiter)
            if info == 0:
                X[:, j] = x
                continue
            if lu is None:
                try:
                    lu = spla.splu(A.tocsc())
                except RuntimeError:
                    r = b if x is None else b - A @ x
                    raise SolverFailure(
                        f"{self.name} failed (info={info}) and LU "
                        f"fallback failed", [float(np.linalg.norm(r) / r0)])
            X[:, j] = lu.solve(b)
        return X.reshape(B.shape)


class JacobiBiCGStab(Krylov):
    """BiCGStab with the diagonal of A as the preconditioner."""

    name = "BiCGStab"

    def factor(self, A):
        super().factor(A)
        d = A.diagonal()
        self._M = spla.LinearOperator(A.shape, lambda v: v / d, dtype=float)

    def _iterate(self, b, x0, atol, maxiter):
        return spla.bicgstab(self.A, b, x0=x0, rtol=0.0, atol=atol,
                             M=self._M, maxiter=maxiter)


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


class TwoGrid(Krylov):
    """CG on the SPD matrices of one ``Pattern``, preconditioned by a
    symmetric aggregation two-grid cycle with a lagged coarse factor.

    ``i``, ``j`` and ``w`` give the weight of every symmetric pair of
    off-diagonal entries (repeated pairs add up); the aggregates come from
    these weights alone, so they are built once. With P the
    piecewise-constant prolongation from the aggregates, one application
    of M^-1 to r is

        z = S r;  z += P A_c^-1 P^T (r - A z);  z += S (r - A z),

    with S = omega D^-1 and A_c = P^T A P: symmetric, and positive
    definite for an SPD ``A``. A_c is summed from ``A.data`` into its own
    fixed pattern, and its banded Cholesky factor is kept from solve to
    solve until a solve finds it stale.
    """

    name = "CG"

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
        self._factor = BandCholesky(self.order).factor(
            self.coarse_matrix(A))
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
        # with a dtype given, scipy does not probe the cycle to infer one
        return spla.LinearOperator(A.shape, cycle, dtype=float)

    def _iterate(self, b, x0, atol, maxiter):
        """The coarse factor is rebuilt when a solve takes more than
        REFACTOR_GROWTH times the iterations of the first solve after the
        last rebuild, and before one retry, from the last iterate, when a
        solve with a factor of an older matrix does not converge. A coarse
        matrix that cannot be factored (A singular) fails the iteration,
        at the last iterate, so the solve falls back to a sparse LU."""
        x, fresh = x0, self._factor is None
        try:
            x, info, iters = self._cg(b, x, atol, maxiter)
            if info != 0 and not fresh:
                self.refactor(self.A)
                x, info, iters = self._cg(b, x, atol, maxiter)
        except SolverFailure as failure:
            return x, f"coarse {failure}"
        if info == 0:
            if self._base_iters is None:
                self._base_iters = iters
            elif iters > REFACTOR_GROWTH * self._base_iters:
                self.refactor(self.A)
        return x, info

    def _cg(self, b, x0, atol, maxiter):
        iters = 0

        def count(_):
            nonlocal iters
            iters += 1
        x, info = spla.cg(self.A, b, x0=x0, rtol=0.0, atol=atol,
                          M=self.operator(self.A), maxiter=maxiter,
                          callback=count)
        return x, info, iters


def system_solvers(pattern, dim, owner, neigh, weights):
    """The (momentum, pressure) solvers of the two step systems on
    ``pattern``, by the table above; ``TwoGrid`` aggregates the cells by
    the ``weights`` of the faces between ``owner`` and ``neigh``."""
    if dim == 3:
        return JacobiBiCGStab(), TwoGrid(pattern, owner, neigh, weights)
    order = band_order(pattern.indptr, pattern.indices)
    if order is None:
        return JacobiBiCGStab(), SparseLU()
    return BandLU(order), BandCholesky(order)


def solve_cg(system, b, x0=None, tol=1e-6, maxiter=5000):
    """One pressure solve: ``system`` (from ``system_solvers``, factored
    for this step's matrix) solves for ``b``. The step solves only through
    this and ``solve_bicgstab``, by which names perfbench/tracing.py counts
    the solves of each system, direct ones included."""
    return system.solve(b, x0, tol, maxiter)


def solve_bicgstab(system, B, x0=None, tol=1e-6, maxiter=2000):
    """One momentum solve, for every velocity component (column of
    ``B``) at once."""
    return system.solve(B, x0, tol, maxiter)
