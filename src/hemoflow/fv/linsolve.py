"""Sparse linear solvers for the segregated solver.

Both systems of a step live on one sparsity pattern per mesh: the
diagonal plus the owner/neighbour pair of every internal face.
``FacePattern`` builds that CSR structure once, and the CSR matrices on
it; each step overwrites their values in place with ``fill_faces``
(each face's two off-diagonal values added through its two slots, the
diagonal given per cell), so no step sorts or merges coordinates or
constructs a sparse matrix. ``Pattern.fill`` sums values into given
slots; ``TwoGrid`` fills its coarse matrix with it.

``system_solvers`` is where the method of each system is chosen, once
per mesh. It returns one solver object per system; a step calls
``factor(A)`` on it with the step's matrix, then solves through
``solve_bicgstab`` (momentum) or ``solve_cg`` (pressure), one call per
solve whatever the method:

    mesh                          momentum          pressure
    2D, narrow RCM band           BandLU            BandCholesky
    3D, and 2D with a wide band   JacobiBiCGStab    TwoGrid (CG)

On 2D meshes ``band_order`` computes a reverse Cuthill-McKee ordering of
the pattern (Cuthill & McKee, 1969), in which the matrix is banded with a
narrow bandwidth k. While the banded LU work n k^2 stays within
``BAND_MAX_WORK``, each step makes a LAPACK banded LU (``dgbtrf``) of the
momentum matrix, whose components share one solve, and a banded Cholesky
factor (``dpbtrf``) of the symmetric positive definite pressure matrix,
which every pressure corrector of the step reuses. Wider 2D bands take
the Krylov pair of 3D meshes. The ordering, ``rcm_order``, is
scipy.sparse.csgraph's ``reverse_cuthill_mckee`` rewritten in Python
step for step: it gives the same permutation without importing
scipy.sparse.csgraph.

Outside the narrow band the pressure is solved by conjugate gradients
preconditioned with ``TwoGrid``, a symmetric aggregation two-grid cycle
(Notay, ETNA 37, 2010): Jacobi smoothing on the fine grid and an exact
solve on aggregates of cells, whose small banded Cholesky factor is
lagged across steps (Knoll & Keyes, JCP 193, 2004). The aggregates
depend only on the mesh, so the solver builds them once. Momentum
(mildly non-symmetric, diagonal rho V / dt > 0) uses Jacobi-preconditioned
BiCGStab. Both Krylov solvers share one guard (``Krylov.solve``): a solve
converges or raises ``SolverFailure``.

The Krylov methods are two short loops, ``pcg`` and ``pbicgstab``, with
the recurrences, stop tests and breakdown tests of scipy 1.17's
``scipy.sparse.linalg.cg`` and ``bicgstab``, without their per-solve
set-up and per-iteration operator wrappers, which made the median step
of the 8000-cell pipe about 10% longer. Their vector updates and inner
products are in-place BLAS level-1 calls (``daxpy``, ``ddot``), and the
two-grid cycle works in place, where numpy made a temporary array per
operation: that took another 7-9% off the pipe's median step. BLAS rounds
differently from numpy (fused multiply-adds), so the iterates agree with
scipy's to round-off, not bit for bit; on the pipe's step matrices the
iteration counts are the same. Each Krylov solver records the
iterations of its solves since its last ``factor`` in ``iterations``.
The caller chooses each solve's ``tol`` (``piso`` loosens a steady run's
momentum and non-final pressure stops); the direct solvers ignore it.

No solve path calls scipy.sparse.linalg, so no run loads it.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, dpbtrs

from ..errors import SolverFailure

# Largest n k^2 (cells times squared RCM bandwidth) that ``band_order``
# accepts; wider 2D meshes take the Krylov pair. Median steps on
# bifurcation meshes (upwind, dt 0.002, 30 steps from rest, one BLAS
# thread, 2-core host), banded against the Krylov pair: 5.5 against 12
# ms at n k^2 = 1.4e6, 33 against 43 ms at 2.2e7, 53 against 49 ms at
# 3.4e7 and 72 against 61 ms at 5.2e7, so the bound sits at the
# crossover. The banded factors took about twice the memory.
BAND_MAX_WORK = 4e7

# The pressure two-grid cycle. Face ij is a strong connection when its
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
# many times the iterations per decade of residual reduction, iterations
# / log10(r0 / atol), of the first solve after the last rebuild; a solve
# asked for less than a decade counts as one. On the same run, all
# solves to 1e-6, the first step's factor held them at 12-15 iterations,
# 828 in all against 829 with a fresh factor every step, while A moved
# 1.6e-3 relative: the rule only has to catch a matrix that changes a
# lot. Per decade, the loose and tight solves of a steady run are judged
# alike: there the first corrector's solves to 1e-2 take 4-7 iterations
# (2-3.5 a decade) and the last ones to 1e-6 12-15 (2-2.5), and one
# factor lasts the run, where raw iterations rebuilt it 31 times in 30
# steps. At equal tolerances the rule decides as raw iterations do.
REFACTOR_GROWTH = 2


def __getattr__(name):
    """``spla`` is scipy.sparse.linalg, imported on first use (PEP 562).
    No solve calls it. It is kept only because perfbench/tracing.py wraps
    ``linsolve.spla`` by name and a traced run requires every wrapped name
    to exist, until the benchmark's tracer is rewritten (ROADMAP item 5)."""
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse.linalg as spla
    globals()["spla"] = spla
    return spla


class Pattern:
    """Fixed CSR structure of an n x n matrix.

    ``rows``/``cols`` list every entry it may hold, the diagonal among
    them, in any order and with repeats. Every matrix on the pattern shares
    its CSR ``indptr``/``indices``; ``diag`` holds the diagonal's slots.
    """

    def __init__(self, n, rows, cols):
        A = sp.csr_matrix((np.zeros(len(rows)), (rows, cols)), shape=(n, n))
        self.shape, self.indices, self.indptr = A.shape, A.indices, A.indptr
        self.nnz = A.nnz
        self.diag = self.slots(np.arange(n), np.arange(n))

    def slots(self, rows, cols):
        """Data slot of each (row, col) entry; every entry must be in the
        pattern."""
        # row-major keys: sorted, they are the CSR slot order
        n = self.shape[0]
        keys = np.repeat(np.arange(n) * n, np.diff(self.indptr)) + self.indices
        return np.searchsorted(keys, np.asarray(rows) * n + cols)

    def matrix(self):
        """A zero CSR matrix on this pattern, to be filled by ``fill``."""
        return sp.csr_matrix((np.zeros(self.nnz), self.indices, self.indptr),
                             shape=self.shape)

    def fill(self, A, slots, vals):
        """Overwrite the values of ``A`` (from ``matrix``) with ``vals``
        summed into ``slots``; returns ``A``."""
        A.data[:] = np.bincount(slots, weights=vals, minlength=self.nnz)
        return A


class FacePattern(Pattern):
    """``Pattern`` of a cell matrix on a mesh: the diagonal and, for every
    internal face between cells ``owner`` and ``neigh``, the (owner,
    neighbour) and (neighbour, owner) entries. ``on`` and ``no`` hold those
    two slots of each face, in the index dtype (int32)."""

    def __init__(self, n, owner, neigh):
        cells = np.arange(n)
        super().__init__(n, np.concatenate([cells, owner, neigh]),
                         np.concatenate([cells, neigh, owner]))
        self.on = self.slots(owner, neigh).astype(self.indices.dtype)
        self.no = self.slots(neigh, owner).astype(self.indices.dtype)

    def fill_faces(self, A, diag, a_on, a_no):
        """Overwrite the values of ``A`` (from ``matrix``): ``diag`` on the
        diagonal, and each face's ``a_on`` and ``a_no`` added into its
        (owner, neighbour) and (neighbour, owner) entries, so two faces
        between one pair of cells sum into the entries they share. Returns
        ``A``."""
        A.data.fill(0.0)
        np.add.at(A.data, self.on, a_on)
        np.add.at(A.data, self.no, a_no)
        A.data[self.diag] = diag
        return A


def rcm_order(indptr, indices):
    """Reverse Cuthill-McKee ordering of a structurally symmetric CSR
    pattern: the permutation that
    ``scipy.sparse.csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)``
    returns, by the same algorithm. A row's degree is its number of
    entries, its diagonal counted twice. Seeds are taken in
    ``np.argsort(degree)`` order (on int32, as scipy's, for the same
    order of ties), each starting a breadth-first search that appends the
    unvisited neighbours of every node, stably sorted by degree; the
    order is reversed at the end."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    degree = (np.diff(indptr) + (np.bincount(rows[indices == rows],
                                             minlength=n) > 0)
              ).astype(np.int32)
    deg, ptr, nbrs = degree.tolist(), indptr.tolist(), indices.tolist()
    seen = [False] * n
    order = []
    for seed in np.argsort(degree).tolist():
        if seen[seed]:
            continue
        seen[seed] = True
        order.append(seed)
        head = len(order) - 1
        while head < len(order):
            i = order[head]
            head += 1
            new = []
            for j in nbrs[ptr[i]:ptr[i + 1]]:
                if not seen[j]:
                    seen[j] = True
                    new.append(j)
            new.sort(key=deg.__getitem__)
            order.extend(new)
    return np.array(order[::-1], dtype=np.int64)


class BandOrder:
    """Reverse Cuthill-McKee ordering of a structurally symmetric CSR
    pattern, its bandwidth ``k``, the position of every CSR slot in LAPACK
    (3k + 1, n) band storage for the LU, and of every upper-triangle slot
    in (k + 1, n) storage for the Cholesky factor (Fortran order,
    flattened)."""

    def __init__(self, indptr, indices):
        n = len(indptr) - 1
        self.perm = rcm_order(indptr, indices)
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


class Krylov:
    """A system solved by a preconditioned Krylov method. Subclasses give
    ``name`` and ``_iterate(b, x, r, tol, atol, maxiter)``, which runs
    ``pcg`` or ``pbicgstab`` to ``atol`` (the solve's ``tol`` times r0)
    from the iterate ``x`` and its residual ``r`` (both its own, updated in
    place) and returns (x, info) as they do.

    ``iterations`` holds the iterations of every run of the loop since
    the last ``factor``, in order: one per column solved, and one more
    when ``TwoGrid`` retries with a fresh coarse factor.
    """

    name = ""

    def factor(self, A):
        self.A = A
        self.iterations = []

    def solve(self, B, x0=None, tol=1e-6, maxiter=5000):
        """Solve A x = b for ``B``, one vector or columns, from ``x0``
        (zero if None), every column to ``tol`` times r0, the norm of the
        initial residuals of all columns together, not ||b||: large
        boundary source terms do not mask a poorly solved interior, and a
        velocity component across the flow stops at the same residual as
        the others, not at a fraction of its own small one (a column
        already below it takes no iteration). A zero b gives x = 0.
        A column that does not converge raises SolverFailure, naming the
        method, its info and the column's iterations, with the column's
        ||b - A x|| / r0 at its last iterate; so does a solve whose r0 is
        not finite, before it iterates.
        """
        A = self.A
        cols = B.reshape(len(B), -1)
        starts = None if x0 is None else x0.reshape(cols.shape)
        # the initial residual of each nonzero column
        res = {j: cols[:, j].copy() if starts is None
               else cols[:, j] - A @ starts[:, j]
               for j in np.flatnonzero(cols.any(axis=0))}
        r0 = math.sqrt(sum(r @ r for r in res.values()))
        X = np.zeros(cols.shape)
        for j, r in res.items():
            b = cols[:, j]
            x = np.zeros(len(b)) if starts is None else starts[:, j].copy()
            done = len(self.iterations)
            info = "non-finite initial residual"
            if r0 == 0.0:
                info = 0
            elif math.isfinite(r0):
                x, info = self._iterate(b, x, r, tol, tol * r0, maxiter)
            if info != 0:
                raise SolverFailure(
                    f"{self.name} failed (info={info}, "
                    f"iterations {self.iterations[done:]})",
                    [float(np.linalg.norm(b - A @ x) / r0)])
            X[:, j] = x
        return X.reshape(B.shape)


# rho and omega breakdown bound of scipy.sparse.linalg.bicgstab
BREAKDOWN = np.finfo(float).eps ** 2


def pcg(A, psolve, x, r, atol, maxiter):
    """Preconditioned conjugate gradients (Saad, Iterative Methods for
    Sparse Linear Systems, 2003, alg. 9.1) for A x = b, from ``x`` and its
    residual ``r`` = b - A x, both updated in place when contiguous;
    ``psolve`` applies M^-1 and returns a new array. Stops when ||r|| <
    ``atol`` before an iteration. Returns (x, info, iterations): info 0
    when converged, else ``maxiter``. The recurrence, the stop test and
    the count are those of ``scipy.sparse.linalg.cg`` (as its
    ``callback`` counts); the updates are BLAS ``daxpy`` calls, whose
    result is always rebound because f2py updates a copy of an array
    that is not contiguous.
    """
    for it in range(maxiter):
        if math.sqrt(ddot(r, r)) < atol:
            return x, 0, it
        z = psolve(r)
        rho = ddot(r, z)
        # p = z + (rho / rho_prev) p, into z
        p = daxpy(p, z, a=rho / rho_prev) if it > 0 else z
        q = A @ p
        alpha = rho / ddot(p, q)
        x = daxpy(p, x, a=alpha)
        r = daxpy(q, r, a=-alpha)
        rho_prev = rho
    return x, maxiter, maxiter


def pbicgstab(A, d_inv, x, r, atol, maxiter):
    """BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13, 1992) for
    A x = b, right-preconditioned by the Jacobi M^-1 = diag(``d_inv``),
    as ``pcg``, with the stop and breakdown tests of
    ``scipy.sparse.linalg.bicgstab``: ||r|| < ``atol`` before an iteration
    and after its first half step, info -10 when |rho| < eps^2 and -11
    when |omega| < eps^2 or (r~, v) = 0. ``iterations`` counts whole
    iterations, as scipy's ``callback``. The preconditioned vectors are
    two work vectors of the run.
    """
    rt = r.copy()
    phat = np.empty_like(rt)
    shat = np.empty_like(rt)
    for it in range(maxiter):
        if math.sqrt(ddot(r, r)) < atol:
            return x, 0, it
        rho = ddot(rt, r)
        if abs(rho) < BREAKDOWN:
            return x, -10, it
        if it > 0:
            if abs(omega) < BREAKDOWN:
                return x, -11, it
            # p = r + (rho / rho_prev) (alpha / omega) (p - omega v)
            p = daxpy(v, p, a=-omega)
            p *= (rho / rho_prev) * (alpha / omega)
            p = daxpy(r, p)
        else:
            p = r.copy()
        np.multiply(p, d_inv, out=phat)
        v = A @ phat
        rv = ddot(rt, v)
        if rv == 0:
            return x, -11, it
        alpha = rho / rv
        r = daxpy(v, r, a=-alpha)
        if math.sqrt(ddot(r, r)) < atol:
            x = daxpy(phat, x, a=alpha)
            return x, 0, it
        np.multiply(r, d_inv, out=shat)
        t = A @ shat
        omega = ddot(t, r) / ddot(t, t)
        x = daxpy(phat, x, a=alpha)
        x = daxpy(shat, x, a=omega)
        r = daxpy(t, r, a=-omega)
        rho_prev = rho
    return x, maxiter, maxiter


class JacobiBiCGStab(Krylov):
    """BiCGStab with the diagonal of A as the preconditioner, on the
    matrices of one ``Pattern``."""

    name = "BiCGStab"

    def __init__(self, pattern):
        self._diag = pattern.diag

    def factor(self, A):
        super().factor(A)
        # the same values as A.diagonal(): 14 against 92 us on the
        # 8000-cell pipe (timeit, 2-core x86-64)
        self._d_inv = 1.0 / A.data[self._diag]

    def _iterate(self, b, x, r, tol, atol, maxiter):
        x, info, iters = pbicgstab(self.A, self._d_inv, x, r, atol, maxiter)
        self.iterations.append(iters)
        return x, info


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
    """CG on the SPD matrices of one ``FacePattern``, preconditioned by a
    symmetric aggregation two-grid cycle with a lagged coarse factor.

    ``weights`` gives the weight of every face of the pattern, between its
    owner and neighbour (two faces between one pair of cells add up); the
    aggregates come from these weights alone, so they are built once. With
    P the piecewise-constant prolongation from the aggregates, one
    application of M^-1 to r is

        z = S r;  z += P A_c^-1 P^T (r - A z);  z += S (r - A z),

    with S = omega D^-1 and A_c = P^T A P: symmetric, and positive
    definite for an SPD ``A``. A_c is summed from ``A.data`` into its own
    fixed pattern, and its banded Cholesky factor is kept from solve to
    solve until a solve finds it stale.
    """

    name = "CG"

    def __init__(self, pattern, weights):
        n = pattern.shape[0]
        W = pattern.fill_faces(pattern.matrix(), np.zeros(n), weights,
                               weights)
        self.aggregate = agg = aggregates(W)
        na = int(agg.max()) + 1
        rows = agg[np.repeat(np.arange(n), np.diff(pattern.indptr))]
        cols = agg[pattern.indices]
        self.coarse = Pattern(na, rows, cols)
        self._slots = self.coarse.slots(rows, cols).astype(
            self.coarse.indices.dtype)    # read once per refactor
        self._A_c = self.coarse.matrix()
        self.order = BandOrder(self.coarse.indptr, self.coarse.indices)
        # each fine row's aggregate, as its position in the band order:
        # restriction and prolongation then need no permutation
        pos = np.empty(na, dtype=np.int64)
        pos[self.order.perm] = np.arange(na)
        self._to_band = pos[agg]
        self._diag = pattern.diag
        self._factor = None
        self._base = None

    def coarse_matrix(self, A):
        """P^T A P, filled in place from ``A`` (CSR, this pattern)."""
        return self.coarse.fill(self._A_c, self._slots, A.data)

    def refactor(self, A):
        """Factor the coarse matrix of ``A``; the next solve sets the
        iterations per decade against which the factor is judged stale."""
        self._factor = BandCholesky(self.order).factor(
            self.coarse_matrix(A))
        self._base = None

    def operator(self, A):
        """M^-1 for ``A``, a function of one vector: the smoother uses the
        diagonal of ``A``, the coarse solve the current factor."""
        if self._factor is None:
            self.refactor(A)
        c = self._factor.c
        to_band = self._to_band
        na = self.order.n
        s = SMOOTH_OMEGA / A.data[self._diag]

        def cycle(r):
            z = s * r
            w = A @ z
            np.subtract(r, w, out=w)
            rc = np.bincount(to_band, weights=w, minlength=na)
            e, info = dpbtrs(c, rc, overwrite_b=1)
            if info != 0:
                raise SolverFailure(
                    f"coarse Cholesky solve failed (info={info})")
            z += e[to_band]
            w = A @ z
            np.subtract(r, w, out=w)
            np.multiply(s, w, out=w)
            z += w
            return z
        return cycle

    def _iterate(self, b, x, r, tol, atol, maxiter):
        """The coarse factor is rebuilt when a solve takes more than
        REFACTOR_GROWTH times the iterations per decade of residual
        reduction (``tol`` asks for at least one) of the first solve after
        the last rebuild, and before one retry, from the last iterate,
        when a solve with a factor of an older matrix does not converge. A
        coarse matrix that cannot be factored (A singular) raises the
        factor's SolverFailure."""
        fresh = self._factor is None
        x, info = self._cg(x, r, atol, maxiter)
        if info != 0 and not fresh:
            self.refactor(self.A)
            x, info = self._cg(x, b - self.A @ x, atol, maxiter)
        if info == 0:
            # iters / decades > REFACTOR_GROWTH base iters / base decades,
            # multiplied out: at equal tolerances, the same test as on the
            # iterations alone, to the bit
            iters, decades = self.iterations[-1], max(-math.log10(tol), 1.0)
            if self._base is None:
                self._base = (iters, decades)
            elif iters * self._base[1] > (REFACTOR_GROWTH * self._base[0]
                                          * decades):
                self.refactor(self.A)
        return x, info

    def _cg(self, x, r, atol, maxiter):
        x, info, iters = pcg(self.A, self.operator(self.A), x, r, atol,
                             maxiter)
        self.iterations.append(iters)
        return x, info


def system_solvers(pattern, dim, weights):
    """The (momentum, pressure) solvers of the two step systems on the
    ``FacePattern`` ``pattern``, by the table above; ``TwoGrid``
    aggregates the cells by the ``weights`` of the pattern's faces."""
    order = band_order(pattern.indptr, pattern.indices) if dim == 2 else None
    if order is not None:
        return BandLU(order), BandCholesky(order)
    return JacobiBiCGStab(pattern), TwoGrid(pattern, weights)


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
