"""Sparse linear solvers for the segregated solver.

Pressure systems are SPD. Within one time step the pressure matrix is the
same for every corrector, so on 2D meshes the step factors it once with a
sparse LU (``factor``) and every pressure solve of that step reuses the
factor; on 3D meshes, where the LU fill is tens of times the matrix,
pressure uses Jacobi-preconditioned conjugate gradients. Momentum systems
are mildly non-symmetric and have the diagonal rho V / dt > 0, so they use
Jacobi-preconditioned BiCGStab on every mesh. Both iterations fall back to
a direct sparse LU when they do not converge.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from ..errors import SolverFailure


def _jacobi(A):
    d = A.diagonal()
    return spla.LinearOperator(A.shape, lambda v: v / d)


def factor(A):
    """Sparse LU of ``A``; SolverFailure if it is singular."""
    try:
        return spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise SolverFailure(f"LU factorization failed: {exc}")


def solve_cg(A, b, x0=None, tol=1e-6, maxiter=5000, lu=None):
    """Solve the SPD system A x = b.

    With ``lu`` (a factor of ``A`` from ``factor``) the solve is direct.
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


def solve_bicgstab(A, B, x0=None, tol=1e-6, maxiter=2000):
    """Solve A x = b for each column of B (shared matrix and Jacobi
    preconditioner, one LU fallback shared by the columns that stall)."""
    B = np.atleast_2d(B.T).T
    X = np.empty_like(B, dtype=float)
    M = _jacobi(A)
    lu = None
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
            if lu is None:
                try:
                    lu = spla.splu(A.tocsc())
                except RuntimeError:
                    raise SolverFailure(
                        f"momentum solve failed (info={info}) and LU fallback failed",
                        [float(np.linalg.norm(b - A @ x) / bnorm)])
            x = lu.solve(b)
        X[:, j] = x
    return X
