"""Linear-solver layer: fixed-pattern assembly in place, and the solver
objects that ``linsolve.system_solvers`` picks per mesh class: banded LU
(momentum) and banded Cholesky (pressure) on narrow-band 2D meshes,
Jacobi-BiCGStab and two-grid CG on 3D and wide-band 2D meshes; the guard
that both Krylov solvers share: a solve converges or raises SolverFailure,
and no solve path loads scipy.sparse.linalg (the references here do)."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hemoflow
from hemoflow.errors import SolverFailure
from hemoflow.fv import (BoundaryConditionSet, FluidProperties, InflowBC,
                         NoSlipBC, PisoSolver, PressureZeroGradientBC,
                         SolverConfig, VelocityZeroGradientBC, linsolve,
                         poiseuille_bcs)
from hemoflow.mesh import (Mesh, Patch, generate_bifurcation_mesh,
                           generate_channel_mesh, generate_pipe_mesh)
from hemoflow.windkessel import WindkesselOutlet

from test_mesh import flat_loops, loop_list

LIN_TOL = 1e-7


def bifurcation_solver():
    """The 452-cell bifurcation with an RCR outlet, as in the sweeps."""
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)
    Q = 4.0 / 60000.0
    outlet = WindkesselOutlet("outlet", R_p=4.8, R_d=43.2, C=1.2e-3,
                              p_p=43.2 * Q * 1e6)
    bcs = BoundaryConditionSet({
        "inlet": (InflowBC(Q, profile="plug"), PressureZeroGradientBC()),
        "wall": (NoSlipBC(), PressureZeroGradientBC()),
        "outlet": (VelocityZeroGradientBC(), outlet),
    })
    cfg = SolverConfig(dt=0.01, t_end=1.0, n_nonorth=2,
                       convection_scheme="upwind", lin_tol=LIN_TOL,
                       cfl_max=1e9)
    return PisoSolver(mesh, bcs, FluidProperties(rho=1060.0, mu=3e-4), cfg)


def pipe_solver():
    """A 216-cell pipe: 6 axial layers of 36 cells."""
    mesh = generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12)
    bcs = poiseuille_bcs(mesh, 1e-6, profile="parabolic")
    cfg = SolverConfig(dt=0.01, t_end=1.0, convection_scheme="upwind",
                       lin_tol=LIN_TOL, cfl_max=1e9)
    return PisoSolver(mesh, bcs, FluidProperties(), cfg)


def recorded_step(monkeypatch, solver, state):
    """One step with every factorization and linear solve recorded.

    Returns (new state, [(A, b, system)] per pressure solve,
    [(A, B, system)] per momentum solve, [(A, factor)] per banded LU or
    Cholesky factorization).
    """
    pressure, momentum, factors = [], [], []
    solve_cg, solve_bicgstab = linsolve.solve_cg, linsolve.solve_bicgstab
    band_factor = linsolve.BandFactor.factor
    factored = {}       # banded system -> the matrix of its last factor

    def factor(self, A):
        factors.append((A, self))
        factored[self] = A
        return band_factor(self, A)

    def matrix(system):
        """The matrix that ``system`` was last factored with."""
        return factored[system] if system in factored else system.A

    def cg(system, b, **kwargs):
        pressure.append((matrix(system), b.copy(), system))
        return solve_cg(system, b, **kwargs)

    def bicgstab(system, B, **kwargs):
        momentum.append((matrix(system), B.copy(), system))
        return solve_bicgstab(system, B, **kwargs)

    monkeypatch.setattr(linsolve.BandFactor, "factor", factor)
    monkeypatch.setattr(linsolve, "solve_cg", cg)
    monkeypatch.setattr(linsolve, "solve_bicgstab", bicgstab)
    new = solver.step(state)
    monkeypatch.undo()
    return new, pressure, momentum, factors


@pytest.fixture(scope="module")
def bif_step():
    """Recorded solves of the second step of the bifurcation (the first
    starts from rest, so its momentum system has no convection)."""
    with pytest.MonkeyPatch.context() as mp:
        solver = bifurcation_solver()
        state = solver.step(solver.initialize())
        return solver, state, recorded_step(mp, solver, state)


@pytest.fixture(scope="module")
def pipe_step():
    with pytest.MonkeyPatch.context() as mp:
        solver = pipe_solver()
        state = solver.step(solver.initialize())
        return solver, state, recorded_step(mp, solver, state)


def test_2d_step_factors_the_pressure_matrix_once(bif_step):
    """Two banded factors per 2D step: an LU of the momentum matrix, used
    by its single solve, and a Cholesky factor of the pressure matrix,
    shared by all four pressure solves."""
    solver, _, (_, pressure, momentum, factors) = bif_step
    cfg = solver.config
    assert solver._has_nonorth
    assert len(pressure) == cfg.n_piso * cfg.n_nonorth == 4
    assert len(momentum) == 1
    assert len(factors) == 2
    (A_m, lu_m), (A_p, lu_p) = factors
    assert lu_m is solver._momentum and lu_p is solver._pressure
    # the solver's own matrices, filled in place
    assert A_m is solver._A_m and A_p is solver._A_p
    assert momentum[0][0] is A_m and momentum[0][2] is lu_m
    assert all(A is A_p and lu is lu_p for A, _, lu in pressure)


def test_3d_step_makes_no_factorization(pipe_step):
    """The second 3D step reuses the coarse factor of the first."""
    solver, _, (_, pressure, momentum, factors) = pipe_step
    assert len(pressure) == solver.config.n_piso
    assert len(momentum) == 1
    assert factors == []
    assert all(system is solver._pressure for _, _, system in pressure)
    assert momentum[0][2] is solver._momentum


def test_band_order_is_refused_above_the_work_bound(monkeypatch, bif_step):
    solver, _, _ = bif_step
    pattern, band = solver._pattern, solver._pressure.order
    work = band.n * band.k ** 2
    assert work <= linsolve.BAND_MAX_WORK
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", work)
    order = linsolve.band_order(pattern.indptr, pattern.indices)
    assert order.k == band.k and np.array_equal(order.perm, band.perm)
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", work - 1)
    assert linsolve.band_order(pattern.indptr, pattern.indices) is None


@pytest.mark.parametrize("make, wide, momentum, pressure", [
    (bifurcation_solver, False, linsolve.BandLU, linsolve.BandCholesky),
    (bifurcation_solver, True, linsolve.JacobiBiCGStab, linsolve.TwoGrid),
    (pipe_solver, False, linsolve.JacobiBiCGStab, linsolve.TwoGrid),
], ids=["narrow-2d", "wide-2d", "3d"])
def test_each_mesh_class_gets_one_solver_per_system(monkeypatch, make, wide,
                                                    momentum, pressure):
    """The solver picks its two linear solvers once, and every step
    factors them with its own two matrices."""
    if wide:
        monkeypatch.setattr(linsolve, "BAND_MAX_WORK", 0)
    solver = make()
    assert type(solver._momentum) is momentum
    assert type(solver._pressure) is pressure
    systems = solver._momentum, solver._pressure
    state = solver.step(solver.initialize())
    factored = []
    for system in systems:
        monkeypatch.setattr(system, "factor", lambda A, f=system.factor:
                            factored.append(A) or f(A))
    solver.step(state)
    assert (solver._momentum, solver._pressure) == systems
    assert len(factored) == 2
    assert factored[0] is solver._A_m and factored[1] is solver._A_p


def test_wide_band_2d_step_uses_two_grid_cg_and_bicgstab(monkeypatch):
    """Above the bound a 2D step solves its four pressure systems by
    two-grid CG and momentum by Jacobi-BiCGStab, as a 3D step does, with
    no factorization; the step agrees with the banded one."""
    banded = bifurcation_solver()
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", 0)
    wide = bifurcation_solver()
    monkeypatch.undo()
    ref = banded.step(banded.step(banded.initialize()))
    new, pressure, momentum, factors = recorded_step(
        monkeypatch, wide, wide.step(wide.initialize()))
    assert factors == []
    assert len(pressure) == 4 and len(momentum) == 1
    assert isinstance(wide._pressure, linsolve.TwoGrid)
    assert all(system is wide._pressure for _, _, system in pressure)
    assert isinstance(momentum[0][2], linsolve.JacobiBiCGStab)
    for a, b in ((new.p, ref.p), (new.u, ref.u)):
        assert np.linalg.norm(a - b) <= LIN_TOL * np.linalg.norm(b)


def test_factored_pressure_matches_spsolve(bif_step):
    _, _, (_, pressure, _, _) = bif_step
    for A, b, system in pressure:
        x = linsolve.solve_cg(system, b)
        x_ref = spla.spsolve(A.tocsc(), b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def upper_pattern(A):
    """The ``Pattern`` of ``A`` (CSR, sorted indices, structurally
    symmetric, a full diagonal), its upper triangle's entries the pairs,
    and those entries' values."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    upper = rows < A.indices
    return linsolve.Pattern(n, rows[upper], A.indices[upper]), A.data[upper]


def jacobi_bicgstab(A):
    """A ``JacobiBiCGStab`` on the ``upper_pattern`` of ``A``, factored
    with ``A``."""
    system = linsolve.JacobiBiCGStab(upper_pattern(A)[0])
    system.factor(A)
    return system


def test_jacobi_preconditioner_is_the_diagonal(pipe_step):
    """The solver's Jacobi preconditioner, read from the pattern's
    diagonal slots, is 1 / A.diagonal() to the bit."""
    solver, _, (_, _, momentum, _) = pipe_step
    (A, _, system), = momentum
    assert system is solver._momentum
    assert np.array_equal(system._d_inv, 1.0 / A.diagonal())


@pytest.mark.parametrize("case", ["bif_step", "pipe_step"])
def test_jacobi_bicgstab_matches_lu(case, request):
    solver, state, (_, _, momentum, _) = request.getfixturevalue(case)
    (A, B, _), = momentum
    assert B.shape == (solver.mesh.n_cells, solver.mesh.dim)
    X = linsolve.solve_bicgstab(jacobi_bicgstab(A), B, x0=state.u,
                                tol=1e-10)
    X_lu = spla.splu(A.tocsc()).solve(B)
    assert np.abs(X - X_lu).max() <= 1e-8 * np.abs(X_lu).max()


def test_bicgstab_that_does_not_converge_raises(monkeypatch, pipe_step):
    """The first column that does not converge raises SolverFailure, which
    names the method, its info and the column's iterations and reports
    ||b - A x|| / r0 at its last iterate, r0 that of all the columns
    together; no later column is solved."""
    _, _, (_, _, momentum, _) = pipe_step
    (A, B, _), = momentum
    assert B[:, 0].any()
    system = jacobi_bicgstab(A)
    kept = kept_iterates(monkeypatch, system)
    with pytest.raises(SolverFailure, match=r"^BiCGStab failed \(info=1, "
                       r"iterations \[1\]\)$") as failed:
        linsolve.solve_bicgstab(system, B, tol=1e-14, maxiter=1)
    x, = kept
    assert system.iterations == [1]
    res = np.linalg.norm(B[:, 0] - A @ x) / np.linalg.norm(B)
    assert failed.value.residual_history == [pytest.approx(res, rel=1e-12)]


def test_the_velocity_columns_stop_at_one_residual(pipe_step):
    """Every column of a momentum solve stops at tol times r0, the norm of
    the initial residuals of all its columns together: each ends below
    it, and a column that starts below it takes no iteration, where a
    stop at tol times its own r0 iterated it."""
    solver, state, (_, _, momentum, _) = pipe_step
    (A, B, _), = momentum
    X0 = state.u
    B = B.copy()
    # column 1 starts 1e-9 of column 2's residual away from its solution
    B[:, 1] = A @ X0[:, 1] + 1e-9 * (B[:, 2] - A @ X0[:, 2])
    r0 = np.linalg.norm(B - A @ X0)
    system = jacobi_bicgstab(A)
    X = linsolve.solve_bicgstab(system, B, x0=X0, tol=LIN_TOL)
    assert system.iterations[1] == 0 < min(system.iterations[::2])
    assert np.array_equal(X[:, 1], X0[:, 1])
    assert np.linalg.norm(B - A @ X, axis=0).max() <= LIN_TOL * r0


def test_krylov_loops_match_scipy(pipe_step):
    """On the pipe's step matrices, from the step's own starts, ``pcg``
    and ``pbicgstab`` take as many iterations as scipy's ``cg`` and
    ``bicgstab`` with the same preconditioner, on both pressure solves
    and every momentum column. The recurrences are the same, but the
    loops update by BLAS ``daxpy``, whose fused multiply-adds round
    differently from numpy's, so the iterates agree to 1e-12 relative,
    not bit for bit."""
    solver, state, (_, pressure, momentum, _) = pipe_step
    (A_m, B, _), = momentum
    runs = [(linsolve.pcg, spla.cg, A, b, solver._pressure.operator(A),
             solver._pressure.operator(A), state.p) for A, b, _ in pressure]
    d_inv = jacobi_bicgstab(A_m)._d_inv
    runs += [(linsolve.pbicgstab, spla.bicgstab, A_m, b,
              lambda v: v * d_inv, d_inv, x0)
             for b, x0 in zip(B.T, state.u.T)]
    assert len(runs) == 2 + 3
    for loop, scipy_solve, A, b, psolve, precond, x0 in runs:
        b = np.ascontiguousarray(b)
        atol = LIN_TOL * np.linalg.norm(b - A @ x0)
        x_ref, info_ref, iters_ref = counted_scipy_solve(
            scipy_solve, A, b, x0=x0, rtol=0.0, atol=atol, maxiter=500,
            M=spla.LinearOperator(A.shape, psolve, dtype=float))
        x, info, iters = loop(A, precond, x0.copy(), b - A @ x0, atol, 500)
        assert info == info_ref == 0
        assert iters == iters_ref > 0
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def every_other(v):
    """``v``'s values in a strided view: every other entry of a vector
    twice as long."""
    out = np.zeros(2 * len(v))[::2]
    out[:] = v
    assert not out.flags.contiguous
    return out


def test_strided_inputs_solve_as_contiguous_ones(pipe_step):
    """BLAS ``daxpy`` on a strided array updates and returns a copy, which
    the loops keep: a Fortran-ordered ``B`` and ``x0``, a strided pressure
    ``b``, and strided iterates and residuals given to the loops
    themselves, give exactly the answers of their contiguous copies."""
    solver, state, (_, pressure, momentum, _) = pipe_step
    (A_m, B, _), = momentum
    system = jacobi_bicgstab(A_m)
    X = linsolve.solve_bicgstab(system, np.asfortranarray(B),
                                x0=np.asfortranarray(state.u))
    assert np.array_equal(X, linsolve.solve_bicgstab(
        system, np.ascontiguousarray(B), x0=np.ascontiguousarray(state.u)))
    A_p, b, _ = pressure[0]
    cg = solver._pressure
    cg.factor(A_p)
    assert np.array_equal(linsolve.solve_cg(cg, every_other(b)),
                          linsolve.solve_cg(cg, b.copy()))
    runs = [(linsolve.pcg, A_p, cg.operator(A_p), b, state.p),
            (linsolve.pbicgstab, A_m, system._d_inv, B[:, 0], state.u[:, 0])]
    for loop, A, precond, b, x0 in runs:
        r0 = b - A @ x0
        atol = LIN_TOL * np.linalg.norm(r0)
        x, info, iters = loop(A, precond, every_other(x0), every_other(r0),
                              atol, 500)
        x_ref, info_ref, iters_ref = loop(A, precond, x0.copy(), r0.copy(),
                                          atol, 500)
        assert info == info_ref == 0 and iters == iters_ref > 0
        assert np.array_equal(x, x_ref)


def test_bicgstab_breakdown_raises():
    """With b = (1, 1) and the Jacobi preconditioner the identity,
    (r~, A r) = 0 on the first iteration: BiCGStab breaks down (info -11)
    at its start, and the solve raises with ||b - A x|| / r0 = 1 there.
    A holds its zero (1, 0) entry, as a matrix on a ``Pattern`` does."""
    A = sp.csr_matrix(([1.0, -2.0, 0.0, 1.0], [0, 1, 0, 1], [0, 2, 4]))
    b = np.ones(2)
    system = jacobi_bicgstab(A)
    with pytest.raises(SolverFailure, match=r"^BiCGStab failed \(info=-11, "
                       r"iterations \[0\]\)$") as failed:
        linsolve.solve_bicgstab(system, b[:, None])
    assert system.iterations == [0]
    assert failed.value.residual_history == [1.0]


def neumann_laplacian(n=10):
    """Exactly singular: every row sums to zero."""
    main = np.full(n, 2.0)
    main[[0, -1]] = 1.0
    return sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1],
                    format="csr")


def two_grid_of(A):
    """A ``TwoGrid`` on the ``upper_pattern`` of ``A``, its aggregates
    grouped by |a_ij|, factored with ``A``."""
    pattern, upper = upper_pattern(A)
    system = linsolve.TwoGrid(pattern, np.abs(upper))
    system.factor(A)
    return system


def kept_iterates(monkeypatch, system):
    """The iterate that each ``_iterate`` of ``system``'s class returns,
    copied, in order."""
    kept = []
    iterate = type(system)._iterate

    def keep(self, *args):
        x, info = iterate(self, *args)
        kept.append(x.copy())
        return x, info

    monkeypatch.setattr(type(system), "_iterate", keep)
    return kept


def relative_residual(A, b, x, x0):
    """||b - A x|| / r0, r0 the residual at ``x0``."""
    return np.linalg.norm(b - A @ x) / np.linalg.norm(b - A @ x0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_matrix_raises_solver_failure(monkeypatch):
    """A failed solve reports ||b - A x|| / r0 at its last iterate, r0 the
    residual at its start (not ||b||)."""
    A = neumann_laplacian()
    n = A.shape[0]
    b = np.zeros(n)
    b[0] = 1.0                   # not in the range of A
    x0 = np.linspace(0.0, 1.0, n)
    # the coarse matrix of the two-grid cycle is singular too
    with pytest.raises(SolverFailure):
        linsolve.solve_cg(two_grid_of(A), b, x0=x0, maxiter=50)
    system = jacobi_bicgstab(A)
    kept = kept_iterates(monkeypatch, system)
    with pytest.raises(SolverFailure, match="^BiCGStab failed") as failed:
        linsolve.solve_bicgstab(system, b[:, None], x0=x0[:, None],
                                maxiter=50)
    x, = kept
    res = relative_residual(A, b, x, x0)
    assert failed.value.residual_history == [pytest.approx(res, rel=1e-12)]
    assert res != pytest.approx(np.linalg.norm(b - A @ x)
                                / np.linalg.norm(b))


def test_singular_coarse_matrix_fails_the_solve(monkeypatch):
    """When the two-grid cycle cannot factor its coarse matrix (A is
    singular), the factor's SolverFailure ends the solve before its first
    CG iteration: no iterate, so no residual to report."""
    A = neumann_laplacian()
    b = np.zeros(A.shape[0])
    b[0] = 1.0                   # not in the range of A
    x0 = np.linspace(0.0, 1.0, len(b))
    system = two_grid_of(A)
    kept = kept_iterates(monkeypatch, system)
    with pytest.raises(SolverFailure, match="^Cholesky factorization failed"
                       ) as failed:
        linsolve.solve_cg(system, b, x0=x0, maxiter=50)
    assert system.iterations == [] and kept == []
    assert failed.value.residual_history == []


@pytest.mark.parametrize("system", ["momentum", "pressure"])
def test_failed_krylov_solves_report_the_same_residual(monkeypatch,
                                                       system):
    """CG and BiCGStab share their guard: with the iterations cut short,
    both raise and report ||b - A x|| / r0 at the last iterate (CG's after
    its retry with a fresh coarse factor)."""
    solver = pipe_solver()
    state = solver.step(solver.initialize())
    solver.step(state)
    solve = (linsolve.solve_bicgstab if system == "momentum"
             else linsolve.solve_cg)
    krylov = solver._momentum if system == "momentum" else solver._pressure
    A = krylov.A
    x0 = state.p if system == "pressure" else state.u[:, 0]
    b = A @ np.ones(A.shape[0])
    kept = kept_iterates(monkeypatch, krylov)
    shape = (-1,) if system == "pressure" else (-1, 1)
    runs = "1, 1" if system == "pressure" else "1"
    with pytest.raises(SolverFailure, match=rf"^{krylov.name} failed "
                       rf"\(info=1, iterations \[{runs}\]\)$") as failed:
        solve(krylov, b.reshape(shape), x0=x0.reshape(shape), tol=1e-14,
              maxiter=1)
    x, = kept
    res = relative_residual(A, b, x, x0)
    assert 0.0 < res < 1.0
    assert failed.value.residual_history == [pytest.approx(res, rel=1e-12)]


def given_and_shuffled(A):
    """``A`` and a symmetric permutation of it that reverse Cuthill-McKee
    has to undo, both with sorted indices."""
    shuffle = np.random.default_rng(3).permutation(A.shape[0])
    for M in (A, A[shuffle][:, shuffle].tocsr()):
        M.sort_indices()
        yield M


def test_banded_factor_of_singular_matrix_raises():
    """The banded LU flags the zero pivot."""
    for M in given_and_shuffled(neumann_laplacian()):
        with pytest.raises(SolverFailure, match="LU factorization"):
            linsolve.BandLU(linsolve.BandOrder(M.indptr, M.indices)).factor(M)


def test_banded_cholesky_of_singular_matrix_raises():
    """The Neumann Laplacian is only semi-definite: the Cholesky factor
    meets a non-positive pivot."""
    for M in given_and_shuffled(neumann_laplacian()):
        with pytest.raises(SolverFailure, match="Cholesky factorization"):
            linsolve.BandCholesky(
                linsolve.BandOrder(M.indptr, M.indices)).factor(M)


def test_banded_cholesky_matches_splu(bif_step):
    """The pressure matrix is symmetric positive definite, and its banded
    Cholesky solve agrees with a sparse LU."""
    _, _, (_, pressure, _, _) = bif_step
    A, b, _ = pressure[0]
    assert abs(A - A.T).max() == 0.0
    x_ref = spla.splu(A.tocsc()).solve(b)
    chol = linsolve.BandCholesky(linsolve.BandOrder(A.indptr, A.indices))
    x = chol.factor(A).solve(b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    X = np.column_stack([b, 2.0 * b])
    X_ref = np.column_stack([x_ref, 2.0 * x_ref])
    X_chol = chol.solve(X)
    assert np.linalg.norm(X_chol - X_ref) <= 1e-12 * np.linalg.norm(X_ref)


@pytest.mark.parametrize("system", ["momentum", "pressure"])
def test_banded_lu_matches_splu(bif_step, system):
    """Two-column momentum and one-column pressure right-hand sides."""
    _, _, (_, pressure, momentum, _) = bif_step
    A, b, _ = momentum[0] if system == "momentum" else pressure[0]
    assert b.ndim == (2 if system == "momentum" else 1)
    x_ref = spla.splu(A.tocsc()).solve(b)
    lu = linsolve.BandLU(linsolve.BandOrder(A.indptr, A.indices))
    x = lu.factor(A).solve(b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_band_storage_holds_the_permuted_matrix(bif_step):
    solver, _, (_, _, _, factors) = bif_step
    band = solver._pressure.order
    n, k = solver.mesh.n_cells, band.k
    assert 0 < k < n // 10                  # narrow in RCM order
    for A, _ in factors:
        P = A.toarray()[band.perm][:, band.perm]
        ab = band.band(A)
        assert ab.shape == (3 * k + 1, n) and ab.flags.f_contiguous
        assert not ab[:k].any()             # room for the LU fill
        unpacked = np.zeros((n, n))
        for d in range(-k, k + 1):          # diagonal j - i = d
            j = np.arange(max(d, 0), min(n, n + d))
            unpacked[j - d, j] = ab[2 * k - d, j]
        assert np.array_equal(unpacked, P)
        # the upper triangle in the Cholesky's (k + 1, n) storage
        ab = band.upper_band(A)
        assert ab.shape == (k + 1, n) and ab.flags.f_contiguous
        unpacked = np.zeros((n, n))
        for d in range(k + 1):
            j = np.arange(d, n)
            unpacked[j - d, j] = ab[k - d, j]
        assert np.array_equal(unpacked, np.triu(P))


def cell_pattern(mesh):
    """The step systems' pattern of ``mesh``: the diagonal and both
    entries of every internal face."""
    return linsolve.Pattern(mesh.n_cells, mesh.fv.i_owner, mesh.fv.i_neigh)


def coarse_pattern(mesh):
    """The pattern of the two-grid coarse matrix on ``mesh``'s
    aggregates."""
    return linsolve.TwoGrid(cell_pattern(mesh), mesh.fv.orth_coeff).coarse


def scattered_graph():
    """Several components, and rows without a diagonal entry."""
    rng = np.random.default_rng(3)
    A = sp.random(60, 60, density=0.03, random_state=rng, format="coo")
    i = np.concatenate([A.row, A.col, np.arange(60)])
    j = np.concatenate([A.col, A.row, np.arange(60)])
    # nothing between rows 0-19 and the rest; no diagonal in rows 7 and 31
    keep = ((i < 20) == (j < 20)) & ~((i == j) & np.isin(i, [7, 31]))
    return sp.csr_matrix((np.ones(keep.sum()), (i[keep], j[keep])),
                         shape=(60, 60))


RCM_GRAPHS = {
    "bifurcation-452": lambda: cell_pattern(generate_bifurcation_mesh(
        0.024, 0.004, 0.002, 45.0, resolution=8)),
    "bifurcation-11000": lambda: cell_pattern(generate_bifurcation_mesh(
        0.024, 0.004, 0.002, 45.0, resolution=40)),
    "channel": lambda: cell_pattern(generate_channel_mesh(
        0.1, 0.02, nx=12, ny=5)),
    "pipe-8000": lambda: cell_pattern(generate_pipe_mesh(
        0.02, 0.02, 20, 10, n_theta=40)),
    "pipe-8000-coarse": lambda: coarse_pattern(generate_pipe_mesh(
        0.02, 0.02, 20, 10, n_theta=40)),
    "bifurcation-11000-coarse": lambda: coarse_pattern(
        generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=40)),
    "scattered": scattered_graph,
}


@pytest.mark.parametrize("graph", RCM_GRAPHS.values(), ids=RCM_GRAPHS.keys())
def test_rcm_order_is_scipys(graph):
    """``rcm_order`` gives the permutation of scipy's reverse Cuthill-McKee
    (its reference here), so the band orders and answers do not move."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    G = graph()
    n = len(G.indptr) - 1
    A = sp.csr_matrix((np.ones(len(G.indices)), G.indices, G.indptr),
                      shape=(n, n))
    expected = reverse_cuthill_mckee(A, symmetric_mode=True)
    assert np.array_equal(linsolve.rcm_order(G.indptr, G.indices), expected)


def coo_assembly(solver, phi, dt, c_int, c_b):
    """Every value that a step's assembly puts into each step matrix, as
    COO (rows, cols, values) face by face, from the inputs of
    ``_momentum_system`` (``phi``, the state's with the inflow's
    fixed-velocity faces, and ``dt``) and ``_pressure_matrix``
    (``c_int``, ``c_b``): the four entries of each internal face, the
    neighbour row's pair the owner row's negated; the momentum time term;
    each boundary face's diagonal entry."""
    mesh, rho, mu = solver.mesh, solver.fluid.rho, solver.fluid.mu
    g = mesh.fv
    o, n = g.i_owner, g.i_neigh
    cells = np.arange(mesh.n_cells)
    rows = np.concatenate([o, o, n, n])
    cols = np.concatenate([o, n, n, o])
    phi_i = phi[g.internal]
    a_oo = rho * np.maximum(phi_i, 0.0) + mu * g.orth_coeff
    a_on = rho * np.minimum(phi_i, 0.0) - mu * g.orth_coeff
    b_m = np.where(solver._fixed_u, mu * g.b_orth_coeff,
                   rho * np.maximum(phi[g.boundary], 0.0))
    bo_p = g.b_owner[solver._fixed_p]
    return {
        "momentum": (np.concatenate([rows, cells, g.b_owner]),
                     np.concatenate([cols, cells, g.b_owner]),
                     np.concatenate([a_oo, a_on, -a_on, -a_oo,
                                     rho * mesh.cell_volume / dt, b_m])),
        "pressure": (np.concatenate([rows, bo_p]),
                     np.concatenate([cols, bo_p]),
                     np.concatenate([c_int, -c_int, c_int, -c_int, c_b])),
    }


def assert_matches_coo_assembly(monkeypatch, solver, state):
    """Step once, and check that each step matrix, filled in place,
    equals the COO -> CSR conversion of its assembly's face values, and
    that the momentum diagonal that the step uses is the matrix's.
    Returns the new state and, per matrix, a copy of it and its COO
    (rows, cols, values)."""
    inputs, built = {}, {}
    momentum_system = solver._momentum_system
    pressure_matrix = solver._pressure_matrix

    def recorded_momentum(state, inflow, dt):
        diag, A, rhs = momentum_system(state, inflow, dt)
        assert A is solver._A_m
        assert np.array_equal(diag, A.diagonal())
        phi = state.phi.copy()
        fixed = solver._fixed_u_faces
        phi[fixed] = inflow.phi[fixed]
        inputs.update(phi=phi, dt=dt)
        built["momentum"] = A.copy()
        return diag, A, rhs

    def recorded_pressure(c_int, c_b):
        A = pressure_matrix(c_int, c_b)
        assert A is solver._A_p
        inputs.update(c_int=c_int.copy(), c_b=c_b.copy())
        built["pressure"] = A.copy()
        return A

    monkeypatch.setattr(solver, "_momentum_system", recorded_momentum)
    monkeypatch.setattr(solver, "_pressure_matrix", recorded_pressure)
    state = solver.step(state)
    monkeypatch.undo()
    coo = coo_assembly(solver, **inputs)
    assert built.keys() == coo.keys()
    for name, A in built.items():
        rows, cols, vals = coo[name]
        ref = sp.csr_matrix((vals, (rows, cols)), shape=A.shape)
        assert ref.has_canonical_format
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        scale = np.abs(vals).max()
        assert np.abs(A.data - ref.data).max() <= 1e-14 * scale
    return state, {name: (A, coo[name]) for name, A in built.items()}


@pytest.mark.parametrize("make", [bifurcation_solver, pipe_solver])
def test_fixed_pattern_matches_coo_assembly(monkeypatch, make):
    solver = make()
    state = solver.step(solver.initialize())
    assert_matches_coo_assembly(monkeypatch, solver, state)


def twin_face_channel():
    """A 3 x 2 channel whose first internal vertical face is split at its
    midpoint: cells 0 and 1 then share two faces."""
    mesh = generate_channel_mesh(0.03, 0.01, 3, 2)
    f = 1
    assert (mesh.owner[f], mesh.neighbor[f]) == (0, 1)
    loops = loop_list(*mesh.oriented_loops())
    a, b = loops[f]
    points = np.vstack([mesh.points, 0.5 * (mesh.points[a] + mesh.points[b])])
    m = len(points) - 1
    loops[f] = (a, m)
    loops.append((m, b))
    patches = [Patch(p.name, p.kind, p.face_ids, dict(p.meta))
               for p in mesh.patches.values()]
    return Mesh(2, points, *flat_loops(loops), np.append(mesh.owner, 0),
                np.append(mesh.neighbor, 1), patches)


def test_two_faces_between_one_cell_pair_are_summed(monkeypatch):
    mesh = twin_face_channel()
    g = mesh.fv
    twins = np.flatnonzero((g.i_owner == 0) & (g.i_neigh == 1))
    assert len(twins) == 2
    pairs = {(o, n) for o, n in zip(g.i_owner, g.i_neigh)}
    assert len(pairs) == len(g.internal) - 1
    bcs = poiseuille_bcs(mesh, 1e-5, profile="parabolic")
    cfg = SolverConfig(dt=1e-3, t_end=1.0, convection_scheme="upwind")
    solver = PisoSolver(mesh, bcs, FluidProperties(), cfg)
    assert solver._pattern.nnz == mesh.n_cells + 2 * len(pairs)
    state = solver.step(solver.initialize())
    state, built = assert_matches_coo_assembly(monkeypatch, solver, state)
    # each matrix's entries (0, 1) and (1, 0) hold both faces' values
    nf = len(g.internal)
    for A, (_, _, vals) in built.values():
        a_on, a_no = vals[nf:2 * nf], vals[3 * nf:4 * nf]
        assert A[0, 1] == pytest.approx(a_on[twins].sum(), rel=1e-15)
        assert A[1, 0] == pytest.approx(a_no[twins].sum(), rel=1e-15)
        assert a_on[twins[0]] != 0.0 != a_on[twins[1]]
    assert state.continuity_error() < 1e-10


def test_two_grid_aggregates_the_summed_face_weights():
    """``TwoGrid`` groups the cells by the weight matrix of its pattern's
    faces, two faces between one pair of cells summed: the aggregates of
    the COO -> CSR matrix of those weights."""
    mesh = twin_face_channel()
    g = mesh.fv
    o, n, w = g.i_owner, g.i_neigh, g.orth_coeff
    W = sp.csr_matrix((np.concatenate([w, w]), (np.concatenate([o, n]),
                                                np.concatenate([n, o]))),
                      shape=(mesh.n_cells, mesh.n_cells))
    two_grid = linsolve.TwoGrid(cell_pattern(mesh), w)
    assert np.array_equal(two_grid.aggregate, linsolve.aggregates(W))
    assert two_grid.aggregate.max() > 0


# -- the 3D pressure preconditioner --------------------------------------------

def prolongation(two_grid):
    """The piecewise-constant prolongation P (n x aggregates)."""
    agg = two_grid.aggregate
    return sp.csr_matrix((np.ones(len(agg)), (np.arange(len(agg)), agg)))


def counted_scipy_solve(solve, A, b, **kwargs):
    """``scipy.sparse.linalg`` ``cg`` or ``bicgstab``: (x, info, number of
    ``callback`` calls)."""
    calls = []
    x, info = solve(A, b, callback=calls.append, **kwargs)
    return x, info, len(calls)


def test_coarse_matrix_is_the_galerkin_product(pipe_step):
    solver, _, (_, pressure, _, _) = pipe_step
    A = pressure[0][0]
    two_grid = solver._pressure
    P = prolongation(two_grid)
    assert P.shape == (A.shape[0], two_grid.order.n)
    assert np.asarray(P.sum(axis=0)).min() > 0          # none empty
    ref = (P.T @ A @ P).toarray()
    A_c = two_grid.coarse_matrix(A)
    assert A_c is two_grid.coarse_matrix(A)             # filled in place
    assert np.abs(A_c.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_two_grid_cycle_is_symmetric_positive_definite(pipe_step):
    solver, _, (_, pressure, _, _) = pipe_step
    A = pressure[0][0]
    n = A.shape[0]
    M = solver._pressure.operator(A)
    dense = np.column_stack([M(e) for e in np.eye(n)])
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0


def test_two_grid_cg_takes_a_quarter_of_the_jacobi_iterations(monkeypatch):
    """On the benchmark's 8000-cell pipe."""
    mesh = generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40)
    cfg = SolverConfig(dt=0.01, convection_scheme="upwind", lin_tol=LIN_TOL,
                       cfl_max=1e9)
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-4, profile="parabolic"),
                        FluidProperties(), cfg)
    _, pressure, _, _ = recorded_step(monkeypatch, solver,
                                      solver.initialize())
    A, b, system = pressure[-1]
    d = A.diagonal()
    x_jacobi, info, jacobi = counted_scipy_solve(
        spla.cg, A, b, rtol=0.0, atol=LIN_TOL * np.linalg.norm(b),
        maxiter=5000, M=spla.LinearOperator(A.shape, lambda v: v / d))
    assert info == 0
    x = linsolve.solve_cg(system, b, tol=LIN_TOL)
    two_grid = system.iterations[-1]
    assert two_grid <= jacobi / 4
    assert np.linalg.norm(b - A @ x) <= LIN_TOL * np.linalg.norm(b)
    assert np.linalg.norm(x - x_jacobi) <= 10 * LIN_TOL * np.linalg.norm(x)


def test_first_3d_step_factors_the_coarse_matrix(monkeypatch):
    """The step's pressure solves are one ``solve_cg`` call each, all with
    the solver's two-grid cycle, and momentum one ``solve_bicgstab``
    call; the only factor is the coarse Cholesky, made once."""
    solver = pipe_solver()
    _, pressure, momentum, factors = recorded_step(
        monkeypatch, solver, solver.initialize())
    assert len(pressure) == solver.config.n_piso and len(momentum) == 1
    (A_c, chol), = factors
    assert isinstance(chol, linsolve.BandCholesky)
    assert A_c is solver._pressure.coarse_matrix(solver._A_p)


def test_coarse_factor_is_lagged_until_the_iterations_double(monkeypatch):
    solver = pipe_solver()
    factors = []
    factor = linsolve.BandCholesky.factor

    def counted(self, A):
        factors.append(A.data.copy())
        return factor(self, A)

    monkeypatch.setattr(linsolve.BandCholesky, "factor", counted)
    two_grid = solver._pressure
    iterations = []
    state = solver.initialize()
    for _ in range(5):
        state = solver.step(state)
        iterations += two_grid.iterations
    assert len(factors) == 1
    assert len(iterations) == 5 * solver.config.n_piso
    assert max(iterations) <= 2 * iterations[0]
    # a pressure matrix 30x larger leaves the coarse factor 30x too small
    A = 30.0 * solver._A_p
    b = A @ np.ones(A.shape[0])
    two_grid.factor(A)
    x = linsolve.solve_cg(two_grid, b, tol=LIN_TOL)
    assert two_grid.iterations[-1] > 2 * iterations[0]
    assert len(factors) == 2
    ref = 30.0 * two_grid.coarse_matrix(solver._A_p).data
    assert np.abs(factors[-1] - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.linalg.norm(b - A @ x) <= LIN_TOL * np.linalg.norm(b)
    # the fresh factor brings the iterations back
    linsolve.solve_cg(two_grid, b, tol=LIN_TOL)
    assert two_grid.iterations[-1] <= 2 * iterations[0]
    assert len(factors) == 2


def test_coarse_factor_is_judged_by_iterations_per_decade(monkeypatch):
    """A loose solve takes fewer iterations than a tight one with the same
    coarse factor, but as many per decade of residual reduction: the
    tight solves after it, to LIN_TOL, keep the factor. Judged on the
    iterations alone, the second solve rebuilt it."""
    solver = pipe_solver()
    solver.step(solver.initialize())
    two_grid = solver._pressure
    A = solver._A_p
    b = A @ np.ones(A.shape[0])
    two_grid.refactor(A)
    two_grid.factor(A)
    refactors = []
    refactor = linsolve.TwoGrid.refactor
    monkeypatch.setattr(linsolve.TwoGrid, "refactor", lambda self, A:
                        refactors.append(1) or refactor(self, A))
    for tol in (1e-2, LIN_TOL, LIN_TOL):
        x = linsolve.solve_cg(two_grid, b, tol=tol)
        assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)
    loose, *tight = two_grid.iterations
    assert max(tight) > 2 * loose
    assert refactors == []


def test_each_cg_iteration_makes_one_coarse_solve(monkeypatch):
    """One two-grid cycle (a coarse ``dpbtrs``) per iteration and none
    more: no probe of the cycle, which a scipy LinearOperator built
    without a dtype made once per solve."""
    solver = pipe_solver()
    state = solver.step(solver.initialize())
    coarse_solves = []
    dpbtrs = linsolve.dpbtrs

    def counted(*args, **kwargs):
        coarse_solves.append(1)
        return dpbtrs(*args, **kwargs)

    monkeypatch.setattr(linsolve, "dpbtrs", counted)
    solver.step(state)
    iterations = solver._pressure.iterations
    assert len(iterations) == solver.config.n_piso
    assert min(iterations) > 0
    assert len(coarse_solves) == sum(iterations)


def test_stale_coarse_factor_is_rebuilt_and_the_solve_retried():
    """A solve that does not converge with a coarse factor of an older
    matrix rebuilds the factor and retries once from its last iterate,
    where it converges."""
    solver = pipe_solver()
    solver.step(solver.initialize())
    two_grid = solver._pressure
    A = 1e4 * solver._A_p
    b = A @ np.ones(A.shape[0])
    two_grid.factor(A)
    x = linsolve.solve_cg(two_grid, b, tol=LIN_TOL, maxiter=30)
    assert two_grid.iterations[0] == 30 and len(two_grid.iterations) == 2
    assert np.linalg.norm(b - A @ x) <= LIN_TOL * np.linalg.norm(b)


def test_non_finite_residual_skips_the_krylov_solves(monkeypatch):
    """A NaN pressure makes the step's momentum right-hand side
    non-finite, and a NaN in b the pressure's: each solve raises before it
    iterates, with ||b - A x|| / r0 at its start, NaN."""
    solver = pipe_solver()
    state = solver.step(solver.initialize())
    state.p[5] = np.nan
    momentum = kept_iterates(monkeypatch, solver._momentum)
    pressure = kept_iterates(monkeypatch, solver._pressure)
    b = np.ones(solver.mesh.n_cells)
    b[5] = np.nan
    for name, solve in (("BiCGStab", lambda: solver.step(state)),
                        ("CG", lambda: linsolve.solve_cg(solver._pressure,
                                                         b))):
        with np.errstate(invalid="ignore"), \
                pytest.raises(SolverFailure, match=rf"^{name} failed \(info="
                              r"non-finite initial residual, iterations "
                              r"\[\]\)$") as failed:
            solve()
        assert np.isnan(failed.value.residual_history).all()
        assert len(failed.value.residual_history) == 1
    assert momentum == pressure == []


def test_a_failed_3d_solve_loads_no_sparse_linalg():
    """A 3D pressure solve cut short (one iteration to 1e-14) raises
    SolverFailure, and no solve path loads scipy.sparse.linalg: run in a
    fresh interpreter, as this module imports it."""
    probe = "\n".join([
        "import sys",
        "import numpy as np",
        "from hemoflow.errors import SolverFailure",
        "from hemoflow.fv import PisoSolver, SolverConfig, linsolve, "
        "poiseuille_bcs",
        "from hemoflow.mesh import generate_pipe_mesh",
        "mesh = generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12)",
        "solver = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-6), config="
        "SolverConfig(dt=0.01, convection_scheme='upwind'))",
        "state = solver.step(solver.initialize())",
        "A = solver._A_p",
        "try:",
        "    linsolve.solve_cg(solver._pressure, A @ np.ones(A.shape[0]),",
        "                      x0=state.p, tol=1e-14, maxiter=1)",
        "    print('solved')",
        "except SolverFailure as failure:",
        "    print(failure)",
        "print(any(m.startswith('scipy.sparse.linalg') for m in sys.modules))",
    ])
    src = os.path.dirname(os.path.dirname(hemoflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out == ["CG failed (info=1, iterations [1, 1])", "False"]
