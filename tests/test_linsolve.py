"""Linear-solver layer: fixed-pattern assembly in place, and the solver
objects that ``linsolve.system_solvers`` picks per mesh class: banded LU
(momentum) and banded Cholesky (pressure) on narrow-band 2D meshes,
Jacobi-BiCGStab and a sparse LU on wide-band 2D meshes, Jacobi-BiCGStab
and two-grid CG on 3D meshes; the guard and LU fallback that both Krylov
solvers share."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hemoflow.errors import SolverFailure
from hemoflow.fv import (BoundaryConditionSet, FluidProperties, InflowBC,
                         NoSlipBC, PisoSolver, PressureZeroGradientBC,
                         SolverConfig, VelocityZeroGradientBC, WindkesselBC,
                         linsolve, poiseuille_bcs)
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
        "outlet": (VelocityZeroGradientBC(), WindkesselBC(outlet)),
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


class _CountingLinalg:
    """Stands in for scipy.sparse.linalg and counts complete and
    incomplete LU factorizations."""

    def __init__(self):
        self.factorizations = 0

    def __getattr__(self, name):
        return getattr(spla, name)

    def splu(self, *args, **kwargs):
        self.factorizations += 1
        return spla.splu(*args, **kwargs)

    def spilu(self, *args, **kwargs):
        self.factorizations += 1
        return spla.spilu(*args, **kwargs)


def recorded_step(monkeypatch, solver, state):
    """One step with every factorization and linear solve recorded.

    Returns (new state, [(A, b, system)] per pressure solve,
    [(A, B, system)] per momentum solve, [(A, factor)] per banded LU or
    Cholesky factorization, sparse LU factorizations made through scipy).
    """
    counter = _CountingLinalg()
    monkeypatch.setattr(linsolve, "spla", counter)
    pressure, momentum, factors = [], [], []
    solve_cg, solve_bicgstab = linsolve.solve_cg, linsolve.solve_bicgstab
    band_factor = linsolve.BandFactor.factor

    def factor(self, A):
        factors.append((A, self))
        return band_factor(self, A)

    def cg(system, b, **kwargs):
        pressure.append((system.A, b.copy(), system))
        return solve_cg(system, b, **kwargs)

    def bicgstab(system, B, **kwargs):
        momentum.append((system.A, B.copy(), system))
        return solve_bicgstab(system, B, **kwargs)

    monkeypatch.setattr(linsolve.BandFactor, "factor", factor)
    monkeypatch.setattr(linsolve, "solve_cg", cg)
    monkeypatch.setattr(linsolve, "solve_bicgstab", bicgstab)
    new = solver.step(state)
    monkeypatch.undo()
    return new, pressure, momentum, factors, counter.factorizations


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
    shared by all four pressure solves; no scipy LU."""
    solver, _, (_, pressure, momentum, factors, splu_calls) = bif_step
    cfg = solver.config
    assert solver._has_nonorth
    assert len(pressure) == cfg.n_piso * cfg.n_nonorth == 4
    assert len(momentum) == 1
    assert len(factors) == 2
    assert splu_calls == 0
    (A_m, lu_m), (A_p, lu_p) = factors
    assert lu_m is solver._momentum and lu_p is solver._pressure
    # the solver's own matrices, filled in place
    assert A_m is solver._A_m and A_p is solver._A_p
    assert momentum[0][0] is A_m and momentum[0][2] is lu_m
    assert all(A is A_p and lu is lu_p for A, _, lu in pressure)


def test_3d_step_makes_no_factorization(pipe_step):
    """The second 3D step reuses the coarse factor of the first."""
    solver, _, (_, pressure, momentum, factors, splu_calls) = pipe_step
    assert len(pressure) == solver.config.n_piso
    assert len(momentum) == 1
    assert factors == [] and splu_calls == 0
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
    (bifurcation_solver, True, linsolve.JacobiBiCGStab, linsolve.SparseLU),
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
    solver.step(state)
    assert (solver._momentum, solver._pressure) == systems
    assert solver._momentum.A is solver._A_m
    assert solver._pressure.A is solver._A_p


def test_wide_band_2d_step_uses_sparse_lu_and_bicgstab(monkeypatch):
    """Above the bound a 2D step makes one sparse LU of the pressure
    matrix, shared by its four solves, and solves momentum by
    Jacobi-BiCGStab; the step agrees with the banded one."""
    banded = bifurcation_solver()
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", 0)
    wide = bifurcation_solver()
    monkeypatch.undo()
    ref = banded.step(banded.step(banded.initialize()))
    new, pressure, momentum, factors, splu_calls = recorded_step(
        monkeypatch, wide, wide.step(wide.initialize()))
    assert factors == [] and splu_calls == 1
    assert len(pressure) == 4 and len(momentum) == 1
    assert isinstance(wide._pressure, linsolve.SparseLU)
    assert all(system is wide._pressure for _, _, system in pressure)
    assert isinstance(momentum[0][2], linsolve.JacobiBiCGStab)
    for a, b in ((new.p, ref.p), (new.u, ref.u)):
        assert np.linalg.norm(a - b) <= LIN_TOL * np.linalg.norm(b)


def test_factored_pressure_matches_spsolve(bif_step):
    _, _, (_, pressure, _, _, _) = bif_step
    for A, b, system in pressure:
        x = linsolve.solve_cg(system, b)
        x_ref = spla.spsolve(A.tocsc(), b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def jacobi_bicgstab(A):
    system = linsolve.JacobiBiCGStab()
    system.factor(A)
    return system


@pytest.mark.parametrize("case", ["bif_step", "pipe_step"])
def test_jacobi_bicgstab_matches_lu(case, request):
    solver, state, (_, _, momentum, _, _) = request.getfixturevalue(case)
    (A, B, _), = momentum
    assert B.shape == (solver.mesh.n_cells, solver.mesh.dim)
    X = linsolve.solve_bicgstab(jacobi_bicgstab(A), B, x0=state.u,
                                tol=1e-10)
    X_lu = spla.splu(A.tocsc()).solve(B)
    assert np.abs(X - X_lu).max() <= 1e-8 * np.abs(X_lu).max()


def test_bicgstab_falls_back_to_lu(monkeypatch, pipe_step):
    _, _, (_, _, momentum, _, _) = pipe_step
    (A, B, _), = momentum
    counter = _CountingLinalg()
    monkeypatch.setattr(linsolve, "spla", counter)
    X = linsolve.solve_bicgstab(jacobi_bicgstab(A), B, tol=1e-14, maxiter=1)
    assert counter.factorizations == 1    # one LU shared by the columns
    X_lu = spla.splu(A.tocsc()).solve(B)
    assert np.allclose(X, X_lu, rtol=0.0, atol=1e-12 * np.abs(X_lu).max())


def neumann_laplacian(n=10):
    """Exactly singular: every row sums to zero."""
    main = np.full(n, 2.0)
    main[[0, -1]] = 1.0
    return sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1],
                    format="csr")


def two_grid_of(A):
    """A ``TwoGrid`` on the pattern of ``A`` (CSR, sorted indices), its
    aggregates grouped by |a_ij|, factored with ``A``."""
    n = A.shape[0]
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    upper = rows < A.indices
    system = linsolve.TwoGrid(linsolve.Pattern(n, rows, A.indices),
                              rows[upper], A.indices[upper],
                              np.abs(A.data[upper]))
    system.factor(A)
    return system


class _LastIterate(_CountingLinalg):
    """Keeps the iterate that each Krylov solve returns; with ``lu_fails``
    every sparse LU fails as on a singular matrix."""

    def __init__(self, lu_fails=False):
        super().__init__()
        self.lu_fails = lu_fails
        self.x = None

    def _keep(self, solve, *args, **kwargs):
        self.x, info = solve(*args, **kwargs)
        return self.x, info

    def cg(self, *args, **kwargs):
        return self._keep(spla.cg, *args, **kwargs)

    def bicgstab(self, *args, **kwargs):
        return self._keep(spla.bicgstab, *args, **kwargs)

    def splu(self, *args, **kwargs):
        if self.lu_fails:
            raise RuntimeError("Factor is exactly singular")
        return super().splu(*args, **kwargs)


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
    with pytest.raises(SolverFailure, match="LU factorization"):
        linsolve.SparseLU().factor(A)
    # the coarse matrix of the two-grid cycle is singular too
    with pytest.raises(SolverFailure):
        linsolve.solve_cg(two_grid_of(A), b, x0=x0, maxiter=50)
    kept = _LastIterate()
    monkeypatch.setattr(linsolve, "spla", kept)
    with pytest.raises(SolverFailure, match="LU fallback") as failed:
        linsolve.solve_bicgstab(jacobi_bicgstab(A), b[:, None],
                                x0=x0[:, None], maxiter=50)
    res = relative_residual(A, b, kept.x, x0)
    assert failed.value.residual_history == [pytest.approx(res, rel=1e-12)]
    assert res != pytest.approx(np.linalg.norm(b - A @ kept.x)
                                / np.linalg.norm(b))


def test_singular_coarse_matrix_fails_the_iteration_not_the_solve(
        monkeypatch):
    """When the two-grid cycle cannot factor its coarse matrix (A is
    singular), CG has failed: the solve goes on to the sparse LU fallback
    like every Krylov solve, and when that fails too it reports
    ||b - A x|| / r0 at the last iterate, here the start."""
    A = neumann_laplacian()
    b = np.zeros(A.shape[0])
    b[0] = 1.0                   # not in the range of A
    x0 = np.linspace(0.0, 1.0, len(b))
    kept = _LastIterate()
    monkeypatch.setattr(linsolve, "spla", kept)
    with pytest.raises(SolverFailure, match="coarse Cholesky.*LU fallback"
                       ) as failed:
        linsolve.solve_cg(two_grid_of(A), b, x0=x0, maxiter=50)
    assert kept.factorizations == 1 and kept.x is None
    assert failed.value.residual_history == [1.0]


@pytest.mark.parametrize("system", ["momentum", "pressure"])
def test_failed_krylov_solves_report_the_same_residual(monkeypatch,
                                                       system):
    """CG and BiCGStab share their guard: with the iterations cut short
    and no LU fallback, both report ||b - A x|| / r0."""
    solver = pipe_solver()
    state = solver.step(solver.initialize())
    solver.step(state)
    solve = (linsolve.solve_bicgstab if system == "momentum"
             else linsolve.solve_cg)
    krylov = solver._momentum if system == "momentum" else solver._pressure
    A = krylov.A
    x0 = state.p if system == "pressure" else state.u[:, 0]
    b = A @ np.ones(A.shape[0])
    kept = _LastIterate(lu_fails=True)
    monkeypatch.setattr(linsolve, "spla", kept)
    shape = (-1,) if system == "pressure" else (-1, 1)
    with pytest.raises(SolverFailure, match="LU fallback") as failed:
        solve(krylov, b.reshape(shape), x0=x0.reshape(shape), tol=1e-14,
              maxiter=1)
    res = relative_residual(A, b, kept.x, x0)
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
    _, _, (_, pressure, _, _, _) = bif_step
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
    _, _, (_, pressure, momentum, _, _) = bif_step
    A, b, _ = momentum[0] if system == "momentum" else pressure[0]
    assert b.ndim == (2 if system == "momentum" else 1)
    x_ref = spla.splu(A.tocsc()).solve(b)
    lu = linsolve.BandLU(linsolve.BandOrder(A.indptr, A.indices))
    x = lu.factor(A).solve(b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_band_storage_holds_the_permuted_matrix(bif_step):
    solver, _, (_, _, _, factors, _) = bif_step
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


def coo_assembly(solver):
    """The (rows, cols) order in which ``_momentum_system`` and
    ``_pressure_matrix`` emit their values."""
    g = solver.mesh.fv
    o, n = g.i_owner, g.i_neigh
    cells = np.arange(solver.mesh.n_cells)
    rows = np.concatenate([o, o, n, n])
    cols = np.concatenate([o, n, n, o])
    bo_p = g.b_owner[solver._fixed_p]
    return {
        "momentum": (np.concatenate([rows, cells, g.b_owner]),
                     np.concatenate([cols, cells, g.b_owner])),
        "pressure": (np.concatenate([rows, bo_p]),
                     np.concatenate([cols, bo_p])),
    }


def assert_matches_coo_assembly(monkeypatch, solver, state):
    """Step once, and check that each fixed-pattern matrix, filled in
    place, equals the COO -> CSR conversion of the same values."""
    built = []
    fill = solver._pattern.fill

    def recording_fill(A, slots, vals):
        filled = fill(A, slots, vals)
        assert filled is A
        built.append((vals.copy(), A.copy()))
        return A

    monkeypatch.setattr(solver._pattern, "fill", recording_fill)
    state = solver.step(state)
    monkeypatch.undo()
    coo = coo_assembly(solver)
    assert len(built) == 2
    for (vals, A), name in zip(built, ("momentum", "pressure")):
        rows, cols = coo[name]
        ref = sp.csr_matrix((vals, (rows, cols)), shape=A.shape)
        assert ref.has_canonical_format
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        scale = np.abs(vals).max()
        assert np.abs(A.data - ref.data).max() <= 1e-14 * scale
    return state, built


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
    _, A_p = built[1]
    c_int = built[1][0][:len(g.internal)]   # A_p's internal coefficients
    assert A_p[0, 1] == pytest.approx(-c_int[twins].sum(), rel=1e-15)
    assert state.continuity_error() < 1e-10


# -- the 3D pressure preconditioner --------------------------------------------

def prolongation(two_grid):
    """The piecewise-constant prolongation P (n x aggregates)."""
    agg = two_grid.aggregate
    return sp.csr_matrix((np.ones(len(agg)), (np.arange(len(agg)), agg)))


class _CountingCG(_CountingLinalg):
    """Also counts the iterations of every CG solve."""

    def __init__(self):
        super().__init__()
        self.iterations = []

    def cg(self, A, b, callback=None, **kwargs):
        self.iterations.append(0)

        def count(xk):
            self.iterations[-1] += 1
            if callback is not None:
                callback(xk)
        return spla.cg(A, b, callback=count, **kwargs)


def test_coarse_matrix_is_the_galerkin_product(pipe_step):
    solver, _, (_, pressure, _, _, _) = pipe_step
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
    solver, _, (_, pressure, _, _, _) = pipe_step
    A = pressure[0][0]
    n = A.shape[0]
    M = solver._pressure.operator(A)
    dense = np.column_stack([M.matvec(e) for e in np.eye(n)])
    assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0.0


def test_two_grid_cg_takes_a_quarter_of_the_jacobi_iterations(monkeypatch):
    """On the benchmark's 8000-cell pipe."""
    mesh = generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40)
    cfg = SolverConfig(dt=0.01, convection_scheme="upwind", lin_tol=LIN_TOL,
                       cfl_max=1e9)
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-4, profile="parabolic"),
                        FluidProperties(), cfg)
    _, pressure, _, _, _ = recorded_step(monkeypatch, solver,
                                         solver.initialize())
    A, b, system = pressure[-1]
    counter = _CountingCG()
    monkeypatch.setattr(linsolve, "spla", counter)
    d = A.diagonal()
    x_jacobi, info = counter.cg(
        A, b, rtol=0.0, atol=LIN_TOL * np.linalg.norm(b), maxiter=5000,
        M=spla.LinearOperator(A.shape, lambda v: v / d))
    assert info == 0
    x = linsolve.solve_cg(system, b, tol=LIN_TOL)
    jacobi, two_grid = counter.iterations
    assert two_grid <= jacobi / 4
    assert np.linalg.norm(b - A @ x) <= LIN_TOL * np.linalg.norm(b)
    assert np.linalg.norm(x - x_jacobi) <= 10 * LIN_TOL * np.linalg.norm(x)


def test_first_3d_step_factors_the_coarse_matrix(monkeypatch):
    """The step's pressure solves are one ``solve_cg`` call each, all with
    the solver's two-grid cycle, and momentum one ``solve_bicgstab``
    call; the only factor is the coarse Cholesky, made once."""
    solver = pipe_solver()
    _, pressure, momentum, factors, splu_calls = recorded_step(
        monkeypatch, solver, solver.initialize())
    assert len(pressure) == solver.config.n_piso and len(momentum) == 1
    assert splu_calls == 0
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
    counter = _CountingCG()
    monkeypatch.setattr(linsolve, "spla", counter)
    state = solver.initialize()
    for _ in range(5):
        state = solver.step(state)
    assert len(factors) == 1
    assert max(counter.iterations) <= 2 * counter.iterations[0]
    # a pressure matrix 30x larger leaves the coarse factor 30x too small
    two_grid = solver._pressure
    A = 30.0 * solver._A_p
    b = A @ np.ones(A.shape[0])
    two_grid.factor(A)
    x = linsolve.solve_cg(two_grid, b, tol=LIN_TOL)
    assert counter.iterations[-1] > 2 * counter.iterations[0]
    assert len(factors) == 2
    ref = 30.0 * two_grid.coarse_matrix(solver._A_p).data
    assert np.abs(factors[-1] - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.linalg.norm(b - A @ x) <= LIN_TOL * np.linalg.norm(b)
    # the fresh factor brings the iterations back
    linsolve.solve_cg(two_grid, b, tol=LIN_TOL)
    assert counter.iterations[-1] <= 2 * counter.iterations[0]
    assert len(factors) == 2


def test_each_cg_iteration_makes_one_coarse_solve(monkeypatch):
    """A LinearOperator built without a dtype is probed once by scipy to
    infer one, which cost one two-grid cycle (a coarse ``dpbtrs``) per
    pressure solve."""
    solver = pipe_solver()
    state = solver.step(solver.initialize())
    coarse_solves = []
    dpbtrs = linsolve.dpbtrs

    def counted(*args, **kwargs):
        coarse_solves.append(1)
        return dpbtrs(*args, **kwargs)

    monkeypatch.setattr(linsolve, "dpbtrs", counted)
    counter = _CountingCG()
    monkeypatch.setattr(linsolve, "spla", counter)
    solver.step(state)
    assert len(counter.iterations) == solver.config.n_piso
    assert min(counter.iterations) > 0
    assert len(coarse_solves) == sum(counter.iterations)


def test_stale_coarse_factor_is_rebuilt_before_the_lu_fallback(monkeypatch):
    solver = pipe_solver()
    state = solver.step(solver.initialize())
    two_grid = solver._pressure
    A = 1e4 * solver._A_p
    b = A @ np.ones(A.shape[0])
    counter = _CountingCG()
    monkeypatch.setattr(linsolve, "spla", counter)
    two_grid.factor(A)
    x = linsolve.solve_cg(two_grid, b, tol=LIN_TOL, maxiter=30)
    assert counter.iterations[0] == 30 and len(counter.iterations) == 2
    assert counter.factorizations == 0
    assert np.linalg.norm(b - A @ x) <= LIN_TOL * np.linalg.norm(b)


class _CountingKrylov(_CountingCG):
    """Also counts BiCGStab solves."""

    def __init__(self):
        super().__init__()
        self.bicgstab_calls = 0

    def bicgstab(self, *args, **kwargs):
        self.bicgstab_calls += 1
        return spla.bicgstab(*args, **kwargs)


def test_non_finite_residual_skips_the_krylov_solves(monkeypatch):
    """A NaN pressure makes the step's right-hand sides non-finite: every
    solve goes straight to its LU fallback, and the continuity gate
    raises."""
    solver = pipe_solver()
    state = solver.initialize()
    state.p[5] = np.nan
    counter = _CountingKrylov()
    monkeypatch.setattr(linsolve, "spla", counter)
    with np.errstate(invalid="ignore"), \
            pytest.raises(SolverFailure, match="continuity"):
        solver.step(state)
    assert counter.iterations == [] and counter.bicgstab_calls == 0
    assert counter.factorizations >= 1
