"""Linear-solver layer: fixed-pattern assembly, banded LU on narrow-band
2D meshes, sparse LU and Jacobi-BiCGStab on wide-band 2D meshes,
Jacobi-Krylov on 3D meshes."""

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

    Returns (new state, [(A, b, lu)] per pressure solve,
    [(A, B, lu)] per momentum solve, [(A, lu)] per ``linsolve.factor``
    call, sparse LU factorizations made through scipy).
    """
    counter = _CountingLinalg()
    monkeypatch.setattr(linsolve, "spla", counter)
    pressure, momentum, factors = [], [], []
    factor = linsolve.factor
    solve_cg, solve_bicgstab = linsolve.solve_cg, linsolve.solve_bicgstab

    def counted_factor(A, *args):
        lu = factor(A, *args)
        factors.append((A, lu))
        return lu

    def cg(A, b, **kwargs):
        pressure.append((A, b.copy(), kwargs.get("lu")))
        return solve_cg(A, b, **kwargs)

    def bicgstab(A, B, **kwargs):
        momentum.append((A, B.copy(), kwargs.get("lu")))
        return solve_bicgstab(A, B, **kwargs)

    monkeypatch.setattr(linsolve, "factor", counted_factor)
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
    """Two banded LUs per 2D step: one of the momentum matrix, used by
    its single solve, and one of the pressure matrix, shared by all four
    pressure solves; no scipy LU."""
    solver, _, (_, pressure, momentum, factors, splu_calls) = bif_step
    cfg = solver.config
    assert solver._has_nonorth
    assert len(pressure) == cfg.n_piso * cfg.n_nonorth == 4
    assert len(momentum) == 1
    assert len(factors) == 2
    assert splu_calls == 0
    (A_m, lu_m), (A_p, lu_p) = factors
    assert momentum[0][0] is A_m and momentum[0][2] is lu_m
    assert all(A is A_p and lu is lu_p for A, _, lu in pressure)


def test_3d_step_makes_no_factorization(pipe_step):
    solver, _, (_, pressure, momentum, factors, splu_calls) = pipe_step
    assert len(pressure) == solver.config.n_piso
    assert len(momentum) == 1
    assert factors == [] and splu_calls == 0
    assert all(lu is None for _, _, lu in pressure)
    assert momentum[0][2] is None


def test_band_order_is_refused_above_the_work_bound(monkeypatch, bif_step):
    solver, _, _ = bif_step
    pattern, band = solver._pattern, solver._band
    work = band.n * band.k ** 2
    assert work <= linsolve.BAND_MAX_WORK
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", work)
    order = linsolve.band_order(pattern.indptr, pattern.indices)
    assert order.k == band.k and np.array_equal(order.perm, band.perm)
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", work - 1)
    assert linsolve.band_order(pattern.indptr, pattern.indices) is None


def test_wide_band_2d_step_uses_sparse_lu_and_bicgstab(monkeypatch):
    """Above the bound a 2D step makes one sparse LU of the pressure
    matrix, shared by its four solves, and solves momentum by
    Jacobi-BiCGStab; the step agrees with the banded one."""
    banded = bifurcation_solver()
    monkeypatch.setattr(linsolve, "BAND_MAX_WORK", 0)
    wide = bifurcation_solver()
    monkeypatch.undo()
    assert banded._band is not None and wide._band is None
    ref = banded.step(banded.step(banded.initialize()))
    new, pressure, momentum, factors, splu_calls = recorded_step(
        monkeypatch, wide, wide.step(wide.initialize()))
    assert factors == [] and splu_calls == 1
    assert len(pressure) == 4 and len(momentum) == 1
    lu_p = pressure[0][2]
    assert lu_p is not None and all(lu is lu_p for _, _, lu in pressure)
    assert momentum[0][2] is None
    for a, b in ((new.p, ref.p), (new.u, ref.u)):
        assert np.linalg.norm(a - b) <= LIN_TOL * np.linalg.norm(b)


def test_factored_pressure_matches_jacobi_cg(bif_step):
    _, _, (_, pressure, _, _, _) = bif_step
    for A, b, lu in pressure:
        x_lu = linsolve.solve_cg(A, b, lu=lu)
        x_cg = linsolve.solve_cg(A, b, tol=1e-12)
        assert np.linalg.norm(A @ x_lu - b) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x_cg - x_lu) <= LIN_TOL * np.linalg.norm(x_lu)


@pytest.mark.parametrize("case", ["bif_step", "pipe_step"])
def test_jacobi_bicgstab_matches_lu(case, request):
    solver, state, (_, _, momentum, _, _) = request.getfixturevalue(case)
    (A, B, _), = momentum
    assert B.shape == (solver.mesh.n_cells, solver.mesh.dim)
    X = linsolve.solve_bicgstab(A, B, x0=state.u, tol=1e-10)
    X_lu = spla.splu(A.tocsc()).solve(B)
    assert np.abs(X - X_lu).max() <= 1e-8 * np.abs(X_lu).max()


def test_bicgstab_falls_back_to_lu(monkeypatch, pipe_step):
    _, _, (_, _, momentum, _, _) = pipe_step
    (A, B, _), = momentum
    counter = _CountingLinalg()
    monkeypatch.setattr(linsolve, "spla", counter)
    X = linsolve.solve_bicgstab(A, B, tol=1e-14, maxiter=1)
    assert counter.factorizations == 1    # one LU shared by the columns
    X_lu = spla.splu(A.tocsc()).solve(B)
    assert np.allclose(X, X_lu, rtol=0.0, atol=1e-12 * np.abs(X_lu).max())


def neumann_laplacian(n=10):
    """Exactly singular: every row sums to zero."""
    main = np.full(n, 2.0)
    main[[0, -1]] = 1.0
    return sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1],
                    format="csr")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_matrix_raises_solver_failure():
    A = neumann_laplacian()
    b = np.zeros(A.shape[0])
    b[0] = 1.0                   # not in the range of A
    with pytest.raises(SolverFailure):
        linsolve.sparse_factor(A)
    with pytest.raises(SolverFailure):
        linsolve.solve_cg(A, b, maxiter=50)
    with pytest.raises(SolverFailure):
        linsolve.solve_bicgstab(A, b[:, None], maxiter=50)


def test_banded_factor_of_singular_matrix_raises():
    """The banded LU flags the zero pivot, also in a shuffled ordering
    that reverse Cuthill-McKee has to undo."""
    A = neumann_laplacian()
    shuffle = np.random.default_rng(3).permutation(A.shape[0])
    for M in (A, A[shuffle][:, shuffle].tocsr()):
        M.sort_indices()
        with pytest.raises(SolverFailure, match="LU factorization"):
            linsolve.factor(M, linsolve.BandOrder(M.indptr, M.indices))


@pytest.mark.parametrize("system", ["momentum", "pressure"])
def test_banded_lu_matches_splu(bif_step, system):
    """Two-column momentum and one-column pressure right-hand sides."""
    _, _, (_, pressure, momentum, _, _) = bif_step
    A, b, _ = momentum[0] if system == "momentum" else pressure[0]
    assert b.ndim == (2 if system == "momentum" else 1)
    x_ref = spla.splu(A.tocsc()).solve(b)
    x = linsolve.factor(A, linsolve.BandOrder(A.indptr, A.indices)).solve(b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_band_storage_holds_the_permuted_matrix(bif_step):
    solver, _, (_, _, _, factors, _) = bif_step
    band = solver._band
    n, k = solver.mesh.n_cells, band.k
    assert 0 < k < n // 10                  # narrow in RCM order
    for A, _ in factors:
        ab = band.band(A)
        assert ab.shape == (3 * k + 1, n) and ab.flags.f_contiguous
        assert not ab[:k].any()             # room for the LU fill
        unpacked = np.zeros((n, n))
        for d in range(-k, k + 1):          # diagonal j - i = d
            j = np.arange(max(d, 0), min(n, n + d))
            unpacked[j - d, j] = ab[2 * k - d, j]
        P = A.toarray()[band.perm][:, band.perm]
        assert np.array_equal(unpacked, P)


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
    """Step once, and check that each fixed-pattern matrix equals the
    COO -> CSR conversion of the same values."""
    built = []
    matrix = solver._pattern.matrix

    def recording_matrix(slots, vals):
        A = matrix(slots, vals)
        built.append((vals.copy(), A))
        return A

    monkeypatch.setattr(solver._pattern, "matrix", recording_matrix)
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
    a, b = mesh.face_nodes[f]
    points = np.vstack([mesh.points, 0.5 * (mesh.points[a] + mesh.points[b])])
    m = len(points) - 1
    face_nodes = list(mesh.face_nodes)
    face_nodes[f] = (a, m)
    face_nodes.append((m, b))
    patches = [Patch(p.name, p.kind, p.face_ids, dict(p.meta))
               for p in mesh.patches.values()]
    return Mesh(2, points, face_nodes, np.append(mesh.owner, 0),
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
