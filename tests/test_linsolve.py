"""Linear-solver layer: factored 2D pressure, Jacobi-BiCGStab momentum."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hemoflow.errors import SolverFailure
from hemoflow.fv import (BoundaryConditionSet, FluidProperties, InflowBC,
                         NoSlipBC, PisoSolver, PressureZeroGradientBC,
                         SolverConfig, VelocityZeroGradientBC, WindkesselBC,
                         linsolve, poiseuille_bcs)
from hemoflow.mesh import generate_bifurcation_mesh, generate_pipe_mesh
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
    """One step with every pressure and momentum solve recorded.

    Returns (new state, [(A, b, lu)] per pressure solve,
    [(A, B)] per momentum solve, factorizations made).
    """
    counter = _CountingLinalg()
    monkeypatch.setattr(linsolve, "spla", counter)
    pressure, momentum = [], []
    solve_cg, solve_bicgstab = linsolve.solve_cg, linsolve.solve_bicgstab

    def cg(A, b, **kwargs):
        pressure.append((A, b.copy(), kwargs.get("lu")))
        return solve_cg(A, b, **kwargs)

    def bicgstab(A, B, **kwargs):
        momentum.append((A, B.copy()))
        return solve_bicgstab(A, B, **kwargs)

    monkeypatch.setattr(linsolve, "solve_cg", cg)
    monkeypatch.setattr(linsolve, "solve_bicgstab", bicgstab)
    new = solver.step(state)
    monkeypatch.undo()
    return new, pressure, momentum, counter.factorizations


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
    solver, _, (_, pressure, momentum, factorizations) = bif_step
    cfg = solver.config
    assert solver._has_nonorth
    assert len(pressure) == cfg.n_piso * cfg.n_nonorth == 4
    assert len(momentum) == 1
    assert factorizations == 1
    lu = pressure[0][2]
    assert lu is not None
    assert all(A is pressure[0][0] and f is lu for A, _, f in pressure)


def test_3d_step_makes_no_factorization(pipe_step):
    solver, _, (_, pressure, momentum, factorizations) = pipe_step
    assert len(pressure) == solver.config.n_piso
    assert len(momentum) == 1
    assert factorizations == 0
    assert all(lu is None for _, _, lu in pressure)


def test_factored_pressure_matches_jacobi_cg(bif_step):
    _, _, (_, pressure, _, _) = bif_step
    for A, b, lu in pressure:
        x_lu = linsolve.solve_cg(A, b, lu=lu)
        x_cg = linsolve.solve_cg(A, b, tol=1e-12)
        assert np.linalg.norm(A @ x_lu - b) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x_cg - x_lu) <= LIN_TOL * np.linalg.norm(x_lu)


@pytest.mark.parametrize("case", ["bif_step", "pipe_step"])
def test_jacobi_bicgstab_matches_lu(case, request):
    solver, state, (_, _, momentum, _) = request.getfixturevalue(case)
    (A, B), = momentum
    assert B.shape == (solver.mesh.n_cells, solver.mesh.dim)
    X = linsolve.solve_bicgstab(A, B, x0=state.u, tol=1e-10)
    X_lu = spla.splu(A.tocsc()).solve(B)
    assert np.abs(X - X_lu).max() <= 1e-8 * np.abs(X_lu).max()


def test_bicgstab_falls_back_to_lu(monkeypatch, pipe_step):
    _, _, (_, _, momentum, _) = pipe_step
    (A, B), = momentum
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
        linsolve.factor(A)
    with pytest.raises(SolverFailure):
        linsolve.solve_cg(A, b, maxiter=50)
    with pytest.raises(SolverFailure):
        linsolve.solve_bicgstab(A, b[:, None], maxiter=50)
