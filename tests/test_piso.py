"""Transient incompressible solver: analytic channel flow and guards."""

import numpy as np
import pytest

from hemoflow.errors import InvalidArgumentError, SolverFailure
from hemoflow.fv import (FlowState, FluidProperties, PisoSolver,
                         SolverConfig, diffusion_term, poiseuille_bcs)
from hemoflow.mesh import (generate_bifurcation_mesh, generate_channel_mesh,
                           generate_pipe_mesh)

H = 0.2      # channel height [m]
U_MEAN = 1.0  # bulk velocity [m/s]
FLUID = FluidProperties(rho=1.0, mu=0.01)  # Re = U h / nu = 20


def channel_solution(dt=0.005, ny=10, perturb=0.0):
    mesh = generate_channel_mesh(1.0, H, 24, ny)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    cfg = SolverConfig(dt=dt, t_end=20.0, steady_tol=1e-7,
                       convection_scheme="upwind",
                       lin_tol=1e-8, continuity_tol=1e-5)
    solver = PisoSolver(mesh, bcs, FLUID, cfg)
    y = mesh.cell_centroid[:, 1]
    u0 = np.zeros((mesh.n_cells, 2))
    u0[:, 0] = (1.0 - perturb) * 6.0 * U_MEAN * (y / H) * (1.0 - y / H)
    state = solver.run(solver.initialize(u=u0))
    return mesh, state


@pytest.fixture(scope="module")
def channel():
    return channel_solution()


def test_parabolic_profile_recovered(channel):
    mesh, state = channel
    # compare against the exact profile in the downstream half
    sel = mesh.cell_centroid[:, 0] > 0.5
    y = mesh.cell_centroid[sel, 1]
    exact = 6.0 * U_MEAN * (y / H) * (1.0 - y / H)
    err = np.abs(state.u[sel, 0] - exact).max() / exact.max()
    assert err < 0.05
    assert np.abs(state.u[sel, 1]).max() < 0.01 * exact.max()


def test_mass_is_conserved(channel):
    mesh, state = channel
    q_in = -state.patch_flux("inlet")
    q_out = state.patch_flux("outlet")
    assert q_in == pytest.approx(U_MEAN * H, rel=1e-9)
    assert q_out == pytest.approx(q_in, rel=1e-8)
    assert state.continuity_error() < 1e-8


def test_axial_pressure_drop_is_linear(channel):
    """Fully developed flow: dp/dx = -12 mu U / h^2, uniform in x."""
    mesh, state = channel
    x = mesh.cell_centroid[:, 0]
    cols = np.unique(np.round(x, 12))
    p_col = np.array([state.p[np.isclose(x, c)].mean() for c in cols])
    slope = np.polyfit(cols, p_col, 1)[0]
    exact = -12.0 * FLUID.mu * U_MEAN / H**2
    assert slope == pytest.approx(exact, rel=0.05)


def test_steady_state_is_timestep_independent(channel):
    """Halving dt moves the steady field only through the residual
    pressure-velocity splitting error of the finite corrector loop."""
    _, state = channel
    _, state2 = channel_solution(dt=0.0025)
    assert np.abs(state2.u - state.u).max() < 5e-3 * np.abs(state.u).max()


def test_converges_from_perturbed_initial_state(channel):
    _, state = channel
    _, state2 = channel_solution(perturb=0.5)
    assert np.abs(state2.u - state.u).max() < 1e-3 * np.abs(state.u).max()


def test_cfl_breach_raises_when_configured():
    mesh = generate_channel_mesh(1.0, H, 24, 10)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    cfg = SolverConfig(dt=0.005, t_end=1.0, cfl_max=1e-6, cfl_action="error")
    solver = PisoSolver(mesh, bcs, FLUID, cfg)
    with pytest.raises(SolverFailure):
        solver.run()


def test_cfl_breach_warns_by_default():
    mesh = generate_channel_mesh(1.0, H, 24, 10)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    cfg = SolverConfig(dt=0.005, t_end=0.02, cfl_max=1e-6, cfl_action="warn")
    solver = PisoSolver(mesh, bcs, FLUID, cfg)
    with pytest.warns(RuntimeWarning, match="CFL"):
        solver.run()


def test_continuity_gate_raises():
    mesh = generate_channel_mesh(1.0, H, 24, 10)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    cfg = SolverConfig(dt=0.005, t_end=1.0, lin_tol=1e-2,
                       continuity_tol=1e-16)
    solver = PisoSolver(mesh, bcs, FLUID, cfg)
    with pytest.raises(SolverFailure, match="continuity"):
        solver.run()


def test_continuity_gate_raises_on_loose_3d_pressure_solve():
    """2D pressure solves are direct, so the gate above trips only at
    round-off; in 3D the pressure is iterative and lin_tol reaches it."""
    mesh = generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12)
    assert mesh.n_cells == 216
    bcs = poiseuille_bcs(mesh, 1e-5, profile="parabolic")

    def first_step(lin_tol):
        cfg = SolverConfig(dt=0.005, t_end=1.0, lin_tol=lin_tol,
                           continuity_tol=1e-6)
        solver = PisoSolver(mesh, bcs, FLUID, cfg)
        return solver.step(solver.initialize())

    assert first_step(1e-8).continuity_error() < 1e-6
    with pytest.raises(SolverFailure, match="continuity"):
        first_step(1e-2)


def test_state_shape_validation():
    mesh = generate_channel_mesh(1.0, H, 4, 4)
    with pytest.raises(InvalidArgumentError):
        FlowState(mesh, u=np.zeros((3, 2)))


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        SolverConfig(dt=-1.0)
    with pytest.raises(InvalidArgumentError):
        SolverConfig(convection_scheme="quick")
    with pytest.raises(InvalidArgumentError):
        SolverConfig(cfl_action="ignore")
    with pytest.raises(InvalidArgumentError):
        SolverConfig(n_piso=0)
    with pytest.raises(InvalidArgumentError):
        FluidProperties(rho=-1.0)


def test_deferred_nonorth_momentum_correction_is_the_diffusion_difference():
    """The explicit non-orthogonal momentum source equals the Laplacian
    with one correction minus the one without (their orthogonal and
    boundary parts cancel)."""
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)
    bcs = poiseuille_bcs(mesh, 1e-6, profile="plug")
    solver = PisoSolver(mesh, bcs, FLUID,
                        SolverConfig(convection_scheme="upwind"))
    assert solver._has_nonorth
    u = np.random.default_rng(5).normal(size=(mesh.n_cells, 2))
    state = solver.initialize(u=u)
    bu = solver._velocity_bvals(state.time)

    def rhs(n_nonorth):
        solver.config.n_nonorth = n_nonorth
        return solver._momentum_system(state, state.phi, bu, 1e-3)[2]

    with_corr, without = rhs(1), rhs(0)
    ref = FLUID.mu * (diffusion_term(u, mesh, n_corr=1, bvals=bu)
                      - diffusion_term(u, mesh, n_corr=0, bvals=bu))
    assert np.abs(ref).max() > 1e-6 * np.abs(with_corr).max()
    assert np.allclose(with_corr - without, ref, rtol=0.0,
                       atol=1e-12 * np.abs(with_corr).max())
