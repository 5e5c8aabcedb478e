"""Transient incompressible solver: analytic channel flow and guards."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.errors import InvalidArgumentError, SolverFailure
from hemoflow.fv import (BoundaryConditionSet, FixedPressureBC, FlowState,
                         FluidProperties, InflowBC, NoSlipBC, PisoSolver,
                         PressureZeroGradientBC, SolverConfig,
                         VelocityZeroGradientBC, linsolve, piso,
                         poiseuille_bcs, pulsatile_waveform)
from hemoflow.fv.operators import (BoundaryValues, convective_term,
                                   diffusion_term, face_dot_matrix,
                                   face_interpolate, gradient_matrix,
                                   nonorth_flux_matrix)
from hemoflow.mesh import (generate_bifurcation_mesh, generate_box_mesh,
                           generate_channel_mesh, generate_pipe_mesh,
                           read_mesh, write_mesh)
from hemoflow.units import DYN_CM2_TO_PA, M3S_TO_CM3S
from hemoflow.windkessel import (ClinicalRecord, OutletGeometry,
                                 WindkesselOutlet, advance_outlet)
from test_linsolve import twin_face_channel
from test_operators import sheared_pipe

H = 0.2      # channel height [m]
U_MEAN = 1.0  # bulk velocity [m/s]
FLUID = FluidProperties(rho=1.0, mu=0.01)  # Re = U h / nu = 20


def velocity_bvals(solver, t):
    """The solver's velocity boundary values at ``t`` for the reference
    operators: its fixed-face values in boundary order, 0 elsewhere."""
    values = np.zeros((len(solver._fixed_u), solver.mesh.dim))
    values[solver._fixed_u] = solver._inflow_state(t).u_fixed
    return BoundaryValues(values, solver._fixed_u)


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


def test_run_records_whether_steady_tol_was_met(channel):
    """``converged`` is None without a ``steady_tol``, False when the run
    stops at ``max_steps`` first; the state given to ``run`` is left as
    it was."""
    _, state = channel
    assert state.converged is True
    mesh = generate_channel_mesh(1.0, H, 24, 10)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    for steady_tol, expected in ((None, None), (1e-7, False)):
        solver = PisoSolver(mesh, bcs, FLUID, SolverConfig(
            dt=0.005, max_steps=2, steady_tol=steady_tol))
        start = solver.initialize()
        assert solver.run(start).converged is expected
        assert start.converged is None and start.time == 0.0
    solver = PisoSolver(mesh, bcs, FLUID, SolverConfig(
        dt=0.005, t_end=0.01, steady_tol=1e-7))
    late = solver.initialize(t=0.01)
    assert solver.run(late).converged is False
    assert late.converged is None


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


def test_run_sums_the_gross_flux_once_per_step(monkeypatch):
    """The continuity gate in ``step`` and the CFL check in ``run`` share
    one gross flux sum per step, and ``run`` warns and raises with the
    same Courant numbers as a fresh sum over each state's fluxes."""
    mesh = generate_channel_mesh(1.0, H, 24, 10)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    dt, n_steps = 0.005, 4
    fresh = piso.gross_face_flux

    def cfl(state):
        return float((0.5 * dt * fresh(mesh, state.phi)
                      / mesh.cell_volume).max())

    sums = []

    def counted(*args):
        sums.append(1)
        return fresh(*args)
    monkeypatch.setattr(piso, "gross_face_flux", counted)
    cfg = SolverConfig(dt=dt, t_end=n_steps * dt, cfl_max=1e-6)
    solver = PisoSolver(mesh, bcs, FLUID, cfg)
    states = []
    with pytest.warns(RuntimeWarning) as warned:
        solver.run(observer=states.append)
    assert len(sums) == n_steps
    cfg = SolverConfig(dt=dt, t_end=1.0, cfl_max=1e-6, cfl_action="error")
    solver = PisoSolver(mesh, bcs, FLUID, cfg)
    with pytest.raises(SolverFailure, match="CFL") as failed:
        solver.run()
    assert len(states) == len(warned) == n_steps
    for state, w in zip(states, warned):
        assert str(w.message) == (f"CFL {cfl(state):.2f} exceeds limit 1e-06 "
                                  f"at t={state.time:.6g}")
        assert state.cfl(dt) == cfl(state)
    first = PisoSolver(mesh, bcs, FLUID, cfg)
    assert failed.value.residual_history == [
        cfl(first.step(first.initialize()))]


@pytest.mark.parametrize("make", [
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, 8),
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12),
], ids=["bifurcation", "pipe"])
def test_the_gross_flux_is_the_absolute_incidence_product(make):
    """The gross flux that the continuity and CFL checks read, summed
    with ``bincount`` from the face owners and the internal faces'
    neighbours, is |D| |phi| to round-off, on a flux with both signs on
    every kind of face."""
    mesh = make()
    phi = np.random.default_rng(3).normal(size=mesh.n_faces)
    D = mesh.fv.D
    want = abs(D) @ np.abs(phi)
    got = piso.gross_face_flux(mesh, phi)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


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


def test_nan_velocity_raises_on_the_banded_2d_path():
    mesh = generate_channel_mesh(1.0, H, 12, 4)
    bcs = poiseuille_bcs(mesh, U_MEAN * H, profile="parabolic")
    solver = PisoSolver(mesh, bcs, FLUID, SolverConfig(dt=0.005, t_end=0.05))
    assert isinstance(solver._pressure, linsolve.BandCholesky)
    u0 = np.zeros((mesh.n_cells, 2))
    u0[5, 0] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(SolverFailure, match="continuity"):
        solver.run(solver.initialize(u=u0))


def test_nan_pressure_raises_on_the_3d_krylov_path():
    """The momentum and pressure matrices stay finite, but the momentum
    right-hand side does not: its solve raises before it iterates."""
    mesh = generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12)
    bcs = poiseuille_bcs(mesh, 1e-5, profile="parabolic")
    solver = PisoSolver(mesh, bcs, FLUID, SolverConfig(dt=0.005))
    assert isinstance(solver._pressure, linsolve.TwoGrid)
    state = solver.initialize()
    state.p[5] = np.nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(SolverFailure,
                          match="non-finite initial residual") as failed:
        solver.step(state)
    assert np.isnan(failed.value.residual_history).all()


@pytest.mark.parametrize("make, nonorth", [
    (lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0,
                                       resolution=8), True),
    (lambda: generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40), False),
    (lambda: sheared_pipe(2e-4), True),
    (twin_face_channel, False),
], ids=["bifurcation", "benchmark-pipe", "sheared-pipe", "twin-face-channel"])
def test_solver_builds_the_face_operators_of_its_masks(make, nonorth):
    """The stacked pressure gradient and the flux operator always; the
    fused non-orthogonal operators of the pressure and the momentum only
    on non-orthogonal meshes; the velocity gradient only for second-order
    upwind convection (the default); D's internal columns only where a
    step applies them (either of those); and no operator twice."""
    mesh = make()
    bcs = poiseuille_bcs(mesh, 1e-6, profile="plug")
    solver = PisoSolver(mesh, bcs, FLUID)
    assert solver._has_nonorth == nonorth
    upwind = PisoSolver(mesh, bcs, FLUID,
                        SolverConfig(convection_scheme="upwind"))
    assert not hasattr(upwind, "_grad_u")
    assert hasattr(upwind, "_D_int") == nonorth

    def same(A, B):
        return A.shape == B.shape and (A != B).nnz == 0

    g = mesh.fv
    G = gradient_matrix(mesh, solver._fixed_p)
    assert same(solver._G, G)
    assert same(solver._F[g.internal],
                face_dot_matrix(mesh, mesh.face_area[g.internal]))
    ops = {k for k, v in vars(solver).items() if hasattr(v, "tocsr")}
    assert ops == ({"_G", "_F", "_NG", "_K_u"} if nonorth else {"_G", "_F"}
                   ) | {"_A_m", "_A_p", "_grad_u", "_D_int"}
    assert same(solver._D_int, g.D_int)
    grad_u = gradient_matrix(mesh, solver._fixed_u).multiply(
        1.0 / np.repeat(mesh.cell_volume, mesh.dim)[:, None]).tocsr()
    assert same(solver._grad_u, grad_u)
    if nonorth:
        assert same(solver._NG, nonorth_flux_matrix(mesh, G))
        K_u = FLUID.mu * g.D_int @ nonorth_flux_matrix(
            mesh, gradient_matrix(mesh, solver._fixed_u))
        assert solver._K_u.shape == (mesh.n_cells,
                                     mesh.n_cells + solver._fixed_u.sum())
        assert abs(solver._K_u - K_u).max() <= 1e-15 * abs(K_u).max()


@given(nx=st.integers(2, 7), ny=st.integers(2, 7),
       length=st.floats(1e-4, 1.0), aspect=st.floats(0.2, 5.0),
       shear=st.floats(0.0, 0.5), n_nonorth=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_banded_step_balances_every_cell_on_sheared_boxes(
        nx, ny, length, aspect, shear, n_nonorth, seed):
    """One step from random fields, with the fused operators and the
    banded direct solves, closes every cell balance at round-off. Measured
    over 1500 random cases in these ranges: at most 1.8e-14. (The error
    grows with the square of the cell aspect ratio, kept here within 5:
    at aspect 1e4 it reached 1e-8, before the operators were fused too.)"""
    rng = np.random.default_rng(seed)
    mesh = generate_box_mesh(nx, ny, (length * aspect * nx / ny, length),
                             shear=shear,
                             patch_kinds={"xmin": "inlet", "xmax": "outlet"})
    U = 10 ** rng.uniform(-3, 0)
    h = length / max(ny, nx / aspect)
    cfg = SolverConfig(dt=10 ** rng.uniform(-2, 1) * h / U, t_end=1e9,
                       n_nonorth=n_nonorth, convection_scheme="upwind",
                       cfl_max=1e9, continuity_tol=1.0)
    fluid = FluidProperties(rho=1.0, mu=10 ** rng.uniform(-3, 0) * U * h)
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, U * length, profile="plug"),
                        fluid, cfg)
    assert isinstance(solver._pressure, linsolve.BandCholesky)
    state = solver.initialize(
        u=U * rng.standard_normal((mesh.n_cells, 2)),
        p=U ** 2 * rng.standard_normal(mesh.n_cells))
    assert solver.step(state).continuity_error() <= 1e-13


def test_state_shape_validation():
    mesh = generate_channel_mesh(1.0, H, 4, 4)
    with pytest.raises(InvalidArgumentError):
        FlowState(mesh, u=np.zeros((3, 2)))


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        SolverConfig(dt=-1.0)
    with pytest.raises(InvalidArgumentError):
        SolverConfig(convection_scheme="quick")
    with pytest.raises(InvalidArgumentError, match="central"):
        SolverConfig(convection_scheme="central")
    with pytest.raises(InvalidArgumentError):
        SolverConfig(cfl_action="ignore")
    with pytest.raises(InvalidArgumentError):
        SolverConfig(n_piso=0)
    with pytest.raises(InvalidArgumentError):
        FluidProperties(rho=-1.0)


@pytest.mark.parametrize("key, value", [
    ("max_steps", 0), ("max_steps", -3), ("lin_tol", -1.0), ("lin_tol", 0.0),
    ("continuity_tol", 0.0), ("n_nonorth", -1), ("n_nonorth", 0),
    ("steady_tol", -1.0),
    ("steady_tol", 0.0), ("cfl_max", 0.0), ("cfl_max", float("nan")),
])
def test_config_rejects_values_it_would_ignore_or_misuse(key, value):
    """``max_steps=0`` used to be ignored (the run went on to t_end),
    ``max_steps=-3`` returned the initial state after no step, the
    tolerances and limits were taken as given, and ``n_nonorth=0`` ran
    the pressure loop of 1 but dropped the deferred non-orthogonal
    momentum diffusion."""
    with pytest.raises(InvalidArgumentError, match=key):
        SolverConfig(**{key: value})


NAN, INF = float("nan"), float("inf")
OUTLET = dict(name="out", R_p=1.0, R_d=9.0, C=1e-3)


@pytest.mark.parametrize("make", [
    lambda: SolverConfig(dt=NAN),
    lambda: SolverConfig(dt=INF),
    lambda: SolverConfig(t_end=INF),
    lambda: SolverConfig(lin_tol=INF),
    lambda: SolverConfig(continuity_tol=INF),
    lambda: SolverConfig(steady_tol=INF),
    lambda: FluidProperties(rho=NAN),
    lambda: FluidProperties(mu=INF),
    lambda: WindkesselOutlet(**{**OUTLET, "R_p": NAN}),
    lambda: WindkesselOutlet(**{**OUTLET, "C": INF}),
    lambda: WindkesselOutlet(**OUTLET, p_p=NAN),
    lambda: OutletGeometry("out", NAN),
    lambda: ClinicalRecord("post", PAM=NAN, PF=5.0),
    lambda: ClinicalRecord("post", PAM=80.0, PF=INF),
    lambda: advance_outlet(WindkesselOutlet(**OUTLET), 0.0, 1.0, NAN),
], ids=["dt-nan", "dt-inf", "t_end-inf", "lin_tol-inf", "continuity_tol-inf",
        "steady_tol-inf", "rho-nan", "mu-inf", "R_p-nan", "C-inf", "p_p-nan",
        "area-nan", "PAM-nan", "PF-inf", "advance-dt-nan"])
def test_value_objects_refuse_non_finite_numbers(make):
    """A NaN or infinite number is refused where it is given. It used to
    fail later or not at all: ``dt=nan`` as a ValueError and
    ``t_end=inf`` as an OverflowError in ``run``, ``dt=inf`` as one step
    of dt = t_end, ``rho=nan`` as a NaN continuity error, and the
    Windkessel values were taken as given."""
    with pytest.raises(InvalidArgumentError, match="finite"):
        make()


@pytest.mark.parametrize("kwargs, match", [
    ({"flow_rate": NAN}, "inflow rate nan is not finite"),
    ({"flow_rate": INF, "period_s": 1.0}, "inflow rate inf is not finite"),
    ({"flow_rate": 1e-6, "period_s": -1.0},
     "inflow period -1.0 s is not positive and finite"),
    ({"flow_rate": 1e-6, "period_s": 0.0}, "not positive and finite"),
    ({"flow_rate": 1e-6, "period_s": NAN}, "not positive and finite"),
    ({"flow_rate": -1e-6, "period_s": 1.0},
     "^pulsatile inflow mean rate -1e-06 m\\^3/s is not positive$"),
    ({"flow_rate": 0.0, "period_s": 1.0},
     "^pulsatile inflow mean rate 0.0 m\\^3/s is not positive$"),
], ids=["rate-nan", "rate-inf", "period-negative", "period-0", "period-nan",
        "pulsatile-rate-negative", "pulsatile-rate-0"])
def test_inflow_refuses_its_values_where_they_are_given(kwargs, match):
    """A NaN rate used to stop the run at its first step with a NaN
    continuity error, and a negative period, or a pulsatile mean rate that
    is not positive, once the solver evaluated the rate."""
    with pytest.raises(InvalidArgumentError, match=match):
        InflowBC(**kwargs)


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
    bu = velocity_bvals(solver, state.time)

    with_corr = solver._momentum_system(
        state, solver._inflow_state(state.time), 1e-3)[2]
    source = solver._K_u @ np.concatenate([u, bu.values[solver._fixed_u]])
    ref = FLUID.mu * (diffusion_term(u, mesh, n_corr=1, bvals=bu)
                      - diffusion_term(u, mesh, n_corr=0, bvals=bu))
    assert np.abs(ref).max() > 1e-6 * np.abs(with_corr).max()
    assert np.allclose(source.reshape(ref.shape), ref, rtol=0.0,
                       atol=1e-12 * np.abs(with_corr).max())


@pytest.mark.parametrize("make", [
    lambda: generate_box_mesh(6, 4, (0.03, 0.01), shear=0.4,
                              patch_kinds={"xmin": "inlet", "xmax": "outlet"}),
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0,
                                      resolution=8),
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12),
], ids=["sheared-box", "bifurcation", "pipe"])
def test_second_order_momentum_correction_is_the_convection_difference(make):
    """The second-order upwind deferred correction, from the solver's own
    velocity gradient at each face's donor, equals the reference
    convection of that scheme minus upwind's (their donor values and
    boundary fluxes cancel), with fluxes of both signs."""
    mesh = make()
    fluid = FluidProperties(rho=1060.0, mu=3.5e-3)
    bcs = poiseuille_bcs(mesh, 1e-6, profile="plug")
    rng = np.random.default_rng(7)
    u = rng.normal(size=(mesh.n_cells, mesh.dim))
    phi = rng.normal(size=mesh.n_faces) * np.abs(mesh.face_area).max()
    assert (phi < 0).any() and (phi > 0).any()
    rhs = {}
    for scheme in ("upwind", "second-order-upwind"):
        solver = PisoSolver(mesh, bcs, fluid,
                            SolverConfig(convection_scheme=scheme))
        state = solver.initialize(u=u)
        state.phi = phi
        rhs[scheme] = solver._momentum_system(
            state, solver._inflow_state(0.0), 1e-3)[2]
    bu = velocity_bvals(solver, 0.0)
    ref = -fluid.rho * (
        convective_term(u, phi, mesh, "second-order-upwind", bu)
        - convective_term(u, phi, mesh, "upwind", bu))
    assert np.abs(ref).max() > 0.1 * np.abs(rhs["upwind"]).max()
    assert np.abs(rhs["second-order-upwind"] - rhs["upwind"] - ref).max() \
        <= 1e-12 * np.abs(ref).max()


def test_a_second_order_step_calls_no_function_form_operator(monkeypatch):
    """Every operator of a second-order step is one of the solver's fused
    ones: with the function forms (the tests' reference operators) and
    the per-patch boundary assembly made to raise, a second-order solver
    on the bifurcation still builds and steps."""
    import hemoflow.fv.operators as operators
    import hemoflow.fv.piso as piso

    def refuse(*args, **kwargs):
        raise AssertionError("a function-form operator was called")

    for module in (operators, piso):
        for name in ("boundary_values_from_patches", "convective_term",
                     "diffusion_term", "face_interpolate", "gauss_gradient",
                     "gradient_term"):
            monkeypatch.setattr(module, name, refuse)
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, 4.0 / 60000.0,
                                             profile="plug"),
                        FluidProperties(1060.0, 3e-4), SolverConfig(dt=0.01))
    assert solver.config.convection_scheme == "second-order-upwind"
    state = solver.step(solver.step(solver.initialize()))
    assert np.isfinite(state.u).all() and np.abs(state.u).max() > 0


def test_default_config_stays_bounded_on_the_bifurcation():
    """The benchmark's bifurcation on the default scheme and correctors:
    with one pressure solve per corrector, max |p| reached ~1e126 Pa by
    step 60 and the NaN failure came only at step 132; with two it stays
    at a few Pa."""
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)
    bcs = poiseuille_bcs(mesh, 4.0 / 60000.0, profile="plug")
    solver = PisoSolver(mesh, bcs, FluidProperties(1060.0, 3e-4),
                        SolverConfig(dt=0.01))
    state = solver.initialize()
    with np.errstate(all="ignore"):
        for _ in range(60):
            state = solver.step(state)
    assert np.abs(state.p).max() < 100.0


@pytest.mark.parametrize("make", [
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0,
                                      resolution=8),
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12),
], ids=["bifurcation", "pipe"])
def test_one_operator_gives_the_flux_on_every_face(make):
    """``_F`` spans all faces: S . (interpolated u) on internal faces,
    S . (owner's u) on the free boundary faces, nothing on the
    fixed-velocity faces, whose flux their boundary values prescribe."""
    mesh = make()
    g = mesh.fv
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-6), FLUID)
    u = np.random.default_rng(3).normal(size=(mesh.n_cells, mesh.dim))
    state = solver.initialize(u=u, t=0.5)
    inflow = solver._inflow_state(0.5)
    bu, phi_fixed = velocity_bvals(solver, 0.5), inflow.phi
    S = mesh.face_area
    fixed = solver._fixed_u
    expected = np.empty(mesh.n_faces)
    expected[g.internal] = np.einsum("ij,ij->i", face_interpolate(u, mesh),
                                     S[g.internal])
    expected[g.boundary] = np.einsum(
        "ij,ij->i", np.where(fixed[:, None], bu.values, u[g.b_owner]),
        S[g.boundary])
    assert np.allclose(state.phi, expected, rtol=0.0,
                       atol=1e-14 * np.abs(expected).max())
    assert solver._F.shape == (mesh.n_faces, mesh.n_cells * mesh.dim)
    assert solver._F[g.boundary[fixed]].nnz == 0
    off = np.ones(mesh.n_faces, dtype=bool)
    off[g.boundary[fixed]] = False
    assert fixed.any() and not phi_fixed[off].any()


def rcr_bifurcation(p0=0.0, period_s=None, **config):
    """The 452-cell bifurcation with an RCR outlet starting at ``p0``
    (dyn/cm^2), and that outlet; the inflow is pulsatile with a
    ``period_s``."""
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0,
                                     resolution=8)
    Q = 4.0 / 60000.0
    outlet = WindkesselOutlet("outlet", R_p=4.8, R_d=43.2, C=1.2e-3,
                              p_p=p0)
    bcs = BoundaryConditionSet({
        "inlet": (InflowBC(Q, period_s=period_s), PressureZeroGradientBC()),
        "wall": (NoSlipBC(), PressureZeroGradientBC()),
        "outlet": (VelocityZeroGradientBC(), outlet),
    })
    cfg = SolverConfig(**{"dt": 0.01, "t_end": 0.5, "n_nonorth": 2,
                          "convection_scheme": "upwind", "cfl_max": 1e9,
                          **config})
    fluid = FluidProperties(rho=1060.0, mu=3e-4)
    return PisoSolver(mesh, bcs, fluid, cfg), outlet


def same_state(a, b):
    return (a.time == b.time and np.array_equal(a.u, b.u)
            and np.array_equal(a.p, b.p) and np.array_equal(a.phi, b.phi)
            and np.array_equal(a.p_p, b.p_p))


def test_windkessel_pressure_lives_in_the_pressure_boundary_values():
    """``advance_windkessel`` takes one RCR step from the state's proximal
    pressure with the state's outlet flux Q, and returns the next p_p with
    the step's pressures on the fixed-pressure faces: p_p + R_p Q on the
    outlet's, the fixed value on the others. A step hands that p_p to the
    new state and leaves the solver's stored pressures as they were."""
    mesh = generate_channel_mesh(0.1, 0.02, 12, 5)
    outlet = WindkesselOutlet("outlet", R_p=4.8, R_d=43.2, C=1.2e-3,
                              p_p=4000.0)
    bcs = BoundaryConditionSet({
        "inlet": (VelocityZeroGradientBC(), FixedPressureBC(500.0)),
        "wall": (NoSlipBC(), PressureZeroGradientBC()),
        "outlet": (VelocityZeroGradientBC(), outlet),
    })
    solver = PisoSolver(mesh, bcs, FluidProperties(rho=1060.0, mu=3e-4),
                        SolverConfig(dt=0.01, convection_scheme="upwind"))
    g = mesh.fv
    on_outlet = np.isin(np.flatnonzero(solver._fixed_p),
                        g.b_index[mesh.patches["outlet"].face_ids])
    assert on_outlet.any() and not on_outlet.all()
    stored = solver._fixed_p_values.copy()
    assert np.array_equal(stored, np.where(on_outlet, 0.0, 500.0))
    u = np.zeros((mesh.n_cells, 2))
    u[:, 0] = 0.05
    state = solver.initialize(u=u)
    assert state.p_p.tolist() == [4000.0]

    p_p, p_fixed = solver.advance_windkessel(state, 0.01)
    q = state.patch_flux("outlet") * M3S_TO_CM3S
    assert q > 0.0
    assert p_p[0] == pytest.approx((1.2e-3 / 0.01 * 4000.0 + q)
                                   / (1.2e-3 / 0.01 + 1.0 / 43.2))
    assert np.all(p_fixed[on_outlet]
                  == (p_p[0] + outlet.R_p * q) * DYN_CM2_TO_PA)
    assert np.all(p_fixed[~on_outlet] == 500.0)

    new = solver.step(state)
    assert np.array_equal(new.p_p, p_p)
    assert np.array_equal(solver._fixed_p_values, stored)
    assert outlet.p_p == 4000.0


def test_rerunning_one_solver_repeats_its_run():
    solver, _ = rcr_bifurcation()
    first = solver.run(solver.initialize())
    assert first.p_p[0] > 0.0
    assert same_state(solver.run(solver.initialize()), first)


def test_a_copied_state_is_a_checkpoint():
    """Two runs from copies of one mid-run state end in the same state,
    and a direct ``step`` is the step that ``run`` takes."""
    solver, _ = rcr_bifurcation()
    state = solver.initialize()
    for _ in range(10):
        state = solver.step(state)
    first = solver.run(state.copy())
    assert same_state(solver.run(state.copy()), first)
    full = solver.run(solver.initialize())
    assert same_state(full, first)


def test_a_run_leaves_the_outlet_unchanged():
    solver, outlet = rcr_bifurcation(p0=1234.5)
    state = solver.run(solver.initialize())
    assert state.p_p[0] != 1234.5
    assert outlet.p_p == 1234.5


@pytest.mark.parametrize("p_p", [[], [1.0, 2.0]])
def test_step_refuses_a_state_without_one_pressure_per_outlet(p_p):
    solver, _ = rcr_bifurcation()
    state = solver.initialize()
    state.p_p = np.array(p_p)
    with pytest.raises(InvalidArgumentError, match="Windkessel"):
        solver.step(state)


def fresh_step(solver, state, dt=None):
    """The step from ``state`` of a new solver with ``solver``'s mesh,
    conditions, fluid and settings."""
    return PisoSolver(solver.mesh, solver.bcs, solver.fluid,
                      solver.config).step(state, dt)


def test_a_pulsatile_step_sees_the_rates_of_its_own_time():
    """A solver stepping through changing inflow rates steps bit for bit
    as a new solver does from the same state: it builds a new inflow
    state whenever a rate differs from the one its last was built for."""
    solver, _ = rcr_bifurcation(period_s=0.8)
    inflow = solver.bcs.conditions["inlet"][0]
    state = solver.initialize()
    for _ in range(5):
        new = solver.step(state)
        assert inflow.rate(new.time) != inflow.rate(state.time)
        assert same_state(new, fresh_step(solver, state))
        state = new


@pytest.mark.parametrize("co, period", [(6.67e-5, 0.8), (1e-6, 1.0),
                                        (3.0, 0.75)])
def test_the_pulsatile_waveform_is_continuous_with_its_mean(co, period):
    """Systole rises from the diastolic plateau, so the waveform takes the
    same rate on both sides of each period boundary (it jumped from the
    plateau to 0 there), and its period mean, by Gauss-Legendre
    quadrature of each smooth piece, is the cardiac output."""
    from hemoflow.fv.boundary import SYSTOLE_FRACTION
    q = pulsatile_waveform(co, period)
    for k in (1, 2, 7):
        before = np.nextafter(k * period, 0.0)
        assert q(k * period) == pytest.approx(q(before), rel=1e-12, abs=0.0)
    assert q(0.0) == pytest.approx(q(np.nextafter(period, 0.0)), rel=1e-12)
    x, w = np.polynomial.legendre.leggauss(40)
    ts = SYSTOLE_FRACTION * period
    area = sum(0.5 * (b - a) * sum(wi * q(0.5 * (b - a) * xi + 0.5 * (a + b))
                                   for xi, wi in zip(x, w))
               for a, b in ((0.0, ts), (ts, period)))
    assert area / period == pytest.approx(co, rel=1e-12, abs=0.0)


def test_a_shortened_last_step_uses_its_own_dt():
    """``run``'s last step, shortened to end at t_end, is the step of a
    new solver with that dt: the time term follows dt."""
    solver, _ = rcr_bifurcation(t_end=0.055)
    states = []
    final = solver.run(solver.initialize(), observer=states.append)
    cfg = solver.config
    dt = min(cfg.dt, cfg.t_end - states[-2].time)
    assert len(states) == 6 and dt < 0.6 * cfg.dt
    assert same_state(final, fresh_step(solver, states[-2], dt))


@pytest.mark.parametrize("stop, config, converged", [
    ("steady_tol", {"steady_tol": 1e-2, "t_end": 1e3}, True),
    ("max_steps", {"steady_tol": 1e-12, "max_steps": 3, "t_end": 1e3},
     False),
    ("t_end", {"t_end": 0.055}, None),
])
def test_a_run_reports_its_own_step_count(stop, config, converged):
    """The state that ``run`` returns carries the number of steps that
    the run took, however it stopped: one per observer call."""
    solver, _ = rcr_bifurcation(**config)
    states = []
    final = solver.run(solver.initialize(), observer=states.append)
    assert final.steps == len(states) > 1
    assert final.converged is converged
    if stop == "max_steps":
        assert final.steps == 3
    if stop == "t_end":
        assert final.time == pytest.approx(0.055)


def short_channel_solver(**config):
    """The 12 x 5 channel at 1 cm^3/s, rho 1, mu 0.01, upwind, dt 0.1."""
    mesh = generate_channel_mesh(0.02, 0.004, 12, 5)
    cfg = SolverConfig(**{"dt": 0.1, "convection_scheme": "upwind",
                          **config})
    return PisoSolver(mesh, poiseuille_bcs(mesh, 1e-6),
                      FluidProperties(rho=1.0, mu=0.01), cfg)


def test_a_fixed_length_run_ends_on_a_whole_step():
    """92.9 s at dt 0.1 is 929 whole steps and no more. The summed clock
    falls 1e-12 s short of t_end, and a run that stepped on to t_end
    took a 1e-12 s step whose pressure correction divided the previous
    step's continuity residual by it: max |p| went 0.034 -> 19 924 Pa."""
    solver = short_channel_solver(t_end=92.9)
    states = []
    final = solver.run(solver.initialize(), observer=states.append)
    assert final.steps == len(states) == 929
    times = np.array([0.0] + [s.time for s in states])
    assert np.abs(np.diff(times) - 0.1).max() < 1e-9
    before, last = (np.abs(s.p).max() for s in states[-2:])
    assert before / 2 <= last <= 2 * before


def test_step_k_of_a_run_ends_at_t0_plus_k_dt():
    """A run labels step k with t0 + k dt, and its last with t_end, which
    the step also evaluates the inflows at: a pulsatile 12 x 5 channel at
    dt 0.005 ends at 27 s, not at the 26.9999999999989 s that 5400 summed
    steps reach."""
    solver = short_channel_solver(dt=0.005, t_end=27.0)
    bcs = solver.bcs
    inflow, pressure = bcs.conditions["inlet"]
    inflow = InflowBC(inflow.flow_rate, inflow.profile, period_s=1.0)
    bcs.conditions["inlet"] = (inflow, pressure)
    solver = PisoSolver(solver.mesh, bcs, solver.fluid, solver.config)
    times = []
    final = solver.run(solver.initialize(),
                       observer=lambda s: times.append(s.time))
    assert final.steps == 5400 and final.time == 27.0
    assert times == [k * 0.005 for k in range(1, 5401)]
    assert final.patch_flux("inlet") == pytest.approx(-inflow.rate(27.0),
                                                      rel=1e-12)


REMAINDER = pytest.approx(0.05, abs=1e-15)


@pytest.mark.parametrize("t0, config, dts", [
    (0.5, {"t_end": 0.5}, []),
    (0.7, {"t_end": 0.5}, []),
    (0.1 + 0.2, {"t_end": 0.5}, [0.1, 0.1]),        # a summed clock
    (0.0, {"t_end": 0.55}, [0.1] * 5 + [REMAINDER]),
    (0.0, {"t_end": 0.55, "max_steps": 4}, [0.1] * 4),
    (0.0, {"t_end": 0.55, "max_steps": 9}, [0.1] * 5 + [REMAINDER]),
], ids=["t_end=t0", "t_end<t0", "summed-clock", "remainder",
        "max_steps-caps", "max_steps-above"])
def test_a_run_counts_its_steps_before_the_first(monkeypatch, t0, config,
                                                 dts):
    """A run takes every whole step of dt that fits in t_end - t0 (a span
    within round-off of a whole number of steps is that number), then one
    step of the remainder, and at most max_steps; none when t_end is not
    after t0. Every whole step is exactly dt."""
    solver = short_channel_solver(**config)
    taken, step = [], solver.step
    monkeypatch.setattr(solver, "step", lambda state, dt, time:
                        taken.append(dt) or step(state, dt, time))
    final = solver.run(solver.initialize(t=t0))
    assert final.steps == len(taken) == len(dts)
    assert taken == dts
    assert final.time == pytest.approx(t0 + sum(taken), abs=1e-15)


def test_a_steady_inflow_builds_its_inflow_state_once(monkeypatch):
    """Steady inflow rates never change, so one solver builds their
    inflow state once, however many steps and runs it makes."""
    solver, _ = rcr_bifurcation(max_steps=10)
    builds = []
    build = solver._new_inflow_state
    monkeypatch.setattr(solver, "_new_inflow_state",
                        lambda rates: builds.append(rates) or build(rates))
    solver.run(solver.initialize())
    solver.run(solver.initialize())
    assert builds == [(4.0 / 60000.0,)]


def test_parabolic_profile_without_a_size_centres_on_the_faces():
    """A parabolic inlet without its size (the half width in 2D, the
    radius in 3D) centres on its faces' mean, whatever ``center`` says,
    and vanishes just outside its outermost face."""
    mesh = generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12)
    patch = mesh.patches["inlet"]
    bc = InflowBC(1e-6, "parabolic")
    del patch.meta["radius"]
    patch.meta["center"] = [0.005, 0.0, 0.0]
    u, _ = bc.shape_velocities(mesh, patch)
    xf = mesh.face_centroid[patch.face_ids]
    r = np.linalg.norm(xf - xf.mean(axis=0), axis=1)
    assert np.allclose(np.linalg.norm(u, axis=1),
                       1.0 - (r / (1.05 * r.max())) ** 2, rtol=1e-14)
    patch.meta.clear()
    assert np.array_equal(bc.shape_velocities(mesh, patch)[0], u)


def pipe_krylov_run(steady_tol, max_steps=None, period_s=None):
    """The 2304-cell pipe at Re 500 from the exact parabola (the pipe_runs
    fixture's coarse run): the final state and the run's BiCGStab and CG
    iterations, read from each solver's record after each step."""
    fluid = FluidProperties(rho=1060.0, mu=0.004)
    d = 0.02
    mesh = generate_pipe_mesh(d, d, 16, 6, n_theta=24)
    u_mean = 500.0 * fluid.nu / d
    bcs = poiseuille_bcs(mesh, u_mean * np.pi * d * d / 4.0)
    if period_s is not None:
        inflow, pressure = bcs.conditions["inlet"]
        bcs.conditions["inlet"] = (InflowBC(inflow.flow_rate, inflow.profile,
                                            period_s), pressure)
    cfg = SolverConfig(dt=0.01, t_end=50.0, steady_tol=steady_tol,
                       max_steps=max_steps, convection_scheme="upwind",
                       lin_tol=1e-6, continuity_tol=2e-5, cfl_max=1e9)
    solver = PisoSolver(mesh, bcs, fluid, cfg)
    assert isinstance(solver._momentum, linsolve.JacobiBiCGStab)
    assert isinstance(solver._pressure, linsolve.TwoGrid)
    r = np.linalg.norm(mesh.cell_centroid[:, :2], axis=1)
    u0 = np.zeros((mesh.n_cells, 3))
    u0[:, 2] = 2.0 * u_mean * (1.0 - (2.0 * r / d) ** 2)
    momentum, pressure = [], []

    def count(_):
        momentum.append(sum(solver._momentum.iterations))
        pressure.append(sum(solver._pressure.iterations))
    state = solver.run(solver.initialize(u=u0), observer=count)
    return state, sum(momentum), sum(pressure)


def same_steady_answer(loose, tight):
    """The runs took the same steps, and their |p| and |u| agree to 1e-6."""
    assert loose.converged and loose.steps == tight.steps == 33
    for field in ("p", "u"):
        a = np.linalg.norm(getattr(loose, field))
        b = np.linalg.norm(getattr(tight, field))
        assert abs(a - b) <= 1e-6 * b


def test_a_steady_run_solves_its_momentum_loosely_to_the_same_answer():
    """A steady run stops its momentum BiCGStab at STEADY_MOMENTUM_TOL
    times r0, not lin_tol: the same fixed point, in the same steps, in at
    most half the iterations of the same steps solved to lin_tol (a run
    without steady_tol, stopped at the steady run's step count)."""
    steady, loose, _ = pipe_krylov_run(5e-4)
    tight_state, tight, _ = pipe_krylov_run(None, max_steps=steady.steps)
    same_steady_answer(steady, tight_state)
    assert loose <= 0.5 * tight


def test_a_steady_run_stops_its_non_final_pressure_solves_loosely():
    """A steady run stops every pressure solve of a step but the last at
    STEADY_PRESSURE_TOL times r0: only the last sets the kept p and flux.
    The same fixed point, in the same steps, in at most 0.8 times the CG
    iterations of the same steps solved to lin_tol (0.72 measured)."""
    steady, _, loose = pipe_krylov_run(5e-4)
    tight_state, _, tight = pipe_krylov_run(None, max_steps=steady.steps)
    same_steady_answer(steady, tight_state)
    assert loose <= 0.8 * tight


def test_a_pulsatile_run_solves_its_momentum_to_lin_tol():
    """A pulsatile inflow makes a run time-accurate: with steady_tol set
    or not, its momentum and pressure solves stop at lin_tol, so its
    steps are the same to the bit."""
    (a, *_), (b, *_) = [pipe_krylov_run(tol, max_steps=5, period_s=0.8)
                        for tol in (5e-4, None)]
    assert a.steps == b.steps == 5 and not a.converged
    assert np.array_equal(a.u, b.u) and np.array_equal(a.p, b.p) \
        and np.array_equal(a.phi, b.phi)


def test_the_step_matrices_share_one_copy_of_their_index_arrays():
    """The momentum and the pressure matrix hold the pattern's CSR index
    arrays, not copies of them, before and after a step; and on an
    orthogonal mesh with upwind convection neither ``mesh.fv`` nor the
    solver keeps |D| or D's internal columns, which no step reads there.
    A second-order solver keeps its own D_int, which its step applies."""
    mesh = generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12)
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-6), FLUID,
                        SolverConfig(dt=0.01, convection_scheme="upwind"))
    g, pattern = mesh.fv, solver._pattern

    def shared():
        return all(np.shares_memory(A.indices, pattern.indices)
                   and np.shares_memory(A.indptr, pattern.indptr)
                   for A in (solver._A_m, solver._A_p))

    def operators():
        # the shapes of the sparse matrices that mesh.fv and the solver hold
        return sorted(M.shape for M in (*vars(g).values(),
                                        *vars(solver).values())
                      if sp.issparse(M))
    D = g.D
    held = operators()
    assert shared() and not hasattr(solver, "_D_int")
    assert held.count(D.shape) == 1     # D itself, no |D|
    assert (D.shape[0], len(g.internal)) not in held
    solver.step(solver.initialize())
    assert shared() and operators() == held
    second = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-6), FLUID,
                        SolverConfig(dt=0.01))
    assert second._D_int.shape == (D.shape[0], len(g.internal))


@pytest.mark.parametrize("make", [
    lambda: generate_channel_mesh(1.0, H, 8, 4),
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12),
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, 8),
], ids=["channel", "pipe", "bifurcation"])
@pytest.mark.parametrize("read", [False, True], ids=["generated", "read"])
def test_connectivity_is_int32_and_the_step_indices_are_intp(make, read,
                                                             tmp_path):
    """The mesh stores its connectivity and ``fv.b_index`` as int32; every
    index array that a step or a wall shear query gathers or sums with
    stays intp, as numpy converts any other on every call."""
    mesh = make()
    if read:
        write_mesh(mesh, tmp_path / "mesh.hfm")
        mesh = read_mesh(tmp_path / "mesh.hfm")
    g = mesh.fv
    for stored in (*mesh.oriented_loops(), mesh.owner, mesh.neighbor,
                   g.b_index):
        assert stored.dtype == np.int32
    solver = PisoSolver(mesh, poiseuille_bcs(mesh, 1e-6), FLUID)
    step = [g.internal, g.boundary, g.i_owner, g.i_neigh, g.b_owner,
            solver._pattern.diag]
    if mesh.dim == 3:
        step.append(solver._pressure._to_band)
    for index in step:
        assert index.dtype == np.intp


def test_the_8000_cell_pipe_holds_and_peaks_within_its_budget():
    """Traced from before the mesh is built, the 8000-cell pipe of
    ``pipe_medium`` (Re 500, steady, upwind) holds at most 12.8 MiB in its
    mesh, solver and stepped state, and its next step peaks at most 2.35
    MiB above that: 12.16 and 1.84 MiB measured, against 13.8 MiB held
    when ``mesh.fv`` kept |D| and D's internal columns and the mesh stored
    its connectivity as int64, a 2.2 MiB step peak when the inflow-set
    flux copy, the previous corrector's u and the correctors' work arrays
    lived through the pressure solves and the new state's copies, 15.1
    MiB held when the step matrices were filled through int64 COO slot
    arrays, and 17.8 and 3.1 MiB when the step pattern's index arrays
    were held four times, the orthogonal mesh stored T, and a step's dead
    arrays lived to its end."""
    fluid = FluidProperties(rho=1060.0, mu=0.004)
    d, MiB = 0.02, 2.0 ** 20
    u_mean = 500.0 * fluid.nu / d
    tracemalloc.start()
    try:
        mesh = generate_pipe_mesh(d, d, 20, 10, n_theta=40)
        cfg = SolverConfig(dt=0.01, t_end=50.0, steady_tol=5e-4,
                           convection_scheme="upwind", lin_tol=1e-6,
                           continuity_tol=2e-5, cfl_max=1e9)
        solver = PisoSolver(mesh, poiseuille_bcs(
            mesh, u_mean * np.pi * d * d / 4.0), fluid, cfg)
        r = np.linalg.norm(mesh.cell_centroid[:, :2], axis=1)
        u0 = np.zeros((mesh.n_cells, 3))
        u0[:, 2] = 2.0 * u_mean * (1.0 - (2.0 * r / d) ** 2)
        state = solver.step(solver.initialize(u=u0))
        del r, u0
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solver.step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_cells == 8000
    assert held <= 12.8 * MiB, held / MiB
    assert peak - held <= 2.35 * MiB, (peak - held) / MiB
