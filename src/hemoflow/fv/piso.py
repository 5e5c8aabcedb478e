"""Pressure-velocity coupling: collocated PISO with Rhie-Chow fluxes.

One BDF1 time step = one implicit momentum predictor (first-order upwind
convection and orthogonal diffusion in the matrix, higher-order convection
and non-orthogonal diffusion as deferred corrections) followed by a fixed
number of pressure correctors.

``PisoSolver`` does each piece of a step's work as seldom as its inputs
change: per solver, per inflow state, per step or per corrector.

Per solver, when it is built: the step's linear face operators depend
only on the mesh, the fluid and the solver's fixed boundary masks, so the
solver fuses them once, as CSR matrices:

- the Gauss gradient face sum of the pressure (``operators.
  gradient_matrix``), acting on p stacked on the fixed boundary
  pressures;
- the face flux operator over all faces (``operators.flux_matrix``):
  S . (interpolated u) on internal faces, S . (owner's u) on the free
  boundary faces, and empty rows on the fixed-velocity faces, so every
  face flux of a velocity u is ``F @ u.ravel()`` plus the flux that the
  velocity boundary values prescribe on the fixed faces;
- on meshes with non-orthogonal faces, the pressure gradient chained into
  the non-orthogonal face flux (``operators.nonorth_flux_matrix``), and
  the whole deferred non-orthogonal momentum source mu D_int N V^-1 G_u,
  acting on u stacked on the fixed boundary velocities;
- for second-order upwind, grad(u) = V^-1 G_u, for the deferred correction
  rho D_int (phi_f (x_f - x_D) . grad(u)_D) from each face's donor D.

Where either of the last two applies, the solver keeps D_int, the
incidence's internal columns, itself: ``mesh.fv`` does not, as the
orthogonal upwind step (the benchmark pipe's) never reads it.

It also builds the boundary diffusion coefficients mu * b_orth_coeff,
the fixed-face index arrays, the momentum and the pressure matrix on the
fixed pattern of ``linsolve.FacePattern`` (both share the pattern's
index arrays, and each step sums their diagonals per cell from the face
values and overwrites them in place with ``fill_faces``), and one linear
solver per system from ``linsolve.system_solvers``; a step factors each
with its matrix and solves through ``linsolve.solve_bicgstab`` and
``linsolve.solve_cg``, and does not know which method either uses. A
solve that does not converge raises ``SolverFailure`` out of the step;
no solve path loads scipy.sparse.linalg. One pass over the boundary
conditions writes the velocity shapes, the fixed pressures (a Windkessel
outlet's at 0) and their masks as boundary-ordered arrays.

Per inflow state: what follows from the inflow rates alone is an
``_InflowState``, rebuilt when some inflow's rate differs from the one
it was built for (so once per solver for steady inflows, every step for
a pulsatile one).

Per step: ``advance_windkessel`` steps each outlet's RCR model from
``FlowState.p_p`` and returns the next p_p with a copy of that vector,
the outlet rows set; nothing is written back. Then the time term
rho V / dt, the momentum system, its factor and solve, and the pressure
matrix and its factor. Per corrector: the pressure solves (one per
non-orthogonal pass) and the velocity update; the face flux is corrected
after the last corrector only, as the step keeps no other. The inflow-set
flux copy dies with the momentum system, each corrector's previous u once
its H/A is formed, and the correctors' work arrays before the new state
copies its fields, so none lives where the step's memory peaks. The
continuity gate and ``run``'s CFL check share one gross flux per step,
``gross_face_flux``: |phi| summed per cell by ``bincount`` over the
intp owners and neighbours of ``mesh.fv``, with no |D| kept. Every
index array that a step gathers or sums with is intp, the dtype numpy
indexes with: an int32 one is converted on every call (a gather of
22 800 indices into 8000 cells took 72.7 us with int32 indices against
23.6 with intp, and a ``bincount`` over them 43.9 against 40.6; timeit,
one core of a 2-core x86-64 host).

Krylov stops, relative to each solve's initial residual (the momentum
solve's: that of its velocity columns together), fixed per solver: a
time-accurate run solves to ``lin_tol``. A steady run
(``steady_tol`` set and no pulsatile inflow) stops its momentum solve at
max(lin_tol, ``STEADY_MOMENTUM_TOL``) and every pressure solve of a step
but the last at max(lin_tol, ``STEADY_PRESSURE_TOL``): the predictor and
those solves only supply the next corrector's H(u), and their residuals
vanish at the steady fixed point, so the run ends where a tight one ends.
The step's last pressure solve, which sets the kept p and flux, stops at
``lin_tol``. On the 8000-cell pipe that is the same 30 steps, |p| within
5.5e-7 relative, in 32% of the BiCGStab and 70% of the CG iterations.
The narrow 2D band solves directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, SolverFailure
from ..indicators import FluidProperties
from ..units import DYN_CM2_TO_PA, M3S_TO_CM3S
from ..windkessel import WindkesselOutlet, advance_outlet
from . import linsolve
from .boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                       NoSlipBC, PressureZeroGradientBC)
from .operators import (CONVECTION_SCHEMES, flux_matrix, gradient_matrix,
                        nonorth_flux_matrix)
# perfbench/tracing.py wraps these six by name in this module (getattr);
# no step calls them, but a traced run fails if one is missing
from .operators import (boundary_values_from_patches,  # noqa: F401
                        convective_term, diffusion_term, face_interpolate,
                        gauss_gradient, gradient_term)

# ``run`` counts a span (t_end - time) / dt within this relative distance
# of an integer n as n whole steps: decimal times are inexact in binary
# and a clock is summed (92.9 s at dt 0.1 is 929 steps, not 929 + 1e-11)
END_ROUNDOFF = 1e-9

# A steady run (``steady_tol`` set, no inflow with a ``period_s``) stops
# its momentum Krylov solve at max(lin_tol, this) times the initial
# residual r0. The predictor only supplies the correctors' H(u), and r0
# -> 0 at a steady fixed point, so the looser stop leaves the fixed point
# where it is (OpenFOAM's steady tutorials solve U to a relTol of 0.1;
# inexact Newton forcing terms, Eisenstat & Walker, SIAM J. Sci. Comput.
# 17, 1996). On the 8000-cell pipe at Re 490-510 the BiCGStab iterations
# of a run fell from 1822-1838 to 766-778 in the same 30 steps, with the
# same 826-828 CG iterations, and |p| and |u| moved at most 4.6e-7 and
# 1.1e-8 relative (pressure solves at lin_tol). 1e-2 took 421 iterations
# but moved |p| 2.2-3.1e-6. A run from rest is not at a fixed point:
# there 1e-3 put u 8.3e-5 off, so transient runs keep lin_tol. The narrow
# 2D band solves directly and ignores it. Since every velocity column
# stops at this times the r0 of all three together, not its own, the
# pipe's near-zero u_x and u_y are no longer solved to 1e-3 of their own
# small r0: 586-597 iterations a run, |p| within 5.5e-7.
STEADY_MOMENTUM_TOL = 1e-3

# A steady run stops every pressure solve of a step but the last at
# max(lin_tol, this) times r0: the first corrector's on an orthogonal
# mesh, and also each corrector's non-final non-orthogonal passes. Only
# the last solve sets the kept p and flux; the others feed the next
# corrector's H(u), and their r0 -> 0 at the fixed point (OpenFOAM's p
# relTol / pFinal split; PISO, Issa, JCP 62, 1986). On the 8000-cell pipe
# at Re 490-510 the CG iterations of a run fell from 826-828 to 576-579
# in the same 30 steps and 60 solves, with one coarse factor, and |p|
# stayed within 5.2e-7 of the runs at lin_tol (4.6e-7 before). 3e-2 took
# 548 iterations and moved |p| 8.7e-7, 1e-1 514 and 2.6e-6. On the
# 11000-cell bifurcation (Krylov path, three loose solves of four a step)
# 1500 steps at dt 0.002 took 62254 CG iterations against 123648, and
# ended 3.0e-6 in u from a run at lin_tol everywhere (2.7e-6 with the
# pressure at lin_tol and the momentum loose). The stop pays because
# ``linsolve.TwoGrid`` judges its coarse factor by iterations per decade:
# by raw iterations, the loose first solve became the base that every
# tight one exceeded twice, and the factor was rebuilt 31 times in 30
# steps.
STEADY_PRESSURE_TOL = 1e-2

# ``run`` raises SolverFailure when max|u| exceeds this multiple of the
# run's velocity scale: the start state's max|u| or the largest inflow
# face speed of its steps so far, whichever is larger. The continuity
# check cannot see a run diverge: it is relative to the gross face flux,
# which grows with u. Over Tier-1, CI and the benchmark the largest ratio
# of a run that ends was 1331, a pulsatile channel into an RCR outlet at
# its second step (the explicit outlet coupling drives 0.06 m/s against
# a 5e-5 m/s inflow); steady runs reached 140 (a sweep point's first
# step from a uniform start) and the benchmark bifurcation 7.4. That
# bifurcation at n_nonorth 1 and dt 0.01 diverges: 7 at step 1, 2900 at
# step 10, 2.0e4 at step 11 and 1.7e16 at step 21; it stops at step 11
# (without the check it ran on to a NaN continuity error at step 128).
DIVERGENCE_GROWTH = 1e4


@dataclass
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    n_piso: int = 2                   # pressure correctors per step
    n_nonorth: int = 2                # pressure solves per corrector on
                                      # non-orthogonal meshes (else one)
    convection_scheme: str = "second-order-upwind"   # or "upwind"
    lin_tol: float = 1e-6             # Krylov solves: 3D and wide 2D;
                                      # a steady run's momentum and
                                      # non-final pressure solves stop
                                      # at max(lin_tol, STEADY_*_TOL)
    cfl_max: float = 5.0
    cfl_action: str = "warn"          # "warn" | "error"
    steady_tol: float = None          # stop when du/(dt u_ref) falls below
    continuity_tol: float = 1e-6      # relative cell imbalance after step
    max_steps: int = None

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.dt, self.t_end)):
            raise InvalidArgumentError(
                "dt and t_end must be positive and finite")
        if self.convection_scheme not in CONVECTION_SCHEMES:
            raise InvalidArgumentError(
                f"unknown convection scheme {self.convection_scheme!r}")
        if self.cfl_action not in ("warn", "error"):
            raise InvalidArgumentError("cfl_action must be 'warn' or 'error'")
        if self.n_piso < 1:
            raise InvalidArgumentError("need at least one pressure corrector")
        if self.n_nonorth < 1:
            raise InvalidArgumentError("n_nonorth must be >= 1")
        for name in ("lin_tol", "cfl_max", "continuity_tol", "steady_tol"):
            v = getattr(self, name)
            if v is None and name == "steady_tol":
                continue
            if not (math.isfinite(v) and v > 0):
                raise InvalidArgumentError(
                    f"{name} must be positive and finite")
        if self.max_steps is not None and self.max_steps < 1:
            raise InvalidArgumentError("max_steps must be >= 1")


class FlowState:
    """Velocity/pressure/face-flux fields at one time level, and each
    Windkessel outlet's proximal pressure (``p_p``, dyn/cm^2).

    ``converged`` and ``steps`` are set on the state that
    ``PisoSolver.run`` returns: whether the run met ``steady_tol`` (None
    when it has none), and the number of steps that the run took."""

    def __init__(self, mesh, u=None, p=None, phi=None, time=0.0, p_p=()):
        self.mesh = mesh
        nc, nf = mesh.n_cells, mesh.n_faces
        self.u = np.zeros((nc, mesh.dim)) if u is None else np.array(u, dtype=float)
        self.p = np.zeros(nc) if p is None else np.array(p, dtype=float)
        self.phi = np.zeros(nf) if phi is None else np.array(phi, dtype=float)
        self.time = float(time)
        self.p_p = np.array(p_p, dtype=float)
        if self.u.shape != (nc, mesh.dim) or self.p.shape != (nc,) \
                or self.phi.shape != (nf,) or self.p_p.ndim != 1:
            raise InvalidArgumentError("field shape does not match mesh")
        self.converged = None
        self.steps = None
        self._gross = None      # (phi it was summed from, gross flux)

    def copy(self):
        return FlowState(self.mesh, self.u, self.p, self.phi, self.time,
                         self.p_p)

    def patch_flux(self, name):
        """Net outward volumetric flux through a patch [m^3/s]."""
        return float(self.phi[self.mesh.patches[name].face_ids].sum())

    def _gross_flux(self):
        """``gross_face_flux`` of the state's flux. Both checks below use
        it, and nothing else, so it is summed once per ``phi`` array; a
        change to ``phi`` in place after a check is not seen (assign a new
        array)."""
        if self._gross is None or self._gross[0] is not self.phi:
            self._gross = (self.phi, gross_face_flux(self.mesh, self.phi))
        return self._gross[1]

    def continuity_error(self):
        """Max cell imbalance of face fluxes, relative to the gross flux."""
        net = self.mesh.fv.D @ self.phi
        scale = max(self._gross_flux().max(), 1e-300)
        return float(np.abs(net).max() / scale)

    def cfl(self, dt):
        """Max cell Courant number (half the gross flux sweep per volume)."""
        return float((0.5 * dt * self._gross_flux()
                      / self.mesh.cell_volume).max())


def gross_face_flux(mesh, phi):
    """Per cell, the sum of |phi| over its faces: ``bincount`` over the
    owners and neighbours of the internal faces and the owners of the
    boundary faces, which equals |D| |phi| to round-off without keeping
    |D|."""
    g, nc = mesh.fv, mesh.n_cells
    a = np.abs(phi[g.internal])
    gross = np.bincount(g.i_owner, a, nc)
    gross += np.bincount(g.i_neigh, a, nc)
    gross += np.bincount(g.b_owner, np.abs(phi[g.boundary]), nc)
    return gross


@dataclass(frozen=True)
class _InflowState:
    """The step inputs that follow from the inflow rates alone. A solver
    shares them between steps, so nothing writes to them."""

    phi: np.ndarray         # the boundary velocities' flux, 0 off fixed faces
    rhs_b: np.ndarray       # their term in the momentum right-hand side
    u_fixed: np.ndarray     # their values on the fixed faces
    speed: float            # their largest |component|


class PisoSolver:
    """Transient incompressible solver on a fixed mesh and BC set.

    Between steps the solver keeps its step matrices and their factors,
    which every step overwrites, the last inflow state, and what its
    constructor built. So one solver steps in one thread at a time (a
    sweep builds one solver per point).
    """

    def __init__(self, mesh, bcs: BoundaryConditionSet, fluid=None,
                 config=None):
        bcs.validate_against(mesh)
        self.mesh = mesh
        self.bcs = bcs
        self.fluid = fluid or FluidProperties()
        self.config = config or SolverConfig()
        g = mesh.fv
        n_b = len(g.boundary)
        # one pass over the conditions, into boundary-ordered arrays and masks:
        # velocity shapes (0 on no-slip faces) and pressures (0 on Windkessels)
        self._u_shape, p_values = np.zeros((n_b, mesh.dim)), np.zeros(n_b)
        self._fixed_u, self._fixed_p = np.zeros((2, n_b), dtype=bool)
        self._inflows, windkessels = [], []
        for name, (vbc, pbc) in bcs.conditions.items():
            patch = mesh.patches[name]
            rows = g.b_index[patch.face_ids].astype(np.intp)
            if isinstance(vbc, InflowBC):
                self._u_shape[rows], influx = vbc.shape_velocities(mesh, patch)
                self._inflows.append((rows, vbc, influx))
            self._fixed_u[rows] = isinstance(vbc, (InflowBC, NoSlipBC))
            if isinstance(pbc, FixedPressureBC):
                p_values[rows] = pbc.value
            elif isinstance(pbc, WindkesselOutlet):
                windkessels.append((name, rows, pbc))
            self._fixed_p[rows] = not isinstance(pbc, PressureZeroGradientBC)
        # the pressures on the fixed-pressure faces, in boundary order, and
        # each Windkessel outlet's rows in them
        self._fixed_p_values = p_values[self._fixed_p]
        rank = np.cumsum(self._fixed_p) - 1
        self._windkessels = [(name, rank[rows], outlet)
                             for name, rows, outlet in windkessels]
        self._has_nonorth = g.non_orthogonal
        self._second_order = self.config.convection_scheme != "upwind"
        # the step's fused face operators (cell major vector layout); the
        # gradients act on a cell field stacked on its fixed boundary values.
        # The volumes are kept in that layout: a division broadcast over
        # (nc, dim) took 4.6 against 1.4 us on the 452-cell bifurcation and
        # 55 against 21 us on the 8000-cell pipe, twice a step
        self._vol = np.repeat(mesh.cell_volume, mesh.dim)
        self._G = gradient_matrix(mesh, self._fixed_p)
        self._F = flux_matrix(mesh, self._fixed_u)
        if self._has_nonorth or self._second_order:
            self._D_int = g.D_int   # these steps apply it; mesh.fv keeps none
            G_u = gradient_matrix(mesh, self._fixed_u)
        if self._has_nonorth:
            self._NG = nonorth_flux_matrix(mesh, self._G)
            self._K_u = (self.fluid.mu * self._D_int
                         @ nonorth_flux_matrix(mesh, G_u)).tocsr()
        if self._second_order:
            # the velocity gradient: row c * dim + j holds d u / d x_j in c
            self._grad_u = G_u.multiply(1.0 / self._vol[:, None]).tocsr()
        # both step matrices live on one pattern: the diagonal and both
        # off-diagonal entries of every internal face
        self._pattern = linsolve.FacePattern(mesh.n_cells, g.i_owner,
                                             g.i_neigh)
        self._A_m = self._pattern.matrix()
        self._A_p = self._pattern.matrix()
        self._momentum, self._pressure = linsolve.system_solvers(
            self._pattern, mesh.dim, g.orth_coeff)
        # what no step changes, and the last step's inflow state, with the
        # inflow rates that it was built for
        self._mu_b_orth = self.fluid.mu * g.b_orth_coeff
        self._fixed_u_faces = g.boundary[self._fixed_u]
        self._fixed_p_faces = g.boundary[self._fixed_p]
        self._fixed_p_owner = g.b_owner[self._fixed_p]
        self._fixed_p_orth = g.b_orth_coeff[self._fixed_p]
        self._inflow = None     # (rates, _InflowState)
        # the Krylov stops: loose on a steady run, which ends at a fixed
        # point, lin_tol on a time-accurate one. Of the pressure solves,
        # one per pass of each corrector, only the step's last sets the
        # kept p and flux; the others only feed the next corrector's H(u)
        cfg = self.config
        steady = cfg.steady_tol is not None and all(
            bc.period_s is None for _, bc, _ in self._inflows)
        tol = cfg.lin_tol
        self._momentum_tol = max(tol, STEADY_MOMENTUM_TOL) if steady else tol
        loose = max(tol, STEADY_PRESSURE_TOL) if steady else tol
        passes = cfg.n_nonorth if self._has_nonorth else 1
        tols = [loose] * (cfg.n_piso * passes - 1) + [tol]
        self._pressure_tols = [tols[k:k + passes]
                               for k in range(0, len(tols), passes)]

    # -- boundary value assembly ----------------------------------------

    def _inflow_state(self, t):
        """The ``_InflowState`` at ``t``: the last one while every
        inflow's rate equals the one it was built for."""
        rates = tuple(bc.rate(t) for _, bc, _ in self._inflows)
        if self._inflow is None or self._inflow[0] != rates:
            self._inflow = (rates, self._new_inflow_state(rates))
        return self._inflow[1]

    def _new_inflow_state(self, rates):
        """The ``_InflowState`` at one rate per inflow, in the order of
        ``self._inflows``."""
        mesh, g = self.mesh, self.mesh.fv
        b = g.boundary
        values = self._u_shape.copy()
        for rate, (rows, _, influx) in zip(rates, self._inflows):
            values[rows] *= rate / influx
        phi = np.zeros(mesh.n_faces)
        phi[b] = np.where(self._fixed_u, np.einsum(
            "ij,ij->i", values, mesh.face_area[b]), 0.0)
        # the fixed-velocity faces' term in the momentum right-hand side:
        # diffusion to their values, and the inflow of their flux
        coeff = np.where(self._fixed_u,
                         self._mu_b_orth - self.fluid.rho * phi[b], 0.0)
        u_fixed = values[self._fixed_u]
        return _InflowState(phi, g.D_b @ (coeff[:, None] * values), u_fixed,
                            float(np.abs(u_fixed).max(initial=0.0)))

    def initialize(self, u=None, p=None, t=0.0):
        """Build a consistent initial state (fluxes from the velocity;
        each Windkessel outlet at its starting proximal pressure)."""
        state = FlowState(self.mesh, u=u, p=p, time=t,
                          p_p=[o.p_p for _, _, o in self._windkessels])
        state.phi = self._F @ state.u.ravel() + self._inflow_state(t).phi
        return state

    # -- one time step -----------------------------------------------------

    def step(self, state: FlowState, dt=None, time=None):
        """Advance one BDF1 step of ``dt`` to ``time`` (by default
        state.time + dt), at which the inflows are evaluated; returns a new
        FlowState at that time."""
        mesh = self.mesh
        g = mesh.fv
        cfg = self.config
        dt = cfg.dt if dt is None else dt
        t_new = state.time + dt if time is None else time
        nc = mesh.n_cells
        p_p, p_fixed = self.advance_windkessel(state, dt)

        inflow = self._inflow_state(t_new)

        # ---- momentum predictor ----
        # p stacked on the fixed boundary pressures, the input of the
        # pressure gradient operators; its head follows every solve
        pb = np.concatenate([state.p, p_fixed])
        diag, A_m, rhs0 = self._momentum_system(state, inflow, dt)
        self._momentum.factor(A_m)
        u = linsolve.solve_bicgstab(
            self._momentum, rhs0 - (self._G @ pb).reshape(rhs0.shape),
            x0=state.u, tol=self._momentum_tol)

        # everything built from the momentum diagonal is fixed for the
        # whole corrector sequence, so assemble the pressure matrix, its
        # factor and the boundary part of its right-hand side once
        rAU = mesh.cell_volume / diag
        rAU_f = g.W @ rAU
        c_int = rAU_f * g.orth_coeff
        # of the boundary faces, only the fixed-pressure ones enter the
        # pressure equation
        c_b = rAU[self._fixed_p_owner] * self._fixed_p_orth
        self._pressure.factor(self._pressure_matrix(c_int, c_b))
        rhs_pb = np.bincount(self._fixed_p_owner, c_b * p_fixed, nc)

        p = state.p.copy()
        for tols in self._pressure_tols:
            # H = rhs (no pressure) minus off-diagonal action, in place;
            # the previous u is dead once it is formed
            HbyA = A_m @ u
            HbyA -= diag[:, None] * u
            np.subtract(rhs0, HbyA, out=HbyA)
            HbyA /= diag[:, None]
            del u

            phi_star = self._F @ HbyA.ravel() + inflow.phi
            rhs_p0 = rhs_pb - g.D @ phi_star

            corr = 0.0
            for tol in tols:
                rhs_p = rhs_p0
                if self._has_nonorth:
                    corr = rAU_f * (self._NG @ pb)
                    rhs_p = rhs_p0 + self._D_int @ corr
                p = linsolve.solve_cg(self._pressure, rhs_p, x0=p, tol=tol)
                pb[:nc] = p

            u = HbyA - rAU[:, None] * ((self._G @ pb) / self._vol).reshape(
                HbyA.shape)
        del rhs0, HbyA, rAU_f   # dead before the new state's copies

        # the last corrector's flux correction, the only flux kept (its
        # non-orth part too, so the cell balances close to the
        # linear-solver tolerance)
        phi = phi_star
        phi[g.internal] -= c_int * (p[g.i_neigh] - p[g.i_owner]) + corr
        phi[self._fixed_p_faces] -= c_b * (p_fixed - p[self._fixed_p_owner])

        new = FlowState(mesh, u=u, p=p, phi=phi, time=t_new, p_p=p_p)
        err = new.continuity_error()
        if not err <= cfg.continuity_tol:   # NaN fails too
            raise SolverFailure(
                f"continuity error {err:.3e} exceeds {cfg.continuity_tol:.1e} "
                f"at t={t_new:.6g}", [err])
        return new

    def _momentum_system(self, state, inflow, dt):
        """Implicit matrix (shared by all components), its diagonal, and
        the pressure-free right-hand side, with the velocity boundary
        values of the ``_InflowState`` ``inflow`` and the state's face
        flux, its fixed-velocity faces set to the inflow's.

        The matrix is the solver's own: the next step overwrites it.
        """
        mesh = self.mesh
        g = mesh.fv
        rho = self.fluid.rho
        phi = state.phi.copy()
        phi[self._fixed_u_faces] = inflow.phi[self._fixed_u_faces]

        # each internal face's owner row holds (a_oo, a_on) and its
        # neighbour row the pair negated, exactly: (a_nn, a_no) = (-a_on,
        # -a_oo); fixed-velocity boundary faces couple diffusively and
        # zero-gradient (outflow) faces by implicit donor convection only
        nc = mesh.n_cells
        phi_i = phi[g.internal]
        mu_orth = self.fluid.mu * g.orth_coeff
        a_on = rho * np.minimum(phi_i, 0.0) - mu_orth
        a_no = -rho * np.maximum(phi_i, 0.0) - mu_orth
        diag_t = rho * mesh.cell_volume / dt
        rhs = diag_t[:, None] * state.u
        rhs += inflow.rhs_b
        b_diag = rho * np.maximum(phi[g.boundary], 0.0)
        np.copyto(b_diag, self._mu_b_orth, where=self._fixed_u)
        diag = diag_t - np.bincount(g.i_owner, a_no, nc)
        diag -= np.bincount(g.i_neigh, a_on, nc)
        diag += np.bincount(g.b_owner, b_diag, nc)
        A = self._pattern.fill_faces(self._A_m, diag, a_on, a_no)

        # deferred corrections from the previous time level
        if self._second_order or self._has_nonorth:
            ub = np.concatenate([state.u, inflow.u_fixed])
        if self._second_order:
            # each face adds (x_f - x_D) . grad(u)_D to its donor D's value
            donors = np.where(phi_i >= 0.0, g.i_owner, g.i_neigh)
            grad = (self._grad_u @ ub).reshape(-1, mesh.dim, mesh.dim)
            dx = mesh.face_centroid[g.internal] - mesh.cell_centroid[donors]
            rhs -= rho * (self._D_int @ (phi_i[:, None] * np.einsum(
                "fji,fj->fi", grad[donors], dx)))
        if self._has_nonorth:
            # non-orthogonal part of the diffusive face flux; its
            # orthogonal and boundary parts are implicit in A
            rhs += self._K_u @ ub
        return diag, A, rhs

    def _pressure_matrix(self, c_int, c_b):
        """Pressure-correction matrix, from the coefficient of every
        internal face (``c_int``) and of every fixed-pressure boundary
        face (``c_b``, in boundary order).

        Only the right-hand side changes between PISO correctors, so the
        matrix is assembled once per time step. It is the solver's own:
        the next step overwrites it.
        """
        g, nc = self.mesh.fv, self.mesh.n_cells
        diag = np.bincount(g.i_owner, c_int, nc)
        diag += np.bincount(g.i_neigh, c_int, nc)
        diag += np.bincount(self._fixed_p_owner, c_b, nc)
        off = -c_int
        return self._pattern.fill_faces(self._A_p, diag, off, off)

    def advance_windkessel(self, state, dt):
        """One RCR step of each Windkessel outlet from ``state.p_p`` and
        the state's patch flux Q: the next state's proximal pressures p_p,
        and the step's pressures on the fixed-pressure faces [Pa], each
        outlet's rows at p_p + R_p Q. Writes nothing into the solver."""
        if len(state.p_p) != len(self._windkessels):
            raise InvalidArgumentError(
                f"state has {len(state.p_p)} Windkessel pressures, the "
                f"solver {len(self._windkessels)} Windkessel outlets")
        p_p = np.empty(len(self._windkessels))
        p_fixed = self._fixed_p_values.copy()
        for k, (name, rows, outlet) in enumerate(self._windkessels):
            Q = state.patch_flux(name)           # m^3/s, outward
            p_p[k], p_out = advance_outlet(outlet, state.p_p[k],
                                           Q * M3S_TO_CM3S, dt)
            p_fixed[rows] = p_out * DYN_CM2_TO_PA
        return p_p, p_fixed

    # -- time loop -----------------------------------------------------------

    def run(self, state=None, observer=None):
        """March whole steps of dt to t_end, then one step of any remainder
        past ``END_ROUNDOFF``; stop early at max_steps or steady state.
        Step k from t0 ends at t0 + k dt, the run's last at t_end, so no
        time is a sum of steps. Returns the final state (a new one, even
        after no step), its ``converged`` and ``steps`` set.

        A run diverges when max|u| grows past ``DIVERGENCE_GROWTH`` times
        its velocity scale, the larger of the start state's max|u| and the
        largest inflow face speed of its steps so far: SolverFailure. A
        run from rest without inflow has no scale and is not checked."""
        cfg = self.config
        state = self.initialize() if state is None else state.copy()
        scale = float(np.abs(state.u).max(initial=0.0))
        t0 = state.time
        r = max((cfg.t_end - t0) / cfg.dt, 0.0)
        whole = n = round(r)
        if abs(r - whole) > END_ROUNDOFF * max(r, 1.0):
            whole = math.floor(r)
            n = whole + 1
        uref = 0.0
        steps = 0
        steady = False
        for steps in range(1, min(n, cfg.max_steps or n) + 1):
            dt = cfg.dt if steps <= whole else cfg.t_end - state.time
            new = self.step(state, dt,
                            cfg.t_end if steps == n else t0 + steps * cfg.dt)
            scale = max(scale, self._inflow[1].speed)
            umax = np.abs(new.u).max()
            if umax > DIVERGENCE_GROWTH * scale > 0.0:
                raise SolverFailure(
                    f"run diverges: max|u| {umax:.3e} grew past "
                    f"{DIVERGENCE_GROWTH:g} times its velocity scale "
                    f"{scale:.3e} at t={new.time:.6g}", [umax / scale])
            cfl = new.cfl(dt)
            if cfl > cfg.cfl_max:
                msg = f"CFL {cfl:.2f} exceeds limit {cfg.cfl_max} at t={new.time:.6g}"
                if cfg.cfl_action == "error":
                    raise SolverFailure(msg, [cfl])
                import warnings
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
            du = np.abs(new.u - state.u).max()
            uref = max(uref, umax, 1e-300)
            state = new
            if observer is not None:
                observer(state)
            if cfg.steady_tol is not None and du / (dt * uref) < cfg.steady_tol:
                steady = True
                break
        state.converged = steady if cfg.steady_tol is not None else None
        state.steps = steps
        return state
