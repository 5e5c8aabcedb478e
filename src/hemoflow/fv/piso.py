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

It also builds the diffusion coefficients mu * orth_coeff and
mu * b_orth_coeff, the fixed-face index arrays, the momentum and the
pressure matrix on the fixed pattern of ``linsolve.Pattern`` (each step
overwrites their values in place), and one linear solver per system from
``linsolve.system_solvers``; a step factors each with its matrix and
solves through ``linsolve.solve_bicgstab`` and ``linsolve.solve_cg``,
and does not know which method either uses. One pass over the boundary
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
matrix and its factor. Per corrector: the pressure solves and the
velocity update; the face flux is corrected after the last corrector
only, as the step keeps no other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, SolverFailure
from ..indicators import FluidProperties
from ..units import DYN_CM2_TO_PA, M3S_TO_CM3S
from ..windkessel import advance_outlet
from . import linsolve
from .boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                       NoSlipBC, PressureZeroGradientBC, WindkesselBC)
from .operators import (CONVECTION_SCHEMES, flux_matrix, gradient_matrix,
                        nonorth_flux_matrix)
# perfbench/tracing.py wraps these six by name in this module (getattr);
# no step calls them, but a traced run fails if one is missing
from .operators import (boundary_values_from_patches,  # noqa: F401
                        convective_term, diffusion_term, face_interpolate,
                        gauss_gradient, gradient_term)


@dataclass
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    n_piso: int = 2                   # pressure correctors per step
    n_nonorth: int = 2                # pressure solves per corrector on
                                      # non-orthogonal meshes (else one)
    convection_scheme: str = "second-order-upwind"   # or "upwind"
    lin_tol: float = 1e-6             # Krylov solves: 3D and wide 2D
    cfl_max: float = 5.0
    cfl_action: str = "warn"          # "warn" | "error"
    steady_tol: float = None          # stop when du/(dt u_ref) falls below
    continuity_tol: float = 1e-6      # relative cell imbalance after step
    max_steps: int = None

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0:
            raise InvalidArgumentError("dt and t_end must be positive")
        if self.convection_scheme not in CONVECTION_SCHEMES:
            raise InvalidArgumentError(
                f"unknown convection scheme {self.convection_scheme!r}")
        if self.cfl_action not in ("warn", "error"):
            raise InvalidArgumentError("cfl_action must be 'warn' or 'error'")
        if self.n_piso < 1:
            raise InvalidArgumentError("need at least one pressure corrector")
        if self.n_nonorth < 1:
            raise InvalidArgumentError("n_nonorth must be >= 1")
        for name in ("lin_tol", "cfl_max", "continuity_tol"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.steady_tol is not None and not self.steady_tol > 0:
            raise InvalidArgumentError("steady_tol must be positive")
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
        """Per cell, the sum of |phi| over its faces. Both checks below
        use it, so it is summed once per ``phi`` array; a change to
        ``phi`` in place after a check is not seen (assign a new array)."""
        if self._gross is None or self._gross[0] is not self.phi:
            self._gross = (self.phi,
                           self.mesh.fv.D_abs @ np.abs(self.phi))
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


@dataclass(frozen=True)
class _InflowState:
    """The step inputs that follow from the inflow rates alone. A solver
    shares them between steps, so nothing writes to them."""

    phi: np.ndarray         # the boundary velocities' flux, 0 off fixed faces
    rhs_b: np.ndarray       # their term in the momentum right-hand side
    u_fixed: np.ndarray     # their values on the fixed faces


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
            rows = g.b_index[patch.face_ids]
            if isinstance(vbc, InflowBC):
                self._u_shape[rows], influx = vbc.shape_velocities(mesh, patch)
                self._inflows.append((rows, vbc, influx))
            self._fixed_u[rows] = isinstance(vbc, (InflowBC, NoSlipBC))
            if isinstance(pbc, FixedPressureBC):
                p_values[rows] = pbc.value
            elif isinstance(pbc, WindkesselBC):
                windkessels.append((name, rows, pbc.outlet))
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
        # gradients act on a cell field stacked on its fixed boundary values
        self._vol = np.repeat(mesh.cell_volume, mesh.dim)
        self._G = gradient_matrix(mesh, self._fixed_p)
        self._F = flux_matrix(mesh, self._fixed_u)
        if self._has_nonorth or self._second_order:
            G_u = gradient_matrix(mesh, self._fixed_u)
        if self._has_nonorth:
            self._NG = nonorth_flux_matrix(mesh, self._G)
            self._K_u = (self.fluid.mu * g.D_int
                         @ nonorth_flux_matrix(mesh, G_u)).tocsr()
        if self._second_order:
            # the velocity gradient: row c * dim + j holds d u / d x_j in c
            self._grad_u = G_u.multiply(1.0 / self._vol[:, None]).tocsr()
        # both step matrices live on one pattern: the diagonal and both
        # off-diagonal entries of every internal face; the slots map the
        # COO values of _momentum_system and _pressure_matrix into it
        o, n = g.i_owner, g.i_neigh
        cells = np.arange(mesh.n_cells)
        self._pattern = linsolve.Pattern(mesh.n_cells,
                                         np.concatenate([cells, o, n]),
                                         np.concatenate([cells, n, o]))
        diag = self._pattern.slots(cells, cells)
        faces = self._pattern.slots(np.concatenate([o, o, n, n]),
                                    np.concatenate([o, n, n, o]))
        self._diag_slots = diag
        self._m_slots = np.concatenate([faces, diag, diag[g.b_owner]])
        self._p_slots = np.concatenate([faces,
                                        diag[g.b_owner[self._fixed_p]]])
        self._A_m = self._pattern.matrix()
        self._A_p = self._pattern.matrix()
        self._momentum, self._pressure = linsolve.system_solvers(
            self._pattern, mesh.dim, o, n, g.orth_coeff)
        # what no step changes, and the last step's inflow state, with the
        # inflow rates that it was built for
        self._mu_orth = self.fluid.mu * g.orth_coeff
        self._mu_b_orth = self.fluid.mu * g.b_orth_coeff
        self._fixed_u_faces = g.boundary[self._fixed_u]
        self._fixed_p_faces = g.boundary[self._fixed_p]
        self._fixed_p_owner = g.b_owner[self._fixed_p]
        self._inflow = None     # (rates, _InflowState)

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
        return _InflowState(phi, g.D_b @ (coeff[:, None] * values),
                            values[self._fixed_u])

    def initialize(self, u=None, p=None, t=0.0):
        """Build a consistent initial state (fluxes from the velocity;
        each Windkessel outlet at its starting proximal pressure)."""
        state = FlowState(self.mesh, u=u, p=p, time=t,
                          p_p=[o.p_p for _, _, o in self._windkessels])
        state.phi = self._F @ state.u.ravel() + self._inflow_state(t).phi
        return state

    # -- one time step -----------------------------------------------------

    def step(self, state: FlowState, dt=None):
        """Advance one BDF1 step; returns a new FlowState."""
        mesh = self.mesh
        g = mesh.fv
        cfg = self.config
        dt = cfg.dt if dt is None else dt
        t_new = state.time + dt
        nc = mesh.n_cells
        p_p, p_fixed = self.advance_windkessel(state, dt)

        inflow = self._inflow_state(t_new)
        phi = state.phi.copy()
        phi[self._fixed_u_faces] = inflow.phi[self._fixed_u_faces]

        # ---- momentum predictor ----
        fixed_p = self._fixed_p
        # p stacked on the fixed boundary pressures, the input of the
        # pressure gradient operators; its head follows every solve
        pb = np.concatenate([state.p, p_fixed])
        diag, A_m, rhs0 = self._momentum_system(state, phi, inflow, dt)
        grad_p = self._G @ pb
        self._momentum.factor(A_m)
        u_star = linsolve.solve_bicgstab(
            self._momentum, rhs0 - grad_p.reshape(rhs0.shape), x0=state.u,
            tol=cfg.lin_tol)

        # everything built from the momentum diagonal is fixed for the
        # whole corrector sequence, so assemble the pressure matrix, its
        # factor and the boundary part of its right-hand side once
        rAU = mesh.cell_volume / diag
        rAU_f = g.W @ rAU
        c_int = rAU_f * g.orth_coeff
        c_b = rAU[g.b_owner] * g.b_orth_coeff
        self._pressure.factor(self._pressure_matrix(c_int, c_b))
        c_bp = np.zeros_like(c_b)
        c_bp[fixed_p] = c_b[fixed_p] * p_fixed
        rhs_pb = g.D_b @ c_bp

        u, p = u_star, state.p.copy()
        for _ in range(cfg.n_piso):
            # H = rhs (no pressure) minus off-diagonal action
            off = A_m @ u - diag[:, None] * u
            HbyA = (rhs0 - off) / diag[:, None]

            phi_star = self._F @ HbyA.ravel() + inflow.phi
            rhs_p0 = rhs_pb - g.D @ phi_star

            corr = 0.0
            for _ in range(cfg.n_nonorth if self._has_nonorth else 1):
                rhs_p = rhs_p0
                if self._has_nonorth:
                    corr = rAU_f * (self._NG @ pb)
                    rhs_p = rhs_p0 + g.D_int @ corr
                p = linsolve.solve_cg(self._pressure, rhs_p, x0=p,
                                      tol=cfg.lin_tol)
                pb[:nc] = p

            grad = (self._G @ pb) / self._vol
            u = HbyA - rAU[:, None] * grad.reshape(HbyA.shape)

        # the last corrector's flux correction, the only flux kept (its
        # non-orth part too, so the cell balances close to the
        # linear-solver tolerance)
        dp = p[g.i_neigh] - p[g.i_owner]
        phi = phi_star
        phi[g.internal] -= c_int * dp + corr
        phi[self._fixed_p_faces] -= c_b[fixed_p] * (
            p_fixed - p[self._fixed_p_owner])

        new = FlowState(mesh, u=u, p=p, phi=phi, time=t_new, p_p=p_p)
        err = new.continuity_error()
        if not err <= cfg.continuity_tol:   # NaN fails too
            raise SolverFailure(
                f"continuity error {err:.3e} exceeds {cfg.continuity_tol:.1e} "
                f"at t={t_new:.6g}", [err])
        return new

    def _momentum_system(self, state, phi, inflow, dt):
        """Implicit matrix (shared by all components), its diagonal, and
        the pressure-free right-hand side, with the velocity boundary
        values of the ``_InflowState`` ``inflow``.

        The matrix is the solver's own: the next step overwrites it.
        """
        mesh = self.mesh
        g = mesh.fv
        rho = self.fluid.rho

        # matrix values in the COO order of self._m_slots: the four
        # entries of each internal face, the time term, boundary faces;
        # the neighbour row's pair is the owner row's negated (exactly)
        phi_i = phi[g.internal]
        conv_p = rho * np.maximum(phi_i, 0.0)   # owner-donor part
        conv_m = rho * np.minimum(phi_i, 0.0)   # neighbor-donor part
        owner = conv_p + self._mu_orth
        neigh = conv_m - self._mu_orth

        diag_t = rho * mesh.cell_volume / dt
        rhs = diag_t[:, None] * state.u
        # fixed-velocity faces couple diffusively; zero-gradient (outflow)
        # faces contribute implicit donor convection only
        bval = np.where(self._fixed_u, self._mu_b_orth,
                        rho * np.maximum(phi[g.boundary], 0.0))
        rhs += inflow.rhs_b
        vals = np.concatenate([owner, neigh, -neigh, -owner, diag_t, bval])

        A = self._pattern.fill(self._A_m, self._m_slots, vals)
        diag = A.data[self._diag_slots]

        # deferred corrections from the previous time level
        if self._second_order or self._has_nonorth:
            ub = np.concatenate([state.u, inflow.u_fixed])
        if self._second_order:
            # each face adds (x_f - x_D) . grad(u)_D to its donor D's value
            donors = np.where(phi_i >= 0.0, g.i_owner, g.i_neigh)
            grad = (self._grad_u @ ub).reshape(-1, mesh.dim, mesh.dim)
            dx = mesh.face_centroid[g.internal] - mesh.cell_centroid[donors]
            rhs -= rho * (g.D_int @ (phi_i[:, None] * np.einsum(
                "fji,fj->fi", grad[donors], dx)))
        if self._has_nonorth:
            # non-orthogonal part of the diffusive face flux; its
            # orthogonal and boundary parts are implicit in A
            rhs += self._K_u @ ub
        return diag, A, rhs

    def _pressure_matrix(self, c_int, c_b):
        """Pressure-correction matrix.

        Only the right-hand side changes between PISO correctors, so the
        matrix is assembled once per time step. It is the solver's own:
        the next step overwrites it.
        """
        vals = np.concatenate([c_int, -c_int, c_int, -c_int,
                               c_b[self._fixed_p]])
        return self._pattern.fill(self._A_p, self._p_slots, vals)

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
        """March to t_end, max_steps or steady state. Returns the final
        state (a new one, even after no step), its ``converged`` and
        ``steps`` set."""
        cfg = self.config
        state = self.initialize() if state is None else state.copy()
        n_max = cfg.max_steps or int(round((cfg.t_end - state.time) / cfg.dt)) + 1
        uref = 0.0
        steps = 0
        steady = False
        while state.time < cfg.t_end - 1e-12 and steps < n_max:
            dt = min(cfg.dt, cfg.t_end - state.time)
            new = self.step(state, dt)
            cfl = new.cfl(dt)
            if cfl > cfg.cfl_max:
                msg = f"CFL {cfl:.2f} exceeds limit {cfg.cfl_max} at t={new.time:.6g}"
                if cfg.cfl_action == "error":
                    raise SolverFailure(msg, [cfl])
                import warnings
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
            du = np.abs(new.u - state.u).max()
            uref = max(uref, np.abs(new.u).max(), 1e-300)
            state = new
            steps += 1
            if observer is not None:
                observer(state)
            if cfg.steady_tol is not None and du / (dt * uref) < cfg.steady_tol:
                steady = True
                break
        state.converged = steady if cfg.steady_tol is not None else None
        state.steps = steps
        return state
