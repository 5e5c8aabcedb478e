"""Pressure-velocity coupling: collocated PISO with Rhie-Chow fluxes.

One BDF1 time step = one implicit momentum predictor (first-order upwind
convection and orthogonal diffusion in the matrix, higher-order convection
and non-orthogonal diffusion as deferred corrections) followed by a fixed
number of pressure correctors.

``PisoSolver.step`` does only the work that changes from step to step.
The step's linear face operators depend only on the mesh, the fluid and
the solver's fixed boundary masks, so the solver fuses them once, as CSR
matrices, when it is built:

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
  acting on u stacked on the fixed boundary velocities.

Each application in a step is one sparse product, and the cell gradient
of p is formed once per corrector, for the velocity update. The momentum
and the pressure matrix are built once per solver on the fixed pattern
of ``linsolve.Pattern``; each step overwrites their values in place. The
pressure ``BoundaryValues`` are built once too, and a Windkessel outlet's
rows in them are each step's scratch: the outlet's proximal pressure is
state (``FlowState.p_p``), and a step first calls ``advance_windkessel``,
which returns the next proximal pressures and writes the outlet's
boundary pressure into those rows. The solver takes one linear
solver per system from ``linsolve.system_solvers`` when it is built; a
step factors each with its matrix and solves through
``linsolve.solve_bicgstab`` and ``linsolve.solve_cg``, and does not know
which method either uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, SolverFailure
from ..units import DYN_CM2_TO_PA, M3S_TO_CM3S
from ..windkessel import advance_outlet
from . import linsolve
from .boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                       NoSlipBC, WindkesselBC)
from .operators import (CONVECTION_SCHEMES, BoundaryValues,
                        boundary_values_from_patches, convective_term,
                        flux_matrix, gradient_matrix, nonorth_flux_matrix)
# perfbench/tracing.py wraps each of these under its name in this module
# (getattr); a traced run fails if one is missing, called here or not
from .operators import (diffusion_term, face_interpolate,  # noqa: F401
                        gauss_gradient, gradient_term)


@dataclass
class FluidProperties:
    """Constant-property incompressible fluid (defaults: blood)."""

    rho: float = 1060.0   # kg/m^3
    mu: float = 0.004     # Pa s

    @property
    def nu(self):
        return self.mu / self.rho

    def __post_init__(self):
        if self.rho <= 0 or self.mu <= 0:
            raise InvalidArgumentError("rho and mu must be positive")


@dataclass
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    n_piso: int = 2                   # pressure correctors per step
    n_nonorth: int = 2                # pressure solves per corrector on
                                      # non-orthogonal meshes (else one)
    convection_scheme: str = "second-order-upwind"   # or "upwind"
    lin_tol: float = 1e-6             # Krylov solves: 3D, wide-2D momentum
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

    ``converged`` is set on the state that ``PisoSolver.run`` returns:
    whether the run met ``steady_tol``, None when it has none."""

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


class PisoSolver:
    """Transient incompressible solver on a fixed mesh and BC set.

    The solver owns its step matrices and pressure boundary values and
    overwrites them every step, so one solver steps in one thread at a
    time (a sweep builds one solver per point).
    """

    def __init__(self, mesh, bcs: BoundaryConditionSet, fluid=None,
                 config=None):
        bcs.validate_against(mesh)
        self.mesh = mesh
        self.bcs = bcs
        self.fluid = fluid or FluidProperties()
        self.config = config or SolverConfig()
        g = mesh.fv
        # velocity boundary values: no-slip faces stay at rest, inflow
        # faces hold their profile, scaled to the inflow rate every step
        shapes, self._inflows = {}, []
        for name, (vbc, _) in bcs.conditions.items():
            patch = mesh.patches[name]
            if isinstance(vbc, InflowBC):
                shapes[name], influx = vbc.shape_velocities(mesh, patch)
                self._inflows.append((g.b_index[patch.face_ids], vbc, influx))
            elif isinstance(vbc, NoSlipBC):
                shapes[name] = np.zeros(mesh.dim)
        self._bu_shape = boundary_values_from_patches(mesh, shapes)
        self._fixed_u = self._bu_shape.fixed
        # pressure boundary values, built once: fixed values never change,
        # and each step's advance_windkessel writes the Windkessel rows
        pvals, self._windkessels = {}, []
        for name, (_, pbc) in bcs.conditions.items():
            if isinstance(pbc, FixedPressureBC):
                pvals[name] = pbc.value
            elif isinstance(pbc, WindkesselBC):
                pvals[name] = 0.0
                self._windkessels.append(
                    (name, g.b_index[mesh.patches[name].face_ids], pbc.outlet))
        self._bp = boundary_values_from_patches(mesh, pvals)
        self._fixed_p = self._bp.fixed
        self._has_nonorth = g.non_orthogonal
        # the step's fused face operators (cell major vector layout); the
        # gradients act on a cell field stacked on its fixed boundary values
        self._vol = np.repeat(mesh.cell_volume, mesh.dim)
        self._G = gradient_matrix(mesh, self._fixed_p)
        self._F = flux_matrix(mesh, self._fixed_u)
        if self._has_nonorth:
            self._NG = nonorth_flux_matrix(mesh, self._G)
            self._K_u = (self.fluid.mu * g.D_int @ nonorth_flux_matrix(
                mesh, gradient_matrix(mesh, self._fixed_u))).tocsr()
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

    # -- boundary value assembly ----------------------------------------

    def _velocity_bvals(self, t):
        """The velocity boundary values at ``t``, and the flux that they
        prescribe on every face: 0 off the fixed-velocity faces, so that
        ``self._F @ u.ravel()`` plus it is the face flux of ``u``."""
        mesh, b = self.mesh, self.mesh.fv.boundary
        values = self._bu_shape.values.copy()
        for rows, bc, influx in self._inflows:
            values[rows] *= bc.rate(t) / influx
        phi = np.zeros(mesh.n_faces)
        phi[b] = np.where(self._fixed_u, np.einsum(
            "ij,ij->i", values, mesh.face_area[b]), 0.0)
        return BoundaryValues(values, self._fixed_u), phi

    def initialize(self, u=None, p=None, t=0.0):
        """Build a consistent initial state (fluxes from the velocity;
        each Windkessel outlet at its starting proximal pressure)."""
        state = FlowState(self.mesh, u=u, p=p, time=t,
                          p_p=[o.p_p for _, _, o in self._windkessels])
        state.phi = self._F @ state.u.ravel() + self._velocity_bvals(t)[1]
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
        p_p = self.advance_windkessel(state, dt)

        bu, phi_fixed = self._velocity_bvals(t_new)
        bp = self._bp
        phi = state.phi.copy()
        fixed_faces = g.boundary[self._fixed_u]
        phi[fixed_faces] = phi_fixed[fixed_faces]

        # ---- momentum predictor ----
        fixed_p = self._fixed_p
        # p stacked on the fixed boundary pressures, the input of the
        # pressure gradient operators; its head follows every solve
        pb = np.concatenate([state.p, bp.values[fixed_p]])
        bp_fixed = pb[nc:]
        diag, A_m, rhs0 = self._momentum_system(state, phi, bu, dt)
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
        rhs_pb = g.D_b @ np.where(fixed_p, c_b * bp.values, 0.0)

        u, p = u_star, state.p.copy()
        for _ in range(cfg.n_piso):
            # H = rhs (no pressure) minus off-diagonal action
            off = A_m @ u - diag[:, None] * u
            HbyA = (rhs0 - off) / diag[:, None]

            phi_star = self._F @ HbyA.ravel() + phi_fixed
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

            # flux and velocity correction (non-orth part kept in the flux
            # so the cell balances close to the linear-solver tolerance)
            dp = p[g.i_neigh] - p[g.i_owner]
            phi_new = phi_star.copy()
            phi_new[g.internal] -= c_int * dp + corr
            phi_new[g.boundary[fixed_p]] = (
                phi_star[g.boundary[fixed_p]]
                - c_b[fixed_p] * (bp_fixed - p[g.b_owner[fixed_p]]))
            phi = phi_new
            grad = (self._G @ pb) / self._vol
            u = HbyA - rAU[:, None] * grad.reshape(HbyA.shape)

        new = FlowState(mesh, u=u, p=p, phi=phi, time=t_new, p_p=p_p)
        err = new.continuity_error()
        if not err <= cfg.continuity_tol:   # NaN fails too
            raise SolverFailure(
                f"continuity error {err:.3e} exceeds {cfg.continuity_tol:.1e} "
                f"at t={t_new:.6g}", [err])
        return new

    def _momentum_system(self, state, phi, bu, dt):
        """Implicit matrix (shared by all components), its diagonal, and
        the pressure-free right-hand side.

        The matrix is the solver's own: the next step overwrites it.
        """
        mesh = self.mesh
        g = mesh.fv
        cfg = self.config
        rho, mu = self.fluid.rho, self.fluid.mu

        # matrix values in the COO order of self._m_slots: the four
        # entries of each internal face, the time term, boundary faces
        phi_i = phi[g.internal]
        conv_p = rho * np.maximum(phi_i, 0.0)   # owner-donor part
        conv_m = rho * np.minimum(phi_i, 0.0)   # neighbor-donor part
        dcoef = mu * g.orth_coeff

        diag_t = rho * mesh.cell_volume / dt
        rhs = diag_t[:, None] * state.u
        phi_b = phi[g.boundary]
        # fixed-velocity faces couple diffusively; zero-gradient (outflow)
        # faces contribute implicit donor convection only
        bval = np.where(self._fixed_u, mu * g.b_orth_coeff,
                        rho * np.maximum(phi_b, 0.0))
        coeff = np.where(self._fixed_u, mu * g.b_orth_coeff - rho * phi_b, 0.0)
        rhs += g.D_b @ (coeff[:, None] * bu.values)
        vals = np.concatenate([conv_p + dcoef, conv_m - dcoef,
                               -conv_m + dcoef, -conv_p - dcoef,
                               diag_t, bval])

        A = self._pattern.fill(self._A_m, self._m_slots, vals)
        diag = A.data[self._diag_slots]

        # deferred corrections from the previous time level
        if cfg.convection_scheme != "upwind":
            rhs -= rho * (convective_term(state.u, phi, mesh,
                                          cfg.convection_scheme, bu)
                          - convective_term(state.u, phi, mesh, "upwind", bu))
        if self._has_nonorth:
            # non-orthogonal part of the diffusive face flux; its
            # orthogonal and boundary parts are implicit in A
            rhs += self._K_u @ np.concatenate(
                [state.u, bu.values[self._fixed_u]])
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
        the state's patch flux Q: returns the next state's proximal
        pressures, and writes p_p + R_p Q into the outlet's rows of the
        pressure boundary values for the step that calls it."""
        if len(state.p_p) != len(self._windkessels):
            raise InvalidArgumentError(
                f"state has {len(state.p_p)} Windkessel pressures, the "
                f"solver {len(self._windkessels)} Windkessel outlets")
        p_p = np.empty(len(self._windkessels))
        for k, (name, rows, outlet) in enumerate(self._windkessels):
            Q = state.patch_flux(name)           # m^3/s, outward
            p_p[k], p_b = advance_outlet(outlet, state.p_p[k],
                                         Q * M3S_TO_CM3S, dt)
            self._bp.values[rows] = p_b * DYN_CM2_TO_PA
        return p_p

    # -- time loop -----------------------------------------------------------

    def run(self, state=None, observer=None):
        """March to t_end, max_steps or steady state. Returns the final
        state (a new one, even after no step), its ``converged`` set."""
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
        return state
