"""Pressure-velocity coupling: collocated PISO with Rhie-Chow fluxes.

One BDF1 time step = one implicit momentum predictor (first-order upwind
convection and orthogonal diffusion in the matrix, higher-order convection
and non-orthogonal diffusion as deferred corrections) followed by a fixed
number of pressure correctors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidArgumentError, SolverFailure
from ..units import DYN_CM2_TO_PA, M3S_TO_CM3S
from ..windkessel import advance_outlet
from . import linsolve
from .boundary import (BoundaryConditionSet, FixedPressureBC, InflowBC,
                       NoSlipBC, PressureZeroGradientBC,
                       VelocityZeroGradientBC, WindkesselBC)
from .operators import (CONVECTION_SCHEMES, BoundaryValues,
                        boundary_values_from_patches, convective_term,
                        face_interpolate, gauss_gradient, gradient_term)
# not called here, but perfbench/tracing.py wraps it under this name
from .operators import diffusion_term  # noqa: F401


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
    n_piso: int = 2
    n_nonorth: int = 1
    convection_scheme: str = "second-order-upwind"
    lin_tol: float = 1e-6             # Krylov solves (not narrow-band 2D)
    cfl_max: float = 5.0
    cfl_action: str = "warn"          # "warn" | "error"
    steady_tol: float = None          # stop early when |du|/dt stalls
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


class FlowState:
    """Velocity/pressure/face-flux fields at one time level."""

    def __init__(self, mesh, u=None, p=None, phi=None, time=0.0):
        self.mesh = mesh
        nc, nf = mesh.n_cells, mesh.n_faces
        self.u = np.zeros((nc, mesh.dim)) if u is None else np.array(u, dtype=float)
        self.p = np.zeros(nc) if p is None else np.array(p, dtype=float)
        self.phi = np.zeros(nf) if phi is None else np.array(phi, dtype=float)
        self.time = float(time)
        if self.u.shape != (nc, mesh.dim) or self.p.shape != (nc,) \
                or self.phi.shape != (nf,):
            raise InvalidArgumentError("field shape does not match mesh")

    def copy(self):
        return FlowState(self.mesh, self.u, self.p, self.phi, self.time)

    def patch_flux(self, name):
        """Net outward volumetric flux through a patch [m^3/s]."""
        return float(self.phi[self.mesh.patches[name].face_ids].sum())

    def continuity_error(self):
        """Max cell imbalance of face fluxes, relative to the gross flux."""
        g = self.mesh.fv
        net = g.D @ self.phi
        gross = g.D_abs @ np.abs(self.phi)
        scale = max(gross.max(), 1e-300)
        return float(np.abs(net).max() / scale)

    def cfl(self, dt):
        """Max cell Courant number (half the gross flux sweep per volume)."""
        gross = self.mesh.fv.D_abs @ np.abs(self.phi)
        return float((0.5 * dt * gross / self.mesh.cell_volume).max())


class PisoSolver:
    """Transient incompressible solver on a fixed mesh and BC set."""

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
        self._fixed_p = np.zeros(len(g.boundary), dtype=bool)
        for name, (_, pbc) in bcs.conditions.items():
            if isinstance(pbc, (FixedPressureBC, WindkesselBC)):
                self._fixed_p[g.b_index[mesh.patches[name].face_ids]] = True
        self._has_nonorth = not (np.allclose(g.T, 0.0)
                                 and np.allclose(g.b_T, 0.0))
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
        # 2D: both systems are banded LUs in the pattern's RCM order
        # unless the band is too wide
        self._band = (linsolve.band_order(self._pattern.indptr,
                                          self._pattern.indices)
                      if mesh.dim == 2 else None)
        self._wk_pressure = {}   # patch name -> current boundary value [Pa]
        for name in bcs.windkessel_patches():
            out = bcs.pressure(name).outlet
            self._wk_pressure[name] = out.pressure_pa(0.0)

    # -- boundary value assembly ----------------------------------------

    def _velocity_bvals(self, t):
        values = self._bu_shape.values.copy()
        for rows, bc, influx in self._inflows:
            values[rows] *= bc.rate(t) / influx
        return BoundaryValues(values, self._fixed_u)

    def _pressure_bvals(self):
        vals = {}
        for name, (_, pbc) in self.bcs.conditions.items():
            if isinstance(pbc, FixedPressureBC):
                vals[name] = pbc.value
            elif isinstance(pbc, WindkesselBC):
                vals[name] = self._wk_pressure[name]
        return boundary_values_from_patches(self.mesh, vals)

    def _boundary_flux(self, bu):
        """Prescribed fluxes on fixed-velocity faces (0 elsewhere)."""
        g = self.mesh.fv
        phi_b = np.einsum("ij,ij->i", bu.values, self.mesh.face_area[g.boundary])
        return np.where(bu.fixed, phi_b, 0.0)

    def initialize(self, u=None, p=None, t=0.0):
        """Build a consistent initial state (fluxes from the velocity)."""
        mesh = self.mesh
        state = FlowState(mesh, u=u, p=p, time=t)
        g = mesh.fv
        uf = face_interpolate(state.u, mesh)
        state.phi[g.internal] = np.einsum("ij,ij->i", uf,
                                          mesh.face_area[g.internal])
        bu = self._velocity_bvals(t)
        phi_b = self._boundary_flux(bu)
        ub_free = state.u[g.b_owner]
        free = ~self._fixed_u
        phi_b[free] = np.einsum("ij,ij->i", ub_free[free],
                                mesh.face_area[g.boundary][free])
        state.phi[g.boundary] = phi_b
        return state

    # -- one time step -----------------------------------------------------

    def step(self, state: FlowState, dt=None):
        """Advance one BDF1 step; returns a new FlowState."""
        mesh = self.mesh
        g = mesh.fv
        cfg = self.config
        rho, mu = self.fluid.rho, self.fluid.mu
        dt = cfg.dt if dt is None else dt
        t_new = state.time + dt

        bu = self._velocity_bvals(t_new)
        bp = self._pressure_bvals()
        phi_b_fixed = self._boundary_flux(bu)
        phi = state.phi.copy()
        phi[g.boundary[self._fixed_u]] = phi_b_fixed[self._fixed_u]

        # ---- momentum predictor ----
        band = self._band
        diag, A_m, rhs0 = self._momentum_system(state, phi, bu, dt)
        grad_p = gradient_term(state.p, mesh, bp)
        lu_m = linsolve.factor(A_m, band) if band is not None else None
        u_star = linsolve.solve_bicgstab(A_m, rhs0 - grad_p, x0=state.u,
                                         tol=cfg.lin_tol, lu=lu_m)

        # everything built from the momentum diagonal is fixed for the
        # whole corrector sequence, so assemble the pressure matrix once
        rAU = mesh.cell_volume / diag
        rAU_f = face_interpolate(rAU, mesh)
        c_int = rAU_f * g.orth_coeff
        c_b = rAU[g.b_owner] * g.b_orth_coeff
        A_p = self._pressure_matrix(c_int, c_b)
        # the 2D factor is reused by all n_piso x n_nonorth solves; in 3D
        # its fill is tens of times A_p
        if band is not None:
            lu_p = linsolve.factor(A_p, band)
        elif mesh.dim == 2:
            lu_p = linsolve.sparse_factor(A_p)
        else:
            lu_p = None
        fixed_p = self._fixed_p
        bp_fixed = bp.values[fixed_p]
        free = ~self._fixed_u
        bA = mesh.face_area[g.boundary]

        u, p = u_star, state.p.copy()
        # Gauss gradient of the current p, refreshed after each solve
        grad = grad_p / mesh.cell_volume[:, None]
        for _ in range(cfg.n_piso):
            # H = rhs (no pressure) minus off-diagonal action
            off = A_m @ u - diag[:, None] * u
            HbyA = (rhs0 - off) / diag[:, None]

            phi_star = np.empty(mesh.n_faces)
            phi_star[g.internal] = np.einsum(
                "ij,ij->i", face_interpolate(HbyA, mesh),
                mesh.face_area[g.internal])
            phi_b_star = phi_b_fixed.copy()
            phi_b_star[free] = np.einsum(
                "ij,ij->i", HbyA[g.b_owner[free]], bA[free])
            phi_star[g.boundary] = phi_b_star

            rhs_p0 = self._pressure_rhs(phi_star, c_b, bp)

            corr = np.zeros(len(g.internal))
            for _ in range(max(cfg.n_nonorth, 1)):
                rhs_p = rhs_p0
                if self._has_nonorth:
                    gpf = face_interpolate(grad, mesh)
                    corr = rAU_f * np.einsum("ij,ij->i", gpf, g.T)
                    rhs_p = rhs_p0 + g.D_int @ corr
                p = linsolve.solve_cg(A_p, rhs_p, x0=p, tol=cfg.lin_tol,
                                      lu=lu_p)
                grad = gauss_gradient(p, mesh, bp)
                if not self._has_nonorth:
                    break

            # flux and velocity correction (non-orth part kept in the flux
            # so the cell balances close to the linear-solver tolerance)
            dp = p[g.i_neigh] - p[g.i_owner]
            phi_new = phi_star.copy()
            phi_new[g.internal] -= c_int * dp + corr
            phi_new[g.boundary[fixed_p]] = (
                phi_star[g.boundary[fixed_p]]
                - c_b[fixed_p] * (bp_fixed - p[g.b_owner[fixed_p]]))
            phi = phi_new
            u = HbyA - rAU[:, None] * grad

        new = FlowState(mesh, u=u, p=p, phi=phi, time=t_new)
        err = new.continuity_error()
        if err > cfg.continuity_tol:
            raise SolverFailure(
                f"continuity error {err:.3e} exceeds {cfg.continuity_tol:.1e} "
                f"at t={t_new:.6g}", [err])
        return new

    def _momentum_system(self, state, phi, bu, dt):
        """Implicit matrix (shared by all components), its diagonal, and
        the pressure-free right-hand side."""
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

        A = self._pattern.matrix(self._m_slots, vals)
        diag = A.data[self._diag_slots]

        # deferred corrections from the previous time level
        if cfg.convection_scheme != "upwind":
            rhs -= rho * (convective_term(state.u, phi, mesh,
                                          cfg.convection_scheme, bu)
                          - convective_term(state.u, phi, mesh, "upwind", bu))
        if cfg.n_nonorth >= 1 and self._has_nonorth:
            # non-orthogonal part of the diffusive face flux; its
            # orthogonal and boundary parts are implicit in A
            gf = face_interpolate(gauss_gradient(state.u, mesh, bu), mesh)
            rhs += mu * (g.D_int @ np.einsum("fij,fj->fi", gf, g.T))
        return diag, A, rhs

    def _pressure_matrix(self, c_int, c_b):
        """Pressure-correction matrix.

        Only the right-hand side changes between PISO correctors, so the
        matrix is assembled once per time step.
        """
        vals = np.concatenate([c_int, -c_int, c_int, -c_int,
                               c_b[self._fixed_p]])
        return self._pattern.matrix(self._p_slots, vals)

    def _pressure_rhs(self, phi_star, c_b, bp):
        g = self.mesh.fv
        return (g.D_b @ np.where(bp.fixed, c_b * bp.values, 0.0)
                - g.D @ phi_star)

    # -- time loop -----------------------------------------------------------

    def advance_windkessel(self, state, dt):
        """Step the RCR outlets with the current patch fluxes and refresh
        the boundary pressures used by the next flow step."""
        for name in self.bcs.windkessel_patches():
            outlet = self.bcs.pressure(name).outlet
            Q = state.patch_flux(name)           # m^3/s, outward
            outlet, p_next = advance_outlet(outlet, Q * M3S_TO_CM3S, dt)
            self._wk_pressure[name] = p_next * DYN_CM2_TO_PA

    def run(self, state=None, observer=None):
        """March to t_end (or steady state). Returns the final state."""
        cfg = self.config
        if state is None:
            state = self.initialize()
        n_max = cfg.max_steps or int(round((cfg.t_end - state.time) / cfg.dt)) + 1
        uref = 0.0
        steps = 0
        while state.time < cfg.t_end - 1e-12 and steps < n_max:
            dt = min(cfg.dt, cfg.t_end - state.time)
            if self._wk_pressure:
                self.advance_windkessel(state, dt)
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
                break
        return state
