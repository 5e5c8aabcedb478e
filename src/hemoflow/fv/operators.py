"""Explicit finite-volume operators (face sums over control volumes).

Every face-to-cell sum is a product with the signed cell-face incidence
matrix of the mesh (``mesh.fv.D`` and its internal/boundary column blocks
``D_int``/``D_b``): +1 at the owner, -1 at the neighbor.

Boundary face values enter through ``BoundaryValues``: a value array in
the global boundary-face ordering (mesh.fv.boundary) plus a mask of the
faces that carry a value. A face without a value is zero-gradient: it
takes its owner cell's value, so the diffusion operator sees zero flux
through it. ``bvals=None`` makes every boundary face zero-gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError

CONVECTION_SCHEMES = ("upwind", "second-order-upwind", "central")


@dataclass
class BoundaryValues:
    """Per-boundary-face values, (n_b,) or (n_b, k), and the (n_b,) mask
    of faces that carry one."""

    values: np.ndarray
    fixed: np.ndarray


def boundary_values_from_patches(mesh, patch_values):
    """Assemble ``BoundaryValues`` from per-patch values.

    ``patch_values``: dict patch name -> scalar or vector (same on every
    face), (n,)/(n, dim) array (one per face), or callable(face_centroid)
    -> value. Faces of unlisted patches are zero-gradient.
    """
    g = mesh.fv
    rows, vals = [], []
    for name, val in patch_values.items():
        fids = mesh.patches[name].face_ids
        if callable(val):
            val = [val(x) for x in mesh.face_centroid[fids]]
        val = np.asarray(val, dtype=float)
        if val.ndim == 0 or len(val) != len(fids):  # one value for all faces
            val = np.broadcast_to(val, (len(fids),) + val.shape)
        rows.append(g.b_index[fids])
        vals.append(val)
    shape = np.broadcast_shapes(*(v.shape[1:] for v in vals))
    values = np.zeros((len(g.boundary),) + shape)
    fixed = np.zeros(len(g.boundary), dtype=bool)
    for r, v in zip(rows, vals):
        values[r] = v
        fixed[r] = True
    return BoundaryValues(values, fixed)


def _boundary_value_array(mesh, field, bvals):
    """Boundary face values: the given value on fixed faces, the owner
    cell value elsewhere."""
    vals = np.asarray(field, dtype=float)[mesh.fv.b_owner]
    if bvals is not None:
        vals[bvals.fixed] = bvals.values[bvals.fixed]
    return vals


def _along(w, f):
    """Reshape the 1-D ``w`` to broadcast along the first axis of ``f``."""
    return w.reshape(w.shape + (1,) * (np.ndim(f) - 1))


def face_interpolate(field, mesh):
    """Linear interpolation of a cell field to internal faces."""
    g = mesh.fv
    f = np.asarray(field, dtype=float)
    w = _along(g.w_owner, f)
    return w * f[g.i_owner] + (1.0 - w) * f[g.i_neigh]


def gradient_term(field, mesh, bvals=None):
    """Sum of face-interpolated values times face area vectors, per cell.

    This is the Gauss pressure-gradient face sum (volume-scaled gradient);
    divide by cell volumes for the gradient itself. A (nc,) field gives
    (nc, dim), a (nc, k) field gives (nc, k, dim).
    """
    g = mesh.fv
    f = np.asarray(field, dtype=float)
    A = mesh.face_area.reshape(
        (mesh.n_faces,) + (1,) * (f.ndim - 1) + (mesh.dim,))
    vf = face_interpolate(f, mesh)[..., None] * A[g.internal]
    vb = _boundary_value_array(mesh, f, bvals)[..., None] * A[g.boundary]
    out = g.D_int @ vf.reshape(len(vf), -1) + g.D_b @ vb.reshape(len(vb), -1)
    return out.reshape(f.shape + (mesh.dim,))


def gauss_gradient(field, mesh, bvals=None):
    """Cell-centered Gauss gradient: (nc, dim) for a scalar field,
    (nc, k, dim) for a (nc, k) field."""
    grad = gradient_term(field, mesh, bvals)
    return grad / _along(mesh.cell_volume, grad)


def vector_gauss_gradient(u, mesh, bvals=None):
    """Per-component Gauss gradient of a vector field, shape (nc, dim, dim).

    out[c, i, j] = d u_i / d x_j at cell c.
    """
    return gauss_gradient(u, mesh, bvals)


def _face_values(u, phi, mesh, scheme, bvals):
    """Convected face values u_j on internal faces for a given scheme."""
    g = mesh.fv
    u = np.asarray(u, dtype=float)
    phi_i = phi[g.internal]
    if scheme == "central":
        return face_interpolate(u, mesh)
    donors = np.where(phi_i >= 0.0, g.i_owner, g.i_neigh)
    uf = u[donors]
    if scheme == "upwind":
        return uf
    if scheme == "second-order-upwind":
        grad = gauss_gradient(u, mesh, bvals)
        dx = mesh.face_centroid[g.internal] - mesh.cell_centroid[donors]
        return uf + np.einsum("fij,fj->fi", grad[donors], dx)
    raise InvalidArgumentError(f"unknown convection scheme {scheme!r}")


def convective_term(u, phi, mesh, scheme="second-order-upwind", bvals=None):
    """Face sum of phi_j u_j per cell (divergence of the convective flux
    times the cell volume). ``phi`` holds all face fluxes in m^3/s;
    boundary fluxes are taken from phi directly with the boundary velocity
    from bvals (falling back to the owner value).
    """
    if scheme not in CONVECTION_SCHEMES:
        raise InvalidArgumentError(f"unknown convection scheme {scheme!r}")
    g = mesh.fv
    u = np.asarray(u, dtype=float)
    uf = _face_values(u, phi, mesh, scheme, bvals)
    ub = _boundary_value_array(mesh, u, bvals)
    return (g.D_int @ (phi[g.internal][:, None] * uf)
            + g.D_b @ (phi[g.boundary][:, None] * ub))


def diffusion_term(u, mesh, n_corr=1, bvals=None):
    """Face sum of (grad u)_j . A_j per cell (Laplacian times volume).

    The orthogonal contribution uses the over-relaxed decomposition; when
    ``n_corr`` >= 1 an explicit non-orthogonal correction from the
    face-interpolated cell gradient is added. Boundary faces with a value
    use a one-sided orthogonal difference; zero-gradient faces contribute
    no flux.
    """
    if n_corr < 0:
        raise InvalidArgumentError("n_corr must be >= 0")
    g = mesh.fv
    u = np.asarray(u, dtype=float)

    flux = _along(g.orth_coeff, u) * (u[g.i_neigh] - u[g.i_owner])
    if n_corr >= 1 and not np.allclose(g.T, 0.0):
        gf = face_interpolate(gauss_gradient(u, mesh, bvals), mesh)
        flux = flux + np.einsum("f...j,fj->f...", gf, g.T)
    ub = _boundary_value_array(mesh, u, bvals)
    b_flux = _along(g.b_orth_coeff, u) * (ub - u[g.b_owner])
    return g.D_int @ flux + g.D_b @ b_flux
