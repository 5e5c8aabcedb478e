"""Explicit finite-volume operators (face sums over control volumes).

Every face-to-cell sum is a product with the signed cell-face incidence
matrix of the mesh (``mesh.fv.D`` and its internal/boundary column blocks
``D_int``/``D_b``): +1 at the owner, -1 at the neighbor. ``mesh.fv``
keeps ``D_b`` and builds ``D_int`` on each read, so the function forms
below build it per call and ``gradient_matrix`` once per solver.

The function forms, the tests' reference operators (no product code
calls them), take boundary face values through ``BoundaryValues``: a
value array in the global boundary-face ordering (mesh.fv.boundary) plus
a mask of the faces that carry a value. A face without a value is
zero-gradient: it takes its owner cell's value, so the diffusion
operator sees zero flux through it. ``bvals=None`` makes every boundary
face zero-gradient.

Linear interpolation to internal faces is one product with the CSR
matrix ``mesh.fv.W``, built with the mesh's face data. The solver's
linear face operators are composed from it once per solver:
``gradient_matrix`` (the Gauss gradient face sum for one mask of fixed
boundary faces, acting on the cell field stacked on the fixed faces'
values), ``face_dot_matrix`` (interpolate a vector field, then dot it
with one vector per internal face), ``flux_matrix`` (the face flux of a
velocity on all faces, for one mask of fixed boundary faces) and
``nonorth_flux_matrix`` (the first two chained through the cell volumes:
the non-orthogonal face flux of a field's gradient). Their vector layout
is cell major: row or column ``c * dim + j`` is axis j of cell c, so an
(nc, dim) array enters and leaves them as a flat view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import InvalidArgumentError

CONVECTION_SCHEMES = ("upwind", "second-order-upwind")


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
    W = mesh.fv.W
    f = np.asarray(field, dtype=float)
    return (W @ f.reshape(len(f), -1)).reshape((W.shape[0],) + f.shape[1:])


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


def _by_cell(blocks):
    """Stack per-axis row blocks so that row ``c * dim + j`` of the result
    is row c of ``blocks[j]``."""
    dim, n = len(blocks), blocks[0].shape[0]
    order = np.arange(dim * n).reshape(dim, n).T.ravel()
    return sp.vstack(blocks, format="csr")[order]


def gradient_matrix(mesh, fixed):
    """CSR matrix of the Gauss gradient face sum when the boundary faces
    in the mask ``fixed`` carry values. It acts on a cell field stacked
    on the values of the fixed faces.

    ``G @ np.concatenate([f, values[fixed]])``, reshaped to (nc, dim) for
    a (nc,) field, equals ``gradient_term(f, mesh, BoundaryValues(values,
    fixed))``. A (nc, k) field gives (nc * dim, k): cell major rows, so the
    reshape is (nc, dim, k), the last two axes of ``gradient_term`` swapped.
    """
    g = mesh.fv
    free = ~np.asarray(fixed, dtype=bool)
    S = mesh.face_area[g.internal]
    S_b = mesh.face_area[g.boundary]
    D_free, D_fixed = g.D_b[:, free], g.D_b[:, ~free]
    # D_b.T picks each boundary face's owner: the value of a free face
    return _by_cell([sp.hstack([g.D_int @ sp.diags(S[:, j]) @ g.W
                                + D_free @ sp.diags(S_b[free, j]) @ D_free.T,
                                D_fixed @ sp.diags(S_b[~free, j])])
                     for j in range(mesh.dim)])


def face_dot_matrix(mesh, vectors, W=None):
    """CSR (n_rows x nc * dim) matrix that takes a cell major (nc, dim)
    field to faces with ``W`` (n_rows x nc; default ``mesh.fv.W``, the
    internal faces) and dots each face value with its row of ``vectors``
    (n_rows, dim)."""
    W = mesh.fv.W if W is None else W
    return _by_cell([(sp.diags(vectors[:, j]) @ W).T
                     for j in range(mesh.dim)]).T.tocsr()


def flux_matrix(mesh, fixed):
    """CSR (n_faces x nc * dim) face flux matrix of a velocity whose
    boundary faces in the mask ``fixed`` carry values: S . (interpolated
    u) on internal faces, S . (owner's u) on the other boundary faces, and
    an empty row on each fixed face, whose value prescribes its flux. Its
    internal rows are those of ``face_dot_matrix`` of the face areas."""
    g = mesh.fv
    free = np.flatnonzero(~np.asarray(fixed, dtype=bool))
    # the face values: interpolated on internal faces, the owner's on
    # free boundary faces, none on fixed ones
    owner = sp.csr_matrix((np.ones(len(free)), (free, g.b_owner[free])),
                          shape=(len(g.boundary), mesh.n_cells))
    W = sp.vstack([g.W, owner], format="csr")
    row = np.empty(mesh.n_faces, dtype=np.int64)
    row[np.concatenate([g.internal, g.boundary])] = np.arange(mesh.n_faces)
    return face_dot_matrix(mesh, mesh.face_area, W[row])


def nonorth_flux_matrix(mesh, G):
    """CSR matrix that applies the gradient face sum ``G`` (from
    ``gradient_matrix``), divides by the cell volumes, interpolates the
    gradient to internal faces and dots it with the non-orthogonal part T
    of each face: the explicit non-orthogonal face flux of the field."""
    g = mesh.fv
    inv_vol = sp.diags(np.repeat(1.0 / mesh.cell_volume, mesh.dim))
    return (face_dot_matrix(mesh, g.T) @ inv_vol @ G).tocsr()


def gauss_gradient(field, mesh, bvals=None):
    """Cell-centered Gauss gradient: (nc, dim) for a scalar field,
    (nc, k, dim) for a (nc, k) field, with out[c, i, j] = d f_i / d x_j."""
    grad = gradient_term(field, mesh, bvals)
    return grad / _along(mesh.cell_volume, grad)


def _face_values(u, phi, mesh, scheme, bvals):
    """Convected face values u_j on internal faces for a given scheme, one
    of ``CONVECTION_SCHEMES`` (``convective_term`` checks it)."""
    g = mesh.fv
    u = np.asarray(u, dtype=float)
    donors = np.where(phi[g.internal] >= 0.0, g.i_owner, g.i_neigh)
    uf = u[donors]
    if scheme == "upwind":
        return uf
    # second-order upwind
    grad = gauss_gradient(u, mesh, bvals)
    dx = mesh.face_centroid[g.internal] - mesh.cell_centroid[donors]
    return uf + np.einsum("fij,fj->fi", grad[donors], dx)


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
    if n_corr >= 1 and g.non_orthogonal:
        gf = face_interpolate(gauss_gradient(u, mesh, bvals), mesh)
        flux = flux + np.einsum("f...j,fj->f...", gf, g.T)
    ub = _boundary_value_array(mesh, u, bvals)
    b_flux = _along(g.b_orth_coeff, u) * (ub - u[g.b_owner])
    return g.D_int @ flux + g.D_b @ b_flux
