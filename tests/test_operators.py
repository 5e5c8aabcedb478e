"""Discrete operator exactness on fields with known derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemoflow.errors import InvalidArgumentError
from hemoflow.fv.operators import (CONVECTION_SCHEMES, BoundaryValues,
                                   boundary_values_from_patches,
                                   convective_term, diffusion_term,
                                   face_dot_matrix, face_interpolate,
                                   gauss_gradient, gradient_matrix,
                                   gradient_term, nonorth_flux_matrix)
from hemoflow.mesh import (Mesh, Patch, generate_bifurcation_mesh,
                           generate_box_mesh, generate_pipe_mesh)
from test_linsolve import twin_face_channel


def linear_bvals(mesh, func):
    """Exact boundary values of ``func`` on every patch."""
    return boundary_values_from_patches(
        mesh, {name: func for name in mesh.patches})


@given(a=st.floats(-5, 5), b=st.floats(-5, 5), c=st.floats(-5, 5),
       shear=st.floats(0.0, 0.4))
@settings(max_examples=25, deadline=None)
def test_gauss_gradient_exact_for_linear_fields(a, b, c, shear):
    mesh = generate_box_mesh(5, 4, (1.0, 0.7), shear=shear)
    f = a * mesh.cell_centroid[:, 0] + b * mesh.cell_centroid[:, 1] + c
    bvals = linear_bvals(mesh, lambda x: a * x[0] + b * x[1] + c)
    grad = gauss_gradient(f, mesh, bvals)
    scale = max(abs(a), abs(b), 1.0)
    assert np.allclose(grad[:, 0], a, atol=1e-10 * scale)
    assert np.allclose(grad[:, 1], b, atol=1e-10 * scale)


def test_vector_gradient_matches_componentwise_scalar_gradient():
    mesh = generate_box_mesh(6, 5, (1.0, 1.0), shear=0.2)
    x = mesh.cell_centroid
    u = np.column_stack([1.5 * x[:, 0] - 2.0 * x[:, 1], 0.5 * x[:, 1]])
    grad = gauss_gradient(u, mesh)
    assert np.allclose(grad[:, 0, :],
                       gauss_gradient(u[:, 0], mesh))
    assert np.allclose(grad[:, 1, :],
                       gauss_gradient(u[:, 1], mesh))


def test_face_interpolation_exact_for_linear_fields():
    mesh = generate_box_mesh(5, 5, (1.0, 1.0))
    f = 3.0 * mesh.cell_centroid[:, 0] - mesh.cell_centroid[:, 1]
    g = mesh.fv
    ff = face_interpolate(f, mesh)
    xf = mesh.face_centroid[g.internal]
    assert np.allclose(ff, 3.0 * xf[:, 0] - xf[:, 1], atol=1e-12)


def test_diffusion_of_linear_field_vanishes_in_interior():
    """Interior cells only: boundary faces use a one-sided first-order
    difference, which is inexact on a sheared (non-orthogonal) boundary."""
    mesh = generate_box_mesh(6, 6, (1.0, 1.0), shear=0.15)
    func = lambda x: 2.0 * x[0] + 3.0 * x[1]
    f = 2.0 * mesh.cell_centroid[:, 0] + 3.0 * mesh.cell_centroid[:, 1]
    bvals = linear_bvals(mesh, func)
    lap = diffusion_term(f, mesh, n_corr=2, bvals=bvals)
    g = mesh.fv
    interior = np.ones(mesh.n_cells, dtype=bool)
    interior[g.b_owner] = False
    assert interior.any()
    assert np.abs(lap[interior]).max() < 1e-9 * np.abs(f).max()


def test_diffusion_of_quadratic_field_in_interior():
    """On an orthogonal box the interior Laplacian of x^2 + 3y^2 is 8."""
    mesh = generate_box_mesh(6, 5, (1.0, 0.8))
    x = mesh.cell_centroid
    f = x[:, 0] ** 2 + 3.0 * x[:, 1] ** 2
    bvals = linear_bvals(mesh, lambda p: p[0] ** 2 + 3.0 * p[1] ** 2)
    lap = diffusion_term(f, mesh, n_corr=1, bvals=bvals) / mesh.cell_volume
    interior = np.ones(mesh.n_cells, dtype=bool)
    interior[mesh.fv.b_owner] = False
    assert interior.any()
    assert np.allclose(lap[interior], 8.0, rtol=1e-10)


def test_boundary_values_without_fixed_faces_match_none():
    """Zero-gradient everywhere is what bvals=None means."""
    mesh = generate_box_mesh(5, 4, (1.0, 0.7), shear=0.3)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(mesh.n_cells)
    u = rng.standard_normal((mesh.n_cells, 2))
    phi = rng.standard_normal(mesh.n_faces)
    free = BoundaryValues(np.full((len(mesh.fv.boundary), 2), 7.0),
                          np.zeros(len(mesh.fv.boundary), dtype=bool))
    assert np.array_equal(gradient_term(u, mesh, free), gradient_term(u, mesh))
    for scheme in CONVECTION_SCHEMES:
        assert np.array_equal(convective_term(u, phi, mesh, scheme, free),
                              convective_term(u, phi, mesh, scheme))
    assert np.array_equal(diffusion_term(u, mesh, 1, free),
                          diffusion_term(u, mesh, 1))
    scalar_free = boundary_values_from_patches(mesh, {})
    assert not scalar_free.fixed.any()
    assert np.array_equal(diffusion_term(f, mesh, 1, scalar_free),
                          diffusion_term(f, mesh, 1))


def test_convection_of_constant_field_is_divergence_free():
    """With a solenoidal face flux, convecting a constant gives zero."""
    mesh = generate_box_mesh(5, 4, (1.0, 1.0))
    g = mesh.fv
    phi = np.zeros(mesh.n_faces)
    # uniform unit flow in x: phi = A . (1, 0) on every face
    phi[g.internal] = mesh.face_area[g.internal][:, 0]
    phi[g.boundary] = mesh.face_area[g.boundary][:, 0]
    u = np.tile([2.0, -1.0], (mesh.n_cells, 1))
    bvals = boundary_values_from_patches(
        mesh, {name: np.array([2.0, -1.0]) for name in mesh.patches})
    for scheme in ("upwind", "second-order-upwind"):
        div = convective_term(u, phi, mesh, scheme=scheme, bvals=bvals)
        assert np.abs(div).max() < 1e-12


def test_convection_rejects_unknown_scheme():
    mesh = generate_box_mesh(3, 3, (1.0, 1.0))
    u = np.zeros((mesh.n_cells, 2))
    with pytest.raises(InvalidArgumentError):
        convective_term(u, np.zeros(mesh.n_faces), mesh, scheme="quick")
    with pytest.raises(InvalidArgumentError):
        convective_term(u, np.zeros(mesh.n_faces), mesh, scheme="central")


def test_operators_work_on_3d_meshes():
    mesh = generate_pipe_mesh(0.02, 0.01, 4, 3)
    f = mesh.cell_centroid[:, 2]
    bvals = linear_bvals(mesh, lambda x: x[2])
    grad = gauss_gradient(f, mesh, bvals)
    assert np.allclose(grad[:, 2], 1.0, atol=1e-8)
    assert np.abs(grad[:, :2]).max() < 1e-8


def sheared_pipe(length):
    """A 4 x 2 x 8 pipe of diameter and length ``length``, sheared by
    x += 0.3 z: its faces are up to 16.7 deg non-orthogonal."""
    mesh = generate_pipe_mesh(length, length, 4, 2, n_theta=8)
    points = mesh.points.copy()
    points[:, 0] += 0.3 * points[:, 2]
    patches = [Patch(p.name, p.kind, p.face_ids, dict(p.meta))
               for p in mesh.patches.values()]
    return Mesh(3, points, *mesh.oriented_loops(), mesh.owner, mesh.neighbor,
                patches)


def interpolate_by_gather(field, mesh):
    """Linear interpolation as written before ``mesh.fv.W`` existed."""
    g = mesh.fv
    f = np.asarray(field, dtype=float)
    w = g.w_owner.reshape(g.w_owner.shape + (1,) * (f.ndim - 1))
    return w * f[g.i_owner] + (1.0 - w) * f[g.i_neigh]


def assert_close(value, ref, scale=None):
    assert value.shape == ref.shape
    scale = np.abs(ref).max() if scale is None else scale
    assert np.abs(value - ref).max() <= 1e-13 * scale


def assert_face_operators_match(mesh, rng):
    """The composed and fused CSR operators against the field operators,
    for random fields, boundary values and a random fixed-face mask."""
    g = mesh.fv
    nc, dim, nb = mesh.n_cells, mesh.dim, len(g.boundary)
    fixed = rng.random(nb) < 0.5
    p = rng.standard_normal(nc)
    u = rng.standard_normal((nc, dim))
    bp = BoundaryValues(rng.standard_normal(nb), fixed)
    bu = BoundaryValues(rng.standard_normal((nb, dim)), fixed)

    G = gradient_matrix(mesh, fixed)
    assert G.shape == (nc * dim, nc + fixed.sum())
    pb = np.concatenate([p, bp.values[fixed]])
    ub = np.concatenate([u, bu.values[fixed]])
    assert_close((G @ pb).reshape(nc, dim), gradient_term(p, mesh, bp))
    assert_close((G @ ub).reshape(nc, dim, dim),
                 gradient_term(u, mesh, bu).swapaxes(1, 2))

    # the gradient chained into the non-orthogonal face flux; its scale
    # is that of the gradient's own face flux, as T is 0 on orthogonal
    # faces
    NG = nonorth_flux_matrix(mesh, G)
    assert NG.shape == (len(g.internal), nc + fixed.sum())
    grad_f = face_interpolate(gauss_gradient(p, mesh, bp), mesh)
    assert_close(NG @ pb, np.einsum("fj,fj->f", grad_f, g.T),
                 scale=np.abs(grad_f).max() * np.abs(mesh.face_area).max())
    # summed into cells, it is the non-orthogonal part of the Laplacian
    full = diffusion_term(u, mesh, n_corr=1, bvals=bu)
    assert_close(g.D_int @ (NG @ ub),
                 full - diffusion_term(u, mesh, n_corr=0, bvals=bu),
                 scale=np.abs(full).max())

    S = mesh.face_area[g.internal]
    F = face_dot_matrix(mesh, S)
    assert_close(F @ u.ravel(),
                 np.einsum("ij,ij->i", face_interpolate(u, mesh), S))
    N = face_dot_matrix(mesh, g.T)
    grad = rng.standard_normal((nc, dim, dim))   # [cell, axis j, comp i]
    assert_close(N @ grad.reshape(nc * dim, dim),
                 np.einsum("fij,fj->fi",
                           face_interpolate(grad.swapaxes(1, 2), mesh), g.T))

    # after the products above, which must leave W as it was
    for f in (p, u, grad):
        assert np.array_equal(face_interpolate(f, mesh),
                              interpolate_by_gather(f, mesh))


@given(nx=st.integers(2, 7), ny=st.integers(2, 7),
       lx=st.floats(1e-4, 1.0), ly=st.floats(1e-4, 1.0),
       shear=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_face_operators_match_on_sheared_boxes(nx, ny, lx, ly, shear, seed):
    mesh = generate_box_mesh(nx, ny, (lx, ly), shear=shear)
    assert_face_operators_match(mesh, np.random.default_rng(seed))


@pytest.mark.parametrize("make", [
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0,
                                      resolution=8),
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 3, n_theta=12),
    lambda: sheared_pipe(2e-4),
    twin_face_channel,
], ids=["bifurcation", "pipe", "sheared-pipe", "twin-face-channel"])
def test_face_operators_match(make):
    assert_face_operators_match(make(), np.random.default_rng(11))


@pytest.mark.parametrize("length", [2e-2, 1e-3, 2e-4])
def test_non_orthogonality_is_detected_at_any_scale(length):
    """Non-orthogonal faces are found relative to their area, so the
    correction is kept at the 35-51 um cells of a 0.2 mm pipe too."""
    assert not generate_pipe_mesh(length, length, 4, 2, n_theta=8) \
        .fv.non_orthogonal
    mesh = sheared_pipe(length)
    assert mesh.fv.non_orthogonal
    u = np.random.default_rng(3).standard_normal((mesh.n_cells, 3))
    corr = diffusion_term(u, mesh, n_corr=1) - diffusion_term(u, mesh, 0)
    assert np.abs(corr).max() > 1e-3 * np.abs(diffusion_term(u, mesh)).max()
