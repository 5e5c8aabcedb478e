"""Mesh generators, geometry invariants, and quality metrics."""

import numpy as np
import pytest

from hemoflow.errors import InvalidArgumentError
from hemoflow.mesh import (Mesh, Patch, generate_bifurcation_mesh,
                           generate_box_mesh, generate_channel_mesh,
                           generate_pipe_mesh, mesh_quality)


def check_gauss_closure(mesh, tol=1e-12):
    """Outward face-area vectors of every cell must sum to zero."""
    acc = np.zeros((mesh.n_cells, mesh.dim))
    g = mesh.fv
    np.add.at(acc, g.i_owner, mesh.face_area[g.internal])
    np.add.at(acc, g.i_neigh, -mesh.face_area[g.internal])
    np.add.at(acc, g.b_owner, mesh.face_area[g.boundary])
    scale = mesh.face_area_mag.max()
    assert np.abs(acc).max() <= tol * scale


def check_patch_partition(mesh):
    """Patches partition the boundary faces exactly."""
    g = mesh.fv
    ids = np.concatenate([p.face_ids for p in mesh.patches.values()])
    assert len(ids) == len(set(ids.tolist()))
    assert set(ids.tolist()) == set(np.asarray(g.boundary).tolist())


class TestPipe:
    def test_inlet_area_close_to_circle(self):
        mesh = generate_pipe_mesh(0.05, 0.012866, 40, 8)
        area = mesh.face_area_mag[mesh.patches["inlet"].face_ids].sum()
        assert area == pytest.approx(1.3e-4, rel=0.03)

    def test_minimal_resolution_is_valid(self):
        mesh = generate_pipe_mesh(0.01, 0.005, 2, 2)
        assert mesh.n_cells > 0
        check_gauss_closure(mesh)
        check_patch_partition(mesh)

    def test_volume_close_to_cylinder(self):
        L, d = 0.05, 0.012866
        mesh = generate_pipe_mesh(L, d, 40, 8)
        exact = L * np.pi * d * d / 4.0
        assert mesh.cell_volume.sum() == pytest.approx(exact, rel=0.03)

    def test_non_orthogonality_below_cap(self):
        mesh = generate_pipe_mesh(0.05, 0.012866, 20, 6)
        q = mesh_quality(mesh)
        assert q.max_non_orthogonality < 70.0

    def test_geometry_invariants(self):
        mesh = generate_pipe_mesh(0.04, 0.01, 10, 5)
        check_gauss_closure(mesh)
        check_patch_partition(mesh)
        assert np.all(mesh.cell_volume > 0)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(InvalidArgumentError):
            generate_pipe_mesh(0.0, 0.01, 4, 4)
        with pytest.raises(InvalidArgumentError):
            generate_pipe_mesh(0.01, 0.01, 1, 4)


class TestBifurcation:
    def test_reference_geometry(self):
        mesh = generate_bifurcation_mesh(0.12, 0.028, 0.0129, 60.0, "medium")
        assert set(mesh.patches) == {"inlet", "outlet", "wall"}
        check_gauss_closure(mesh)
        check_patch_partition(mesh)
        assert np.all(mesh.cell_volume > 0)

    def test_right_angle_branch_stays_valid(self):
        mesh = generate_bifurcation_mesh(0.06, 0.01, 0.006, 90.0, "coarse")
        q = mesh_quality(mesh)
        assert q.max_non_orthogonality < 70.0
        check_gauss_closure(mesh)

    def test_named_resolutions_are_nested(self):
        coarse = generate_bifurcation_mesh(0.06, 0.01, 0.006, 45.0, "coarse")
        medium = generate_bifurcation_mesh(0.06, 0.01, 0.006, 45.0, "medium")
        assert medium.n_cells > coarse.n_cells


class TestBox:
    def test_unit_square_volumes(self):
        mesh = generate_box_mesh(4, 4, (1.0, 1.0))
        assert mesh.cell_volume.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(mesh.cell_volume, 1.0 / 16.0)

    def test_sheared_box_keeps_closure(self):
        mesh = generate_box_mesh(5, 4, (1.0, 0.5), shear=0.3)
        check_gauss_closure(mesh)
        check_patch_partition(mesh)
        q = mesh_quality(mesh)
        assert q.max_non_orthogonality > 1.0  # shear makes it non-orthogonal

    def test_channel_patch_kinds(self):
        mesh = generate_channel_mesh(1.0, 0.2, 10, 5)
        kinds = {p.kind for p in mesh.patches.values()}
        assert kinds == {"inlet", "outlet", "wall"}


class TestQualityReport:
    def test_single_cell_report(self):
        mesh = generate_box_mesh(2, 2, (1.0, 1.0))
        q = mesh_quality(mesh)
        assert q.cell_count == 4
        assert q.max_non_orthogonality == pytest.approx(0.0, abs=1e-10)
        assert q.max_skewness == pytest.approx(0.0, abs=1e-10)
        assert q.h_min <= q.h_max
        assert "cells=4" in str(q)


def reference_geometry(dim, pts, face_nodes, owner, neighbor):
    """Face-by-face geometry, kept as the reference for the vectorised
    Mesh: face areas and centroids from fan triangulation, orientation
    from approximate cell centres, volumes and centroids from simplices."""
    pts = np.asarray(pts, dtype=float)
    loops = [tuple(f) for f in face_nodes]
    nf, nc = len(loops), int(max(max(owner), max(neighbor)) + 1)
    area, fc = np.zeros((nf, dim)), np.zeros((nf, dim))
    for i, loop in enumerate(loops):
        v = pts[list(loop)]
        if dim == 2:
            e = v[1] - v[0]
            area[i], fc[i] = (e[1], -e[0]), 0.5 * (v[0] + v[1])
            continue
        m = v.mean(axis=0)
        a_sum, c_sum, w_sum = np.zeros(3), np.zeros(3), 0.0
        for j in range(len(loop)):
            p1, p2 = v[j], v[(j + 1) % len(loop)]
            a_t = 0.5 * np.cross(p1 - m, p2 - m)
            w = np.linalg.norm(a_t)
            a_sum += a_t
            c_sum += w * (m + p1 + p2) / 3.0
            w_sum += w
        area[i], fc[i] = a_sum, (c_sum / w_sum if w_sum > 0 else m)

    approx, cnt = np.zeros((nc, dim)), np.zeros(nc)
    for i in range(nf):
        for c in (owner[i], neighbor[i]):
            if c >= 0:
                approx[c] += fc[i]
                cnt[c] += 1
    approx /= cnt[:, None]
    for i in range(nf):
        far = approx[neighbor[i]] if neighbor[i] >= 0 else fc[i]
        if np.dot(area[i], far - approx[owner[i]]) < 0.0:
            loops[i] = tuple(reversed(loops[i]))
            area[i] = -area[i]

    vol, cmom = np.zeros(nc), np.zeros((nc, dim))
    for i, loop in enumerate(loops):
        for c, sgn in ((owner[i], 1.0), (neighbor[i], -1.0)):
            if c < 0:
                continue
            x0 = approx[c]
            if dim == 2:
                va, vb = pts[loop[0]] - x0, pts[loop[1]] - x0
                v = sgn * 0.5 * (va[0] * vb[1] - va[1] * vb[0])
                vol[c] += v
                cmom[c] += v * (x0 + (va + vb) / 3.0)
                continue
            for j in range(len(loop)):
                p1, p2 = pts[loop[j]], pts[loop[(j + 1) % len(loop)]]
                v = sgn * np.dot(np.cross(p1 - x0, p2 - x0), fc[i] - x0) / 6.0
                vol[c] += v
                cmom[c] += v * (0.25 * (x0 + p1 + p2 + fc[i]))
    return {"face_nodes": loops, "face_area": area, "face_centroid": fc,
            "cell_volume": vol, "cell_centroid": cmom / vol[:, None]}


def with_reversed_loops(mesh):
    """The same mesh with every other face loop reversed on input."""
    loops = [f[::-1] if i % 2 else f for i, f in enumerate(mesh.face_nodes)]
    patches = [Patch(p.name, p.kind, p.face_ids, dict(p.meta))
               for p in mesh.patches.values()]
    return mesh.dim, mesh.points, loops, mesh.owner, mesh.neighbor, patches


@pytest.mark.parametrize("make", [
    lambda: generate_box_mesh(6, 4, (1.0, 0.6), shear=0.3),
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, 8),
    lambda: generate_pipe_mesh(0.03, 0.01, 5, 3),
], ids=["sheared_box", "bifurcation", "pipe"])
@pytest.mark.parametrize("reverse", [False, True], ids=["as_built", "reversed"])
def test_geometry_matches_face_by_face_reference(make, reverse):
    built = make()
    args = (with_reversed_loops(built) if reverse else
            (built.dim, built.points, built.face_nodes, built.owner,
             built.neighbor, list(built.patches.values())))
    ref = reference_geometry(*args[:5])
    mesh = Mesh(*args) if reverse else built
    if reverse:
        assert sum(a != b for a, b in zip(args[2], mesh.face_nodes)) > 0
    assert mesh.face_nodes == ref["face_nodes"]
    for name in ("face_area", "face_centroid", "cell_volume", "cell_centroid"):
        got, want = getattr(mesh, name), ref[name]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
