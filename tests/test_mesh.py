"""Mesh generators, geometry invariants, and quality metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hemoflow.errors import InvalidArgumentError
from hemoflow.mesh import (Mesh, Patch, core, generate_bifurcation_mesh,
                           generate_box_mesh, generate_channel_mesh,
                           generate_pipe_mesh, generators, mesh_quality)
from hemoflow.mesh.core import (NON_ORTHOGONALITY_CAP_DEG, PATCH_KINDS,
                                non_orthogonality)
from hemoflow.mesh.generators import _check_quality


def flat_loops(loops):
    """The (concatenated loops, lengths) that ``Mesh`` takes, from a list
    of vertex-id sequences."""
    return (np.array([v for loop in loops for v in loop], dtype=np.int64),
            np.array([len(loop) for loop in loops], dtype=np.int64))


def loop_list(flat, lengths):
    """The loops of (concatenated loops, lengths) as a list of tuples."""
    start = np.cumsum(lengths) - lengths
    return [tuple(flat[a:a + n].tolist()) for a, n in zip(start, lengths)]


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

    @pytest.mark.parametrize("n_theta", [0, 2, -1])
    def test_refuses_fewer_than_three_sectors(self, n_theta):
        """0 used to build the default polygon, and 2 failed inside Mesh
        as a Gauss-closure violation."""
        with pytest.raises(InvalidArgumentError,
                           match=f"^n_theta must be >= 3, not {n_theta}$"):
            generate_pipe_mesh(0.03, 0.02, 3, 2, n_theta=n_theta)

    def test_n_theta_none_is_the_default_polygon(self):
        assert generate_pipe_mesh(0.03, 0.02, 3, 2, n_theta=3).n_cells == 18
        assert generate_pipe_mesh(0.03, 0.02, 3, 2, n_theta=None).n_cells \
            == generate_pipe_mesh(0.03, 0.02, 3, 2).n_cells == 3 * 2 * 16


class TestBifurcation:
    def test_reference_geometry(self):
        mesh = generate_bifurcation_mesh(0.12, 0.028, 0.0129, 60.0, 10)
        assert set(mesh.patches) == {"inlet", "outlet", "wall"}
        check_gauss_closure(mesh)
        check_patch_partition(mesh)
        assert np.all(mesh.cell_volume > 0)

    def test_right_angle_branch_stays_valid(self):
        mesh = generate_bifurcation_mesh(0.06, 0.01, 0.006, 90.0, 6)
        q = mesh_quality(mesh)
        assert q.max_non_orthogonality < 70.0
        check_gauss_closure(mesh)


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


class TestQualityGate:
    """Generators refuse meshes whose non-orthogonality reaches the cap,
    measured without building the FV cache."""

    def test_steep_branch_is_refused(self):
        with pytest.raises(InvalidArgumentError,
                           match="reaches or exceeds the non-orthogonality "
                                 r"cap: 75\.0 deg >= 70\.0 deg"):
            generate_bifurcation_mesh(0.024, 0.004, 0.002, 15.0, 8)

    def test_steep_shear_is_refused(self):
        # atan(3.0) = 71.6 deg
        with pytest.raises(InvalidArgumentError, match="non-orthogonality cap"):
            generate_box_mesh(6, 4, (1.0, 0.6), shear=3.0)

    def test_cap_itself_is_refused(self, monkeypatch):
        worst = mesh_quality(generate_box_mesh(6, 4, (1.0, 0.6), shear=0.3))
        monkeypatch.setattr(generators, "NON_ORTHOGONALITY_CAP_DEG",
                            worst.max_non_orthogonality)
        with pytest.raises(InvalidArgumentError, match="reaches or exceeds"):
            generate_box_mesh(6, 4, (1.0, 0.6), shear=0.3)

    @pytest.mark.parametrize("make", [
        lambda: generate_pipe_mesh(0.03, 0.01, 5, 3),
        lambda: generate_channel_mesh(1.0, 0.2, 10, 5),
        lambda: generate_box_mesh(6, 4, (1.0, 0.6), shear=0.3),
        lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, 8),
    ], ids=["pipe", "channel", "sheared_box", "bifurcation"])
    def test_gate_angle_is_the_quality_report_maximum(self, make):
        mesh = make()
        gate = non_orthogonality(mesh)[2].max()
        assert mesh._fv is None
        assert gate == mesh_quality(mesh).max_non_orthogonality
        assert mesh._fv is None
        # the angle between the FV cache's faces and their centroid vectors
        g = mesh.fv
        A = mesh.face_area[g.internal]
        d = mesh.cell_centroid[g.i_neigh] - mesh.cell_centroid[g.i_owner]
        cos = np.einsum("ij,ij->i", A, d) / (np.linalg.norm(A, axis=1)
                                             * np.linalg.norm(d, axis=1))
        assert gate == np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).max()
        assert 0.0 <= gate < NON_ORTHOGONALITY_CAP_DEG

    @pytest.mark.parametrize("refuse", [lambda mesh: mesh.fv,
                                        non_orthogonality],
                             ids=["fv_cache", "non_orthogonality"])
    @pytest.mark.parametrize("cell, centroid, where", [
        (1, (-0.5, 0.125), "internal"),   # behind its face with cell 0
        (0, (-1.0, 0.05), "boundary"),    # outside its x = 0 face
    ])
    def test_a_dot_d_refusal_is_shared(self, refuse, cell, centroid, where):
        mesh = generate_box_mesh(3, 2, (1.0, 0.5))
        mesh.cell_centroid[cell] = centroid
        with pytest.raises(InvalidArgumentError,
                           match=f"^{where} face with non-positive A.d$"):
            refuse(mesh)


class TestQualityReport:
    def test_single_cell_report(self):
        mesh = generate_box_mesh(2, 2, (1.0, 1.0))
        q = mesh_quality(mesh)
        assert q.cell_count == 4
        assert q.max_non_orthogonality == pytest.approx(0.0, abs=1e-10)
        assert q.max_skewness == pytest.approx(0.0, abs=1e-10)
        assert q.h_min <= q.h_max
        assert "cells=4" in str(q)


def box_arrays():
    """The arguments of ``Mesh`` for a 3 x 2 box (12 points, 6 cells),
    as copies that a test may corrupt."""
    mesh = generate_box_mesh(3, 2, (1.0, 0.5))
    loops, lengths = mesh.oriented_loops()
    return {"dim": 2, "points": mesh.points, "loops": loops.copy(),
            "lengths": lengths.copy(), "owner": mesh.owner.copy(),
            "neighbor": mesh.neighbor.copy(),
            "patches": list(mesh.patches.values())}


def set_at(name, index, value):
    return lambda a: a[name].__setitem__(index, value)


@pytest.mark.parametrize("corrupt, match", [
    (set_at("loops", 0, 12), r"face 0: vertex id 12 outside \[0, 12\)"),
    (set_at("loops", 1, -1), r"face 0: vertex id -1 outside \[0, 12\)"),
    (set_at("owner", 2, -1), r"face 2: owner outside \[0, 6\)"),
    (set_at("neighbor", 1, -2), "face 1: neighbor is neither -1 nor another cell"),
    (set_at("neighbor", 1, 0), "face 1: neighbor is neither -1 nor another cell"),
    (set_at("neighbor", 1, 7), "face 1: neighbor is neither -1 nor another cell"),
    (lambda a: a["lengths"].__setitem__(slice(0, 2), (3, 1)),
     "face 0: a 2D face needs exactly 2 vertices"),
    (lambda a: a.update(dim=3, points=np.column_stack([a["points"], np.zeros(12)])),
     "face 0: a 3D face needs at least 3 vertices"),
    (lambda a: a.update(loops=a["loops"][:-1]), "do not describe the same faces"),
], ids=["vertex-n_points", "vertex-minus-1", "owner-minus-1", "neighbor-minus-2",
        "neighbor-is-owner", "neighbor-past-the-last-cell", "2d-face-of-3",
        "3d-face-of-2", "loops-short"])
def test_mesh_rejects_malformed_faces(corrupt, match):
    args = box_arrays()
    corrupt(args)
    with pytest.raises(InvalidArgumentError, match=match):
        Mesh(**args)


@pytest.mark.parametrize("name, index, match", [
    ("loops", 0, r"face 0: vertex id 4294967296 outside \[0, 12\)"),
    ("owner", 2, r"face 2: owner outside \[0, 6\)"),
    ("neighbor", 1, "face 1: neighbor is neither -1 nor another cell"),
])
def test_an_int64_id_past_int32_is_refused_not_narrowed(name, index, match):
    """Ids are checked as given, before the mesh stores them as int32:
    2**32 would narrow to 0, a valid id."""
    args = box_arrays()
    args[name] = args[name].astype(np.int64)
    args[name][index] = 2 ** 32
    with pytest.raises(InvalidArgumentError, match=match):
        Mesh(**args)


@pytest.mark.parametrize("name, index, value", [
    ("loops", 0, 0.4), ("loops", 3, np.nan), ("lengths", 0, 2.5),
    ("owner", 2, 1.3), ("neighbor", 1, np.inf),
])
def test_connectivity_that_is_not_whole_numbers_is_refused(name, index,
                                                           value):
    """A float id used to be cast to int64, which truncates: a loop id of
    0.4 became vertex 0, an owner of k + 0.3 cell k, and the mesh built."""
    args = box_arrays()
    args[name] = args[name].astype(float)
    args[name][index] += value
    with pytest.raises(InvalidArgumentError,
                       match=f"^{name} entry {index} is .*, not a whole "
                             f"number$"):
        Mesh(**args)


def test_whole_number_float_connectivity_builds_the_same_mesh():
    """Floats that hold whole numbers, and lists, are taken as ids; the
    int32 arrays the generators hand over are kept uncopied."""
    args = box_arrays()
    want = Mesh(**args)
    for convert in (lambda a: a.astype(float), list):
        got = Mesh(**{**args, **{k: convert(args[k]) for k in
                                 ("loops", "lengths", "owner", "neighbor")}})
        assert np.array_equal(got.cell_volume, want.cell_volume)
        assert np.array_equal(got.owner, want.owner)
    assert Mesh(**args).owner is args["owner"]


@pytest.mark.parametrize("limit", [11, 33], ids=["points", "loop-entries"])
def test_mesh_refuses_counts_that_int32_cannot_hold(limit, monkeypatch):
    """A mesh stores its ids as int32, so it refuses more than 2**31 - 1
    points or loop entries. The limit is lowered here to just below the
    box's 12 points, then its 34 loop entries, so no test makes 2**31
    of anything."""
    assert core._INDEX_MAX == np.iinfo(np.int32).max
    args = box_arrays()
    assert (len(args["points"]), len(args["loops"])) == (12, 34)
    monkeypatch.setattr(core, "_INDEX_MAX", limit)
    with pytest.raises(InvalidArgumentError, match="int32"):
        Mesh(**args)
    monkeypatch.setattr(core, "_INDEX_MAX", 34)
    Mesh(**args)


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
    loops = [f[::-1] if i % 2 else f
             for i, f in enumerate(loop_list(*mesh.oriented_loops()))]
    patches = [Patch(p.name, p.kind, p.face_ids, dict(p.meta))
               for p in mesh.patches.values()]
    return mesh.dim, mesh.points, loops, mesh.owner, mesh.neighbor, patches


def warped_pipe():
    """A small pipe whose points move by a seeded random displacement of
    up to a tenth of the radial spacing, so that its quads are warped."""
    pipe = generate_pipe_mesh(0.03, 0.01, 5, 3)
    rng = np.random.default_rng(5)
    pts = pipe.points + rng.uniform(-1.7e-4, 1.7e-4, pipe.points.shape)
    loops, lengths = pipe.oriented_loops()
    quads = loops[np.repeat(lengths, lengths) == 4].reshape(-1, 4)
    p = pts[quads]
    twist = np.einsum("ij,ij->i", np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                      p[:, 3] - p[:, 0])
    assert np.abs(twist).max() > 1e-3 * (0.01 / 6) ** 3  # not planar
    return Mesh(3, pts, loops, lengths, pipe.owner, pipe.neighbor,
                list(pipe.patches.values()))


@pytest.mark.parametrize("make", [
    lambda: generate_box_mesh(6, 4, (1.0, 0.6), shear=0.3),
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, 8),
    lambda: generate_pipe_mesh(0.03, 0.01, 5, 3),
    warped_pipe,
], ids=["sheared_box", "bifurcation", "pipe", "warped_pipe"])
@pytest.mark.parametrize("reverse", [False, True], ids=["as_built", "reversed"])
def test_geometry_matches_face_by_face_reference(make, reverse):
    built = make()
    args = (with_reversed_loops(built) if reverse else
            (built.dim, built.points, loop_list(*built.oriented_loops()),
             built.owner, built.neighbor, list(built.patches.values())))
    ref = reference_geometry(*args[:5])
    mesh = Mesh(*args[:2], *flat_loops(args[2]), *args[3:]) if reverse else built
    oriented = loop_list(*mesh.oriented_loops())
    if reverse:
        assert sum(a != b for a, b in zip(args[2], oriented)) > 0
    assert oriented == ref["face_nodes"]
    for name in ("face_area", "face_centroid", "cell_volume", "cell_centroid"):
        got, want = getattr(mesh, name), ref[name]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name


@pytest.mark.parametrize("make", [
    warped_pipe,
    lambda: generate_pipe_mesh(0.03, 0.01, 5, 3),
    lambda: generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, 8),
], ids=["warped_pipe", "pipe", "bifurcation"])
def test_geometry_does_not_depend_on_the_block_size(make, monkeypatch):
    whole = make()
    assert whole.n_faces < core._BLOCK  # one block at the default size
    monkeypatch.setattr(core, "_BLOCK", 7)
    blocked = make()
    for got, want in zip(blocked.oriented_loops(), whole.oriented_loops()):
        assert np.array_equal(got, want)
    for name in ("face_area", "face_centroid", "face_area_mag",
                 "cell_volume", "cell_centroid"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name


def loop_box_mesh(nx, ny, lengths, shear=0.0, patch_kinds=None):
    """``generate_box_mesh`` built one point and one face at a time: the
    reference for the array-built generator."""
    lx, ly = lengths
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)

    def pid(i, j):
        return j * (nx + 1) + i

    pts = np.empty(((nx + 1) * (ny + 1), 2))
    for j in range(ny + 1):
        for i in range(nx + 1):
            pts[pid(i, j)] = (xs[i] + shear * ys[j], ys[j])

    def cid(i, j):
        return j * nx + i

    face_nodes, owner, neighbor = [], [], []
    sides = {"xmin": [], "xmax": [], "ymin": [], "ymax": []}
    for j in range(ny):
        for i in range(nx + 1):
            face_nodes.append((pid(i, j), pid(i, j + 1)))
            if i == 0:
                owner.append(cid(0, j)); neighbor.append(-1)
                sides["xmin"].append(len(face_nodes) - 1)
            elif i == nx:
                owner.append(cid(nx - 1, j)); neighbor.append(-1)
                sides["xmax"].append(len(face_nodes) - 1)
            else:
                owner.append(cid(i - 1, j)); neighbor.append(cid(i, j))
    for j in range(ny + 1):
        for i in range(nx):
            face_nodes.append((pid(i, j), pid(i + 1, j)))
            if j == 0:
                owner.append(cid(i, 0)); neighbor.append(-1)
                sides["ymin"].append(len(face_nodes) - 1)
            elif j == ny:
                owner.append(cid(i, ny - 1)); neighbor.append(-1)
                sides["ymax"].append(len(face_nodes) - 1)
            else:
                owner.append(cid(i, j - 1)); neighbor.append(cid(i, j))

    patch_kinds = patch_kinds or {}
    merged = {}
    for side, faces in sides.items():
        kind = patch_kinds.get(side, "wall")
        name = kind if kind in ("inlet", "outlet") else "wall"
        merged.setdefault((name, kind if name != "wall" else "wall"), []).extend(faces)
    patches = [Patch(name, kind, np.array(faces))
               for (name, kind), faces in merged.items()]
    return Mesh(2, pts, *flat_loops(face_nodes), owner, neighbor, patches)


def loop_pipe_mesh(length, diameter, axial_cells, radial_cells, n_theta=None):
    """``generate_pipe_mesh`` built one point and one face at a time: the
    reference for the array-built generator."""
    nz, nr = int(axial_cells), int(radial_cells)
    nt = int(n_theta) if n_theta else max(16, 2 * nr)
    R = diameter / 2.0
    radii = R * np.arange(1, nr + 1) / nr
    thetas = 2.0 * np.pi * np.arange(nt) / nt
    zs = np.linspace(0.0, length, nz + 1)
    ppp = 1 + nr * nt

    def pid(k, j, s):
        if j == 0:
            return k * ppp
        return k * ppp + 1 + (j - 1) * nt + (s % nt)

    pts = np.empty(((nz + 1) * ppp, 3))
    for k in range(nz + 1):
        pts[pid(k, 0, 0)] = (0.0, 0.0, zs[k])
        for j in range(1, nr + 1):
            r = radii[j - 1]
            for s in range(nt):
                pts[pid(k, j, s)] = (r * np.cos(thetas[s]), r * np.sin(thetas[s]), zs[k])

    def cid(k, j, s):
        return k * nr * nt + (j - 1) * nt + (s % nt)

    face_nodes, owner, neighbor = [], [], []
    inlet, outlet, wall = [], [], []
    for k in range(nz + 1):
        for j in range(1, nr + 1):
            for s in range(nt):
                if j == 1:
                    face_nodes.append((pid(k, 0, 0), pid(k, 1, s), pid(k, 1, s + 1)))
                else:
                    face_nodes.append((pid(k, j - 1, s), pid(k, j, s),
                                       pid(k, j, s + 1), pid(k, j - 1, s + 1)))
                if k == 0:
                    owner.append(cid(0, j, s)); neighbor.append(-1)
                    inlet.append(len(face_nodes) - 1)
                elif k == nz:
                    owner.append(cid(nz - 1, j, s)); neighbor.append(-1)
                    outlet.append(len(face_nodes) - 1)
                else:
                    owner.append(cid(k - 1, j, s)); neighbor.append(cid(k, j, s))
    for k in range(nz):
        for j in range(1, nr + 1):
            for s in range(nt):
                face_nodes.append((pid(k, j, s), pid(k, j, s + 1),
                                   pid(k + 1, j, s + 1), pid(k + 1, j, s)))
                if j == nr:
                    owner.append(cid(k, nr, s)); neighbor.append(-1)
                    wall.append(len(face_nodes) - 1)
                else:
                    owner.append(cid(k, j, s)); neighbor.append(cid(k, j + 1, s))
    for k in range(nz):
        for j in range(1, nr + 1):
            for s in range(nt):
                face_nodes.append((pid(k, j - 1, s), pid(k, j, s),
                                   pid(k + 1, j, s), pid(k + 1, j - 1, s)))
                owner.append(cid(k, j, s - 1)); neighbor.append(cid(k, j, s))

    patches = [
        Patch("inlet", "inlet", np.array(inlet),
              meta={"center": [0.0, 0.0, 0.0], "radius": R}),
        Patch("outlet", "outlet", np.array(outlet),
              meta={"center": [0.0, 0.0, length], "radius": R}),
        Patch("wall", "wall", np.array(wall)),
    ]
    return _check_quality(Mesh(3, pts, *flat_loops(face_nodes), owner,
                               neighbor, patches))


def loop_bifurcation_mesh(trunk_length, trunk_diameter, branch_diameter,
                          branch_angle, resolution):
    """``generate_bifurcation_mesh`` built one point and one face at a
    time: the reference for the array-built generator. It takes an integer
    resolution and checks no arguments."""
    ny = resolution
    W, wb = trunk_diameter, branch_diameter
    th = np.radians(branch_angle)
    h = W / ny
    span = wb / np.sin(th)
    branch_length = 2.5 * wb
    x_j0 = 0.45 * trunk_length - span / 2.0
    x_j1 = x_j0 + span
    nj = max(3, int(round(span / h)))
    n_left = max(2, int(round(x_j0 / h)))
    n_right = max(2, int(round((trunk_length - x_j1) / h)))
    nL = max(3, int(round(branch_length / h)))

    xs = np.concatenate([
        np.linspace(0.0, x_j0, n_left + 1),
        np.linspace(x_j0, x_j1, nj + 1)[1:],
        np.linspace(x_j1, trunk_length, n_right + 1)[1:],
    ])
    nx = len(xs) - 1
    ys = np.linspace(0.0, W, ny + 1)
    jlo = n_left
    jhi = n_left + nj

    def tpid(i, j):
        return j * (nx + 1) + i

    pts = [(xs[i], ys[j]) for j in range(ny + 1) for i in range(nx + 1)]
    n_trunk_pts = len(pts)
    bdir = np.array([np.cos(th), np.sin(th)])
    dl = branch_length / nL

    def bpid(l, m):
        return n_trunk_pts + (l - 1) * (nj + 1) + m

    for l in range(1, nL + 1):
        for m in range(nj + 1):
            base = np.array([xs[jlo + m], W])
            pts.append(tuple(base + l * dl * bdir))
    pts = np.asarray(pts)

    def tcid(i, j):
        return j * nx + i

    n_trunk_cells = nx * ny

    def bcid(l, m):
        return n_trunk_cells + l * nj + m

    face_nodes, owner, neighbor = [], [], []
    inlet, outlet, wall = [], [], []
    for j in range(ny):
        for i in range(nx + 1):
            face_nodes.append((tpid(i, j), tpid(i, j + 1)))
            if i == 0:
                owner.append(tcid(0, j)); neighbor.append(-1); wall.append(len(face_nodes) - 1)
            elif i == nx:
                owner.append(tcid(nx - 1, j)); neighbor.append(-1); outlet.append(len(face_nodes) - 1)
            else:
                owner.append(tcid(i - 1, j)); neighbor.append(tcid(i, j))
    for j in range(ny + 1):
        for i in range(nx):
            fid = len(face_nodes)
            face_nodes.append((tpid(i, j), tpid(i + 1, j)))
            if j == 0:
                owner.append(tcid(i, 0)); neighbor.append(-1); wall.append(fid)
            elif j == ny:
                if jlo <= i < jhi:
                    owner.append(tcid(i, ny - 1)); neighbor.append(bcid(0, i - jlo))
                else:
                    owner.append(tcid(i, ny - 1)); neighbor.append(-1); wall.append(fid)
            else:
                owner.append(tcid(i, j - 1)); neighbor.append(tcid(i, j))

    def bnode(l, m):
        return tpid(jlo + m, ny) if l == 0 else bpid(l, m)

    for l in range(1, nL + 1):
        for m in range(nj):
            fid = len(face_nodes)
            face_nodes.append((bnode(l, m), bnode(l, m + 1)))
            if l == nL:
                owner.append(bcid(nL - 1, m)); neighbor.append(-1); inlet.append(fid)
            else:
                owner.append(bcid(l - 1, m)); neighbor.append(bcid(l, m))
    for l in range(nL):
        for m in range(nj + 1):
            fid = len(face_nodes)
            face_nodes.append((bnode(l, m), bnode(l + 1, m)))
            if m == 0:
                owner.append(bcid(l, 0)); neighbor.append(-1); wall.append(fid)
            elif m == nj:
                owner.append(bcid(l, nj - 1)); neighbor.append(-1); wall.append(fid)
            else:
                owner.append(bcid(l, m - 1)); neighbor.append(bcid(l, m))

    patches = [
        Patch("inlet", "inlet", np.array(inlet),
              meta={"half_width": wb / 2.0}),
        Patch("outlet", "outlet", np.array(outlet)),
        Patch("wall", "wall", np.array(wall)),
    ]
    return Mesh(2, pts, *flat_loops(face_nodes), owner, neighbor, patches)


def assert_same_mesh(got, want):
    """Identical points, oriented loops, owners, neighbours and patches:
    the same mesh, face for face, not just an equivalent one."""
    assert np.array_equal(got.points, want.points)
    for a, b in zip(got.oriented_loops(), want.oriented_loops()):
        assert np.array_equal(a, b)
    assert np.array_equal(got.owner, want.owner)
    assert np.array_equal(got.neighbor, want.neighbor)
    assert list(got.patches) == list(want.patches)
    for name, p in want.patches.items():
        q = got.patches[name]
        assert (q.kind, q.meta) == (p.kind, p.meta)
        assert np.array_equal(q.face_ids, p.face_ids)


@given(nz=st.integers(2, 6), nr=st.integers(2, 5),
       n_theta=st.none() | st.integers(3, 24))
@settings(max_examples=40, deadline=None)
def test_pipe_generator_matches_the_loop_reference(nz, nr, n_theta):
    args = (0.03, 0.01, nz, nr)
    assert_same_mesh(generate_pipe_mesh(*args, n_theta=n_theta),
                     loop_pipe_mesh(*args, n_theta=n_theta))


@given(nx=st.integers(1, 7), ny=st.integers(1, 7),
       shear=st.floats(0.0, 0.5),
       patch_kinds=st.dictionaries(st.sampled_from(["xmin", "xmax", "ymin", "ymax"]),
                                   st.sampled_from(PATCH_KINDS)))
@settings(max_examples=60, deadline=None)
def test_box_generator_matches_the_loop_reference(nx, ny, shear, patch_kinds):
    args = (nx, ny, (1.0, 0.4))
    kwargs = dict(shear=shear, patch_kinds=patch_kinds)
    assert_same_mesh(generate_box_mesh(*args, **kwargs),
                     loop_box_mesh(*args, **kwargs))


@pytest.mark.parametrize("patch_kinds, message", [
    ({"xmin": "inflow", "xmax": "outlet"}, "unknown patch kind 'inflow'"),
    ({"left": "inlet", "xmax": "outlet"}, "unknown box side 'left'"),
])
def test_box_generator_refuses_an_unknown_kind_or_side(patch_kinds, message):
    """Neither a misspelt kind nor a misspelt side turns into a wall."""
    with pytest.raises(InvalidArgumentError, match=message):
        generate_box_mesh(3, 2, (1.0, 1.0), patch_kinds=patch_kinds)


#: each generator's cell counts, as (name, build from the count, a whole
#: count, a fraction of one)
CELL_COUNTS = {
    "box-nx": ("nx", lambda n: generate_box_mesh(n, 4, (1.0, 1.0)), 3, 3.5),
    "channel-ny": ("ny", lambda n: generate_channel_mesh(0.1, 0.02, 12, n),
                   5, 5.5),
    "pipe-axial": ("axial_cells",
                   lambda n: generate_pipe_mesh(0.03, 0.02, n, 2), 3, 3.9),
    "pipe-radial": ("radial_cells",
                    lambda n: generate_pipe_mesh(0.03, 0.02, 3, n), 2, 2.9),
    "pipe-n-theta": ("n_theta",
                     lambda n: generate_pipe_mesh(0.03, 0.02, 3, 2,
                                                  n_theta=n), 3, 3.5),
    "bifurcation-resolution": ("resolution",
                               lambda n: generate_bifurcation_mesh(
                                   0.024, 0.004, 0.002, 45.0, resolution=n),
                               8, 8.7),
}


@pytest.mark.parametrize("name, build, whole, fraction",
                         CELL_COUNTS.values(), ids=CELL_COUNTS.keys())
def test_generators_take_whole_cell_counts_only(name, build, whole,
                                                fraction):
    """A count that is not a whole number is refused by name; the pipe and
    the bifurcation used to truncate it and the box to raise numpy's
    TypeError. A whole float builds the mesh of its int, face for face."""
    with pytest.raises(InvalidArgumentError,
                       match=f"^{name} must be a whole number, not "
                             f"{fraction}$"):
        build(fraction)
    assert_same_mesh(build(float(whole)), build(whole))



@given(resolution=st.integers(3, 12), branch_angle=st.floats(30.0, 150.0),
       trunk_length=st.floats(0.03, 0.1),
       branch_diameter=st.floats(0.002, 0.01))
@settings(max_examples=60, deadline=None)
def test_bifurcation_generator_matches_the_loop_reference(
        resolution, branch_angle, trunk_length, branch_diameter):
    args = (trunk_length, 0.01, branch_diameter, branch_angle, resolution)
    try:
        got = generate_bifurcation_mesh(*args)
    except InvalidArgumentError:
        assume(False)
    assert_same_mesh(got, loop_bifurcation_mesh(*args))
