"""Synthetic vessel mesh generators.

Desk-scale substitutes for patient geometry: structured boxes/channels,
a polar-grid circular pipe, and a 2D T-junction with an oblique side
branch standing in for a cannula-to-vessel anastomosis.

The box (and with it the channel) and the pipe are built with index
arrays over their structured grids, with no per-face Python: every
point, loop, owner, neighbour and patch face id is one array expression.
Their face and point order is fixed (the solver's summation order and so
its answers depend on it), and ``tests/test_mesh.py`` keeps face-by-face
builds of both as references. The bifurcation is still built face by
face.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError
from .core import Mesh, Patch, mesh_quality, NON_ORTHOGONALITY_CAP_DEG

RESOLUTION_NAMES = {"coarse": 6, "medium": 10, "fine": 16}


def _check_quality(mesh):
    q = mesh_quality(mesh)
    if q.max_non_orthogonality >= NON_ORTHOGONALITY_CAP_DEG:
        raise InvalidArgumentError(
            f"generated mesh exceeds non-orthogonality cap: "
            f"{q.max_non_orthogonality:.1f} deg >= {NON_ORTHOGONALITY_CAP_DEG} deg"
        )
    return mesh


def generate_box_mesh(nx, ny, lengths, origin=(0.0, 0.0), shear=0.0,
                      patch_kinds=None):
    """Structured 2D quad mesh.

    ``shear`` tilts vertical grid lines by shear*length_y in x to produce a
    controlled non-orthogonal mesh for discretization tests. ``patch_kinds``
    maps side names (xmin, xmax, ymin, ymax) to patch kinds; by default all
    sides are walls.
    """
    if nx < 1 or ny < 1:
        raise InvalidArgumentError("cell counts must be >= 1")
    lx, ly = lengths
    if lx <= 0 or ly <= 0:
        raise InvalidArgumentError("lengths must be positive")
    x0, y0 = origin
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)

    def pid(i, j):
        return j * (nx + 1) + i

    def cid(i, j):
        return j * nx + i

    pts = np.column_stack([((x0 + xs)[None, :] + shear * ys[:, None]).ravel(),
                           np.repeat(y0 + ys, nx + 1)])

    # vertical faces (constant i), then horizontal faces (constant j),
    # each in (j, i) order
    j, i = np.indices((ny, nx + 1)).reshape(2, -1)
    vert = np.column_stack([pid(i, j), pid(i, j + 1)])
    v_owner = cid(np.maximum(i - 1, 0), j)
    v_neigh = np.where((i > 0) & (i < nx), cid(i, j), -1)
    sides = {"xmin": np.flatnonzero(i == 0), "xmax": np.flatnonzero(i == nx)}
    j, i = np.indices((ny + 1, nx)).reshape(2, -1)
    horiz = np.column_stack([pid(i, j), pid(i + 1, j)])
    h_owner = cid(i, np.maximum(j - 1, 0))
    h_neigh = np.where((j > 0) & (j < ny), cid(i, j), -1)
    sides["ymin"] = len(vert) + np.flatnonzero(j == 0)
    sides["ymax"] = len(vert) + np.flatnonzero(j == ny)

    patch_kinds = patch_kinds or {}
    patches = []
    merged = {}
    for side, faces in sides.items():
        kind = patch_kinds.get(side, "wall")
        name = kind if kind in ("inlet", "outlet") else "wall"
        merged.setdefault((name, kind if name != "wall" else "wall"), []).append(faces)
    for (name, kind), faces in merged.items():
        patches.append(Patch(name, kind, np.concatenate(faces)))
    return Mesh(2, pts, np.concatenate([vert, horiz]).tolist(),
                np.concatenate([v_owner, h_owner]),
                np.concatenate([v_neigh, h_neigh]), patches)


def generate_channel_mesh(length, height, nx, ny):
    """2D channel: inlet at x=0, outlet at x=length, walls top/bottom."""
    if length <= 0 or height <= 0:
        raise InvalidArgumentError("dimensions must be positive")
    mesh = generate_box_mesh(
        nx, ny, (length, height),
        patch_kinds={"xmin": "inlet", "xmax": "outlet"},
    )
    mesh.patches["inlet"].meta.update(
        center=[0.0, height / 2.0], half_width=height / 2.0, kind2d=True)
    return _check_quality(mesh)


def generate_pipe_mesh(length, diameter, axial_cells, radial_cells,
                       n_theta=None):
    """3D circular pipe on a polar grid (wedge core + quad rings).

    Inlet at z=0, outlet at z=length, wall at r=R. The circle is
    approximated by an ``n_theta``-gon, so the inlet area is slightly
    below pi R^2 (within ~3 percent for n_theta >= 16).
    """
    if length <= 0 or diameter <= 0:
        raise InvalidArgumentError("dimensions must be positive")
    if axial_cells < 2 or radial_cells < 2:
        raise InvalidArgumentError("cell counts must be >= 2")
    nz, nr = int(axial_cells), int(radial_cells)
    nt = int(n_theta) if n_theta else max(16, 2 * nr)
    R = diameter / 2.0
    radii = R * np.arange(1, nr + 1) / nr
    thetas = 2.0 * np.pi * np.arange(nt) / nt
    zs = np.linspace(0.0, length, nz + 1)

    # a plane is the axis point then rings j = 1..nr of nt points each
    ppp = 1 + nr * nt
    ring = np.concatenate([
        np.zeros((1, 2)),
        np.stack([radii[:, None] * np.cos(thetas), radii[:, None] * np.sin(thetas)],
                 axis=-1).reshape(-1, 2)])
    pts = np.column_stack([np.tile(ring, (nz + 1, 1)), np.repeat(zs, ppp)])

    def pid(k, j, s):
        # j = 0 is the axis point, whatever s
        return np.where(j == 0, k * ppp, k * ppp + 1 + (j - 1) * nt + s % nt)

    def cid(k, j, s):
        # ring j = 1..nr, sector s
        return k * nr * nt + (j - 1) * nt + s % nt

    # cross-section faces (constant z); the j = 1 loops are the wedge
    # triangles around the axis, whose fourth vertex repeats the first
    k, j, s = np.indices((nz + 1, nr, nt)).reshape(3, -1)
    j = j + 1
    cross = np.column_stack([pid(k, j - 1, s), pid(k, j, s),
                             pid(k, j, s + 1), pid(k, j - 1, s + 1)])
    c_owner = cid(np.maximum(k - 1, 0), j, s)
    c_neigh = np.where((k > 0) & (k < nz), cid(k, j, s), -1)
    inlet, outlet = np.flatnonzero(k == 0), np.flatnonzero(k == nz)
    wedge = np.flatnonzero(j == 1)

    # radial faces (constant r = radii[j-1]), between ring j and j + 1
    k, j, s = np.indices((nz, nr, nt)).reshape(3, -1)
    j = j + 1
    radial = np.column_stack([pid(k, j, s), pid(k, j, s + 1),
                              pid(k + 1, j, s + 1), pid(k + 1, j, s)])
    r_neigh = np.where(j < nr, cid(k, j + 1, s), -1)
    wall = len(cross) + np.flatnonzero(j == nr)

    # azimuthal faces (constant theta), between sector s - 1 and s
    azimuthal = np.column_stack([pid(k, j - 1, s), pid(k, j, s),
                                 pid(k + 1, j, s), pid(k + 1, j - 1, s)])

    face_nodes = np.concatenate([cross, radial, azimuthal]).tolist()
    for f in wedge.tolist():
        del face_nodes[f][3]
    owner = np.concatenate([c_owner, cid(k, j, s), cid(k, j, s - 1)])
    neighbor = np.concatenate([c_neigh, r_neigh, cid(k, j, s)])

    patches = [
        Patch("inlet", "inlet", inlet,
              meta={"center": [0.0, 0.0, 0.0], "radius": R, "axis": [0.0, 0.0, 1.0]}),
        Patch("outlet", "outlet", outlet,
              meta={"center": [0.0, 0.0, length], "radius": R}),
        Patch("wall", "wall", wall),
    ]
    return _check_quality(Mesh(3, pts, face_nodes, owner, neighbor, patches))


def generate_bifurcation_mesh(trunk_length, trunk_diameter, branch_diameter,
                              branch_angle, resolution="medium",
                              branch_length=None, junction_at=0.45):
    """2D trunk with an oblique inflow branch (T-bifurcation).

    The branch carries the inlet; the proximal trunk end is a wall (closed
    valve analog) and the distal trunk end is the outlet. ``resolution`` is
    the number of cells across the trunk diameter, or one of
    coarse/medium/fine.
    """
    if isinstance(resolution, str):
        try:
            resolution = RESOLUTION_NAMES[resolution]
        except KeyError:
            raise InvalidArgumentError(f"unknown resolution {resolution!r}")
    ny = int(resolution)
    if ny < 3:
        raise InvalidArgumentError("resolution must be >= 3")
    if trunk_length <= 0 or trunk_diameter <= 0 or branch_diameter <= 0:
        raise InvalidArgumentError("dimensions must be positive")
    if branch_diameter > trunk_diameter:
        raise InvalidArgumentError("branch_diameter must not exceed trunk_diameter")
    if not 0.0 < branch_angle < 180.0:
        raise InvalidArgumentError("branch_angle must lie in (0, 180) degrees")

    W, wb = trunk_diameter, branch_diameter
    th = np.radians(branch_angle)
    h = W / ny
    span = wb / np.sin(th)  # junction footprint along the trunk wall
    if branch_length is None:
        branch_length = 2.5 * wb
    x_j0 = junction_at * trunk_length - span / 2.0
    x_j1 = x_j0 + span
    # oblique branches lean over the trunk; the footprint plus lean must fit
    lean = branch_length * abs(np.cos(th))
    if x_j0 <= 0.0 or x_j1 >= trunk_length or \
            x_j0 - (lean if np.cos(th) < 0 else 0.0) <= 0.0 or \
            x_j1 + (lean if np.cos(th) > 0 else 0.0) >= trunk_length * 1.5:
        raise InvalidArgumentError("branch geometry self-intersects the trunk extent")

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
    jlo = n_left            # first junction column (x index into xs)
    jhi = n_left + nj       # one past last junction column

    def tpid(i, j):
        return j * (nx + 1) + i

    pts = [(xs[i], ys[j]) for j in range(ny + 1) for i in range(nx + 1)]
    n_trunk_pts = len(pts)

    # branch points: layers above the junction line
    bdir = np.array([np.cos(th), np.sin(th)])
    dl = branch_length / nL

    def bpid(l, m):
        # layer l = 1..nL, junction column m = 0..nj
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
        # layer l = 0..nL-1, column m = 0..nj-1
        return n_trunk_cells + l * nj + m

    face_nodes, owner, neighbor = [], [], []
    inlet, outlet, wall = [], [], []

    # trunk vertical faces
    for j in range(ny):
        for i in range(nx + 1):
            face_nodes.append((tpid(i, j), tpid(i, j + 1)))
            if i == 0:
                owner.append(tcid(0, j)); neighbor.append(-1); wall.append(len(face_nodes) - 1)
            elif i == nx:
                owner.append(tcid(nx - 1, j)); neighbor.append(-1); outlet.append(len(face_nodes) - 1)
            else:
                owner.append(tcid(i - 1, j)); neighbor.append(tcid(i, j))
    # trunk horizontal faces
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
        # node at layer l (0 = junction line), column m
        return tpid(jlo + m, ny) if l == 0 else bpid(l, m)

    # branch faces along the axis direction (between layers) + inlet
    for l in range(1, nL + 1):
        for m in range(nj):
            fid = len(face_nodes)
            face_nodes.append((bnode(l, m), bnode(l, m + 1)))
            if l == nL:
                owner.append(bcid(nL - 1, m)); neighbor.append(-1); inlet.append(fid)
            else:
                owner.append(bcid(l - 1, m)); neighbor.append(bcid(l, m))
    # branch lateral faces (between columns) + side walls
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
              meta={"axis": [-bdir[0], -bdir[1]], "half_width": wb / 2.0, "kind2d": True}),
        Patch("outlet", "outlet", np.array(outlet)),
        Patch("wall", "wall", np.array(wall)),
    ]
    return _check_quality(Mesh(2, pts, face_nodes, owner, neighbor, patches))
