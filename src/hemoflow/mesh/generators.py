"""Synthetic vessel mesh generators.

Desk-scale substitutes for patient geometry: structured boxes/channels,
a polar-grid circular pipe, and a 2D T-junction with an oblique side
branch standing in for a cannula-to-vessel anastomosis.

Every generator is built with index arrays over its structured grids,
with no per-face Python: every point, loop, owner, neighbour and patch
face id is one array expression, and the loops reach ``Mesh`` as the
flat (loops, lengths) arrays it stores. The box (and with it the
channel) is one structured quad block, the bifurcation two (trunk and
branch) that share the junction line, and both take their faces from
``_block_faces``. The face and point order is fixed (the solver's
summation order and so its answers depend on it), and
``tests/test_mesh.py`` keeps face-by-face builds of every generator as
references.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError
from .core import Mesh, Patch, non_orthogonality, NON_ORTHOGONALITY_CAP_DEG

RESOLUTION_NAMES = {"coarse": 6, "medium": 10, "fine": 16}

# the bifurcation's junction centre, as a fraction of the trunk length
JUNCTION_AT = 0.45


def _check_quality(mesh):
    """``mesh``, unless a face's non-orthogonality reaches the cap."""
    worst = non_orthogonality(mesh)[2].max(initial=0.0)
    if worst >= NON_ORTHOGONALITY_CAP_DEG:
        raise InvalidArgumentError(
            f"generated mesh reaches or exceeds the non-orthogonality cap: "
            f"{worst:.1f} deg >= {NON_ORTHOGONALITY_CAP_DEG} deg"
        )
    return mesh


def _grid(n_rows, n_cols, first=0):
    """Consecutive ids from ``first`` on, as an (n_rows, n_cols) grid in
    row-major order."""
    return first + np.arange(n_rows * n_cols).reshape(n_rows, n_cols)


def _block_faces(P, C):
    """The faces of a structured quad block with point ids ``P`` (ny + 1,
    nx + 1) and cell ids ``C`` (ny, nx): its vertical faces (constant i),
    then its horizontal faces (constant j), each in (j, i) order and each
    as ((n, 2) loops, owner, neighbor), with neighbor -1 outside the
    block."""
    def cells(lo, hi):
        # owner and neighbor of the faces between cells lo and hi
        return (np.where(lo >= 0, lo, hi).ravel(),
                np.where(lo >= 0, hi, -1).ravel())

    Cv = np.pad(C, ((0, 0), (1, 1)), constant_values=-1)
    Ch = np.pad(C, ((1, 1), (0, 0)), constant_values=-1)
    return ((np.stack([P[:-1], P[1:]], axis=-1).reshape(-1, 2),
             *cells(Cv[:, :-1], Cv[:, 1:])),
            (np.stack([P[:, :-1], P[:, 1:]], axis=-1).reshape(-1, 2),
             *cells(Ch[:-1], Ch[1:])))


def _edge_mesh(pts, blocks, patches):
    """A 2D mesh whose faces are the (loops, owner, neighbor) face groups
    ``blocks``, concatenated."""
    loops, owner, neighbor = (np.concatenate(a, dtype=np.int32)
                              for a in zip(*blocks))
    return Mesh(2, pts, loops.ravel(), np.full(len(loops), 2, np.int32),
                owner, neighbor, patches)


def generate_box_mesh(nx, ny, lengths, shear=0.0, patch_kinds=None):
    """Structured 2D quad mesh with its lower-left corner at the origin.

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
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    pts = np.column_stack([(xs[None, :] + shear * ys[:, None]).ravel(),
                           np.repeat(ys, nx + 1)])
    blocks = _block_faces(_grid(ny + 1, nx + 1), _grid(ny, nx))
    n_vert = ny * (nx + 1)
    sides = {"xmin": np.arange(ny) * (nx + 1),
             "xmax": np.arange(ny) * (nx + 1) + nx,
             "ymin": n_vert + np.arange(nx),
             "ymax": n_vert + ny * nx + np.arange(nx)}

    patch_kinds = patch_kinds or {}
    unknown = set(patch_kinds) - set(sides)
    if unknown:
        raise InvalidArgumentError(f"unknown box side {sorted(unknown)[0]!r}; "
                                   f"sides are {', '.join(sides)}")
    # one patch per kind, named after it; Patch refuses an unknown kind
    by_kind = {}
    for side, faces in sides.items():
        by_kind.setdefault(patch_kinds.get(side, "wall"), []).append(faces)
    patches = [Patch(kind, kind, np.concatenate(faces))
               for kind, faces in by_kind.items()]
    return _check_quality(_edge_mesh(pts, blocks, patches))


def generate_channel_mesh(length, height, nx, ny):
    """2D channel: inlet at x=0, outlet at x=length, walls top/bottom."""
    if length <= 0 or height <= 0:
        raise InvalidArgumentError("dimensions must be positive")
    mesh = generate_box_mesh(
        nx, ny, (length, height),
        patch_kinds={"xmin": "inlet", "xmax": "outlet"},
    )
    mesh.patches["inlet"].meta.update(
        center=[0.0, height / 2.0], half_width=height / 2.0)
    return mesh


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
    ring = np.concatenate([
        np.zeros((1, 2)),
        np.stack([radii[:, None] * np.cos(thetas), radii[:, None] * np.sin(thetas)],
                 axis=-1).reshape(-1, 2)])
    pts = np.column_stack([np.tile(ring, (nz + 1, 1)),
                           np.repeat(zs, 1 + nr * nt)])
    faces, inlet, outlet, wall = _pipe_faces(nz, nr, nt)
    patches = [
        Patch("inlet", "inlet", inlet,
              meta={"center": [0.0, 0.0, 0.0], "radius": R}),
        Patch("outlet", "outlet", outlet,
              meta={"center": [0.0, 0.0, length], "radius": R}),
        Patch("wall", "wall", wall),
    ]
    return _check_quality(Mesh(3, pts, *faces, patches))


def _pipe_faces(nz, nr, nt):
    """The faces of the pipe's polar grid, as the int32 (loops, lengths,
    owner, neighbor) that ``Mesh`` keeps, and its inlet, outlet and wall
    face ids. The index grids that build them die on return, before
    ``Mesh`` builds the geometry."""
    ppp = 1 + nr * nt

    def pid(k, j, s):
        # j = 0 is the axis point, whatever s
        return np.where(j == 0, k * ppp, k * ppp + 1 + (j - 1) * nt + s % nt)

    def cid(k, j, s):
        # ring j = 1..nr, sector s
        return k * nr * nt + (j - 1) * nt + s % nt

    # cross-section faces (constant z); the j = 1 loops are the wedge
    # triangles around the axis, whose fourth vertex repeats the first and
    # is masked out below
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

    loops = np.concatenate([cross, radial, azimuthal])
    lengths = np.full(len(loops), 4)
    lengths[wedge] = 3
    owner = np.concatenate([c_owner, cid(k, j, s), cid(k, j, s - 1)])
    neighbor = np.concatenate([c_neigh, r_neigh, cid(k, j, s)])
    faces = (loops[np.arange(4) < lengths[:, None]], lengths, owner, neighbor)
    return tuple(a.astype(np.int32) for a in faces), inlet, outlet, wall


def generate_bifurcation_mesh(trunk_length, trunk_diameter, branch_diameter,
                              branch_angle, resolution="medium"):
    """2D trunk with an oblique inflow branch (T-bifurcation).

    The branch carries the inlet; the proximal trunk end is a wall (closed
    valve analog) and the distal trunk end is the outlet. The branch is
    2.5 branch diameters long and meets the trunk at ``JUNCTION_AT`` of
    its length. ``resolution`` is the number of cells across the trunk
    diameter, or one of coarse/medium/fine.
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
    branch_length = 2.5 * wb
    x_j0 = JUNCTION_AT * trunk_length - span / 2.0
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

    # the trunk block, then the branch block: layers l = 0..nL of nj + 1
    # points along the branch, whose layer 0 is the trunk's top row under
    # the junction
    bdir = np.array([np.cos(th), np.sin(th)])
    dl = branch_length / nL
    base = np.column_stack([xs[jlo:jhi + 1], np.full(nj + 1, W)])
    layer = np.arange(1, nL + 1)[:, None, None]
    pts = np.concatenate([
        np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)]),
        (base + layer * dl * bdir).reshape(-1, 2)])
    P_trunk, C_trunk = _grid(ny + 1, nx + 1), _grid(ny, nx)
    P_branch = np.concatenate([P_trunk[-1:, jlo:jhi + 1],
                               _grid(nL, nj + 1, P_trunk.size)])
    C_branch = _grid(nL, nj, C_trunk.size)

    t_vert, t_horiz = _block_faces(P_trunk, C_trunk)
    b_vert, b_horiz = _block_faces(P_branch, C_branch)
    # the trunk's top faces under the junction open into the branch, and
    # stand for the branch's bottom row of faces
    t_horiz[2][ny * nx + jlo:ny * nx + jhi] = C_branch[0]
    b_horiz = tuple(a[nj:] for a in b_horiz)
    blocks = [t_vert, t_horiz, b_horiz, b_vert]

    outlet = np.arange(ny) * (nx + 1) + nx
    inlet = len(t_vert[0]) + len(t_horiz[0]) + (nL - 1) * nj + np.arange(nj)
    boundary = np.flatnonzero(np.concatenate([b[2] for b in blocks]) < 0)
    patches = [
        Patch("inlet", "inlet", inlet,
              meta={"half_width": wb / 2.0}),
        Patch("outlet", "outlet", outlet),
        Patch("wall", "wall", np.setdiff1d(boundary, np.concatenate([inlet, outlet]))),
    ]
    return _check_quality(_edge_mesh(pts, blocks, patches))
