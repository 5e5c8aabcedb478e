"""Face-addressed unstructured finite-volume mesh.

A mesh is a set of cells bounded by polygonal faces; a face that is not
planar stands for the fan of triangles about its centroid. Each face
stores its vertex loop, an owner cell and (for internal faces) a neighbor
cell. All geometric quantities (face area vectors, centroids, cell volumes
and centroids) are derived from the vertex coordinates, which guarantees
exact Gauss closure of every cell.

2D meshes use two-vertex faces (edges) with an implied unit depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import InvalidArgumentError

PATCH_KINDS = ("inlet", "outlet", "wall")

# Mesh generation refuses meshes that reach this face non-orthogonality.
NON_ORTHOGONALITY_CAP_DEG = 70.0

# Faces, and (cell, face) pairs, per vectorised geometry block: bounds the
# size of the temporaries of both passes of Mesh._compute_geometry.
_BLOCK = 4096

# The most points or loop entries a mesh takes: it stores its ids as int32.
_INDEX_MAX = np.iinfo(np.int32).max


@dataclass
class Patch:
    """A named set of boundary faces with a physical kind."""

    name: str
    kind: str
    face_ids: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # the native file reads a name up to the first whitespace
        if not (isinstance(self.name, str) and self.name
                and not any(c.isspace() for c in self.name)):
            raise InvalidArgumentError(
                f"patch name {self.name!r} is not a non-empty string "
                f"without whitespace")
        if self.kind not in PATCH_KINDS:
            raise InvalidArgumentError(f"unknown patch kind {self.kind!r}")
        self.face_ids = np.asarray(self.face_ids, dtype=np.int64)


@dataclass
class QualityReport:
    avg_non_orthogonality: float  # deg
    max_non_orthogonality: float  # deg
    avg_skewness: float
    max_skewness: float
    cell_count: int
    h_min: float
    h_max: float

    def __str__(self):
        return (
            f"cells={self.cell_count}  "
            f"non-orthogonality avg/max = "
            f"{self.avg_non_orthogonality:.2f}/{self.max_non_orthogonality:.2f} deg  "
            f"skewness avg/max = {self.avg_skewness:.3f}/{self.max_skewness:.3f}  "
            f"h = [{self.h_min:.3e}, {self.h_max:.3e}] m"
        )


class Mesh:
    """Immutable unstructured FV mesh.

    Parameters
    ----------
    dim : 2 or 3
    points : (n_points, dim) vertex coordinates [m]
    loops : the vertex ids of every face's loop, concatenated face by face
    lengths : per-face loop length; 2 in 2D (an edge), >= 3 in 3D
    owner, neighbor : per-face cell ids; neighbor == -1 on boundary faces
    patches : list of Patch covering every boundary face exactly once

    The loops may run either way round. The mesh stores them once, in the
    same (loops, lengths) form, each ordered out of its owner, and
    ``oriented_loops()`` returns them. Every generator and ``read_mesh``
    pass their loops in this form. Every point must be finite.
    ``incidence`` is the signed cell-face incidence matrix D (+1 at the
    owner, -1 at the neighbor): every face-to-cell sum is a product with it.

    The connectivity (loops, lengths, owner, neighbor) is stored as int32,
    half the bytes of int64, so a mesh refuses more than 2**31 - 1 points
    or loop entries (a face has two loop entries or more, a cell one face
    or more, so faces and cells then fit too). An int32 array is kept as
    given, not copied: the generators and ``read_mesh`` hand theirs over
    and hold them no longer, and a caller that passes int32 arrays does
    not write them afterwards. The per-face and per-cell index arrays that
    a step reads (``mesh.fv``) stay intp: numpy gathers and ``bincount``
    convert a narrower index array on every call.
    """

    def __init__(self, dim, points, loops, lengths, owner, neighbor, patches):
        if dim not in (2, 3):
            raise InvalidArgumentError("dim must be 2 or 3")
        self.dim = int(dim)
        self.points = np.asarray(points, dtype=float)
        if self.points.shape[1] != dim:
            raise InvalidArgumentError("points shape does not match dim")
        loops, lengths, owner, neighbor = (
            a if a.dtype.kind in "iu" else a.astype(np.int64)
            for a in map(np.asarray, (loops, lengths, owner, neighbor)))
        if max(len(self.points), loops.size) > _INDEX_MAX:
            raise InvalidArgumentError(
                f"{len(self.points)} points and {loops.size} loop entries: "
                f"a mesh stores its ids as int32, at most {_INDEX_MAX} "
                f"of each")
        finite = np.isfinite(self.points).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise InvalidArgumentError(f"point {bad} is not finite: "
                                       f"{self.points[bad].tolist()}")
        check_faces(self.dim, len(self.points), loops, lengths, owner,
                    neighbor)
        # every id is in range now, so int32 holds it exactly; the vertex
        # loops as given, which _compute_geometry orients
        self._loop_flat, self._loop_len, self.owner, self.neighbor = (
            a.astype(np.int32, copy=False)
            for a in (loops, lengths, owner, neighbor))
        self.patches = {p.name: p for p in patches}
        if len(self.patches) != len(patches):
            raise InvalidArgumentError("duplicate patch names")

        self.n_faces = len(self._loop_len)
        self.n_cells = int(max(self.owner.max(), self.neighbor.max()) + 1)
        self.incidence = _incidence(self.owner, self.neighbor, self.n_cells)
        self._compute_geometry()
        self._validate()
        self._fv = None

    # -- geometry ---------------------------------------------------------

    def _loop_blocks(self):
        """Yield (face ids, (nv, k) vertex loops, one column per face) for
        blocks of at most _BLOCK faces with equal loop length nv."""
        first = np.cumsum(self._loop_len) - self._loop_len
        for nv in np.unique(self._loop_len):
            faces = np.flatnonzero(self._loop_len == nv)
            for start in range(0, len(faces), _BLOCK):
                sel = faces[start:start + _BLOCK]
                yield sel, self._loop_flat[first[sel]
                                           + np.arange(nv)[:, None]]

    def _raw_face_geometry(self):
        """Area vector and centroid of every face from its vertex loop
        (3D: fan triangulation about the vertex mean, ``_fan_geometry``),
        and in 3D the warp moment Q of the loop about the centroid. All
        three are returned component-major: (dim, n_faces) and (3, 3,
        n_faces)."""
        dim, nf = self.dim, self.n_faces
        area = np.empty((dim, nf))
        centroid = np.empty((dim, nf))
        warp = np.empty((3, 3, nf)) if dim == 3 else None
        pts = self.points.T
        for sel, loops in self._loop_blocks():
            v = pts[:, loops]  # (dim, nv, k): one (nv, k) array per axis
            if dim == 2:
                area[0, sel] = v[1, 1] - v[1, 0]  # unit depth
                area[1, sel] = v[0, 0] - v[0, 1]
                centroid[:, sel] = 0.5 * (v[:, 0] + v[:, 1])
            else:
                area[:, sel], centroid[:, sel], warp[:, :, sel] = \
                    _fan_geometry(v)
            del v
        return area, centroid, warp

    def _compute_geometry(self):
        area, fc, warp = self._raw_face_geometry()
        D = self.incidence
        dim = self.dim

        # Approximate cell centers to fix face orientation (owner -> out).
        approx = (abs(D) @ fc.T).T / np.diff(D.indptr)
        far = np.where(self.neighbor >= 0, approx[:, self.neighbor], fc)
        far -= approx[:, self.owner]
        flip = np.einsum("ai,ai->i", area, far) < 0.0
        del far
        area[:, flip] = -area[:, flip]
        if warp is not None:
            warp[:, :, flip] = -warp[:, :, flip]
        if flip.any():
            # store the loops oriented
            self._loop_flat = _reversed_loops(self._loop_flat,
                                              self._loop_len, flip)

        # Exact volumes and centroids by simplex decomposition about the
        # approximate cell center x0 (any interior reference point works).
        # Each (cell, face) nonzero of D, of sign s, adds the simplices that
        # join x0 to the face's fan of triangles about its centroid c (in
        # 2D, the one triangle on the edge). With e = c - x0, r = p - c and
        # t_j = r_j x r_j+1 around the loop, their sums are per-face sums
        # times e, since sum_j t_j = 2A:
        #   volume  s/6 sum_j t_j.e = s/3 A.e              (2D: s/2 A.e)
        #   moment  (x0 + 3c)/4 volume + s/24 Q e   (2D: (x0 + 2c)/3 volume)
        # Q = sum_j (r_j + r_j+1) t_j^T is the face's warp moment. It is 0
        # on a planar convex face, whose c is its area centroid, but not on
        # a warped one, where dropping it moves centroids by a few percent
        # of h. So one pass over the nonzeros gathers A, c and Q per face
        # and sums nothing over vertices. Its blocks are whole rows of D,
        # about _BLOCK nonzeros each: a cell's sum is one bincount, in
        # D's order whatever the block size, and no per-nonzero array of
        # the whole mesh is made.
        nc, ptr = self.n_cells, D.indptr
        self.cell_volume = np.empty(nc)
        cmom = np.empty((nc, dim))
        rows = np.unique(np.append(
            np.searchsorted(ptr, np.arange(0, D.nnz, _BLOCK)), nc))
        for c0, c1 in zip(rows[:-1].tolist(), rows[1:].tolist()):
            b = slice(ptr[c0], ptr[c1])
            cell = np.repeat(np.arange(c1 - c0), np.diff(ptr[c0:c1 + 1]))
            f, s, x0 = D.indices[b], D.data[b], approx[:, c0 + cell]
            xf = fc[:, f]
            e = xf - x0
            v = s * np.einsum("ak,ak->k", area[:, f], e) / dim
            mom = v * (x0 + dim * xf) / (dim + 1)
            if warp is not None:
                mom += s / 24.0 * np.einsum("abk,bk->ak", warp[:, :, f], e)
            self.cell_volume[c0:c1] = np.bincount(cell, v, c1 - c0)
            for a in range(dim):
                cmom[c0:c1, a] = np.bincount(cell, mom[a], c1 - c0)
        with np.errstate(invalid="ignore"):
            self.cell_centroid = cmom / self.cell_volume[:, None]
        # the stored face vectors, row per face, once Q is released
        del warp, cmom
        self.face_area = np.ascontiguousarray(area.T)
        del area
        self.face_centroid = np.ascontiguousarray(fc.T)
        del fc
        self.face_area_mag = np.linalg.norm(self.face_area, axis=1)

    def _validate(self):
        # each test passes only where it holds, so NaN and inf fail it
        ok = np.isfinite(self.cell_volume) & (self.cell_volume > 0.0)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise InvalidArgumentError(
                f"cell {bad} has a volume that is not positive and finite: "
                f"{self.cell_volume[bad]:.3e}")
        # Gauss closure, relative to cell surface area
        closure = self.incidence @ self.face_area
        surf = abs(self.incidence) @ self.face_area_mag
        rel = np.linalg.norm(closure, axis=1) / surf
        ok = rel <= 1e-12
        if not ok.all():
            bad = int(np.argmin(ok))
            raise InvalidArgumentError(
                f"cell {bad} violates Gauss closure ({rel[bad]:.2e})")
        # Patch partition
        boundary = np.flatnonzero(self.neighbor < 0)
        claimed = np.concatenate([p.face_ids for p in self.patches.values()]) \
            if self.patches else np.array([], dtype=np.int64)
        if not np.array_equal(np.sort(claimed), boundary):
            raise InvalidArgumentError("patches do not partition the boundary faces")

    # -- derived connectivity (cached) -------------------------------------

    def oriented_loops(self):
        """The vertex loops of all faces, each ordered so that its area
        vector points out of the owner, as (concatenated loops, lengths):
        the arrays the mesh stores."""
        return self._loop_flat, self._loop_len

    @property
    def fv(self):
        """Face-based quantities used by the discretization (cached)."""
        if self._fv is None:
            self._fv = _FvGeometry(self)
        return self._fv


def check_faces(dim, n_points, loops, lengths, owner, neighbor):
    """Raise InvalidArgumentError unless the faces given as concatenated
    ``loops`` with per-face ``lengths`` are well formed: 2 vertices per
    face in 2D and at least 3 in 3D, vertex ids in [0, n_points), owners
    in [0, n_cells), and each neighbor -1 or another cell. n_cells is the
    number of distinct cell ids (below the number of cell-face incidences),
    so the ids must be 0, 1, ... without a gap."""
    if not (loops.ndim == lengths.ndim == owner.ndim == neighbor.ndim == 1
            and len(lengths) == len(owner) == len(neighbor)
            and len(loops) == lengths.sum()):
        raise InvalidArgumentError(
            "loops, lengths, owner and neighbor do not describe the same faces")
    if len(lengths) == 0:
        raise InvalidArgumentError("mesh has no faces")

    def first(bad, what):
        if np.any(bad):
            raise InvalidArgumentError(f"face {int(np.argmax(bad))}: {what}")

    if dim == 2:
        first(lengths != 2, "a 2D face needs exactly 2 vertices")
    else:
        first(lengths < 3, "a 3D face needs at least 3 vertices")
    out = (loops < 0) | (loops >= n_points)
    if np.any(out):
        at = int(np.argmax(out))
        face = int(np.searchsorted(np.cumsum(lengths), at, side="right"))
        raise InvalidArgumentError(
            f"face {face}: vertex id {loops[at]} outside [0, {n_points})")
    cells = np.concatenate([owner, neighbor])
    cells = cells[cells >= 0]
    # n distinct ids without a gap are 0..n-1 < len(cells): an id at or
    # past len(cells) is out of range whatever n is, and is not counted
    n_cells = np.count_nonzero(np.bincount(cells[cells < len(cells)],
                                           minlength=1))
    first((owner < 0) | (owner >= n_cells), f"owner outside [0, {n_cells})")
    first((neighbor < -1) | (neighbor >= n_cells) | (neighbor == owner),
          "neighbor is neither -1 nor another cell")


def _reversed_loops(loops, lengths, flip):
    """The concatenated ``loops`` with the loop of every face in the mask
    ``flip`` reversed: position b - j of a flipped loop of n entries that
    ends at b reads b - (n - 1) + j, j < n. Its index arrays span the
    flipped loops only."""
    faces = np.flatnonzero(flip)
    n = lengths[faces]
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    b = np.repeat(np.cumsum(lengths)[faces] - 1, n)
    out = loops.copy()
    out[b - j] = loops[b - np.repeat(n - 1, n) + j]
    return out


def _fan_geometry(v):
    """Area vectors (3, k), centroids (3, k) and warp moments Q = sum_j
    (r_j + r_j+1) (r_j x r_j+1)^T (3, 3, k), r = p - centroid (0 on a
    planar face), of k faces whose (nv, k) loops have the vertex
    coordinates ``v`` (3, nv, k), which it overwrites. Each temporary is
    released or reused as soon as it is read: this is the peak of the
    face pass."""
    m = v.mean(axis=1, keepdims=True)
    d = np.subtract(v, m, out=v)
    d1 = np.roll(d, -1, axis=1)
    t = _cross(d, d1)  # twice each fan triangle's area vector
    w = np.sqrt(np.einsum("ajk,ajk->jk", t, t))
    area = 0.5 * t.sum(axis=1)
    del t
    w_sum = w.sum(axis=0)
    # the centroid is m + dc: the fan triangles' centroids (m + v_j +
    # v_j+1) / 3 weighted by area, or m on a face of zero area
    with np.errstate(invalid="ignore", divide="ignore"):
        dc = np.einsum("jk,ajk->ak", w, np.add(d, d1, out=d1)) / (3.0 * w_sum)
    del d1, w
    dc[:, w_sum == 0] = 0.0
    centroid = m[:, 0] + dc
    r = np.subtract(d, dc[:, None], out=d)
    r1 = np.roll(r, -1, axis=1)
    c = _cross(r, r1)
    return area, centroid, np.einsum("ajk,bjk->abk",
                                     np.add(r, r1, out=r1), c)


def _cross(a, b):
    """a x b over the leading axis of length 3, by components, with one
    product as its only temporary. The result is C-ordered whatever the
    layout of a and b, as einsum's reductions over it round by layout."""
    out = np.empty(a.shape)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def _incidence(owner, neighbor, n_cells):
    """Signed cell-face incidence matrix D (CSR, n_cells x n_faces): +1 at
    the owner, -1 at the neighbor. ``D @ flux`` sums outward face fluxes
    per cell."""
    internal = np.flatnonzero(neighbor >= 0)
    D = sp.csr_matrix(
        (np.concatenate([np.ones(len(owner)), -np.ones(len(internal))]),
         (np.concatenate([owner, neighbor[internal]]),
          np.concatenate([np.arange(len(owner)), internal]))),
        shape=(n_cells, len(owner)))
    D.sort_indices()
    return D


class _FvGeometry:
    """Precomputed per-face data for the FV operators.

    It keeps what a step reads: the incidence D (``mesh.incidence``), its
    boundary columns ``D_b``, the interpolation ``W`` and the per-face
    coefficients. ``D_int``, D's internal columns, is built on each read
    and not kept: an orthogonal mesh's upwind step never reads it, and a
    solver whose step does keeps its own. The index arrays a step or a
    wall shear query gathers or sums with (``internal``, ``boundary``,
    ``i_owner``, ``i_neigh``, ``b_owner``) are intp, as numpy converts
    any other index dtype on every such call; ``b_index``, read only to
    find a patch's boundary rows, is int32 like the mesh's connectivity.
    """

    def __init__(self, mesh: Mesh):
        internal, boundary, d, db, AdotD, AbdotDb = _face_vectors(mesh)
        self.internal, self.boundary = internal, boundary
        self.D = mesh.incidence
        self.D_b = self.D[:, boundary]

        o = mesh.owner[internal].astype(np.intp)
        n = mesh.neighbor[internal].astype(np.intp)
        self.i_owner, self.i_neigh = o, n
        A = mesh.face_area[internal]
        self.orth_coeff = np.einsum("ij,ij->i", A, A) / AdotD  # |A|^2/(A.d)
        # over-relaxed decomposition A = E + T with E parallel to d,
        # |E| = |A|^2/(A.d) so the orthogonal flux uses orth_coeff directly
        self.T = A - d * self.orth_coeff[:, None]

        # linear interpolation weight of the owner value at the face
        d_mag = np.linalg.norm(d, axis=1)
        dhat = d / d_mag[:, None]
        t = np.einsum(
            "ij,ij->i", mesh.face_centroid[internal] - mesh.cell_centroid[o], dhat
        ) / d_mag
        w_owner = np.clip(1.0 - t, 0.05, 0.95)
        # the interpolation (n_internal x n_cells), its weights' only store:
        # w_owner in the owner column, 1 - w_owner in the neighbor column
        self.W = sp.csr_matrix(
            (np.column_stack([w_owner, 1.0 - w_owner]).ravel(),
             np.column_stack([o, n]).ravel(),
             np.arange(0, 2 * len(o) + 1, 2)),
            shape=(len(o), mesh.n_cells))

        # boundary faces
        self.b_owner = mesh.owner[boundary].astype(np.intp)
        Ab = mesh.face_area[boundary]
        nb = Ab / np.linalg.norm(Ab, axis=1)[:, None]
        self.b_normal = nb
        self.b_delta = np.einsum("ij,ij->i", db, nb)  # wall-normal distance
        AbdotAb = np.einsum("ij,ij->i", Ab, Ab)
        self.b_orth_coeff = AbdotAb / AbdotDb
        b_T = Ab - db / AbdotDb[:, None] * AbdotAb[:, None]
        # any face whose T is more than round-off of its area vector;
        # relative per face, so it does not depend on the mesh's scale
        self.non_orthogonal = bool(
            np.any(np.linalg.norm(self.T, axis=1)
                   > 1e-9 * np.linalg.norm(A, axis=1))
            or np.any(np.linalg.norm(b_T, axis=1)
                      > 1e-9 * np.linalg.norm(Ab, axis=1)))
        # on an orthogonal mesh T is round-off: make it exactly 0, so the
        # non-orthogonal flux operators agree with diffusion_term, which
        # skips the correction there (a broadcast zero: no per-face store)
        if not self.non_orthogonal:
            self.T = np.broadcast_to(0.0, self.T.shape)
        # position of each face inside the boundary ordering (-1: internal)
        self.b_index = np.full(mesh.n_faces, -1, dtype=np.int32)
        self.b_index[boundary] = np.arange(len(boundary))

    @property
    def D_int(self):
        """D's internal-face columns (n_cells x n_internal), built anew on
        each read."""
        return self.D[:, self.internal]


def _face_vectors(mesh: Mesh):
    """The internal and the boundary faces, their d vectors (owner to
    neighbor centroid on internal faces, owner centroid to face centroid
    on boundary faces) and A.d on each set, from ``face_area`` and the
    centroids. Raises InvalidArgumentError if A.d <= 0 on a face of
    either set: its area vector does not point along its d."""
    internal = np.flatnonzero(mesh.neighbor >= 0)
    boundary = np.flatnonzero(mesh.neighbor < 0)
    d = (mesh.cell_centroid[mesh.neighbor[internal]]
         - mesh.cell_centroid[mesh.owner[internal]])
    db = (mesh.face_centroid[boundary]
          - mesh.cell_centroid[mesh.owner[boundary]])
    a_dot_d = np.einsum("ij,ij->i", mesh.face_area[internal], d)
    b_a_dot_d = np.einsum("ij,ij->i", mesh.face_area[boundary], db)
    for where, dots in (("internal", a_dot_d), ("boundary", b_a_dot_d)):
        if np.any(dots <= 0.0):
            raise InvalidArgumentError(f"{where} face with non-positive A.d")
    return internal, boundary, d, db, a_dot_d, b_a_dot_d


def non_orthogonality(mesh: Mesh):
    """The internal faces, their owner-to-neighbor centroid vectors d and
    the angle (deg) between each one's area vector A and d, from
    ``face_area`` and the centroids alone, without building ``mesh.fv``.
    Raises InvalidArgumentError where ``mesh.fv`` would (``_face_vectors``)."""
    internal, _, d, _, a_dot_d, _ = _face_vectors(mesh)
    A = mesh.face_area[internal]
    cosang = a_dot_d / (np.linalg.norm(A, axis=1) * np.linalg.norm(d, axis=1))
    return internal, d, np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def mesh_quality(mesh: Mesh) -> QualityReport:
    """Non-orthogonality and skewness statistics of a mesh.

    Non-orthogonality of an internal face is the angle between the
    owner-to-neighbor vector and the face area vector. Skewness is the
    distance from the face centroid to the intersection of the
    owner-neighbor line with the face plane, normalized by the
    centroid distance.
    """
    internal, d, angles = non_orthogonality(mesh)
    # intersection of the P-N line with the face plane
    A = mesh.face_area[internal]
    n = A / np.linalg.norm(A, axis=1)[:, None]
    xp = mesh.cell_centroid[mesh.owner[internal]]
    xf = mesh.face_centroid[internal]
    t = np.einsum("ij,ij->i", xf - xp, n) / np.einsum("ij,ij->i", d, n)
    xi = xp + t[:, None] * d
    skew = np.linalg.norm(xf - xi, axis=1) / np.linalg.norm(d, axis=1)

    h = mesh.cell_volume ** (1.0 / mesh.dim)
    return QualityReport(
        avg_non_orthogonality=float(angles.mean()) if angles.size else 0.0,
        max_non_orthogonality=float(angles.max()) if angles.size else 0.0,
        avg_skewness=float(skew.mean()) if skew.size else 0.0,
        max_skewness=float(skew.max()) if skew.size else 0.0,
        cell_count=mesh.n_cells,
        h_min=float(h.min()),
        h_max=float(h.max()),
    )
