"""Face-addressed unstructured finite-volume mesh.

A mesh is a set of cells bounded by planar polygonal faces. Each face
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

# Mesh generation refuses meshes beyond this face non-orthogonality.
NON_ORTHOGONALITY_CAP_DEG = 70.0

# Faces per vectorised geometry block; bounds the size of the temporaries.
_BLOCK = 2048


@dataclass
class Patch:
    """A named set of boundary faces with a physical kind."""

    name: str
    kind: str
    face_ids: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
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

    The loops may run either way round; ``oriented_loops()`` gives them,
    in the same (loops, lengths) form, ordered out of the owner. Every
    generator and ``read_mesh`` pass their loops in this form.
    ``incidence`` is the signed cell-face incidence matrix D (+1 at the
    owner, -1 at the neighbor): every face-to-cell sum is a product with it.
    """

    def __init__(self, dim, points, loops, lengths, owner, neighbor, patches):
        if dim not in (2, 3):
            raise InvalidArgumentError("dim must be 2 or 3")
        self.dim = int(dim)
        self.points = np.asarray(points, dtype=float)
        if self.points.shape[1] != dim:
            raise InvalidArgumentError("points shape does not match dim")
        # the vertex loops as given (before orientation)
        self._loop_flat = np.array(loops, dtype=np.int64)
        self._loop_len = np.array(lengths, dtype=np.int64)
        self._loop_start = np.cumsum(self._loop_len) - self._loop_len
        self.owner = np.asarray(owner, dtype=np.int64).copy()
        self.neighbor = np.asarray(neighbor, dtype=np.int64).copy()
        check_faces(self.dim, len(self.points), self._loop_flat,
                    self._loop_len, self.owner, self.neighbor)
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

    def _loop_blocks(self, faces):
        """Yield (positions in ``faces``, (k, nv) vertex loops) for blocks
        of at most _BLOCK faces with equal loop length."""
        for nv in np.unique(self._loop_len[faces]):
            pos = np.flatnonzero(self._loop_len[faces] == nv)
            for start in range(0, len(pos), _BLOCK):
                sel = pos[start:start + _BLOCK]
                yield sel, self._loop_flat[
                    self._loop_start[faces[sel], None] + np.arange(nv)]

    def _raw_face_geometry(self):
        """Area vector and centroid of every face from its vertex loop
        (3D: fan triangulation about the vertex mean)."""
        nf = self.n_faces
        area = np.zeros((nf, self.dim))
        centroid = np.zeros((nf, self.dim))
        for sel, loops in self._loop_blocks(np.arange(nf)):
            v = self.points[loops]
            if self.dim == 2:
                e = v[:, 1] - v[:, 0]
                area[sel] = np.column_stack([e[:, 1], -e[:, 0]])  # unit depth
                centroid[sel] = 0.5 * (v[:, 0] + v[:, 1])
                continue
            m = v.mean(axis=1)
            a_sum = np.zeros_like(m)
            c_sum = np.zeros_like(m)
            w_sum = np.zeros(len(m))
            for j in range(loops.shape[1]):
                v1, v2 = v[:, j], v[:, (j + 1) % loops.shape[1]]
                a_t = 0.5 * np.cross(v1 - m, v2 - m)
                w = np.linalg.norm(a_t, axis=1)
                a_sum += a_t
                c_sum += w[:, None] * (m + v1 + v2) / 3.0
                w_sum += w
            area[sel] = a_sum
            centroid[sel] = np.divide(c_sum, w_sum[:, None], out=m,
                                      where=w_sum[:, None] > 0)
        return area, centroid

    def _compute_geometry(self):
        area, fc = self._raw_face_geometry()
        D = self.incidence

        # Approximate cell centers to fix face orientation (owner -> out).
        approx = (abs(D) @ fc) / np.diff(D.indptr)[:, None]
        far = np.where(self.neighbor[:, None] >= 0, approx[self.neighbor], fc)
        flip = np.einsum("ij,ij->i", area, far - approx[self.owner]) < 0.0
        self._flip = flip
        area[flip] = -area[flip]

        self.face_area = area
        self.face_centroid = fc
        self.face_area_mag = np.linalg.norm(area, axis=1)

        # Exact volumes and centroids by simplex decomposition about the
        # approximate cell center (any interior reference point works),
        # one simplex fan per (cell, face) nonzero of D. The loops are the
        # unflipped ones, so a flipped face counts with the opposite sign.
        cell = np.repeat(np.arange(self.n_cells), np.diff(D.indptr))
        face = D.indices
        sign = D.data * np.where(flip, -1.0, 1.0)[face]
        vol = np.zeros(len(face))
        mom = np.zeros((len(face), self.dim))
        pts = self.points
        for sel, lp in self._loop_blocks(face):
            x0 = approx[cell[sel]]
            s = sign[sel]
            if self.dim == 2:
                va, vb = pts[lp[:, 0]] - x0, pts[lp[:, 1]] - x0
                v = s * 0.5 * (va[:, 0] * vb[:, 1] - va[:, 1] * vb[:, 0])
                vol[sel] = v
                mom[sel] = v[:, None] * (x0 + (va + vb) / 3.0)
                continue
            m = fc[face[sel]]
            for j in range(lp.shape[1]):
                p1 = pts[lp[:, j]]
                p2 = pts[lp[:, (j + 1) % lp.shape[1]]]
                v = s * np.einsum("ij,ij->i", np.cross(p1 - x0, p2 - x0),
                                  m - x0) / 6.0
                vol[sel] += v
                mom[sel] += v[:, None] * (0.25 * (x0 + p1 + p2 + m))
        self.cell_volume = np.bincount(cell, vol, self.n_cells)
        cmom = np.column_stack([np.bincount(cell, mom[:, k], self.n_cells)
                                for k in range(self.dim)])
        with np.errstate(invalid="ignore"):
            self.cell_centroid = cmom / self.cell_volume[:, None]

    def _validate(self):
        if np.any(self.cell_volume <= 0.0):
            bad = int(np.argmin(self.cell_volume))
            raise InvalidArgumentError(
                f"non-positive cell volume at cell {bad}: {self.cell_volume[bad]:.3e}"
            )
        # Gauss closure, relative to cell surface area
        closure = self.incidence @ self.face_area
        surf = abs(self.incidence) @ self.face_area_mag
        rel = np.linalg.norm(closure, axis=1) / surf
        if np.max(rel) > 1e-12:
            raise InvalidArgumentError(
                f"cell {int(np.argmax(rel))} violates Gauss closure ({np.max(rel):.2e})"
            )
        # Patch partition
        boundary = np.flatnonzero(self.neighbor < 0)
        claimed = np.concatenate([p.face_ids for p in self.patches.values()]) \
            if self.patches else np.array([], dtype=np.int64)
        if not np.array_equal(np.sort(claimed), boundary):
            raise InvalidArgumentError("patches do not partition the boundary faces")

    # -- derived connectivity (cached) -------------------------------------

    def oriented_loops(self):
        """The vertex loops of all faces, each ordered so that its area
        vector points out of the owner, as (concatenated loops, lengths)."""
        face = np.repeat(np.arange(self.n_faces), self._loop_len)
        at = np.arange(len(self._loop_flat))
        # a flipped loop stored at positions a..b is read from a + b - p
        ends = 2 * self._loop_start + self._loop_len - 1
        at = np.where(self._flip[face], ends[face] - at, at)
        return self._loop_flat[at], self._loop_len

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
    number of distinct cell ids, so the ids must be 0, 1, ... without a
    gap."""
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
    n_cells = len(np.unique(cells[cells >= 0]))
    first((owner < 0) | (owner >= n_cells), f"owner outside [0, {n_cells})")
    first((neighbor < -1) | (neighbor >= n_cells) | (neighbor == owner),
          "neighbor is neither -1 nor another cell")


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
    """Precomputed per-face data for the FV operators."""

    def __init__(self, mesh: Mesh):
        self.internal = np.flatnonzero(mesh.neighbor >= 0)
        self.boundary = np.flatnonzero(mesh.neighbor < 0)
        D = mesh.incidence
        self.D = D
        self.D_abs = abs(D)
        self.D_int = D[:, self.internal]
        self.D_b = D[:, self.boundary]

        o = mesh.owner[self.internal]
        n = mesh.neighbor[self.internal]
        self.i_owner, self.i_neigh = o, n
        d = mesh.cell_centroid[n] - mesh.cell_centroid[o]
        self.d = d
        self.d_mag = np.linalg.norm(d, axis=1)
        A = mesh.face_area[self.internal]
        AdotD = np.einsum("ij,ij->i", A, d)
        if np.any(AdotD <= 0.0):
            raise InvalidArgumentError("internal face with non-positive A.d")
        self.orth_coeff = np.einsum("ij,ij->i", A, A) / AdotD  # |A|^2/(A.d)
        # over-relaxed decomposition A = E + T with E parallel to d,
        # |E| = |A|^2/(A.d) so the orthogonal flux uses orth_coeff directly
        self.E = d * self.orth_coeff[:, None]
        self.T = A - self.E

        # linear interpolation weight of the owner value at the face
        dhat = d / self.d_mag[:, None]
        t = np.einsum(
            "ij,ij->i", mesh.face_centroid[self.internal] - mesh.cell_centroid[o], dhat
        ) / self.d_mag
        self.w_owner = np.clip(1.0 - t, 0.05, 0.95)
        # the interpolation as a (n_internal x n_cells) matrix: w_owner in
        # the owner column, 1 - w_owner in the neighbor column
        self.W = sp.csr_matrix(
            (np.column_stack([self.w_owner, 1.0 - self.w_owner]).ravel(),
             np.column_stack([o, n]).ravel(),
             np.arange(0, 2 * len(o) + 1, 2)),
            shape=(len(o), mesh.n_cells))

        # boundary faces
        bo = mesh.owner[self.boundary]
        self.b_owner = bo
        db = mesh.face_centroid[self.boundary] - mesh.cell_centroid[bo]
        Ab = mesh.face_area[self.boundary]
        nb = Ab / np.linalg.norm(Ab, axis=1)[:, None]
        self.b_normal = nb
        self.b_delta = np.einsum("ij,ij->i", db, nb)  # wall-normal distance
        AbdotDb = np.einsum("ij,ij->i", Ab, db)
        if np.any(AbdotDb <= 0.0):
            raise InvalidArgumentError("boundary face with non-positive A.d")
        AbdotAb = np.einsum("ij,ij->i", Ab, Ab)
        self.b_orth_coeff = AbdotAb / AbdotDb
        self.b_T = Ab - db / AbdotDb[:, None] * AbdotAb[:, None]
        # any face whose T is more than round-off of its area vector;
        # relative per face, so it does not depend on the mesh's scale
        self.non_orthogonal = bool(
            np.any(np.linalg.norm(self.T, axis=1)
                   > 1e-9 * np.linalg.norm(A, axis=1))
            or np.any(np.linalg.norm(self.b_T, axis=1)
                      > 1e-9 * np.linalg.norm(Ab, axis=1)))
        # on an orthogonal mesh T is round-off: make it exactly 0, so the
        # non-orthogonal flux operators agree with diffusion_term, which
        # skips the correction there
        if not self.non_orthogonal:
            self.T = np.zeros_like(self.T)
            self.b_T = np.zeros_like(self.b_T)
        # position of each face inside the boundary ordering (-1: internal)
        self.b_index = np.full(mesh.n_faces, -1, dtype=np.int64)
        self.b_index[self.boundary] = np.arange(len(self.boundary))


def mesh_quality(mesh: Mesh) -> QualityReport:
    """Non-orthogonality and skewness statistics of a mesh.

    Non-orthogonality of an internal face is the angle between the
    owner-to-neighbor vector and the face area vector. Skewness is the
    distance from the face centroid to the intersection of the
    owner-neighbor line with the face plane, normalized by the
    centroid distance.
    """
    g = mesh.fv
    if len(g.internal) == 0:
        angles = np.zeros(0)
        skew = np.zeros(0)
    else:
        A = mesh.face_area[g.internal]
        cosang = np.einsum("ij,ij->i", A, g.d) / (
            np.linalg.norm(A, axis=1) * g.d_mag
        )
        angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        # intersection of the P-N line with the face plane
        n = A / np.linalg.norm(A, axis=1)[:, None]
        xp = mesh.cell_centroid[g.i_owner]
        xf = mesh.face_centroid[g.internal]
        t = np.einsum("ij,ij->i", xf - xp, n) / np.einsum("ij,ij->i", g.d, n)
        xi = xp + t[:, None] * g.d
        skew = np.linalg.norm(xf - xi, axis=1) / g.d_mag

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
