"""Mesh persistence: a plain-text native format and VTK legacy export.

Native format (version 1), whitespace separated::

    hemoflow-mesh 1
    DIM <2|3>
    POINTS <n>
    x y [z]          # one line per point, %.17g (lossless round-trip)
    FACES <n>
    nv v0 ... v(nv-1) owner neighbor
    PATCHES <n>
    <name> <kind> <nfaces> [<meta json, one line>]
    f0 f1 ...

Geometry is recomputed from the points on load, so write -> read is
lossless by construction.

``write_mesh`` formats each of the POINTS and FACES sections with one
``%`` operation over a flat array: the coordinates, and the
``nv, loop, owner, neighbor`` numbers of every face laid end to end, with
the loops oriented by ``Mesh.oriented_loops``. ``read_mesh`` parses each
section in one array operation.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import SchemaError
from .core import Mesh, Patch, face_loops

_MAGIC = "hemoflow-mesh"
_VERSION = 1


def write_mesh(mesh: Mesh, path):
    loops, nv = mesh.oriented_loops()
    # the FACES lines' numbers, [nv, loop, owner, neighbor] per face
    width = nv + 3
    end = np.cumsum(width)
    rows = np.empty(end[-1], dtype=np.int64)
    rows[end - width] = nv
    rows[np.arange(len(loops)) + 3 * np.repeat(np.arange(mesh.n_faces), nv) + 1] = loops
    rows[end - 2] = mesh.owner
    rows[end - 1] = mesh.neighbor
    row_format = {n: " ".join(["%d"] * (n + 3)) + "\n" for n in np.unique(nv).tolist()}
    point_format = " ".join(["%.17g"] * mesh.dim) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC} {_VERSION}\n")
        fh.write(f"DIM {mesh.dim}\n")
        fh.write(f"POINTS {len(mesh.points)}\n")
        fh.write(point_format * len(mesh.points) % tuple(mesh.points.ravel().tolist()))
        fh.write(f"FACES {mesh.n_faces}\n")
        fh.write("".join(map(row_format.__getitem__, nv.tolist()))
                 % tuple(rows.tolist()))
        fh.write(f"PATCHES {len(mesh.patches)}\n")
        for p in mesh.patches.values():
            fh.write(f"{p.name} {p.kind} {len(p.face_ids)} {json.dumps(p.meta)}\n")
            fh.write(" ".join(map(str, p.face_ids.tolist())) + "\n")


class _Lines:
    """The lines of a native mesh file, taken section by section."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.path = path
        self.at = 0

    def take(self, n):
        if self.at + n > len(self.lines):
            raise SchemaError(f"truncated mesh file: {self.path}")
        self.at += n
        return self.lines[self.at - n:self.at]

    def section(self, name):
        """The count of a ``<name> <n>`` header line."""
        tok = self.take(1)[0].split()
        if len(tok) != 2 or tok[0] != name or not tok[1].isdigit():
            raise SchemaError(f"expected {name} section")
        return int(tok[1])


def _numbers(lines, dtype, what):
    """Every whitespace-separated number of ``lines``, parsed in one
    array operation."""
    try:
        return np.fromstring(" ".join(lines), dtype=dtype, sep=" ")
    except ValueError:
        raise SchemaError(f"malformed {what} section")


def read_mesh(path) -> Mesh:
    src = _Lines(path)
    head = src.take(1)[0].split()
    if head != [_MAGIC, str(_VERSION)]:
        raise SchemaError(f"not a {_MAGIC} v{_VERSION} file: {path}")
    dim = src.section("DIM")
    npts = src.section("POINTS")
    pts = _numbers(src.take(npts), float, "POINTS")
    if len(pts) != npts * dim:
        raise SchemaError("malformed POINTS section")
    pts = pts.reshape(npts, dim)

    # one face per line: nv v0 ... v(nv-1) owner neighbor
    lines = src.take(src.section("FACES"))
    width = np.fromiter(map(len, map(str.split, lines)), np.int64,
                        len(lines))
    flat = _numbers(lines, np.int64, "FACES")
    start = np.cumsum(width) - width
    if np.any(width < 3) or np.any(flat[start] != width - 3):
        raise SchemaError("malformed FACES line")
    end = start + width
    owner, neighbor = flat[end - 2], flat[end - 1]
    loops = np.delete(flat, np.concatenate([start, end - 2, end - 1]))
    face_nodes = face_loops(loops, width - 3)

    patches = []
    for _ in range(src.section("PATCHES")):
        head, ids = src.take(2)
        parts = head.split(None, 3)
        if len(parts) < 3 or not parts[2].isdigit():
            raise SchemaError(f"malformed patch line: {head!r}")
        name, kind, cnt = parts[0], parts[1], int(parts[2])
        meta = json.loads(parts[3]) if len(parts) > 3 else {}
        ids = _numbers([ids], np.int64, f"patch {name}")
        if len(ids) != cnt:
            raise SchemaError(f"patch {name}: face count mismatch")
        patches.append(Patch(name, kind, ids, meta=meta))
    return Mesh(dim, pts, face_nodes, owner, neighbor, patches)


def _cell_faces(mesh):
    out = [[] for _ in range(mesh.n_cells)]
    for i in range(mesh.n_faces):
        out[mesh.owner[i]].append(i)
        if mesh.neighbor[i] >= 0:
            out[mesh.neighbor[i]].append(i)
    return out


def _polygon_loop(mesh, faces):
    """Order the 2-vertex faces of a 2D cell into a closed vertex loop."""
    edges = {f: mesh.face_nodes[f] for f in faces}
    adj = {}
    for a, b in edges.values():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = next(iter(adj))
    loop = [start]
    prev = None
    while True:
        nxts = [v for v in adj[loop[-1]] if v != prev]
        prev = loop[-1]
        loop.append(nxts[0])
        if loop[-1] == start:
            return loop[:-1]


def write_vtk(mesh: Mesh, path, cell_data=None):
    """VTK legacy unstructured-grid export.

    2D cells become VTK_POLYGON; 3D cells are written as VTK_POLYHEDRON
    face streams. ``cell_data`` maps field name -> (n_cells,) or
    (n_cells, dim) array.
    """
    cell_data = cell_data or {}
    cf = _cell_faces(mesh)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("hemoflow mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.points)} double\n")
        for p in mesh.points:
            coords = list(p) + [0.0] * (3 - mesh.dim)
            fh.write(" ".join(f"{c:.12g}" for c in coords) + "\n")

        conns, types = [], []
        for c in range(mesh.n_cells):
            if mesh.dim == 2:
                loop = _polygon_loop(mesh, cf[c])
                conns.append([len(loop)] + loop)
                types.append(7)  # VTK_POLYGON
            else:
                stream = [len(cf[c])]
                for f in cf[c]:
                    loop = mesh.face_nodes[f]
                    stream.append(len(loop))
                    stream.extend(loop)
                conns.append([len(stream)] + stream)
                types.append(42)  # VTK_POLYHEDRON
        total = sum(len(c) for c in conns)
        fh.write(f"CELLS {mesh.n_cells} {total}\n")
        for c in conns:
            fh.write(" ".join(map(str, c)) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        for t in types:
            fh.write(f"{t}\n")

        if cell_data:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            for name, arr in cell_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in arr:
                        fh.write(f"{v:.12g}\n")
                else:
                    fh.write(f"VECTORS {name} double\n")
                    for row in arr:
                        vec = list(row) + [0.0] * (3 - arr.shape[1])
                        fh.write(" ".join(f"{v:.12g}" for v in vec) + "\n")
