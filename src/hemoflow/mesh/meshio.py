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

``write_mesh`` formats the POINTS section with one ``%`` operation over
the coordinates, and the FACES section from the ``nv, loop, owner,
neighbor`` numbers of every face laid end to end, with the oriented
loops that the mesh stores (``Mesh.oriented_loops``): each id is
formatted once into a table, the numbers pick their strings from it by
array indexing, and one join makes the section (``_int_rows``, which
shifts the int32 numbers into table positions in place).

``read_mesh`` parses each section in one array operation and counts the
numbers on each FACES line in one scan of the section's bytes
(``_widths``). It releases each section's lines once they are joined into
the section's text, and hands ``Mesh`` the flat (loops, lengths) arrays
that it stores, with the owners and neighbours, as int32 arrays that
``Mesh`` keeps without a copy (``_parse``). Faces whose vertex, owner or
neighbor ids are out of range are a ``SchemaError`` of the FACES section,
and so is every other file content that ``Patch`` or ``Mesh`` refuses (an
unknown patch kind, duplicate patch names, patches that do not partition
the boundary, open cells, points that are not finite). ``Patch`` refuses a
name that is empty or holds whitespace, so every name that ``write_mesh``
writes reads back.
``write_vtk`` takes each cell's faces from the rows of ``Mesh.incidence``
and their loops from ``Mesh.oriented_loops``, walks the 2D cells' vertex
loops for all cells at once, and formats the CELLS section with the same
table-driven ``_int_rows`` and every other section in one ``%``
operation.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import InvalidArgumentError, SchemaError
from .core import Mesh, Patch, check_faces

_MAGIC = "hemoflow-mesh"
_VERSION = 1


def write_mesh(mesh: Mesh, path):
    loops, nv = mesh.oriented_loops()
    # the FACES lines' numbers, [nv, loop, owner, neighbor] per face
    width = nv + 3
    end = np.cumsum(width)
    rows = np.empty(end[-1], dtype=np.int32)
    rows[end - width] = nv
    rows[np.arange(len(loops)) + 3 * np.repeat(np.arange(mesh.n_faces), nv) + 1] = loops
    rows[end - 2] = mesh.owner
    rows[end - 1] = mesh.neighbor
    point_format = " ".join(["%.17g"] * mesh.dim) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC} {_VERSION}\n")
        fh.write(f"DIM {mesh.dim}\n")
        fh.write(f"POINTS {len(mesh.points)}\n")
        fh.write(point_format * len(mesh.points) % tuple(mesh.points.ravel().tolist()))
        fh.write(f"FACES {mesh.n_faces}\n")
        fh.write(_int_rows(rows, width))
        fh.write(f"PATCHES {len(mesh.patches)}\n")
        for p in mesh.patches.values():
            fh.write(f"{p.name} {p.kind} {len(p.face_ids)} {json.dumps(p.meta)}\n")
            fh.write(" ".join(map(str, p.face_ids.tolist())) + "\n")


def _int_rows(numbers, width):
    """Lines of ``width[k]`` space-separated integers each, taken in turn
    from ``numbers``. Each id in [min, max] is formatted once, as a string
    ending in a space and one ending in a newline; the numbers select
    theirs from that table by object-array indexing, and the selection is
    joined once. ``numbers``, which the caller owns, becomes the table
    positions in place (int64 numbers and a shifted copy made the pipe's
    write peak 43% higher)."""
    lo = int(numbers.min())
    ids = range(lo, int(numbers.max()) + 1)
    table = np.array([f"{i} " for i in ids] + [f"{i}\n" for i in ids],
                     dtype=object)
    numbers -= lo
    numbers[np.cumsum(width) - 1] += len(ids)
    return "".join(table[numbers].tolist())


class _Lines:
    """The lines of a native mesh file, taken section by section."""

    def __init__(self, path):
        with open(path) as fh:
            self.lines = fh.read().splitlines()
        self.path = path
        self.at = 0

    def take(self, n):
        """The next ``n`` lines, which this then holds no longer: a
        section's lines are freed once its text is parsed."""
        if self.at + n > len(self.lines):
            raise SchemaError(f"truncated mesh file: {self.path}")
        self.at += n
        taken = self.lines[self.at - n:self.at]
        self.lines[self.at - n:self.at] = [None] * n
        return taken

    def section(self, name):
        """The count of a ``<name> <n>`` header line."""
        tok = self.take(1)[0].split()
        if len(tok) != 2 or tok[0] != name or not tok[1].isdigit():
            raise SchemaError(f"expected {name} section")
        return int(tok[1])


def _numbers(text, dtype, what):
    """Every whitespace-separated number of ``text``, parsed in one array
    operation."""
    try:
        return np.fromstring(text, dtype=dtype, sep=" ")
    except ValueError:
        raise SchemaError(f"malformed {what} section")


def _widths(text, n_lines):
    """The number of tokens on each of the ``n_lines`` lines of ``text``:
    a token starts at each byte above 32 that follows a byte of at most 32
    (space, tab, newline, or a control byte, which ``_numbers`` refuses
    like any other whitespace ``str.split`` knows) or starts the text."""
    b = np.frombuffer(text.encode(), dtype=np.uint8)
    newlines = np.flatnonzero(b == 10)
    gap = b <= 32
    del b
    start = np.empty(len(gap), dtype=bool)
    start[:1] = ~gap[:1]
    np.greater(gap[:-1], gap[1:], out=start[1:])
    del gap
    tokens = np.flatnonzero(start)
    del start
    ends = np.searchsorted(tokens, newlines)
    # "" is no line as well as one empty line: n_lines tells them apart
    return np.diff(ends, prepend=0, append=len(tokens))[:n_lines]


def read_mesh(path) -> Mesh:
    inputs = _parse(path)
    try:
        return Mesh(*inputs)
    except InvalidArgumentError as e:
        raise SchemaError(f"invalid mesh in {path}: {e}") from None


def _parse(path):
    """The ``Mesh`` arguments of a native mesh file, the connectivity as
    int32 arrays that ``Mesh`` keeps uncopied. Each section's lines are
    released once its text is joined, and the texts and the int64 parse
    once the arrays are made, before ``Mesh`` builds the geometry: held
    while it did, they made the read of the 8000-cell pipe peak at 4.5
    times the memory of the mesh it returns, against 3.0; with the int64
    arrays copied by ``Mesh`` while this held them, 10.8 MiB against the
    6.5 of now."""
    src = _Lines(path)
    head = src.take(1)[0].split()
    if head != [_MAGIC, str(_VERSION)]:
        raise SchemaError(f"not a {_MAGIC} v{_VERSION} file: {path}")
    dim = src.section("DIM")
    npts = src.section("POINTS")
    pts = _numbers("\n".join(src.take(npts)), float, "POINTS")
    if len(pts) != npts * dim:
        raise SchemaError("malformed POINTS section")
    pts = pts.reshape(npts, dim)

    # one face per line: nv v0 ... v(nv-1) owner neighbor
    n_faces = src.section("FACES")
    text = "\n".join(src.take(n_faces))
    width = _widths(text, n_faces)
    flat = _numbers(text, np.int64, "FACES")
    start = np.cumsum(width) - width
    if np.any(width < 3) or np.any(flat[start] != width - 3):
        raise SchemaError("malformed FACES line")
    end = start + width
    owner, neighbor = flat[end - 2], flat[end - 1]
    loops = np.delete(flat, np.concatenate([start, end - 2, end - 1]))
    del text, flat, start, end
    try:
        check_faces(dim, npts, loops, width - 3, owner, neighbor)
    except InvalidArgumentError as e:
        raise SchemaError(f"malformed FACES section: {e}") from None
    # every id is in range: Mesh keeps the int32 arrays it is handed
    loops, lengths, owner, neighbor = (
        a.astype(np.int32) for a in (loops, width - 3, owner, neighbor))
    del width

    patches = []
    for _ in range(src.section("PATCHES")):
        head, ids = src.take(2)
        parts = head.split(None, 3)
        if len(parts) < 3 or not parts[2].isdigit():
            raise SchemaError(f"malformed patch line: {head!r}")
        name, kind, cnt = parts[0], parts[1], int(parts[2])
        ids = _numbers(ids, np.int64, f"patch {name}")
        if len(ids) != cnt:
            raise SchemaError(f"patch {name}: face count mismatch")
        try:
            meta = json.loads(parts[3]) if len(parts) > 3 else {}
            patches.append(Patch(name, kind, ids, meta=meta))
        except ValueError as e:
            raise SchemaError(f"patch {name}: {e}") from None
    return dim, pts, loops, lengths, owner, neighbor, patches


def _polygon_loops(mesh, edges):
    """Every 2D cell's vertex loop, laid end to end in cell order. A loop
    starts at the first vertex of the edge of the cell's first face and
    runs along that edge first. All cells are walked at once: each cell's
    edges are directed to run the same way round as its first face's, and
    one vertex of every cell is taken per step along them."""
    D = mesh.incidence
    first = D.indptr[:-1]
    size = np.diff(D.indptr)
    cell = np.repeat(np.arange(mesh.n_cells), size)
    e = edges[D.indices]
    along = D.data == D.data[first][cell]
    tail = np.where(along, e[:, 0], e[:, 1])
    head = np.where(along, e[:, 1], e[:, 0])
    key = cell * len(mesh.points) + tail
    order = np.argsort(key)
    key, head = key[order], head[order]
    base = np.arange(mesh.n_cells) * len(mesh.points)
    loops = np.empty(len(cell), dtype=np.int64)
    at = tail[first]
    for step in range(size.max()):
        live = step < size
        loops[first[live] + step] = at[live]
        at = head[np.searchsorted(key, base + at)]
    return loops, size


def _cell_rows(mesh):
    """The numbers of the VTK CELLS rows laid end to end, and the count of
    each row. A row is the count of the numbers that follow, then a 2D
    cell's vertex loop, or a 3D cell's face stream: its face count, then
    nv and the loop of each face. A cell's faces are its row of
    ``mesh.incidence``."""
    loops, nv = mesh.oriented_loops()
    D = mesh.incidence
    if mesh.dim == 2:
        body, size = _polygon_loops(mesh, loops.reshape(-1, 2))
        head = size[:, None]
    else:
        # nv and the loop of each face, gathered for every face of every cell
        tokens = np.insert(loops, np.cumsum(nv) - nv, nv)
        first = np.cumsum(nv + 1) - (nv + 1)
        width = (nv + 1)[D.indices]
        end = np.cumsum(width)
        body = tokens[np.repeat(first[D.indices] - end + width, width)
                      + np.arange(end[-1])]
        size = np.add.reduceat(width, D.indptr[:-1])
        head = np.column_stack([size + 1, np.diff(D.indptr)])
    at = np.repeat(np.cumsum(size) - size, head.shape[1])
    return np.insert(body, at, head.ravel()), size + head.shape[1]


def write_vtk(mesh: Mesh, path, cell_data=None):
    """VTK legacy unstructured-grid export.

    2D cells become VTK_POLYGON; 3D cells are written as VTK_POLYHEDRON
    face streams. ``cell_data`` maps field name -> (n_cells,) or
    (n_cells, dim) array.
    """
    cell_data = cell_data or {}
    cells, width = _cell_rows(mesh)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("hemoflow mesh\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(mesh.points)} double\n")
        fh.write(_float_rows(mesh.points, 3))
        fh.write(f"CELLS {mesh.n_cells} {len(cells)}\n")
        fh.write(_int_rows(cells, width))
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        # VTK_POLYGON in 2D, VTK_POLYHEDRON in 3D
        fh.write(("7\n" if mesh.dim == 2 else "42\n") * mesh.n_cells)

        if cell_data:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            for name, arr in cell_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    fh.write(_float_rows(arr[:, None], 1))
                else:
                    fh.write(f"VECTORS {name} double\n")
                    fh.write(_float_rows(arr, 3))


def _float_rows(values, width):
    """The rows of ``values`` (n, <= width), zero-padded to ``width``
    columns, as lines of %.12g numbers formatted in one ``%`` operation."""
    rows = np.zeros((len(values), width))
    rows[:, :values.shape[1]] = values
    line = " ".join(["%.12g"] * width) + "\n"
    return line * len(rows) % tuple(rows.ravel().tolist())
