"""Native mesh persistence and VTK export."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hemoflow.errors import InvalidArgumentError, SchemaError
from hemoflow.fv.boundary import INFLOW_PROFILES, InflowBC
from hemoflow.mesh import (Mesh, Patch, generate_bifurcation_mesh,
                           generate_box_mesh, generate_channel_mesh,
                           generate_pipe_mesh, read_mesh, write_mesh,
                           write_vtk)
from hemoflow.mesh.meshio import _widths

from test_mesh import flat_loops, loop_list


@pytest.mark.parametrize("make", [
    lambda: generate_box_mesh(3, 2, (1.0, 0.5), shear=0.2),
    lambda: generate_pipe_mesh(0.02, 0.01, 4, 3),
    lambda: generate_bifurcation_mesh(0.03, 0.006, 0.003, 45.0, 6),
])
def test_round_trip_is_lossless(tmp_path, make):
    mesh = make()
    path = tmp_path / "mesh.hfm"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.dim == mesh.dim
    assert np.array_equal(back.points, mesh.points)
    for got, want in zip(back.oriented_loops(), mesh.oriented_loops()):
        assert np.array_equal(got, want)
    assert np.array_equal(back.owner, mesh.owner)
    assert np.array_equal(back.neighbor, mesh.neighbor)
    assert set(back.patches) == set(mesh.patches)
    for name, p in mesh.patches.items():
        q = back.patches[name]
        assert q.kind == p.kind
        assert np.array_equal(q.face_ids, p.face_ids)
    # geometry is recomputed from the identical point set
    assert np.allclose(back.cell_volume, mesh.cell_volume, rtol=1e-12)
    assert np.allclose(back.face_area, mesh.face_area, rtol=1e-12,
                       atol=1e-12 * mesh.face_area_mag.max())


@pytest.mark.parametrize("make", [
    lambda: generate_pipe_mesh(0.02, 0.01, 4, 3),
    lambda: generate_channel_mesh(1.0, 0.2, 10, 5),
    lambda: generate_bifurcation_mesh(0.03, 0.006, 0.003, 45.0, 6),
], ids=["pipe", "channel", "bifurcation"])
def test_generate_and_write_build_no_fv_cache(tmp_path, make):
    mesh = make()
    write_mesh(mesh, tmp_path / "mesh.hfm")
    assert mesh._fv is None


def test_reading_the_8000_cell_pipe_peaks_within_its_budget(tmp_path):
    """Traced, ``read_mesh`` of ``pipe_medium``'s 8000-cell pipe peaks at
    most 3.3 times the memory of the mesh it returns: 2.96 measured,
    against 4.50 when the file's lines and section texts stayed alive
    while ``Mesh`` built the geometry."""
    path = tmp_path / "pipe.hfm"
    write_mesh(generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40), path)
    tracemalloc.start()
    try:
        mesh = read_mesh(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.n_cells == 8000
    assert peak <= 3.3 * held, peak / held


def test_reading_and_generating_the_8000_cell_pipe_peak_within_budget(
        tmp_path):
    """Traced from before each call, ``read_mesh`` and
    ``generate_pipe_mesh`` of ``pipe_medium``'s 8000-cell pipe each peak
    at most 6.87 MiB: 6.54 measured for each, against 10.8 and 13.6 MiB
    when ``Mesh`` copied its int64 inputs while the caller still held
    them, the volume pass summed per-nonzero arrays of the whole mesh, the
    face pass kept each block's temporaries into the next, and the
    generator's index grids lived through the geometry."""
    MiB = 2.0 ** 20
    path = tmp_path / "pipe.hfm"
    write_mesh(generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40), path)
    peaks = {}
    for name, build in (
            ("read", lambda: read_mesh(path)),
            ("generate",
             lambda: generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40))):
        tracemalloc.start()
        try:
            mesh = build()
            peaks[name] = tracemalloc.get_traced_memory()[1] / MiB
        finally:
            tracemalloc.stop()
        assert mesh.n_cells == 8000
        del mesh
    assert peaks["read"] <= 6.87, peaks
    assert peaks["generate"] <= 6.87, peaks


def test_writing_the_8000_cell_pipe_peaks_within_budget(tmp_path):
    """Traced from before the call, ``write_mesh`` of ``pipe_medium``'s
    8000-cell pipe peaks at most 5.0 MiB: 4.52 measured, against 6.47
    when its FACES numbers were int64 and ``_int_rows`` indexed its table
    with a shifted copy of them."""
    mesh = generate_pipe_mesh(0.02, 0.02, 20, 10, n_theta=40)
    tracemalloc.start()
    try:
        write_mesh(mesh, tmp_path / "pipe.hfm")
        peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()
    assert read_mesh(tmp_path / "pipe.hfm").n_cells == 8000
    assert peak <= 5.0, peak


@pytest.mark.parametrize("name", ["my inlet", "", " inlet", "inlet\n",
                                  "in\tlet", "in\u00a0let", "in\u2028let"])
def test_patch_refuses_a_name_that_the_file_cannot_hold(name):
    """The native file reads a patch name up to the first whitespace, so
    ``write_mesh`` of a name that is empty or holds whitespace wrote a
    file that ``read_mesh`` refused: ``Patch`` refuses the name."""
    with pytest.raises(InvalidArgumentError, match="patch name"):
        Patch(name, "inlet", [0])


def test_patch_names_without_whitespace_round_trip(tmp_path):
    mesh = generate_channel_mesh(1.0, 0.2, 4, 2)
    names = {"inlet": "in-1", "outlet": "out_\u00e9", "wall": "#wall"}
    patches = [Patch(names[p.name], p.kind, p.face_ids, p.meta)
               for p in mesh.patches.values()]
    loops, lengths = mesh.oriented_loops()
    renamed = Mesh(2, mesh.points, loops, lengths, mesh.owner,
                   mesh.neighbor, patches)
    write_mesh(renamed, tmp_path / "mesh.hfm")
    back = read_mesh(tmp_path / "mesh.hfm")
    assert list(back.patches) == list(names.values())


def test_read_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.txt"
    path.write_text("not a mesh\n1 2 3\n")
    with pytest.raises(SchemaError):
        read_mesh(path)


def test_read_rejects_truncated_file(tmp_path):
    mesh = generate_box_mesh(3, 3, (1.0, 1.0))
    path = tmp_path / "mesh.hfm"
    write_mesh(mesh, path)
    clipped = path.read_text().splitlines()[:-4]
    path.write_text("\n".join(clipped) + "\n")
    with pytest.raises(SchemaError):
        read_mesh(path)


def line_by_line(path):
    """The native format parsed one line at a time: the reference for the
    section-at-once parse of ``read_mesh``."""
    lines = iter(open(path).read().splitlines())
    next(lines)
    dim = int(next(lines).split()[1])
    npts = int(next(lines).split()[1])
    pts = np.array([[float(c) for c in next(lines).split()]
                    for _ in range(npts)])
    faces = [[int(t) for t in next(lines).split()]
             for _ in range(int(next(lines).split()[1]))]
    patches = {}
    for _ in range(int(next(lines).split()[1])):
        name, kind, _n, meta = next(lines).split(None, 3)
        patches[name] = (kind, json.loads(meta),
                         [int(t) for t in next(lines).split()])
    return (dim, pts, [tuple(f[1:-2]) for f in faces],
            [f[-2] for f in faces], [f[-1] for f in faces], patches)


@pytest.mark.parametrize("make", [
    lambda: generate_box_mesh(3, 2, (1.0, 0.5), shear=0.2),
    lambda: generate_pipe_mesh(0.02, 0.02, 4, 3, n_theta=12),
    lambda: generate_bifurcation_mesh(0.03, 0.006, 0.003, 45.0, 6),
])
def test_read_matches_a_line_by_line_parse(tmp_path, make):
    path = tmp_path / "mesh.hfm"
    write_mesh(make(), path)
    dim, pts, loops, owner, neighbor, patches = line_by_line(path)
    mesh = read_mesh(path)
    assert mesh.dim == dim
    assert np.array_equal(mesh.points, pts)
    assert loop_list(*mesh.oriented_loops()) == loops   # written oriented: no flips
    assert mesh.owner.tolist() == owner
    assert mesh.neighbor.tolist() == neighbor
    assert {name: (p.kind, p.meta, p.face_ids.tolist())
            for name, p in mesh.patches.items()} == patches


@given(st.lists(st.lists(st.sampled_from(["7", "-1", "245", " ", "\t"]),
                         max_size=9).map("".join), max_size=6))
def test_widths_count_the_tokens_of_each_line(lines):
    """``read_mesh`` takes the FACES line widths from one byte scan; they
    are what ``str.split`` counts, on lines of any spacing."""
    assert (_widths("\n".join(lines), len(lines)).tolist()
            == [len(line.split()) for line in lines])


def write_line_by_line(mesh, path):
    """The native format written one line at a time from the oriented
    loops: the reference for the array-formatted ``write_mesh``."""
    with open(path, "w") as fh:
        fh.write("hemoflow-mesh 1\n")
        fh.write(f"DIM {mesh.dim}\n")
        fh.write(f"POINTS {len(mesh.points)}\n")
        for p in mesh.points:
            fh.write(" ".join(f"{c:.17g}" for c in p) + "\n")
        fh.write(f"FACES {mesh.n_faces}\n")
        for i, loop in enumerate(loop_list(*mesh.oriented_loops())):
            fh.write(f"{len(loop)} " + " ".join(map(str, loop)) +
                     f" {mesh.owner[i]} {mesh.neighbor[i]}\n")
        fh.write(f"PATCHES {len(mesh.patches)}\n")
        for p in mesh.patches.values():
            fh.write(f"{p.name} {p.kind} {len(p.face_ids)} {json.dumps(p.meta)}\n")
            fh.write(" ".join(map(str, p.face_ids.tolist())) + "\n")


def with_reversed_loops(make):
    """``make``'s mesh built with every other face loop reversed, so that
    the written loops are the flipped ones."""
    def made():
        mesh = make()
        loops = [f[::-1] if i % 2 else f
                 for i, f in enumerate(loop_list(*mesh.oriented_loops()))]
        mesh = Mesh(mesh.dim, mesh.points, *flat_loops(loops), mesh.owner,
                    mesh.neighbor, list(mesh.patches.values()))
        assert loop_list(*mesh.oriented_loops()) != loops
        return mesh
    return made


def pipe():
    return generate_pipe_mesh(0.02, 0.02, 4, 3, n_theta=12)


def bifurcation():
    return generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)


@pytest.mark.parametrize("make", [
    lambda: generate_box_mesh(5, 4, (1.0, 0.5), shear=0.3),
    lambda: generate_channel_mesh(1.0, 0.2, 10, 5),
    bifurcation,
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 4, n_theta=40),
    lambda: generate_pipe_mesh(0.02, 0.02, 6, 4),
    with_reversed_loops(pipe),
    with_reversed_loops(bifurcation),
], ids=["sheared_box", "channel", "bifurcation", "pipe_40", "pipe",
        "reversed_pipe", "reversed_bifurcation"])
def test_write_matches_a_line_by_line_write(tmp_path, make):
    mesh = make()
    write_mesh(mesh, tmp_path / "mesh.hfm")
    write_line_by_line(mesh, tmp_path / "reference.hfm")
    written = (tmp_path / "mesh.hfm").read_bytes()
    assert written == (tmp_path / "reference.hfm").read_bytes()
    # the loops are written oriented, read back as written, and
    # write -> read -> write reproduces the bytes
    back = read_mesh(tmp_path / "mesh.hfm")
    assert (loop_list(*back.oriented_loops())
            == line_by_line(tmp_path / "mesh.hfm")[2])
    write_mesh(back, tmp_path / "again.hfm")
    assert (tmp_path / "again.hfm").read_bytes() == written


@pytest.mark.parametrize("make", [pipe, bifurcation],
                         ids=["pipe", "bifurcation"])
def test_reversed_loops_are_stored_oriented(make):
    """A mesh built from loops that run either way round stores, and
    returns, the same oriented loops as one built from oriented loops."""
    want = make()
    got = with_reversed_loops(make)()
    for a, b in zip(got.oriented_loops(), want.oriented_loops()):
        assert np.array_equal(a, b)


BIFURCATION_AXIS = [-np.cos(np.radians(45.0)), -np.sin(np.radians(45.0))]


@pytest.mark.parametrize("make, old_meta", [
    (lambda: generate_channel_mesh(0.1, 0.01, 12, 5),
     lambda meta: {**meta, "kind2d": True}),
    (bifurcation, lambda meta: {"axis": BIFURCATION_AXIS, **meta,
                                "kind2d": True}),
    (pipe, lambda meta: {**meta, "axis": [0.0, 0.0, 1.0]}),
], ids=["channel", "bifurcation", "pipe"])
def test_files_with_the_removed_inlet_keys_give_the_same_inflow(
        tmp_path, make, old_meta):
    """Mesh files whose inlet meta still holds the unread ``axis`` and
    ``kind2d`` keys, as earlier versions wrote them, load and give the
    inflow of the mesh as generated, bit for bit. In 3D, where geometry
    from a loop read the other way round moves by round-off, the
    reference is the file as written without the keys."""
    mesh = make()
    path = tmp_path / "mesh.hfm"
    write_mesh(mesh, path)
    if mesh.dim == 3:
        mesh = read_mesh(path)
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("inlet "))
    *head, meta = lines[at].split(None, 3)
    lines[at] = " ".join([*head, json.dumps(old_meta(json.loads(meta)))])
    path.write_text("\n".join(lines) + "\n")
    back = read_mesh(path)
    assert back.patches["inlet"].meta == old_meta(mesh.patches["inlet"].meta)
    for profile in INFLOW_PROFILES:
        bc = InflowBC(1e-6, profile)
        u, influx = bc.shape_velocities(back, back.patches["inlet"])
        u0, influx0 = bc.shape_velocities(mesh, mesh.patches["inlet"])
        assert np.array_equal(u, u0) and influx == influx0, profile


@pytest.mark.parametrize("make, match", [
    (lambda: generate_box_mesh(2, 2, (np.inf, 1.0)), "point 0 is not finite"),
    (lambda: generate_box_mesh(2, 2, (1.0, 1.0), shear=np.nan),
     "point 0 is not finite"),
    (lambda: generate_pipe_mesh(np.nan, 0.02, 2, 2), "point 0 is not finite"),
    (lambda: generate_box_mesh(2, 2, (1e300, 1e300)),
     "cell 0 has a volume that is not positive and finite: inf"),
], ids=["box-length-inf", "box-shear-nan", "pipe-length-nan",
        "overflowing-volume"])
def test_non_finite_geometry_is_refused(make, match):
    """A mesh has finite points and positive, finite cell volumes; NaN
    fails every comparison, so each check passes only where it holds."""
    with pytest.raises(InvalidArgumentError, match=match):
        make()


def test_read_refuses_a_non_finite_point(tmp_path):
    """``Mesh`` refuses the point, and ``read_mesh`` reports it as a
    SchemaError of the file."""
    path = tmp_path / "mesh.hfm"
    write_mesh(generate_box_mesh(2, 2, (1.0, 1.0)), path)
    lines = path.read_text().splitlines()
    lines[section_line(lines, "POINTS") + 5] = "nan 0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="point 4 is not finite"):
        read_mesh(path)


def section_line(lines, name):
    return next(i for i, line in enumerate(lines) if line.startswith(name))


def edit_line(name, offset, change):
    """An edit of the tokens of the line ``offset`` lines below the header
    of section ``name``."""
    def edit(lines):
        i = section_line(lines, name) + offset
        lines[i] = " ".join(change(lines[i].split()))
        return lines
    return edit


def cut_after(name, keep):
    """An edit that keeps ``keep`` lines after a section's header."""
    return lambda lines: lines[:section_line(lines, name) + 1 + keep]


def in_2d_box(edit):
    """``edit`` made to the file of a 2D box mesh instead."""
    def edited(_):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "box.hfm"
            write_mesh(generate_box_mesh(3, 2, (1.0, 0.5)), path)
            return edit(path.read_text().splitlines())
    return edited


@pytest.mark.parametrize("edit, match", [
    (lambda lines: ["hemoflow-mesh 2"] + lines[1:], "not a hemoflow-mesh"),
    (lambda lines: lines[:1], "truncated"),
    (edit_line("DIM", 0, lambda t: ["DIMENSION", "3"]),
     "expected DIM section"),
    (edit_line("POINTS", 0, lambda t: ["NODES"] + t[1:]),
     "expected POINTS section"),
    (edit_line("FACES", 0, lambda t: ["CELLS"] + t[1:]),
     "expected FACES section"),
    (edit_line("PATCHES", 0, lambda t: ["GROUPS"] + t[1:]),
     "expected PATCHES section"),
    (edit_line("FACES", 1, lambda t: t + ["7"]), "malformed FACES line"),
    (edit_line("FACES", 1, lambda t: t[:-1]), "malformed FACES line"),
    (edit_line("FACES", 1, lambda t: ["x"] + t[1:]), "malformed FACES"),
    (edit_line("PATCHES", 2, lambda t: t[:-1]), "face count mismatch"),
    (cut_after("POINTS", 5), "truncated"),
    (cut_after("FACES", 5), "truncated"),
    (cut_after("PATCHES", 1), "truncated"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:1] + ["245"] + t[2:]),
                 r"FACES section: face 0: vertex id 245 outside \[0, 245\)",
                 id="vertex-id-n_points"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:1] + ["-1"] + t[2:]),
                 r"FACES section: face 0: vertex id -1 outside \[0, 245\)",
                 id="vertex-id-minus-1"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:-2] + ["-1", t[-1]]),
                 r"FACES section: face 0: owner outside \[0, 192\)",
                 id="owner-minus-1"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:-1] + ["-2"]),
                 "FACES section: face 0: neighbor is neither -1 nor another cell",
                 id="neighbor-minus-2"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:-1] + [t[-2]]),
                 "FACES section: face 0: neighbor is neither -1 nor another cell",
                 id="neighbor-is-owner"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:-1] + ["1920"]),
                 "FACES section: face 0: neighbor is neither -1 nor another cell",
                 id="neighbor-past-the-last-cell"),
    pytest.param(edit_line("FACES", 1, lambda t: ["2"] + t[1:3] + t[-2:]),
                 "FACES section: face 0: a 3D face needs at least 3 vertices",
                 id="3d-face-of-2-vertices"),
    pytest.param(in_2d_box(edit_line("FACES", 1, lambda t: ["3"] + t[1:3] + t[1:2] + t[-2:])),
                 "FACES section: face 0: a 2D face needs exactly 2 vertices",
                 id="2d-face-of-3-vertices"),
])
def test_read_rejects_malformed_files(tmp_path, edit, match):
    path = tmp_path / "mesh.hfm"
    write_mesh(generate_pipe_mesh(0.02, 0.01, 4, 3), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(SchemaError, match=match):
        read_mesh(path)


def patch_line(offset, change):
    """An edit of the tokens of the ``offset``-th patch's header line."""
    return edit_line("PATCHES", 1 + 2 * offset, change)


def drop_last_face_of_first_patch(lines):
    lines = patch_line(0, lambda t: t[:2] + [str(int(t[2]) - 1)] + t[3:])(lines)
    return edit_line("PATCHES", 2, lambda t: t[:-1])(lines)


@pytest.mark.parametrize("edit, match", [
    pytest.param(patch_line(2, lambda t: [t[0], "vein"] + t[2:]),
                 "patch wall: unknown patch kind 'vein'", id="unknown-kind"),
    pytest.param(patch_line(1, lambda t: ["inlet"] + t[1:]),
                 "duplicate patch names", id="duplicate-names"),
    pytest.param(drop_last_face_of_first_patch,
                 "patches do not partition the boundary faces",
                 id="boundary-not-partitioned"),
    pytest.param(edit_line("FACES", 1, lambda t: t[:3] + ["5"] + t[4:]),
                 "cell 0 violates Gauss closure", id="open-cell"),
    pytest.param(patch_line(1, lambda t: t[:3] + ["{"]),
                 "patch outlet: Expecting property name", id="bad-meta"),
])
def test_read_reports_what_mesh_refuses_as_schema_error(tmp_path, edit,
                                                        match):
    path = tmp_path / "mesh.hfm"
    write_mesh(generate_pipe_mesh(0.02, 0.01, 4, 3), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(SchemaError, match=match):
        read_mesh(path)


def test_vtk_export_structure(tmp_path):
    mesh = generate_pipe_mesh(0.02, 0.01, 4, 3)
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, path, cell_data={"p": np.arange(mesh.n_cells, dtype=float)})
    text = path.read_text()
    assert text.startswith("# vtk DataFile Version")
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {len(mesh.points)}" in text
    assert "CELL_DATA" in text and "SCALARS p" in text
    # each cell's face stream: its faces in ascending order, each as nv
    # and its loop oriented out of the owner
    lines = text.splitlines()
    at = section_line(lines, "CELLS")
    assert lines[at].split()[1] == str(mesh.n_cells)
    loops = loop_list(*mesh.oriented_loops())
    for c, line in enumerate(lines[at + 1:at + 1 + mesh.n_cells]):
        faces = np.flatnonzero((mesh.owner == c) | (mesh.neighbor == c))
        stream = [len(faces)]
        for f in faces:
            stream += [len(loops[f]), *loops[f]]
        assert list(map(int, line.split())) == [len(stream)] + stream
    assert sum(len(line.split()) for line in lines[at + 1:at + 1 + mesh.n_cells]) \
        == int(lines[at].split()[2])


def test_vtk_export_of_a_2d_mesh(tmp_path):
    """Every VTK polygon of the bifurcation is a closed loop over its
    cell's faces, and its shoelace area is the cell's volume."""
    mesh = generate_bifurcation_mesh(0.024, 0.004, 0.002, 45.0, resolution=8)
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, path)
    lines = path.read_text().splitlines()
    at = section_line(lines, "CELLS")
    assert lines[at].split()[1] == str(mesh.n_cells)
    loops, _ = mesh.oriented_loops()
    edges = loops.reshape(-1, 2)
    for c, line in enumerate(lines[at + 1:at + 1 + mesh.n_cells]):
        n, *loop = map(int, line.split())
        assert n == len(loop) == len(set(loop))
        sides = {frozenset(e) for e in zip(loop, loop[1:] + loop[:1])}
        faces = np.flatnonzero((mesh.owner == c) | (mesh.neighbor == c))
        assert sides == {frozenset(e.tolist()) for e in edges[faces]}
        # the loop starts along the edge of the cell's lowest face
        assert loop[:2] == edges[faces[0]].tolist()
        x, y = mesh.points[loop].T
        area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
        assert area == pytest.approx(mesh.cell_volume[c], rel=1e-12)
    at = section_line(lines, "CELL_TYPES")
    assert lines[at + 1:at + 1 + mesh.n_cells] == ["7"] * mesh.n_cells


def test_vtk_numbers_are_formatted_as_per_line_format_strings(tmp_path):
    """POINTS and CELL_DATA read as the former one-f-string-per-line
    export wrote them: %.12g, zero-padded to 3 components."""
    mesh = generate_box_mesh(4, 3, (1.0, 0.5), shear=0.2)
    rng = np.random.default_rng(3)
    p = rng.standard_normal(mesh.n_cells) * 1e3
    p[:4] = [0.0, -0.0, 1e-300, 1e300]
    u = rng.standard_normal((mesh.n_cells, 2))
    path = tmp_path / "mesh.vtk"
    write_vtk(mesh, path, cell_data={"p": p, "u": u})
    lines = path.read_text().splitlines()

    def rows(values):
        return [" ".join(f"{c:.12g}" for c in list(row) + [0.0] * (3 - len(row)))
                for row in values]

    at = section_line(lines, "POINTS")
    assert lines[at + 1:at + 1 + len(mesh.points)] == rows(mesh.points)
    at = section_line(lines, "SCALARS p") + 2
    assert lines[at:at + mesh.n_cells] == [f"{v:.12g}" for v in p]
    at = section_line(lines, "VECTORS u") + 1
    assert lines[at:at + mesh.n_cells] == rows(u)
