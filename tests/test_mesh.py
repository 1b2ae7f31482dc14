import json

import numpy as np
import pytest

from decgauge import builders, mesh
from decgauge.mesh import MeshError, SimplicialComplex


def dd_is_zero_in_integers(cx):
    for k in range(2, cx.dim + 1):
        prod = (cx.boundary_matrices[k - 1] @ cx.boundary_matrices[k]).toarray()
        assert prod.dtype.kind == "i"
        assert np.all(prod == 0)


def test_tri1_basics(tri1):
    cx = tri1.complex
    assert cx.dim == 2
    assert cx.n_simplices(0) == 3
    assert cx.n_simplices(1) == 3
    assert cx.n_simplices(2) == 1
    assert len(cx.boundary_facets()) == 3
    dd_is_zero_in_integers(cx)


def test_repeated_face_rejected():
    with pytest.raises(MeshError, match="repeated top cell"):
        SimplicialComplex(3, [(0, 1, 2), (2, 1, 0)])


def test_inconsistent_orientation_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="orient"):
        SimplicialComplex(4, [(0, 1, 2), (0, 3, 2)], coordinates=coords)


def test_nonmanifold_rejected():
    coords = np.zeros((5, 2))
    with pytest.raises(MeshError, match="non-manifold"):
        SimplicialComplex(5, [(0, 1, 2), (1, 0, 3), (0, 1, 4)], coordinates=None)


def test_ann8_structure(ann8):
    cx = ann8.complex
    assert cx.n_simplices(2) == 8
    assert cx.n_simplices(1) == 16
    assert cx.n_simplices(0) == 8
    dd_is_zero_in_integers(cx)
    assert set(ann8.face_labels) == {"inner", "outer"}
    assert len(ann8.face_labels["inner"]) == 4
    assert len(ann8.face_labels["outer"]) == 4


def test_unlabeled_boundary_rejected(ann8):
    labels = {"outer": ann8.face_labels["outer"]}
    with pytest.raises(MeshError, match="unlabeled"):
        mesh.RegionMesh(ann8.complex, face_labels=labels)


def test_boundary_complex_tri1(tri1):
    bd = mesh.boundary_complex(tri1)
    assert bd.complex.dim == 1
    assert bd.complex.n_simplices(1) == 3
    assert bd.is_closed()


def test_boundary_complex_ann8_two_loops(ann8):
    bd = mesh.boundary_complex(ann8)
    assert bd.is_closed()
    assert bd.complex.n_components() == 2


def test_boundary_complex_tet_is_sphere(tet):
    bd = mesh.boundary_complex(tet)
    assert bd.complex.dim == 2
    assert bd.complex.n_simplices(2) == 4
    assert bd.is_closed()


def test_extract_face_partitions_boundary(ann8):
    bd = ann8.boundary
    seen = set()
    for label in ann8.face_labels:
        face = mesh.extract_face(bd, label)
        ids = {int(i) for i in face.simplex_maps[1]}
        assert not (seen & ids)
        seen |= ids
    assert seen == set(range(bd.complex.n_simplices(1)))


def test_extract_face_outer_is_one_loop(ann8):
    face = mesh.extract_face(ann8.boundary, "outer")
    assert face.complex.n_components() == 1
    assert face.is_closed()


def test_extract_face_open_segment(square2):
    bd = square2.boundary
    south = mesh.extract_face(bd, "south")
    assert south.complex.n_components() == 1
    ends = south.complex.boundary_facets()
    assert len(ends) == 2  # two corner vertices


def test_extract_face_unknown_label(ann8):
    with pytest.raises(MeshError, match="unknown"):
        mesh.extract_face(ann8.boundary, "nope")


def test_corner_strata_are_label_intersections(square2):
    # four sides meet pairwise in the four corner vertices
    assert len(square2.strata) == 4
    for (a, b), verts in square2.strata.items():
        assert len(verts) == 1


def test_glue_two_squares_counts(square2):
    two = mesh.disjoint_union(square2, square2)
    cx = two.complex
    east = sorted(
        {int(v) for f in two.face_labels["m0.east"] for v in cx.simplices[1][f]},
        key=lambda v: cx.coordinates[v][1],
    )
    west = sorted(
        {int(v) for f in two.face_labels["m1.west"] for v in cx.simplices[1][f]},
        key=lambda v: cx.coordinates[v][1],
    )
    glued = mesh.glue(two, "m0.east", "m1.west", dict(zip(east, west)))
    assert glued.complex.n_simplices(2) == 2 * square2.complex.n_simplices(2)
    nv = 2 * square2.complex.n_simplices(0) - len(east)
    assert glued.complex.n_simplices(0) == nv
    dd_is_zero_in_integers(glued.complex)


def test_glue_strip_to_annulus_betti(strip4):
    from decgauge.hodge import betti_oracle

    glued = mesh.glue(strip4, "west", "east", builders.strip_end_matching(strip4))
    assert betti_oracle(glued, 1) == 1
    dd_is_zero_in_integers(glued.complex)


def test_glue_boundary_facet_bookkeeping(strip4):
    glued = mesh.glue(strip4, "west", "east", builders.strip_end_matching(strip4))
    info = glued.glue_info
    n = strip4.complex.dim
    expected = set()
    for lab, facets in strip4.face_labels.items():
        if lab in ("west", "east"):
            continue
        expected |= {int(info.simplex_maps[n - 1][f]) for f in facets}
    assert expected == {int(i) for i in glued.complex.boundary_facets()}


def test_glue_self_rejected(strip4):
    with pytest.raises(MeshError, match="itself"):
        mesh.glue(strip4, "west", "west", {})


def test_glue_orientation_mismatch_rejected(strip4):
    matching = builders.strip_end_matching(strip4)
    flipped = dict(zip(matching.keys(), reversed(list(matching.values()))))
    with pytest.raises(MeshError, match="orientation"):
        mesh.glue(strip4, "west", "east", flipped)


def test_glue_non_isometric_rejected():
    st = builders.strip(4, height=1)
    tall = mesh.RegionMesh(
        st.complex,
        face_labels=st.face_labels,
        edge_lengths=st.edge_lengths * np.linspace(1.0, 2.0, len(st.edge_lengths)),
    )
    with pytest.raises(MeshError, match="differ in length"):
        mesh.glue(tall, "west", "east", builders.strip_end_matching(st))


def test_glue_too_coarse_rejected():
    st = builders.strip(2)
    with pytest.raises(MeshError, match="refine|collaps"):
        mesh.glue(st, "west", "east", builders.strip_end_matching(st))


def test_disjoint_union_labels(two_annuli):
    assert any(lab.startswith("m0.") for lab in two_annuli.face_labels)
    assert any(lab.startswith("m1.") for lab in two_annuli.face_labels)
    assert two_annuli.complex.n_components() == 2


def test_off_round_trip(tmp_path, disk6):
    path = tmp_path / "disk6.off"
    disk6.save_off(path)
    sidecar = {}
    cx = disk6.complex
    for lab, facets in disk6.face_labels.items():
        for f in facets:
            key = ",".join(str(v) for v in cx.simplices[1][f])
            sidecar[key] = lab
    labels_path = tmp_path / "labels.json"
    labels_path.write_text(json.dumps(sidecar))
    again = mesh.load_off(path, labels_path)
    assert again.complex.n_simplices(2) == cx.n_simplices(2)
    assert np.isclose(again.total_volume(), disk6.total_volume())


def test_off_ann8_with_sidecar(tmp_path, ann8):
    path = tmp_path / "ann8.off"
    ann8.save_off(path)
    sidecar = {}
    cx = ann8.complex
    for lab, facets in ann8.face_labels.items():
        for f in facets:
            sidecar[",".join(str(v) for v in cx.simplices[1][f])] = lab
    labels_path = tmp_path / "ann8_labels.json"
    labels_path.write_text(json.dumps(sidecar))
    region = mesh.load_off(path, labels_path)
    assert set(region.face_labels) == {"inner", "outer"}
    dd_is_zero_in_integers(region.complex)


def test_off_single_triangle(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    labels = {"0,1": "rim", "1,2": "rim", "0,2": "rim"}
    region = mesh.load_off(path, labels)
    assert region.complex.n_simplices(1) == 3
    assert len(region.complex.boundary_facets()) == 3


def test_off_repeated_face_rejected(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 0\n")
    with pytest.raises(MeshError, match="repeated top cell"):
        mesh.load_off(path, {})


def test_off_garbage_rejected(tmp_path):
    path = tmp_path / "junk.off"
    path.write_text("not an off file\n")
    with pytest.raises(MeshError, match="OFF"):
        mesh.load_off(path, {})


def test_dual_volumes_positive_and_partition(disk16):
    for k in range(3):
        assert np.all(disk16.dual_volumes(k) > 0)
    # vertex dual cells partition the total area
    assert np.isclose(disk16.dual_volumes(0).sum(), disk16.total_volume())


def test_glued_mesh_metric_from_lengths(strip4):
    glued = mesh.glue(strip4, "west", "east", builders.strip_end_matching(strip4))
    assert np.isclose(glued.total_volume(), strip4.total_volume())
    assert np.all(glued.dual_volumes(1) > 0)


def test_glued_mesh_off_export(tmp_path, strip4):
    glued = mesh.glue(strip4, "west", "east", builders.strip_end_matching(strip4))
    path = tmp_path / "glued.off"
    glued.save_off(path)
    text = path.read_text()
    assert text.startswith("OFF")
    assert f"{glued.complex.n_vertices} {glued.complex.n_simplices(2)}" in text


def test_hypersurface_reversal_shares_metric(ann8):
    bd = ann8.boundary
    rev = bd.reversed()
    assert rev.orientation_sign == -bd.orientation_sign
    values = np.ones(bd.complex.n_simplices(1))
    assert rev.integral(values) == -bd.integral(values)


def _unit_square_glued_across():
    # Each cell of the 1 x 1 square holds a matched west/east vertex pair,
    # so the quotient collapses it.
    sq = builders.square(1)
    return mesh.glue(sq, "west", "east", builders.strip_end_matching(sq))


def _sidecar_with_unknown_facet(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    return mesh.load_off(path, {"0,1": "rim", "0,5": "rim"})


def _triangle(coordinates):
    return mesh.RegionMesh(SimplicialComplex(3, [(0, 1, 2)], coordinates=coordinates))


@pytest.mark.parametrize("build, message", [
    (lambda tmp: SimplicialComplex(3, [(0, 0, 1)]), r"degenerate cell \(0, 0, 1\)"),
    (lambda tmp: SimplicialComplex(3, [(0, 1, 3)]),
     r"cell \(0, 1, 3\) references unknown vertex"),
    (lambda tmp: SimplicialComplex(4, [(0, 1, 2), (1, 2, 3, 0)]), "cells of mixed dimension"),
    (lambda tmp: SimplicialComplex(3, []), "complex needs at least one top cell"),
    (lambda tmp: SimplicialComplex(3, [(0, 1, 2)], coordinates=np.zeros((2, 2))),
     "coordinate count does not match vertex count"),
    (lambda tmp: mesh.glue(builders.square(2), "south", "east", {}), "faces share vertices"),
    (lambda tmp: mesh.glue(builders.strip(4), "west", "east", {0: 4, 5: 4}),
     "matching is not a bijection"),
    (lambda tmp: mesh.glue(builders.square(2), "west", "east", {0: 2, 3: 8, 6: 5}),
     "matching does not map facets onto facets"),
    (lambda tmp: _unit_square_glued_across(), r"degenerate cell \(0, 0, 1\)"),
    (_sidecar_with_unknown_facet, "label sidecar names unknown facet '0,5'"),
    (lambda tmp: _triangle([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
     "non-positive dual volume at degree 0"),
    (lambda tmp: _triangle([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), "non-positive edge length"),
    (lambda tmp: mesh.RegionMesh(SimplicialComplex(3, [(0, 1, 2)]), edge_lengths=[1.0, 1.0]),
     "edge length array has wrong shape"),
    (lambda tmp: mesh.RegionMesh(SimplicialComplex(3, [(0, 1, 2)])),
     "need coordinates or edge lengths"),
    (lambda tmp: mesh.glue(builders.strip(4, 2), "west", "south", {}),
     "not combinatorially isomorphic"),
    (lambda tmp: mesh.disjoint_union(builders.square(2), builders.cube(1)),
     "regions of different dimension"),
], ids=["degenerate cell", "unknown vertex", "mixed dimension", "no cells",
        "coordinate count", "glue shared vertices", "glue not bijective",
        "glue facets not onto facets", "glue collapsed simplex", "sidecar unknown facet",
        "collinear triangle", "coincident vertices", "edge length shape",
        "no metric", "glue facet counts", "union of dimensions"])
def test_mesh_error_paths(build, message, tmp_path):
    with pytest.raises(MeshError, match=message):
        build(tmp_path)


@pytest.mark.parametrize("spec", [f"solid_torus:K={k}" for k in range(3, 13)]
                         + [f"cube:N={n}" for n in range(1, 4)])
def test_builtin_3d_cells_positively_oriented(spec):
    # Each top cell, as oriented_cells() lists it, spans its tetrahedron
    # with a positive determinant of edge vectors from its first vertex.
    cx = builders.from_spec(spec).complex
    p = cx.coordinates[cx.oriented_cells()]
    assert np.all(np.linalg.det(p[:, 1:] - p[:, :1]) > 0)
