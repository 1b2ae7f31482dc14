"""Gluing and the axiom suite modulo gauge, against the dense full-space
oracles and the r-wide gluing route: dimensions, a catalogue of seam faults,
reproducibility of A7, and the absence of n1-wide dense systems on the
verdict paths."""

import functools
import json

import numpy as np
import pytest

from decgauge import axioms, builders, cli, dynamics, hodge, mesh, subspaces, tolerances
from decgauge.csr import CSR
from dense_oracles import (dense_equalizer, field_equation_matrix, full_basis,
                           r_wide_gluing, seam_by_edge)
from test_harmonic_reduction import torus_seam


def _two_squares():
    sq = builders.square(2)
    two = mesh.disjoint_union(sq, sq)
    cx = two.complex

    def side(label):
        verts = {int(v) for f in two.face_labels[label] for v in cx.simplices[1][f]}
        return sorted(verts, key=lambda v: cx.coordinates[v][1])

    return two, "m0.east", "m1.west", dict(zip(side("m0.east"), side("m1.west")))


def _strip(n, height=1):
    st = builders.strip(n, height)
    return st, "west", "east", builders.strip_end_matching(st)


GLUINGS = {"strip4": lambda: _strip(4), "strip6x2": lambda: _strip(6, 2),
           "strip3x3": lambda: _strip(3, 3), "two_squares": _two_squares}


@pytest.mark.parametrize("name", sorted(GLUINGS))
def test_full_dims_and_spaces_match_dense_oracle(name):
    m, la, lb, matching = GLUINGS[name]()
    glued = mesh.glue(m, la, lb, matching)
    rep = dynamics.gluing_check(glued)
    glued_full = full_basis(dynamics.solution_space(glued))
    equalizer = dense_equalizer(m, la, matching, glued)
    assert rep["passed"]
    assert rep["dims"]["glued_solutions"] == glued_full.dim
    assert rep["dims"]["equalizer"] == equalizer.dim == glued_full.dim
    assert rep["dims"]["cut_solutions"] == full_basis(dynamics.solution_space(m)).dim
    assert rep["containment_residual"] <= 1e-13
    assert rep["trace_gauge_leak"] == 0.0 and rep["trace_row_leak"] == 0.0
    assert rep["action_residual"] <= 1e-13
    assert max(rep["operator_residual"], rep["flux_row_residual"]) <= 1e-15
    pulled = subspaces.from_span(glued.glue_info.pullback[0] @ glued_full.columns,
                                 gram=m.star_diagonal(1))
    assert subspaces.principal_angles(pulled, equalizer).max() <= 1e-10


def _cube(n):
    c = builders.cube(n)
    return c, "west", "east", builders.strip_end_matching(c)


def _two_cubes():
    c = builders.cube(2)
    two = mesh.disjoint_union(c, c)
    cx = two.complex

    def side(label):  # face vertices in (y, z) order
        verts = np.unique(cx.simplices[2][sorted(two.face_labels[label])])
        return verts[np.lexsort(cx.coordinates[verts, 1:].T[::-1])].tolist()

    return two, "m0.east", "m1.west", dict(zip(side("m0.east"), side("m1.west")))


SEAMS = {**GLUINGS, "cube3": lambda: _cube(3), "torus_seam3": lambda: torus_seam(3)}


@pytest.mark.parametrize("name", sorted(SEAMS))
def test_glue_records_each_matched_pair_once(name):
    # the seam the gluing check reads equals the per-edge extraction of the
    # dense oracle; a flux row where the glued edge is interior is where the
    # matched edge lies on no other face of the cut region
    m, la, lb, matching = SEAMS[name]()
    glued = mesh.glue(m, la, lb, matching)
    info, seam = glued.glue_info, seam_by_edge(m, la, matching, glued)
    assert info.parent is m and info.labels == (la, lb)
    assert info.edge_a.tolist() == sorted(seam)
    assert list(zip(info.edge_b.tolist(), info.edge_sign.tolist(),
                    info.interior.tolist())) == [seam[a] for a in sorted(seam)]
    others = [f for lab, fs in m.face_labels.items() if lab != la for f in fs]
    assert np.array_equal(info.interior,
                          ~m.complex.facet_closure(others, 1)[info.edge_a])


# (build, matched edges, glued solutions).  A face of an n x n grid has
# 2n(n+1) axis edges and n^2 diagonals; after the first gluing into a ring,
# the south face has n fewer.  The second seam of T^2 x I is an annulus with
# corners and carries a class of H^1.
CUBE_GLUINGS = {"cube3": (lambda: _cube(3), 33, 120),
                "cube4": (lambda: _cube(4), 56, 228),
                "two_cubes": (_two_cubes, 16, 123),
                "torus_seam3": (lambda: torus_seam(3), 30, 73),
                "torus_seam4": (lambda: torus_seam(4), 52, 145)}


@pytest.mark.parametrize("name", sorted(CUBE_GLUINGS))
def test_cube_gluing_matches_dense_oracle(name):
    # The perimeter edges of a 3D face stay on the boundary after gluing:
    # their traces are matched, their fluxes are not.
    build, matched, dim = CUBE_GLUINGS[name]
    m, la, lb, matching = build()
    glued = mesh.glue(m, la, lb, matching)
    rep = dynamics.gluing_check(glued)
    glued_full = full_basis(dynamics.solution_space(glued))
    equalizer = dense_equalizer(m, la, matching, glued)
    assert rep["passed"]
    assert rep["dims"]["glued_solutions"] == glued_full.dim == equalizer.dim == dim
    assert rep["dims"]["equalizer"] == equalizer.dim
    assert rep["seam_rows"]["trace"] == rep["seam_rows"]["merged_edges"] == matched
    assert rep["containment_residual"] <= 1e-13
    pulled = subspaces.from_span(glued.glue_info.pullback[0] @ glued_full.columns,
                                 gram=m.star_diagonal(1))
    assert subspaces.principal_angles(pulled, equalizer).max() <= 1e-10


ALL_GLUINGS = {**GLUINGS, **{name: build for name, (build, _, _) in CUBE_GLUINGS.items()}}


@pytest.mark.parametrize("name", sorted(ALL_GLUINGS))
def test_probe_verdict_matches_the_r_wide_oracle(name):
    # the probe identities give the equalizer's dimension as the glued exact
    # count; the r-wide route finds it as a numerical rank on the cut region
    m, la, lb, matching = ALL_GLUINGS[name]()
    rep = dynamics.gluing_check(mesh.glue(m, la, lb, matching))
    oracle = r_wide_gluing(mesh.glue(m, la, lb, matching))
    assert rep["passed"] is oracle["passed"] is True
    assert (rep["dims"]["glued_solutions"] == rep["dims"]["equalizer"]
            == oracle["dims"]["equalizer"] == oracle["dims"]["glued_solutions"])
    assert rep["dims"]["cut_solutions"] == oracle["dims"]["cut_solutions"]
    assert oracle["dims"]["pulled_gauge_fixed"] == oracle["dims"]["equalizer_gauge_fixed"]
    assert rep["probes"] == {"count": dynamics.PROBES, "seed": 0}
    assert rep["extension_solve"]["pivot_ratio"] is None or (
        rep["extension_solve"]["pivot_ratio"] > tolerances.RANK_REL)


def test_torus_times_interval_verifies_from_cube6():
    # T^2 x I glued from cube:N=6: its singular Hodge blocks are grounded
    # at their own zero pivots, so no harmonic basis waits on another's
    m, la, lb, matching = torus_seam(6)
    glued = mesh.glue(m, la, lb, matching)
    assert dynamics.gluing_check(glued)["passed"]
    assert dynamics.verify_lagrangian(dynamics.solution_space(glued))["lagrangian"]
    for basis, oracle in ((hodge.harmonic_neumann_basis, hodge.betti_oracle),
                          (hodge.harmonic_dirichlet_basis, hodge.relative_betti_oracle)):
        dims = [basis(glued, k).dim for k in range(4)]
        assert dims == [oracle(glued, k) for k in range(4)]
    assert dims == [0, 1, 2, 1]


def test_glue_cube_through_the_cli(tmp_path):
    out = tmp_path / "glue.json"
    code = cli.main(["glue", "--mesh", "cube:N=3", "--faces", "west", "east",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    dims = json.loads(out.read_text())["detail"]["dims"]
    oracle = r_wide_gluing(mesh.glue(*_cube(3)))["dims"]
    assert dims["glued_solutions"] == dims["equalizer"] == oracle["equalizer"] == 120
    assert dims["cut_solutions"] == oracle["cut_solutions"]


def test_a11_passes_with_a_cube_fixture(disk8):
    cube = builders.cube(3)
    fixture = (cube, "west", "east", builders.strip_end_matching(cube))
    axioms = cli.verify_axioms(disk8, glue_fixture=fixture)
    assert all(row["passed"] for row in axioms.values())
    assert axioms["A11"]["dims"]["glued_solutions"] == 120


def _flipped_rows(which):
    """``_matched_rows`` with the sign of the matched ``b`` edge flipped in
    the trace rows (``a + s b``) or in the flux rows (``K_a - s K_b``, as
    many rows as before)."""
    original = dynamics._matched_rows

    def rows(info, curvature):
        trace, flux = original(info, curvature)
        if which == "flux":  # K_a - s K_b at the interior seam edges
            return trace, trace[info.interior] @ curvature
        on_a = np.isin(trace.indices, info.edge_a)
        return CSR(np.where(on_a, trace.data, -trace.data), trace.row, trace.indices,
                   trace.shape), flux

    return rows


@pytest.mark.parametrize("which", ["trace", "flux"])
@pytest.mark.parametrize("name", sorted(GLUINGS))
def test_flipped_sign_fails_gluing_check(name, which, monkeypatch):
    m, la, lb, matching = GLUINGS[name]()
    monkeypatch.setattr(dynamics, "_matched_rows", _flipped_rows(which))
    rep = dynamics.gluing_check(mesh.glue(m, la, lb, matching))
    assert not rep["passed"]
    if which == "trace":
        # matched traces may differ by a gauge: only d P_0 exposes the sign
        assert rep["trace_gauge_leak"] > 0
    else:
        assert rep["containment_residual"] > 1e-3


def _dropped_flux_row(info, curvature):
    """``_matched_rows`` less its first flux row."""
    trace, flux = _MATCHED_ROWS(info, curvature)
    return trace, flux[1:]


def _scaled_glued_row(region):
    """The curvature adjoint, one row of a glued region's ``K'`` (its first
    seam edge) scaled by 1 + 1e-6."""
    k, k_abs = _CURVATURE(region)
    if region.glue_info is None:
        return k, k_abs
    row = region.glue_info.simplex_maps[1][region.glue_info.edge_a[0]]
    data = k.data.copy()
    data[k.indptr[row]:k.indptr[row + 1]] *= 1 + 1e-6
    return CSR.from_rows(data, k.indices, k.indptr, k.shape), k_abs


_MATCHED_ROWS, _CURVATURE = dynamics._matched_rows, dynamics._curvature_adjoint
FAULTS = {"trace": ("_matched_rows", _flipped_rows("trace")),
          "flux": ("_matched_rows", _flipped_rows("flux")),
          "dropped_flux_row": ("_matched_rows", _dropped_flux_row),
          "operator_row": ("_curvature_adjoint", _scaled_glued_row),
          "seam_sign": None}
FAULT_GLUINGS = {"strip4": lambda: _strip(4), "two_squares": _two_squares,
                 "cube3": lambda: _cube(3)}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", sorted(FAULT_GLUINGS))
def test_seam_faults_fail_gluing_check_glue_and_a11(name, fault, monkeypatch, tmp_path):
    # Each fault fails the check, the glue command (exit 1) and A11 under
    # every probe seed 0-19, while every other axiom passes.  The seam sign
    # is flipped in the gluing's record before its pullback is first built.
    m, la, lb, matching = FAULT_GLUINGS[name]()
    glued = mesh.glue(m, la, lb, matching)
    if FAULTS[fault] is None:
        glued.glue_info.simplex_signs[1][glued.glue_info.edge_b[0]] *= -1
    else:
        monkeypatch.setattr(dynamics, *FAULTS[fault])
    monkeypatch.setattr(cli, "_load_mesh", lambda config: m)
    monkeypatch.setattr(cli, "glue", lambda *args: glued)
    monkeypatch.setattr(axioms, "glue", lambda *args: glued)
    (tmp_path / "m.json").write_text(json.dumps({str(k): v for k, v in matching.items()}))
    argv = ["glue", "--mesh", name, "--faces", la, lb, "--matching",
            str(tmp_path / "m.json"), "--out", str(tmp_path / "glue.json")]
    region = builders.square(2)
    for seed in range(20):
        rep = dynamics.gluing_check(glued, seed=seed)
        assert not rep["passed"], seed
        if fault == "flux":  # the flux-row identity fails, not the row count
            assert rep["flux_row_residual"] is not None, seed
            assert rep["flux_row_residual"] > tolerances.SOLUTION_REL, seed
        probe = functools.partial(dynamics.gluing_check, seed=seed)
        monkeypatch.setattr(cli, "gluing_check", probe)
        monkeypatch.setattr(axioms, "gluing_check", probe)
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED, seed
        rows = cli.verify_axioms(region, glue_fixture=(m, la, lb, matching))
        assert not rows["A11"]["passed"], seed
        assert all(row["passed"] for ax, row in rows.items() if ax != "A11")


@pytest.mark.parametrize("which", ["trace", "flux"])
def test_flipped_sign_fails_glue_and_a11(which, monkeypatch, tmp_path, disk8):
    monkeypatch.setattr(dynamics, "_matched_rows", _flipped_rows(which))
    out = tmp_path / "glue.json"
    code = cli.main(["glue", "--mesh", "strip:N=8", "--faces", "west", "east",
                     "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED
    assert not json.loads(out.read_text())["checks"][0]["passed"]
    axioms = cli.verify_axioms(disk8)
    assert not axioms["A11"]["passed"]
    assert all(row["passed"] for ax, row in axioms.items() if ax != "A11")


def _kept_fixture():
    """The default A11 gluing and the strip it was cut from."""
    glued = axioms._glued_strip(tolerances.GLUE_LENGTH_REL)
    return glued, glued.glue_info.parent


@pytest.mark.parametrize("which", ["trace", "flux"])
def test_a11_reads_the_seam_on_every_call(which, disk8, monkeypatch):
    # A clean suite keeps the glued fixture's space on its mesh, and never
    # extends the cut strip, but keeps no reading of A11: a sign flipped
    # afterwards fails it, and the restored rows pass it again
    assert cli.verify_axioms(disk8)["A11"]["passed"]
    glued, cut = _kept_fixture()
    assert tolerances.RANK_REL in glued._solution_spaces and not cut._solution_spaces
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_matched_rows", _flipped_rows(which))
        assert not cli.verify_axioms(disk8)["A11"]["passed"]
    assert cli.verify_axioms(disk8)["A11"]["passed"]


def test_a11_builds_new_spaces_for_a_new_rank_tolerance(disk8, monkeypatch):
    # spaces are kept per rank tolerance: under another RANK_REL (one no
    # other test uses) the glued fixture is extended afresh, once, and the
    # cut strip under neither
    cli.verify_axioms(disk8)
    extended = []
    original = dynamics.dirichlet_extension

    def counting(region, *args, **kwargs):
        extended.append(region)
        return original(region, *args, **kwargs)

    monkeypatch.setattr(dynamics, "dirichlet_extension", counting)
    tol = tolerances.table({"RANK_REL": 3e-9})
    for _ in range(2):
        assert all(row["passed"] for row in cli.verify_axioms(disk8, tol=tol).values())
    glued, cut = _kept_fixture()
    assert sum(r is glued for r in extended) == 1 and not any(r is cut for r in extended)
    assert sorted(glued._solution_spaces) == [3e-9, tolerances.RANK_REL]
    assert not cut._solution_spaces


def _noisy_copy(m, seed=3, level=1e-15):
    cx = m.complex
    noise = np.random.default_rng(seed).standard_normal(cx.coordinates.shape)
    noisy = mesh.SimplicialComplex(cx.n_vertices, cx.oriented_cells(),
                                   coordinates=cx.coordinates * (1 + level * noise))
    return mesh.RegionMesh(noisy, face_labels=dict(m.face_labels), name=m.name)


def test_a7_stable_under_coordinate_noise():
    clean = builders.annulus(64)
    rows = [cli.verify_axioms(m, rng=np.random.default_rng(7))["A7"]
            for m in (clean, _noisy_copy(clean))]
    assert rows[0]["passed"] and rows[1]["passed"]
    assert abs(rows[0]["scale"] - rows[1]["scale"]) <= 1e-9 * rows[0]["scale"]
    for face, value in rows[0]["per_face"].items():
        assert abs(rows[1]["per_face"][face] - value) <= 1e-9 * abs(value)


def test_random_solutions_solve_the_bulk_equation(ann8, rng):
    space = dynamics.solution_space(ann8)
    cols = space.random_solutions(rng, 4)
    el = field_equation_matrix(ann8)
    assert np.abs(el @ cols).max() <= 1e-12 * np.abs(cols).max()
    # and span the full solution space, not only the gauge-fixed part
    many = space.random_solutions(rng, space.dim + 4)
    assert np.linalg.matrix_rank(many, tol=1e-8 * np.abs(many).max()) == space.dim


def test_random_solutions_do_not_depend_on_the_basis_rotation():
    # two meshes of one region: the rotated basis is set on a space of its
    # own, not on the one kept for the first mesh
    space = dynamics.solution_space(builders.square_annulus())
    g = space.gauge_fixed_basis
    assert g.dim == 2
    c, s = np.cos(0.7), np.sin(0.7)
    turned = dynamics.solution_space(builders.square_annulus())
    assert turned is not space
    turned.gauge_fixed_basis = subspaces.Subspace(
        g.columns @ np.array([[c, -s], [s, c]]), gram=g.gram)
    a = space.random_solutions(np.random.default_rng(5), 3)
    b = turned.random_solutions(np.random.default_rng(5), 3)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_verify_axioms_builds_one_solution_space(disk8, monkeypatch):
    built = []
    original = dynamics.solution_space

    def counting(m, *args, **kwargs):
        built.append(m)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(dynamics, "solution_space", counting)
    monkeypatch.setattr(axioms, "solution_space", counting)
    rows = cli.verify_axioms(disk8)
    assert all(row["passed"] for row in rows.values())
    assert sum(m is disk8 for m in built) == 1


def test_structural_axioms_reported_unchecked(disk8):
    axioms = cli.verify_axioms(disk8)
    assert sorted(axioms) == sorted(f"A{i}" for i in range(1, 13))
    for ax in ("A1", "A2", "A3", "A10"):
        assert axioms[ax]["passed"] and axioms[ax]["checked"] is False
        assert axioms[ax]["note"] == "structural, not checked at run time"
    assert all("checked" not in row for ax, row in axioms.items()
               if ax not in ("A1", "A2", "A3", "A10"))


def test_a11_fixture_is_built_once(disk8, monkeypatch):
    # the default gluing pair is a fixed metric mesh: a second suite reuses it
    cli.verify_axioms(disk8)

    def refuse(*args, **kwargs):
        raise AssertionError("A11 strip rebuilt")

    monkeypatch.setattr(builders, "strip", refuse)
    assert cli.verify_axioms(disk8)["A11"]["passed"]


VERDICT_RUNS = (["verify-axioms", "--mesh", "square:N=8"],
                ["verify-axioms", "--mesh", "annulus:N=16"],
                ["glue", "--mesh", "strip:N=8", "--faces", "west", "east"])


@pytest.mark.parametrize("argv", VERDICT_RUNS, ids=lambda a: " ".join(a[:3]))
def test_verdict_paths_take_no_dense_bulk_system(argv, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("dense bulk system assembled")

    assert not hasattr(dynamics.SolutionSpace, "basis")
    assert not hasattr(dynamics, "curvature_adjoint_full")
    monkeypatch.setattr(dynamics, "field_equation_matrix", refuse)
    n1 = builders.from_spec(argv[2]).complex.n_simplices(1)
    svd = np.linalg.svd

    def narrow_svd(a, *args, **kwargs):
        assert np.shape(a)[-1] < n1, f"n1-wide SVD of shape {np.shape(a)}"
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", narrow_svd)
    assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == cli.EXIT_OK


def test_gluing_operators_are_kept_read_only(monkeypatch):
    # K and |K| are built once per region and P, P^T once per gluing, all
    # read-only; the seam rows are read again on every check
    m, la, lb, matching = _strip(4)
    glued = mesh.glue(m, la, lb, matching)
    built, seams = [], []
    adjoint, rows = dynamics.adjoint_full, dynamics._matched_rows
    monkeypatch.setattr(dynamics, "adjoint_full",
                        lambda host, k: built.append(host) or adjoint(host, k))
    monkeypatch.setattr(dynamics, "_matched_rows",
                        lambda *args: seams.append(args) or rows(*args))

    def operators():
        return (*dynamics._curvature_adjoint(m), *dynamics._curvature_adjoint(glued),
                *glued.glue_info.pullback)

    first = dynamics.gluing_check(glued)
    kept = operators()
    assert dynamics.gluing_check(glued) == first
    assert all(a is b for a, b in zip(operators(), kept))
    assert built == [m, glued] and len(seams) == 2
    for op in kept:
        with pytest.raises(ValueError, match="read-only"):
            op.data[0] = 1.0
