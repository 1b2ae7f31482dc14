"""The Lagrangian check through probes of the Dirichlet-to-Neumann map
against the SVD route (``dense_oracles.svd_lagrangian``) and the r-wide
readings (``dense_oracles.r_wide_lagrangian``), those against the QR route
(``dense_oracles.qr_lagrangian_readings``), the restriction, its fault
detection, and the builtin cube that gives its extension solve interior
vertices."""

import json

import numpy as np
import pytest
from dense_oracles import qr_lagrangian_readings, r_wide_lagrangian, svd_lagrangian
from hypothesis import given, settings
from test_oracle import relabelled

from decgauge import axioms, builders, cli, dynamics, mesh, symplectic, tolerances
from decgauge.subspaces import from_span, principal_angles
from decgauge.symplectic import SymplecticSpace

ISO, ANGLE = tolerances.ISOTROPY_REL, tolerances.PRINCIPAL_ANGLE


def glued_strip():
    st = builders.strip(4)
    return mesh.glue(st, "west", "east", builders.strip_end_matching(st))


def annulus_and_torus():
    torus = mesh.region_from_hypersurface(builders.solid_torus(8).boundary,
                                          name="torus_surface")
    return mesh.disjoint_union(builders.annulus(8), torus)


REGIONS = {
    **{spec: (lambda spec=spec: builders.from_spec(spec)) for spec in (
        "disk:N=8", "annulus:N=16", "ann8", "square:N=4", "strip:N=4",
        "tetrahedron", "solid_torus:K=4", "solid_torus:K=8", "cube:N=2",
        "cube:N=3")},
    "glued strip": glued_strip,
    "annulus + torus": annulus_and_torus,
    "two annuli": lambda: mesh.disjoint_union(builders.annulus(8),
                                              builders.square_annulus()),
}


def assert_matches_qr_route(space):
    """The probe verdict against the r-wide one, whose Cholesky readings
    agree with the QR route: a fault's relatively; a clean mesh's are
    roundoff of either route (at most ~1e-15) and agree only absolutely.
    With r <= PROBES the probes span every coclosed trace, and every angle
    is the r-wide one."""
    rep = dynamics.verify_lagrangian(space)
    wide = r_wide_lagrangian(space)
    iso, angles = qr_lagrangian_readings(space)
    r = space.coclosed.dim
    assert np.isclose(wide["isotropy_max"], iso, rtol=1e-12, atol=1e-14)
    assert len(wide["coisotropy_angles"]) == len(angles) == r == space.coclosed_dim
    assert np.abs(wide["coisotropy_angles"] - angles).max() <= 1e-13
    assert rep["probes"] == {"count": min(r, dynamics.PROBES), "coclosed_dim": r,
                             "seed": 0}
    assert len(rep["coisotropy_angles"]) == rep["probes"]["count"]
    assert rep["max_principal_angle"] == max(rep["coisotropy_angles"])
    assert rep["lagrangian"] is wide["lagrangian"]
    if r <= dynamics.PROBES:
        assert np.abs(np.sort(rep["coisotropy_angles"])
                      - np.sort(wide["coisotropy_angles"])).max() <= 1e-13
    return rep


def assert_matches_oracle(m):
    new, old = assert_matches_qr_route(dynamics.solution_space(m)), svd_lagrangian(m)
    assert new["dims"] == old["dims"]
    assert new["lagrangian"] is old["lagrangian"] is True
    assert new["half_dimension"] is old["half_dimension"] is True
    for rep in (new, old):
        assert rep["isotropy_max"] <= ISO * rep["isotropy_scale"]
        assert rep["max_principal_angle"] <= ANGLE
    assert new["green_residual"] <= ISO
    assert new["embedding_defect"] <= tolerances.COCLOSED_INPUT_REL
    return new


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_matches_svd_route(name):
    assert_matches_oracle(REGIONS[name]())


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(relabelled())
def test_matches_svd_route_under_relabelling(case):
    assert_matches_oracle(case[1])


def test_counts_without_a_boundary_component():
    # The torus has no boundary: its two harmonic fields are grounded in the
    # extension solve and counted in b_1(M, bd M), not in c_bounded(M).
    rep = assert_matches_oracle(annulus_and_torus())
    assert rep["dims"]["gauge_fixed"] == 2 - 2 + 1 + 3
    assert rep["extension_solve"]["grounded"] == 3


def test_extension_solve_record():
    rep = dynamics.verify_lagrangian(dynamics.solution_space(builders.cube(2)))
    solve = rep["extension_solve"]
    assert sorted(solve) == ["block_size", "grounded", "pivot_ratio", "rank_tolerance"]
    assert solve["block_size"] == 26 and solve["grounded"] == 0
    assert solve["pivot_ratio"] > tolerances.RANK_REL
    # every edge of a shell is a boundary edge: no solve at all
    shell = dynamics.verify_lagrangian(
        dynamics.solution_space(builders.solid_torus(8)))["extension_solve"]
    assert shell == {"block_size": 0, "grounded": 0, "pivot_ratio": None,
                     "rank_tolerance": tolerances.RANK_REL}


@pytest.mark.parametrize("spec", ["annulus:N=16", "solid_torus:K=8", "cube:N=2"])
def test_builds_no_gauge_fixed_basis_or_two_form(spec, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("gauge-fixed basis, coclosed basis Q, 2n-wide "
                             "two-form, graph QR or principal-angle SVD taken")

    assert not hasattr(dynamics, "_graph")
    assert not hasattr(SymplecticSpace, "from_hypersurface")  # a tests-only oracle
    monkeypatch.setattr(dynamics.SolutionSpace, "gauge_fixed_basis", property(refuse))
    monkeypatch.setattr(symplectic, "coclosed_subspace", refuse)
    monkeypatch.setattr(dynamics, "coclosed_subspace", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert not hasattr(dynamics, "principal_angles")  # nor the gluing check's SVDs
    out = tmp_path / "r.json"
    assert cli.main(["verify-lagrangian", "--mesh", spec, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["detail"]["lagrangian"] is True


@pytest.mark.parametrize("spec", ["annulus:N=16", "solid_torus:K=8", "cube:N=2"])
def test_verify_axioms_builds_no_r_wide_column(spec, monkeypatch):
    # A4, A8 and A9 read the two factorizations and A11 reads probes: no
    # axiom builds Q, an extension A or a gauge-fixed basis, here with a
    # fixture glued for this test, whose spaces no earlier call has kept
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} built")
        return refused

    monkeypatch.setattr(axioms, "_glued_strip", axioms._glued_strip.__wrapped__)
    monkeypatch.setattr(dynamics, "coclosed_subspace", refuse("Q"))
    for name in ("extension", "gauge_fixed_basis"):
        monkeypatch.setattr(dynamics.SolutionSpace, name, property(refuse(name)))
    rows = cli.verify_axioms(builders.from_spec(spec))
    assert all(row["passed"] for row in rows.values())
    assert rows["A11"]["probes"]["count"] == dynamics.PROBES


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1])
def test_probes_follow_the_seed(seed, tmp_path):
    # r = 49 > PROBES: the seed picks the probes, so readings move with it
    # at roundoff while verdict and dims stay; one seed reads byte-identical
    def run(s):
        out = tmp_path / f"{s}.json"
        args = ["verify-lagrangian", "--mesh", "solid_torus:K=8", "--out", str(out),
                "--seed", str(s)]
        assert cli.main(args) == cli.EXIT_OK
        return out.read_text()

    text = run(seed)
    assert run(seed) == text
    detail, other = (json.loads(t)["detail"] for t in (text, run(seed + 1)))
    assert detail["probes"] == {"count": dynamics.PROBES, "coclosed_dim": 49,
                                "seed": seed}
    assert len(detail["coisotropy_angles"]) == dynamics.PROBES
    assert other["dims"] == detail["dims"] and other["lagrangian"]
    assert other["coisotropy_angles"] != detail["coisotropy_angles"]


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_restrict_is_one_cholesky_of_the_traces(name, monkeypatch):
    # [Q; flux] has every weighted singular value >= 1: no SVD, no rank cut
    space = dynamics.solution_space(REGIONS[name]())

    def refuse(*args, **kwargs):
        raise AssertionError("SVD taken in restrict")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", refuse)
        image = dynamics.restrict(space)
    flux = dynamics.trace_columns(space.mesh, space.extension, space.mesh.boundary,
                                  tolerances.SOLUTION_REL)[1]
    span = from_span(np.vstack([space.coclosed.columns, flux]), gram=image.gram)
    assert image.dim == span.dim == space.coclosed.dim
    assert image.gap == np.inf
    assert image.orthonormality_defect() <= 1e-13
    assert principal_angles(span, image).max(initial=0.0) <= 1e-12


# -- faults --------------------------------------------------------------------

def flipped_flux(label):
    """Traces whose flux has the wrong sign on the edges of one face."""
    original = dynamics.trace_columns

    def traces(m, columns, sigma, tolerance):
        phi, flux = original(m, columns, sigma, tolerance)
        flux = flux.copy()
        flux[mesh.extract_face(sigma, label).simplex_maps[1]] *= -1.0
        return phi, flux

    return traces


def poisoned_star():
    """Traces whose fluxes are normalized by a corrupted boundary star weight
    (one edge's dual volume tripled); every other reading sees the clean one."""
    original = dynamics.trace_columns

    def traces(m, columns, sigma, tolerance):
        volumes = sigma.dual_volumes(1)
        clean = volumes[0]
        volumes[0] = 3.0 * clean
        try:
            return original(m, columns, sigma, tolerance)
        finally:
            volumes[0] = clean

    return traces


def one_edge_flux(factor=-1.0):
    """Traces whose flux on the first boundary edge is scaled by ``factor``
    (by default, has the wrong sign)."""
    original = dynamics.trace_columns

    def traces(m, columns, sigma, tolerance):
        phi, flux = original(m, columns, sigma, tolerance)
        flux = flux.copy()
        flux[0] *= factor
        return phi, flux

    return traces


FAULTS = {
    "flip-annulus": ("annulus:N=16", flipped_flux("inner")),
    "flip-cube": ("cube:N=2", flipped_flux("top")),
    "star-annulus": ("annulus:N=16", poisoned_star()),
    "star-cube": ("cube:N=2", poisoned_star()),
}

# With one coclosed trace (a square) every line is Lagrangian, and a flux of
# the wrong sign everywhere (one-face shell) leaves M symmetric.
GREEN_ONLY = {
    "flip-square": ("square:N=8", flipped_flux("north")),
    "star-square": ("square:N=8", poisoned_star()),
    "flip-shell": ("solid_torus:K=8", flipped_flux("shell")),
}


@pytest.mark.parametrize("spec, fault", FAULTS.values(), ids=FAULTS)
def test_fault_fails_the_check(spec, fault, monkeypatch, tmp_path):
    monkeypatch.setattr(dynamics, "trace_columns", fault)
    out = tmp_path / "r.json"
    assert cli.main(["verify-lagrangian", "--mesh", spec, "--out", str(out)]) == \
        cli.EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    assert report["checks"][0]["id"] == "lagrangian"
    detail = report["detail"]
    assert detail["lagrangian"] is False
    # with r > 1 each measure sees the fault on its own
    assert detail["isotropy_max"] > ISO * detail["isotropy_scale"]
    assert detail["green_residual"] > ISO
    assert detail["max_principal_angle"] > ANGLE


@pytest.mark.parametrize("spec, fault", GREEN_ONLY.values(), ids=GREEN_ONLY)
def test_green_identity_sees_what_symmetry_cannot(spec, fault, monkeypatch):
    # The SVD route passes these faults, Green's identity does not.
    monkeypatch.setattr(dynamics, "trace_columns", fault)
    m = builders.from_spec(spec)
    assert svd_lagrangian(m)["lagrangian"] is True
    rep = dynamics.verify_lagrangian(dynamics.solution_space(m))
    assert rep["isotropy_max"] <= ISO * rep["isotropy_scale"]
    assert rep["green_residual"] > 1e-3
    assert rep["lagrangian"] is False


SEEDED_FAULTS = {**FAULTS, **GREEN_ONLY,
                 "one-edge-shell": ("solid_torus:K=48", one_edge_flux())}


@pytest.mark.parametrize("name", sorted(SEEDED_FAULTS))
def test_fault_fails_on_every_seed(name, monkeypatch):
    # min(r, PROBES) probes see each fault whichever they are; r = 289 on the
    # shell, and a flux of the wrong sign on one of its edges
    spec, fault = SEEDED_FAULTS[name]
    monkeypatch.setattr(dynamics, "trace_columns", fault)
    space = dynamics.solution_space(builders.from_spec(spec))
    for seed in range(100):
        rep = dynamics.verify_lagrangian(space, seed=seed)
        assert rep["lagrangian"] is False, seed
        assert rep["green_residual"] > 1e-6, seed
        if name in FAULTS:  # with r > 1 each measure sees it
            assert rep["isotropy_max"] > ISO * rep["isotropy_scale"], seed
            assert rep["max_principal_angle"] > ANGLE, seed


def test_probes_dilute_a_one_edge_fault_by_at_most_r(monkeypatch):
    # With r > PROBES a fault on one boundary edge reads smaller on the
    # probes than on all r coclosed traces: Green's residual down to 1/193 of
    # the r-wide one on solid_torus:K=48 (r = 289) over these seeds, the
    # median 1/31.  So the probes resolve such a fault once its r-wide
    # reading is about r times the gate; this one's is 8 r times (2.4e-8).
    monkeypatch.setattr(dynamics, "trace_columns", one_edge_flux(1.0 + 1e-7))
    space = dynamics.solution_space(builders.from_spec("solid_torus:K=48"))
    r = space.coclosed_dim
    wide = r_wide_lagrangian(space)["green_residual"]
    assert 5 * r * ISO < wide < 10 * r * ISO
    for seed in range(100):
        rep = dynamics.verify_lagrangian(space, seed=seed)
        assert rep["green_residual"] > wide / r > ISO, seed
        assert rep["lagrangian"] is False, seed


@pytest.mark.parametrize("spec, fault", FAULTS.values(), ids=FAULTS)
def test_fault_readings_match_the_qr_route(spec, fault, monkeypatch):
    monkeypatch.setattr(dynamics, "trace_columns", fault)
    assert_matches_qr_route(dynamics.solution_space(builders.from_spec(spec)))


@pytest.mark.parametrize("command, spec, fault, row_id", [
    ("verify-lagrangian", "solid_torus:K=8", flipped_flux("shell"), "lagrangian"),
    ("verify-axioms", "square:N=8", flipped_flux("north"), "A9"),
], ids=["shell-flip", "square-flip-A9"])
def test_failing_row_shows_the_gate_it_failed(command, spec, fault, row_id,
                                              monkeypatch, tmp_path):
    # both faults keep M symmetric: only Green's identity sees them, and the
    # check row itself must carry that reading
    monkeypatch.setattr(dynamics, "trace_columns", fault)
    out = tmp_path / "r.json"
    assert cli.main([command, "--mesh", spec, "--out", str(out)]) == cli.EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    row = next(c for c in report["checks"] if c["id"] == row_id)
    assert set(row) == {"id", "passed", "dims", "isotropy_max", "green_residual",
                        "max_principal_angle", "embedding_defect", "half_dimension",
                        "rank_ambiguous"}
    tol = report["tolerances"]
    assert not row["passed"]
    assert row["isotropy_max"] <= tol["ISOTROPY_REL"] * 0.5
    assert row["green_residual"] > tol["ISOTROPY_REL"]


# -- the cube --------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_cube_has_interior_and_corners(n):
    m = builders.cube(n)
    cx = m.complex
    assert cx.n_simplices(3) == 6 * n ** 3
    assert m.interior_simplex_mask(1).sum() > 0
    assert m.interior_simplex_mask(0).sum() == (n - 1) ** 3
    assert sorted(m.face_labels) == ["bottom", "east", "north", "south", "top", "west"]
    assert all(len(f) == 2 * n * n for f in m.face_labels.values())
    assert len(m.strata) == 12 and all(len(s) == n for s in m.strata.values())
    assert np.isclose(m.total_volume(), 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_cube_passes_lagrangian_harmonic_and_decompose(n, tmp_path):
    out = tmp_path / "r.json"
    spec = f"cube:N={n}"

    def run(*args):
        code = cli.main([*args, "--mesh", spec, "--out", str(out)])
        return code, json.loads(out.read_text())

    code, report = run("verify-lagrangian")
    assert code == cli.EXIT_OK and report["detail"]["lagrangian"]
    for k, (betti, relative) in enumerate(zip((1, 0, 0, 0), (0, 0, 0, 1))):
        code, report = run("harmonic", "--degree", str(k))
        assert code == cli.EXIT_OK
        assert report["detail"]["neumann_dim"] == betti
        assert report["detail"]["dirichlet_dim"] == relative
        code, report = run("decompose", "--degree", str(k))
        assert code == cli.EXIT_OK and report["passed"]
