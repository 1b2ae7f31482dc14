"""Each echoed tolerance is the one applied: set to an extreme value, it
changes an exit code, a reported flag or the outcome of a check."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from decgauge import builders, cli, mesh, tolerances, ym2d


def axioms_report(tmp_path, *tol):
    out = tmp_path / "axioms.json"
    args = ["verify-axioms", "--mesh", "annulus:N=16", "--out", str(out)]
    for item in tol:
        args += ["--tol", item]
    return cli.main(args), json.loads(out.read_text())


def a9(report):
    return next(c for c in report["checks"] if c["id"] == "A9")


def test_default_axioms_are_unambiguous(tmp_path):
    code, report = axioms_report(tmp_path)
    assert code == 0
    assert a9(report)["rank_ambiguous"] is False


def test_solution_rel_gates_the_traces(tmp_path):
    code, report = axioms_report(tmp_path, "SOLUTION_REL=1e-300")
    assert code == cli.EXIT_CHECK_FAILED
    assert "bulk equation" in report["detail"]["error"]


def test_rank_gap_factor_flags_the_rank_cuts(tmp_path):
    code, report = axioms_report(tmp_path, "RANK_GAP_FACTOR=1e300")
    assert code == 0
    assert a9(report)["rank_ambiguous"] is True


def rotated_strip(angle=0.3):
    """strip:N=4 rotated in the plane: matched end edges then differ in
    length by roundoff (1e-16), where the axis-aligned strip's agree exactly."""
    st = builders.strip(4)
    cx = st.complex
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    cells = [tuple(c) if o > 0 else (c[1], c[0], c[2])
             for c, o in zip(cx.simplices[2], cx.orientation)]
    turned = mesh.SimplicialComplex(cx.n_vertices, cells,
                                    coordinates=cx.coordinates @ rot.T)
    region = mesh.RegionMesh(turned, face_labels=st.face_labels, name="rotated")
    return region, "west", "east", builders.strip_end_matching(st)


def test_glue_length_rel_gates_the_gluing(disk8):
    fixture = rotated_strip()
    axioms = cli.verify_axioms(disk8, glue_fixture=fixture)
    assert axioms["A11"]["passed"] and axioms["A12"]["passed"]
    tight = tolerances.table({"GLUE_LENGTH_REL": 1e-300})
    with pytest.raises(mesh.MeshError, match="differ in length"):
        cli.verify_axioms(disk8, tol=tight, glue_fixture=fixture)


def test_solution_rel_gates_the_gluing_containment(tmp_path):
    # the pulled-back glued solutions meet the matched rows to roundoff,
    # which no positive residual can pass below 1e-300
    out = tmp_path / "glue.json"
    args = ["glue", "--mesh", "strip:N=8", "--faces", "west", "east", "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args + ["--tol", "SOLUTION_REL=1e-300"]) == cli.EXIT_CHECK_FAILED
    check = json.loads(out.read_text())["checks"][0]
    assert not check["passed"] and check["containment_residual"] > 1e-300


def ym2d_report(tmp_path, *tol):
    out = tmp_path / "ym2d.json"
    args = ["ym2d", "--mesh", "disk:N=16", "--out", str(out)]
    for item in tol:
        args += ["--tol", item]
    code = cli.main(args)
    check = next(c for c in json.loads(out.read_text())["checks"]
                 if c["id"] == "reduced_form_kappa_half")
    return code, check


def test_reduced_form_rel_gates_kappa(tmp_path, monkeypatch):
    # a two-form off by 1e-9 fails at the default 1e-12 and passes at 1e-6
    code, check = ym2d_report(tmp_path)
    assert code == 0 and check["passed"] and check["tolerance"] == 1e-12
    original = ym2d.omega
    monkeypatch.setattr(ym2d, "omega", lambda a, b: original(a, b) * (1 + 2e-9))
    code, check = ym2d_report(tmp_path)
    assert code == cli.EXIT_CHECK_FAILED and not check["passed"]
    code, check = ym2d_report(tmp_path, "REDUCED_FORM_REL=1e-6")
    assert code == 0 and check["passed"] and check["tolerance"] == 1e-6


def test_coclosed_input_rel_gates_the_fluxes(tmp_path):
    # the fluxes lie in the coclosed traces to roundoff, never exactly
    out = tmp_path / "lag.json"
    args = ["verify-lagrangian", "--mesh", "cube:N=2", "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args + ["--tol", "COCLOSED_INPUT_REL=1e-300"]) == cli.EXIT_CHECK_FAILED
    detail = json.loads(out.read_text())["detail"]
    assert detail["lagrangian"] is False and detail["embedding_defect"] > 1e-300


@pytest.mark.parametrize("name, reading", [("ISOTROPY_REL", "isotropy_max"),
                                           ("PRINCIPAL_ANGLE", "max_principal_angle")])
def test_lagrangian_gates_read_their_tolerance(tmp_path, name, reading):
    # with r > 1 the skew part of M and the angles it opens are roundoff,
    # never an exact zero, so a tolerance of 1e-300 fails the row
    out = tmp_path / "lag.json"
    args = ["verify-lagrangian", "--mesh", "solid_torus:K=8", "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args + ["--tol", f"{name}=1e-300"]) == cli.EXIT_CHECK_FAILED
    row = json.loads(out.read_text())["checks"][0]
    assert not row["passed"] and row[reading] > 1e-300


# The extreme value of each gate of the probe route, and the reading that
# then fails the row (None: the run aborts at a gate, with this message).
PROBE_GATES = {
    "ISOTROPY_REL": ("1e-300", "isotropy_max"),
    "PRINCIPAL_ANGLE": ("1e-300", "max_principal_angle"),
    "COCLOSED_INPUT_REL": ("1e-300", "embedding_defect"),
    "SOLUTION_REL": ("1e-300", "bulk equation"),
    "RANK_REL": ("1", "pivot ratio"),
}


@pytest.mark.parametrize("spec", ["solid_torus:K=8", "cube:N=2"])
@pytest.mark.parametrize("name", sorted(PROBE_GATES))
def test_every_probe_gate_is_live(name, spec, tmp_path):
    # r = 49 and 47 coclosed traces, read on 8 probes
    out = tmp_path / "lag.json"
    args = ["verify-lagrangian", "--mesh", spec, "--out", str(out)]
    assert cli.main(args) == 0
    probes = json.loads(out.read_text())["detail"]["probes"]
    assert probes["count"] == 8 < probes["coclosed_dim"]
    value, reading = PROBE_GATES[name]
    code = cli.main(args + ["--tol", f"{name}={value}"])
    row = json.loads(out.read_text())["checks"][0]
    if name == "SOLUTION_REL" and spec == "solid_torus:K=8":
        # a shell has no interior edge: its bulk equation has no row, and
        # every residual is an exact zero
        assert code == 0 and row["passed"]
    elif reading in row:
        assert code == cli.EXIT_CHECK_FAILED and row["id"] == "lagrangian"
        assert not row["passed"] and row[reading] > float(value)
    else:
        assert code == cli.EXIT_CHECK_FAILED and row["id"] == "aborted"
        assert reading in row["error"]


# Each tolerance that only the axiom suite reads, with a mesh on which its
# reading is roundoff, never an exact zero, and the row it gates (A7's
# residual is exactly 0 on disk:N=8 and annulus:N=16).
AXIOM_GATES = {"AXIOM_IDENTITY_REL": ("annulus:N=16", "A4"),
               "FACTORIZATION_REL": ("square:N=4", "A7"),
               "ROUNDOFF_REL": ("annulus:N=16", "A8"),
               "GLUING_ACTION_REL": ("annulus:N=16", "A11")}


@pytest.mark.parametrize("name", sorted(AXIOM_GATES))
def test_every_axiom_gate_is_live(name, tmp_path):
    spec, gated = AXIOM_GATES[name]
    out = tmp_path / "axioms.json"
    args = ["verify-axioms", "--mesh", spec, "--out", str(out)]
    assert cli.main(args) == 0
    assert cli.main(args + ["--tol", f"{name}=1e-300"]) == cli.EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    assert report["tolerances"][name] == 1e-300
    assert [row["id"] for row in report["checks"] if not row["passed"]] == [gated]


def rotated_strip_glue(tmp_path):
    """``glue`` of :func:`rotated_strip` through its OFF, label and matching
    files, so that its matched lengths differ by roundoff."""
    region, label_a, label_b, matching = rotated_strip()
    off, labels, match = (tmp_path / n for n in ("strip.off", "labels.json", "matching.json"))
    region.save_off(off)
    edges = region.complex.simplices[1]
    labels.write_text(json.dumps({",".join(map(str, edges[f])): lab
                                  for lab, facets in region.face_labels.items()
                                  for f in facets}))
    match.write_text(json.dumps(matching))
    return ["glue", "--mesh", str(off), "--labels", str(labels),
            "--faces", label_a, label_b, "--matching", str(match)]


AXIOMS16 = ["verify-axioms", "--mesh", "annulus:N=16"]
YM2D24 = ["ym2d", "--mesh", "disk:N=24"]  # both ym2d readings are roundoff here
SHELL = ["verify-lagrangian", "--mesh", "solid_torus:K=8"]
# Per name, a run whose outcome the name's extreme value changes.  The axiom
# runs share A11's fixture and the spaces kept on it, which must hide no
# changed tolerance.
EXTREMES = {
    "AXIOM_IDENTITY_REL": (AXIOMS16, "1e-300"),
    "COCLOSED_INPUT_REL": (["verify-lagrangian", "--mesh", "cube:N=2"], "1e-300"),
    "FACTORIZATION_REL": (["verify-axioms", "--mesh", "square:N=4"], "1e-300"),
    "GLUE_LENGTH_REL": (rotated_strip_glue, "1e-300"),
    "GLUING_ACTION_REL": (AXIOMS16, "1e-300"),
    "HARMONIC_REL": (["harmonic", "--mesh", "annulus:N=16", "--degree", "1"], "1e-300"),
    "HMF_REL": (["decompose", "--mesh", "annulus:N=16", "--degree", "1"], "1e-300"),
    "ISOTROPY_REL": (SHELL, "1e-300"),
    "PRINCIPAL_ANGLE": (SHELL, "1e-300"),
    "RANK_GAP_FACTOR": (AXIOMS16, "1e300"),
    "RANK_REL": (AXIOMS16, "1"),
    "REDUCED_FORM_REL": (YM2D24, "1e-300"),
    "ROUNDOFF_REL": (AXIOMS16, "1e-300"),
    "SOLUTION_REL": (AXIOMS16, "1e-300"),
    "STOKES_LINE_REL": (YM2D24, "1e-300"),
}


def outcome(argv, tmp_path, *tol):
    """Exit code, and each row's verdict and rank flag (None without a
    report)."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    for item in tol:
        argv = argv + ["--tol", item]
    code = cli.main(argv + ["--out", str(out)])
    if not out.exists():
        return code, None
    return code, [(row["id"], row["passed"], row.get("rank_ambiguous"))
                  for row in json.loads(out.read_text())["checks"]]


@pytest.mark.parametrize("name", sorted(tolerances.DEFAULTS))
def test_every_tolerance_changes_an_outcome(name, tmp_path):
    assert name in EXTREMES, f"{name} has no run that shows it is live"
    argv, extreme = EXTREMES[name]
    argv = argv(tmp_path) if callable(argv) else argv
    default = outcome(argv, tmp_path)
    assert default[0] == cli.EXIT_OK
    assert outcome(argv, tmp_path, f"{name}={extreme}") != default


def test_every_table_name_is_read_by_the_library():
    # A name that no module applies would be echoed in every report and
    # accepted by --tol while gating nothing.
    package = Path(tolerances.__file__).parent
    sources = " ".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "tolerances.py")
    unused = [name for name in tolerances.DEFAULTS
              if not re.search(rf"\b{name}\b", sources)]
    assert unused == []


@pytest.mark.parametrize("name", ["ADJOINTNESS_REL", "EXTEND_ROUNDTRIP_REL",
                                  "GAUGE_IDEMPOTENT_REL", "HOLONOMY_MOD_REL"])
def test_removed_dead_tolerances_exit_two(name):
    assert cli.main(["harmonic", "--mesh", "disk:N=8", "--tol", f"{name}=1"]) == 2
