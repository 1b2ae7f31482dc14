"""Each echoed tolerance is the one applied: set to an extreme value, it
changes an exit code, a reported flag or the outcome of a check."""

import json

import numpy as np
import pytest

from decgauge import builders, cli, mesh, tolerances


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
