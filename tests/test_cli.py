import json

import numpy as np
import pytest

from decgauge import axioms, builders, cli, dynamics, hodge, mesh, tolerances
from decgauge.cli import ExperimentConfig
from decgauge.dec import Cochain
from dense_oracles import full_basis, r_wide_gluing


def run_cli(args):
    return cli.main(args)


def test_verify_lagrangian_disk_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["verify-lagrangian", "--mesh", "disk:N=16",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["detail"]["lagrangian"]
    assert report["schema_version"] == "1"


def test_verify_axioms_annulus(tmp_path):
    out = tmp_path / "axioms.json"
    code = run_cli(["verify-axioms", "--mesh", "annulus:N=16",
                    "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    ids = {c["id"] for c in report["checks"]}
    assert {"A4", "A5", "A6", "A7", "A8", "A9", "A11", "A12"} <= ids
    assert all(c["passed"] for c in report["checks"])


def _no_elimination(mat):
    raise AssertionError("2D ranks are closed forms; nothing is eliminated")


@pytest.mark.parametrize("spec", ["square:N=4", "annulus:N=16"])
@pytest.mark.parametrize("command", [["harmonic", "--degree", "0"],
                                     ["harmonic", "--degree", "1"],
                                     ["harmonic", "--degree", "2"],
                                     ["decompose", "--degree", "1"],
                                     ["verify-lagrangian"]])
def test_2d_commands_never_eliminate(command, spec, tmp_path, monkeypatch):
    monkeypatch.setattr(hodge, "_integer_rank", _no_elimination)
    out = tmp_path / "report.json"
    assert run_cli(command + ["--mesh", spec, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]


def test_verify_axioms_glues_once_and_a11_a12_match_a_fresh_gluing(monkeypatch):
    strip = builders.strip(4)
    fixture = (strip, "west", "east", builders.strip_end_matching(strip))
    calls = []

    def counting_glue(*args):
        calls.append(args[1:3])
        return mesh.glue(*args)

    monkeypatch.setattr(axioms, "glue", counting_glue)
    rows = cli.verify_axioms(builders.square(2), glue_fixture=fixture)
    assert calls == [("west", "east")]
    glued = mesh.glue(*fixture)
    rep = dynamics.gluing_check(glued)
    assert rows["A11"] == axioms._check("A11", rep["passed"], **axioms._gluing_fields(rep))
    facets = len(glued.complex.boundary_facets())
    assert rows["A12"] == axioms._check("A12", True, boundary_facets=facets,
                                        expected_facets=facets)
    assert not hasattr(dynamics, "glue")  # the check reads a glued mesh, never glues


def test_verify_axioms_empty_boundary_trivial_a9(tmp_path, torus_region):
    from decgauge.cli import verify_axioms

    axioms = verify_axioms(torus_region)
    assert axioms["A9"]["passed"]
    assert axioms["A4"]["passed"]


def test_malformed_mesh_exit_two(capsys):
    assert run_cli(["verify-lagrangian", "--mesh", "nope:N=3"]) == 2
    assert run_cli(["verify-lagrangian", "--mesh", "disk:N=bad"]) == 2
    assert run_cli(["verify-lagrangian", "--mesh", "missing.off"]) == 2


def test_failed_check_exit_one(tmp_path):
    # an unachievable gate turns a healthy run into a verification failure
    out = tmp_path / "r.json"
    code = run_cli(["verify-lagrangian", "--mesh", "square:N=2",
                    "--tol", "ISOTROPY_REL=1e-25", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert not report["passed"]


def test_broken_verification_stage_exit_one(tmp_path):
    # an absurd rank threshold fails the pivot gate of the boundary gauge
    # fix (its pivot ratio is 0.57 here); the run reports the abort as a
    # failed check rather than a config error
    out = tmp_path / "r.json"
    code = run_cli(["verify-lagrangian", "--mesh", "disk:N=8",
                    "--tol", "RANK_REL=0.9", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["checks"][0]["id"] == "aborted"


def test_decompose_applies_rank_tolerance(tmp_path):
    # the echoed RANK_REL reaches the Neumann basis: above the pivot ratio
    # of its boundary reduction the decomposition refuses to proceed
    out = tmp_path / "r.json"
    args = ["decompose", "--mesh", "ann8", "--degree", "1", "--out", str(out)]
    assert run_cli(args) == 0
    assert run_cli(args + ["--tol", "RANK_REL=0.5"]) == 1
    report = json.loads(out.read_text())
    assert report["tolerances"]["RANK_REL"] == 0.5
    assert report["checks"][0]["id"] == "aborted"
    assert "pivot ratio" in report["checks"][0]["error"]


def test_bad_tolerance_exit_two(capsys):
    assert run_cli(["verify-lagrangian", "--mesh", "disk:N=8",
                    "--tol", "RANK_REL=-1"]) == 2
    assert run_cli(["verify-lagrangian", "--mesh", "disk:N=8",
                    "--tol", "NOT_A_TOL=1e-3"]) == 2
    assert run_cli(["verify-lagrangian", "--mesh", "disk:N=8",
                    "--tol", "oops"]) == 2


def test_removed_hmf_idempotent_tolerance_exit_two():
    # The name gated nothing, so it is no longer accepted.
    assert run_cli(["decompose", "--mesh", "disk:N=8",
                    "--tol", "HMF_IDEMPOTENT_REL=1e-9"]) == 2


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert run_cli(["decompose", "--mesh", "ann8", "--seed", "11",
                        "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_recorded_and_changes_data(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["decompose", "--mesh", "ann8", "--seed", "1", "--out", str(a)])
    run_cli(["decompose", "--mesh", "ann8", "--seed", "2", "--out", str(b)])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["seed"] == 1 and rb["seed"] == 2
    assert ra["detail"]["component_norms"] != rb["detail"]["component_norms"]


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    # one parser per process; a second call sees none of the first's options
    assert cli._build_parser() is cli._build_parser()
    out = tmp_path / "r.json"

    def run(*args):
        out.unlink(missing_ok=True)
        code = cli.main([*args, "--out", str(out)])
        return code, json.loads(out.read_text()) if out.exists() else None

    code, first = run("harmonic", "--mesh", "disk:N=8", "--degree", "2",
                      "--tol", "HARMONIC_REL=1e-3")
    assert code == 0 and first["detail"]["degree"] == 2
    assert first["tolerances"]["HARMONIC_REL"] == 1e-3
    code, second = run("harmonic", "--mesh", "disk:N=8")
    assert code == 0 and second["detail"]["degree"] == 1
    assert second["tolerances"] == tolerances.DEFAULTS
    assert run("glue", "--mesh", "strip:N=4", "--faces", "west", "east")[0] == 0
    assert run("glue", "--mesh", "strip:N=4") == (cli.EXIT_CONFIG_ERROR, None)


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = run_cli(["harmonic", "--mesh", "ann8", "--format", "csv",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check,")
    assert len(lines) > 1


def test_ym2d_report_flags_factor(tmp_path):
    out = tmp_path / "ym2d.json"
    code = run_cli(["ym2d", "--mesh", "disk:N=16", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    form = report["detail"]["reduced_form"]
    assert form["factor_discrepancy_flagged"] is True
    assert np.isclose(form["kappa"], 0.5)
    ids = {c["id"] for c in report["checks"]}
    assert "factor_discrepancy_flagged" in ids


def test_glue_command(tmp_path):
    out = tmp_path / "glue.json"
    code = run_cli(["glue", "--mesh", "strip:N=4", "--faces", "west", "east",
                    "--matching", "builtin", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    dims = report["detail"]["dims"]
    st = builders.strip(4)
    glued = mesh.glue(st, "west", "east", builders.strip_end_matching(st))
    assert dims["glued_solutions"] == dims["equalizer"] == r_wide_gluing(glued)["dims"]["equalizer"]


def test_glue_with_matching_file(tmp_path):
    st = builders.strip(4)
    matching = builders.strip_end_matching(st)
    mfile = tmp_path / "matching.json"
    mfile.write_text(json.dumps({str(k): v for k, v in matching.items()}))
    out = tmp_path / "glue.json"
    code = run_cli(["glue", "--mesh", "strip:N=4", "--faces", "west", "east",
                    "--matching", str(mfile), "--out", str(out)])
    assert code == 0


@pytest.mark.parametrize("text", [None, "{not json", '{"a": 12}', '{"0": "x"}',
                                  '{"0": 1.5}', "[0, 12]"])
def test_glue_with_a_bad_matching_file_exits_two(text, tmp_path):
    # a missing file (None), malformed JSON, or a key or value that is no
    # vertex index is an input error, not a failed verification
    mfile = tmp_path / "matching.json"
    if text is not None:
        mfile.write_text(text)
    out = tmp_path / "glue.json"
    code = run_cli(["glue", "--mesh", "strip:N=4", "--faces", "west", "east",
                    "--matching", str(mfile), "--out", str(out)])
    assert code == cli.EXIT_CONFIG_ERROR
    assert not out.exists()


def test_off_input_through_cli(tmp_path):
    disk = builders.disk(8)
    off = tmp_path / "disk.off"
    disk.save_off(off)
    sidecar = {}
    cx = disk.complex
    for lab, facets in disk.face_labels.items():
        for f in facets:
            sidecar[",".join(str(v) for v in cx.simplices[1][f])] = lab
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(sidecar))
    out = tmp_path / "rep.json"
    code = run_cli(["verify-lagrangian", "--mesh", str(off),
                    "--labels", str(labels), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["passed"]


def test_off_without_labels_is_config_error(tmp_path):
    disk = builders.disk(8)
    off = tmp_path / "disk.off"
    disk.save_off(off)
    assert run_cli(["verify-lagrangian", "--mesh", str(off)]) == 2


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DECGAUGE_OUTDIR", str(tmp_path / "reports"))
    code = run_cli(["harmonic", "--mesh", "disk:N=8"])
    assert code == 0
    assert (tmp_path / "reports" / "harmonic.json").exists()


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="command"):
        ExperimentConfig(command="nope", mesh="disk:N=8")
    with pytest.raises(ValueError, match="format"):
        ExperimentConfig(command="ym2d", mesh="disk:N=8", format="xml")
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(command="ym2d", mesh="disk:N=8",
                         tolerances={"RANK_REL": -2.0})


def test_corrupted_star_weights_break_identities(rng):
    # fault injection: solve on a clean mesh, then poison one dual volume;
    # the action-difference identity evaluated with stale solutions must
    # blow past its gate, demonstrating the check's sensitivity.
    m = builders.disk(8)
    space = dynamics.solution_space(m)
    cols = full_basis(space).columns
    eta = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
    xi = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
    residual, scale = dynamics.action_difference_residual(eta, xi)
    assert abs(residual) <= 1e-11 * scale
    m.dual_volumes(2)[0] *= -1.0
    try:
        residual_bad, scale_bad = dynamics.action_difference_residual(eta, xi)
        assert abs(residual_bad) > 1e-11 * scale_bad
    finally:
        m.dual_volumes(2)[0] *= -1.0
