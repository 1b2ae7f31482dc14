"""Command-line front end: mesh ingestion, verification suites, reports.

Commands map onto the library's verification machinery: ``decompose``,
``harmonic``, ``verify-lagrangian``, ``verify-axioms``, ``glue``, ``ym2d``.
Reports are versioned JSON (or CSV flattenings), deterministic for a fixed
configuration and seed; exit status 0 means all gated checks passed, 1 a
verification failure, 2 a configuration or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import builders, tolerances
from .boundary import BoundaryDatum, trace_solution
from .dec import Cochain, d, norm
from .dynamics import (
    action,
    action_difference_residual,
    action_scale,
    gluing_check,
    solution_space,
    verify_lagrangian,
)
from .hodge import (
    HodgeError,
    betti_oracle,
    harmonic_dirichlet_basis,
    harmonic_neumann_basis,
    hmf_decompose,
)
from .mesh import MeshError, RegionMesh, glue, load_off
from .symplectic import bracket, face_factorization_check, omega
from .ym2d import lagrangian_line_check, reduced_form_check

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

COMMANDS = ("decompose", "harmonic", "verify-lagrangian", "verify-axioms",
            "glue", "ym2d")


@dataclass
class ExperimentConfig:
    command: str
    mesh: str
    labels: str | None = None
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"
    seed: int = 0
    degree: int = 1
    faces: tuple[str, str] | None = None
    matching: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        for name, value in self.tolerances.items():
            if not value > 0:
                raise ValueError(f"tolerance {name!r} must be positive")


def _load_mesh(config: ExperimentConfig) -> RegionMesh:
    spec = config.mesh
    if spec.endswith(".off") or "/" in spec or os.path.isfile(spec):
        if not os.path.isfile(spec):
            raise MeshError(f"mesh file {spec!r} does not exist")
        if config.labels is None:
            raise MeshError("OFF input needs a --labels sidecar")
        return load_off(spec, config.labels)
    return builders.from_spec(spec)


def _check(check_id, passed, **extra):
    row = {"id": check_id, "passed": bool(passed)}
    row.update(extra)
    return row


# -- per-command runners ------------------------------------------------------------


def _run_decompose(mesh: RegionMesh, config, tol, rng):
    k = config.degree
    alpha = Cochain(mesh, k, rng.standard_normal(mesh.complex.n_simplices(k)))
    deco = hmf_decompose(alpha, rank_tolerance=tol["RANK_REL"],
                         roundoff_tolerance=tol["ROUNDOFF_REL"])
    rec_err = norm(deco.reconstruction() - alpha) / max(norm(alpha), 1e-300)
    checks = [
        _check("hmf_orthogonality", deco.residual_norm <= tol["HMF_REL"],
               residual=deco.residual_norm, tolerance=tol["HMF_REL"]),
        _check("hmf_reconstruction", rec_err <= tol["HMF_REL"],
               residual=rec_err, tolerance=tol["HMF_REL"]),
    ]
    body = deco.report()
    body["degree"] = k
    return checks, body


def _run_harmonic(mesh: RegionMesh, config, tol, rng):
    k = config.degree
    checks, body = [], {"degree": k}
    neumann = harmonic_neumann_basis(mesh, k, tol["RANK_REL"])
    if config.output:
        stem = Path(config.output)
        written = []
        for i, cochain in enumerate(neumann.cochains()):
            path = stem.with_name(f"{stem.stem}_neumann{i}.csv")
            path.parent.mkdir(parents=True, exist_ok=True)
            cochain.to_csv(path)
            written.append(str(path))
        body["basis_files"] = written
    betti = betti_oracle(mesh, k)
    checks.append(
        _check("neumann_dimension_matches_betti", neumann.dim == betti,
               dimension=neumann.dim, betti=betti)
    )
    res = neumann.max_residual()
    checks.append(
        _check("neumann_harmonic_residual", res <= tol["HARMONIC_REL"],
               residual=res, tolerance=tol["HARMONIC_REL"])
    )
    body["neumann_dim"] = neumann.dim
    try:
        dirichlet = harmonic_dirichlet_basis(mesh, k, tol["RANK_REL"])
        body["dirichlet_dim"] = dirichlet.dim
        dres = dirichlet.max_residual()
        checks.append(
            _check("dirichlet_harmonic_residual", dres <= tol["HARMONIC_REL"],
                   residual=dres, tolerance=tol["HARMONIC_REL"])
        )
    except HodgeError as exc:
        checks.append(_check("dirichlet_dimension_matches_oracle", False,
                             error=str(exc)))
    return checks, body


def _lagrangian(space, tol, seed) -> dict:
    """:func:`verify_lagrangian` of the space under the run's tolerances."""
    return verify_lagrangian(space, tol["ISOTROPY_REL"], tol["PRINCIPAL_ANGLE"],
                             tol["SOLUTION_REL"], tol["RANK_GAP_FACTOR"],
                             tol["COCLOSED_INPUT_REL"], seed)


def _run_verify_lagrangian(mesh: RegionMesh, config, tol, rng):
    rep = _lagrangian(solution_space(mesh, tol["RANK_REL"]), tol, config.seed)
    return [_check("lagrangian", rep["lagrangian"], **_lagrangian_fields(rep))], rep


def _lagrangian_fields(rep: dict) -> dict:
    """Check-row fields of a :func:`verify_lagrangian` report (A9 and
    ``verify-lagrangian``): every reading a gate applies to."""
    return {k: rep[k] for k in ("dims", "isotropy_max", "green_residual",
                                "max_principal_angle", "embedding_defect",
                                "half_dimension", "rank_ambiguous")}


@functools.cache
def _strip_fixture():
    """A11's default gluing pair, built once: a metric mesh never changes."""
    strip = builders.strip(4)
    return strip, "west", "east", builders.strip_end_matching(strip)


def verify_axioms(mesh: RegionMesh, tol=None, rng=None,
                  glue_fixture=None) -> dict:
    """Run the mapped verification per axiom of the boundary framework.

    A1-A3 and A10 are structural (properties of the data types, reported
    with ``checked: false``); A4 tests the bracket and action-difference
    identities, A5 the orientation involution, A6 disjoint-union
    additivity, A7 face factorization, A8 gauge invariance of the action, A9
    the Lagrangian embedding, A11/A12 the gluing exact sequence on a
    built-in pair.
    """
    tol = tol or tolerances.table()
    rng = rng if rng is not None else np.random.default_rng(0)
    axioms = {}

    for ax in ("A1", "A2", "A3", "A10"):
        axioms[ax] = _check(ax, True, checked=False,
                            note="structural, not checked at run time")

    space = solution_space(mesh, tol["RANK_REL"])
    sigma = mesh.boundary
    if sigma is None:
        axioms["A4"] = _check("A4", True, note="empty boundary")
        axioms["A5"] = _check("A5", True, note="empty boundary")
        axioms["A7"] = _check("A7", True, note="empty boundary")
    else:
        eta, xi = (Cochain(mesh, 1, c) for c in space.random_solutions(rng, 2).T)
        a = trace_solution(eta, tolerance=tol["SOLUTION_REL"])
        b = trace_solution(xi, tolerance=tol["SOLUTION_REL"])
        eq2 = omega(a, b) - 0.5 * bracket(a, b) + 0.5 * bracket(b, a)
        eq2_scale = max(abs(bracket(a, b)), abs(bracket(b, a)), 1e-300)
        eq00, eq00_scale = action_difference_residual(eta, xi)
        ok4 = (abs(eq2) <= tol["AXIOM_IDENTITY_REL"] * eq2_scale
               and abs(eq00) <= tol["AXIOM_IDENTITY_REL"] * eq00_scale)
        axioms["A4"] = _check("A4", ok4,
                              bracket_identity_residual=abs(eq2) / eq2_scale,
                              action_identity_residual=abs(eq00) / eq00_scale,
                              tolerance=tol["AXIOM_IDENTITY_REL"])

        rev = sigma.reversed()
        flipped = BoundaryDatum(
            Cochain(rev, 1, a.phi.values), Cochain(rev, 1, a.phi_dot.values)
        )
        flipped_b = BoundaryDatum(
            Cochain(rev, 1, b.phi.values), Cochain(rev, 1, b.phi_dot.values)
        )
        inv = omega(flipped, flipped_b) + omega(a, b)
        braid = bracket(flipped, flipped_b) + bracket(a, b)
        axioms["A5"] = _check("A5", inv == 0.0 and braid == 0.0,
                              omega_flip_residual=abs(inv),
                              bracket_flip_residual=abs(braid))

        fact = face_factorization_check(sigma, a, tol["FACTORIZATION_REL"])
        axioms["A7"] = _check("A7", fact["passed"],
                              residual=fact["residual"], scale=fact["scale"],
                              per_face=fact["per_face"],
                              tolerance=tol["FACTORIZATION_REL"])

    from .mesh import disjoint_union

    double = disjoint_union(mesh, mesh)
    eta_d = Cochain(double, 1, rng.standard_normal(double.complex.n_simplices(1)))
    # The union lists the first copy's edges, then the second's.
    half_a, half_b = np.split(eta_d.values, 2)
    s_total = action(eta_d)
    s_parts = action(Cochain(mesh, 1, half_a)) + action(Cochain(mesh, 1, half_b))
    scale6 = max(action_scale(eta_d), 1e-300)
    axioms["A6"] = _check("A6", abs(s_total - s_parts) <= tol["ROUNDOFF_REL"] * scale6,
                          residual=abs(s_total - s_parts) / scale6,
                          tolerance=tol["ROUNDOFF_REL"])

    eta = Cochain(mesh, 1, space.random_solutions(rng, 1)[:, 0])
    f = Cochain(mesh, 0, rng.standard_normal(mesh.complex.n_simplices(0)))
    shifted = eta + d(f)
    res8 = abs(action(shifted) - action(eta))
    scale8 = max(action_scale(shifted), action_scale(eta), 1e-300)
    axioms["A8"] = _check("A8", res8 <= tol["ROUNDOFF_REL"] * scale8,
                          residual=res8 / scale8, tolerance=tol["ROUNDOFF_REL"])

    rep9 = _lagrangian(space, tol, int(rng.integers(2**31)))
    axioms["A9"] = _check("A9", rep9["lagrangian"], **_lagrangian_fields(rep9))

    gm, la, lb, matching = glue_fixture or _strip_fixture()
    glued = glue(gm, la, lb, matching, tol["GLUE_LENGTH_REL"])
    rep11 = gluing_check(gm, la, lb, matching, tol["RANK_REL"],
                         tol["PRINCIPAL_ANGLE"], tol["GLUING_ACTION_REL"],
                         tol["GLUE_LENGTH_REL"], tol["SOLUTION_REL"], glued=glued)
    axioms["A11"] = _check("A11", rep11["passed"], **_gluing_fields(rep11))

    expected = set()
    n = gm.complex.dim
    for lab, facets in gm.face_labels.items():
        if lab in (la, lb):
            continue
        expected |= {int(glued.glue_info.simplex_maps[n - 1][f]) for f in facets}
    actual = {int(i) for i in glued.complex.boundary_facets()}
    axioms["A12"] = _check("A12", expected == actual,
                           boundary_facets=len(actual),
                           expected_facets=len(expected))
    return axioms


def _run_verify_axioms(mesh: RegionMesh, config, tol, rng):
    axioms = verify_axioms(mesh, tol, rng)
    checks = list(axioms.values())
    return checks, {"axioms": sorted(axioms)}


def _run_glue(mesh: RegionMesh, config, tol, rng):
    if config.faces is None:
        raise MeshError("glue needs --faces LABEL_A LABEL_B")
    la, lb = config.faces
    if config.matching == "builtin" or config.matching is None:
        matching = builders.strip_end_matching(mesh)
    else:
        with open(config.matching) as fh:
            matching = {int(k): int(v) for k, v in json.load(fh).items()}
    rep = gluing_check(mesh, la, lb, matching, tol["RANK_REL"],
                       tol["PRINCIPAL_ANGLE"], tol["GLUING_ACTION_REL"],
                       tol["GLUE_LENGTH_REL"], tol["SOLUTION_REL"])
    checks = [_check("gluing_equalizer", rep["passed"], **_gluing_fields(rep))]
    return checks, rep


def _gluing_fields(rep: dict) -> dict:
    """Check-row fields of a :func:`gluing_check` report (A11 and ``glue``)."""
    return {k: rep[k] for k in ("dims", "action_residual", "max_principal_angle",
                                "containment_residual", "trace_gauge_leak")}


def _run_ym2d(mesh: RegionMesh, config, tol, rng):
    body = {}
    checks = []
    line = lagrangian_line_check(mesh, tol["STOKES_LINE_REL"])
    body["line_check"] = line
    checks.append(_check("lagrangian_line", line["passed"],
                         max_relative_residual=line["max_relative_residual"],
                         tolerance=tol["STOKES_LINE_REL"]))
    form = reduced_form_check(mesh.boundary, tol["REDUCED_FORM_REL"])
    body["reduced_form"] = form
    checks.append(_check("reduced_form_kappa_half", form["kappa_matches_half"],
                         kappa=form["kappa"], prose_kappa=form["prose_kappa"],
                         tolerance=tol["REDUCED_FORM_REL"]))
    checks.append(_check("factor_discrepancy_flagged",
                         form["factor_discrepancy_flagged"]))
    if config.output:
        from .ym2d import emit_fan_series

        stem = Path(config.output)
        fan_path = stem.with_name(f"{stem.stem}_fans.csv")
        fan_path.parent.mkdir(parents=True, exist_ok=True)
        with open(fan_path, "w", newline="") as fh:
            emit_fan_series((6, 16, 64), csv.writer(fh))
        body["fan_series_file"] = str(fan_path)
    return checks, body


_RUNNERS = {
    "decompose": _run_decompose,
    "harmonic": _run_harmonic,
    "verify-lagrangian": _run_verify_lagrangian,
    "verify-axioms": _run_verify_axioms,
    "glue": _run_glue,
    "ym2d": _run_ym2d,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; writes the report and returns the exit status."""
    try:
        tol = tolerances.table(config.tolerances)
        mesh = _load_mesh(config)
        rng = np.random.default_rng(config.seed)
    except (MeshError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR
    try:
        checks, body = _RUNNERS[config.command](mesh, config, tol, rng)
    except (MeshError, OSError) as exc:
        # bad face names, matching files, and similar input problems
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        # a verification stage refused to proceed: report it as a failure
        checks = [_check("aborted", False, error=str(exc))]
        body = {"error": str(exc)}

    passed = all(c["passed"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "mesh": config.mesh,
        "seed": config.seed,
        "tolerances": {k: tol[k] for k in sorted(tol)},
        "checks": checks,
        "passed": passed,
    }
    report.update({"detail": body})
    text = _render(report, config.format)
    if config.output:
        Path(config.output).parent.mkdir(parents=True, exist_ok=True)
        Path(config.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=1, sort_keys=True, default=float) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "passed", "detail"])
    for c in report["checks"]:
        extra = {k: v for k, v in c.items() if k not in ("id", "passed")}
        writer.writerow([c["id"], c["passed"],
                         json.dumps(extra, sort_keys=True, default=float)])
    return buf.getvalue()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="decgauge",
        description="verification suites for gauge boundary data on simplicial "
                    "regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--mesh", required=True,
                       help="builtin spec (disk:N=16, annulus:N=32, ann8, "
                            "square:N=4, strip:N=6, tetrahedron, solid_torus:K=8) "
                            "or a path to an OFF file")
        p.add_argument("--labels", default=None,
                       help="JSON sidecar mapping facet vertex tuples to labels")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="tolerance override")
        p.add_argument("--out", default=None, help="report path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        if name in ("decompose", "harmonic"):
            p.add_argument("--degree", type=int, default=1)
        if name == "glue":
            p.add_argument("--faces", nargs=2, metavar=("LABEL_A", "LABEL_B"))
            p.add_argument("--matching", default=None,
                           help="JSON vertex bijection, or 'builtin'")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else 0
    overrides = {}
    for item in args.tol:
        name, eq, value = item.partition("=")
        if not eq:
            sys.stderr.write(f"error: malformed --tol {item!r}\n")
            return EXIT_CONFIG_ERROR
        try:
            overrides[name] = float(value)
        except ValueError:
            sys.stderr.write(f"error: non-numeric tolerance {item!r}\n")
            return EXIT_CONFIG_ERROR
    out = args.out
    if out is None and os.environ.get("DECGAUGE_OUTDIR"):
        out = os.path.join(os.environ["DECGAUGE_OUTDIR"],
                           f"{args.command}.{args.format}")
    try:
        config = ExperimentConfig(
            command=args.command,
            mesh=args.mesh,
            labels=args.labels,
            tolerances=overrides,
            output=out,
            format=args.format,
            seed=args.seed,
            degree=getattr(args, "degree", 1),
            faces=tuple(args.faces) if getattr(args, "faces", None) else None,
            matching=getattr(args, "matching", None),
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
