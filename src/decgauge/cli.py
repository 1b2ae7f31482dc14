"""Command-line front end: mesh ingestion, dispatch to the suites, reports.

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
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import builders, tolerances
from .axioms import _check, _gluing_fields, _lagrangian, _lagrangian_fields, verify_axioms
from .dec import Cochain, norm
from .dynamics import gluing_check, solution_space
from .hodge import (
    HodgeError,
    betti_oracle,
    harmonic_dirichlet_basis,
    harmonic_neumann_basis,
    hmf_decompose,
)
from .mesh import MeshError, RegionMesh, glue, load_off
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


def _gap(harmonic):
    """A basis' pivot gap for a report: None (JSON null) where it is inf,
    without a rank cut (no kernel, or a closed form)."""
    gap = harmonic.basis.gap
    return None if np.isinf(gap) else gap


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
    body["neumann_dim"], body["neumann_gap"] = neumann.dim, _gap(neumann)
    try:
        dirichlet = harmonic_dirichlet_basis(mesh, k, tol["RANK_REL"])
        body["dirichlet_dim"], body["dirichlet_gap"] = dirichlet.dim, _gap(dirichlet)
        dres = dirichlet.max_residual()
        checks.append(
            _check("dirichlet_harmonic_residual", dres <= tol["HARMONIC_REL"],
                   residual=dres, tolerance=tol["HARMONIC_REL"])
        )
    except HodgeError as exc:
        checks.append(_check("dirichlet_dimension_matches_oracle", False,
                             error=str(exc)))
    return checks, body


def _run_verify_lagrangian(mesh: RegionMesh, config, tol, rng):
    rep = _lagrangian(solution_space(mesh, tol["RANK_REL"]), tol, config.seed)
    return [_check("lagrangian", rep["lagrangian"], **_lagrangian_fields(rep))], rep


def _run_verify_axioms(mesh: RegionMesh, config, tol, rng):
    axioms = verify_axioms(mesh, tol, rng)
    checks = list(axioms.values())
    return checks, {"axioms": sorted(axioms)}


def _run_glue(mesh: RegionMesh, config, tol, rng):
    if config.faces is None:
        raise MeshError("glue needs --faces LABEL_A LABEL_B")
    if config.matching == "builtin" or config.matching is None:
        matching = builders.strip_end_matching(mesh)
    else:
        try:  # malformed JSON or an entry that is no vertex index: an input error
            with open(config.matching) as fh:
                matching = {int(k): operator.index(v) for k, v in json.load(fh).items()}
        except (ValueError, TypeError, AttributeError) as exc:
            raise MeshError(f"matching file {config.matching!r}: {exc}") from None
    glued = glue(mesh, *config.faces, matching, tol["GLUE_LENGTH_REL"])
    rep = gluing_check(glued, tol["RANK_REL"], tol["GLUING_ACTION_REL"], tol["SOLUTION_REL"])
    return [_check("gluing_equalizer", rep["passed"], **_gluing_fields(rep))], rep


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
