"""Acceptance gate: one test per gated criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here from the central table; nothing is
calibrated at runtime.
"""

import numpy as np

from decgauge import boundary, builders, dec, dynamics, hodge, mesh, symplectic, ym2d
from decgauge import tolerances as tolmod
from decgauge.boundary import BoundaryDatum
from decgauge.dec import Cochain
from dense_oracles import full_basis

TOL = tolmod.table()

SEED = 20240811
TRIALS = 100


def _verdict(num, text, passed, detail=""):
    line = f"criterion {num:2d} [{'PASS' if passed else 'FAIL'}] {text}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def _builtin_regions():
    return [
        builders.disk(6),
        builders.disk(16),
        builders.disk(64),
        builders.annulus(16),
        builders.square_annulus(),
        builders.square(2),
        builders.strip(4),
        builders.tetrahedron(),
        builders.solid_torus(8),
    ]


def test_criterion_1_adjointness():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for m in _builtin_regions():
        cx = m.complex
        for _ in range(TRIALS):
            f = Cochain(m, 0, rng.standard_normal(cx.n_simplices(0)))
            a = Cochain(m, 1, rng.standard_normal(cx.n_simplices(1)))
            ratio = abs(dec.adjointness_defect(f, a)) / dec.adjointness_scale(f, a)
            worst = max(worst, ratio)
    _verdict(1, "discrete Stokes adjointness on all built-in meshes",
             worst <= TOL["ADJOINTNESS_REL"], f"worst {worst:.2e}")


def test_criterion_2_betti_agreement():
    cases = [
        (builders.disk(16), 0),
        (builders.annulus(16), 1),
        (mesh.disjoint_union(builders.annulus(8), builders.square_annulus()), 2),
        (builders.solid_torus(8), 1),
    ]
    ok = True
    details = []
    for m, expected in cases:
        b = hodge.betti_oracle(m, 1)
        dim = hodge.harmonic_neumann_basis(m, 1).dim
        details.append(f"{m.name}: basis {dim} oracle {b} expected {expected}")
        ok = ok and (dim == b == expected)
    _verdict(2, "harmonic Neumann dimension equals the integer Betti oracle",
             ok, "; ".join(details))


def test_criterion_3_hmf():
    rng = np.random.default_rng(SEED + 1)
    meshes = [builders.disk(16), builders.square_annulus(),
              builders.annulus(16), builders.square(2), builders.tetrahedron()]
    worst_orth, worst_rec = 0.0, 0.0
    for m in meshes:
        basis = hodge.harmonic_neumann_basis(m, 1)
        for _ in range(TRIALS):
            alpha = Cochain(m, 1, rng.standard_normal(m.complex.n_simplices(1)))
            deco = hodge.hmf_decompose(alpha, neumann_basis=basis)
            worst_orth = max(worst_orth, deco.residual_norm)
            rec = dec.norm(deco.reconstruction() - alpha) / dec.norm(alpha)
            worst_rec = max(worst_rec, rec)
    ok = worst_orth <= TOL["HMF_REL"] and worst_rec <= TOL["HMF_REL"]
    _verdict(3, "four-way decomposition orthogonality and reconstruction",
             ok, f"orthogonality {worst_orth:.2e}, reconstruction {worst_rec:.2e}")


def _four_meshes():
    return [builders.disk(16), builders.annulus(16), builders.square(2),
            builders.tetrahedron()]


def test_criterion_4_isotropy():
    worst = 0.0
    details = []
    for m in _four_meshes():
        rep = dynamics.verify_lagrangian(m)
        ratio = rep["isotropy_max"] / rep["isotropy_scale"]
        worst = max(worst, ratio)
        details.append(f"{m.name}: {ratio:.2e}")
    _verdict(4, "isotropy of restricted solution pairs",
             worst <= TOL["ISOTROPY_REL"], "; ".join(details))


def test_criterion_5_lagrangian_half_dimension():
    ok = True
    details = []
    for m in _four_meshes():
        rep = dynamics.verify_lagrangian(m)
        good = (rep["half_dimension"]
                and rep["max_principal_angle"] <= TOL["PRINCIPAL_ANGLE"]
                and rep["lagrangian"])
        ok = ok and good
        details.append(
            f"{m.name}: image {rep['dims']['image']} of {rep['dims']['phi_space']}"
            f" angle {rep['max_principal_angle']:.1e}"
        )
    _verdict(5, "Lagrangian half-dimension and complement containment", ok,
             "; ".join(details))


def test_criterion_6_two_dimensional_line():
    ok = True
    details = []
    for n in (6, 16, 64):
        rep = ym2d.lagrangian_line_check(builders.disk(n))
        ok = ok and rep["max_relative_residual"] <= TOL["STOKES_LINE_REL"]
        details.append(f"N={n}: {rep['max_relative_residual']:.1e}")
    hexagon = ym2d.lagrangian_line_check(builders.disk(6))
    target = 6.0 / (3.0 * np.sqrt(3.0) / 2.0)
    slope_err = abs(hexagon["slope"] - target) / target
    ok = ok and slope_err <= 1e-12
    for row in hexagon["solutions"]:
        if abs(row["c"]) > 1e-9:
            ok = ok and abs(row["c_dot"] / row["c"] - target) <= 1e-12 * target
    _verdict(6, "loop integral equals curvature times area on disk fans", ok,
             "; ".join(details) + f"; hexagon slope error {slope_err:.1e}")


def test_criterion_7_bracket_and_action_identities():
    rng = np.random.default_rng(SEED + 2)
    worst2, worst00 = 0.0, 0.0
    for m in _four_meshes():
        space = dynamics.solution_space(m)
        cols = full_basis(space).columns
        sigma = m.boundary
        for _ in range(25):
            eta = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
            xi = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
            a = boundary.trace_solution(eta, sigma)
            b = boundary.trace_solution(xi, sigma)
            eq2 = (symplectic.omega(a, b)
                   - 0.5 * symplectic.bracket(a, b)
                   + 0.5 * symplectic.bracket(b, a))
            scale2 = max(abs(symplectic.bracket(a, b)),
                         abs(symplectic.bracket(b, a)), 1e-300)
            worst2 = max(worst2, abs(eq2) / scale2)
            residual, scale = dynamics.action_difference_residual(eta, xi)
            worst00 = max(worst00, abs(residual) / scale)
    ok = worst2 <= TOL["AXIOM_IDENTITY_REL"] and worst00 <= TOL["AXIOM_IDENTITY_REL"]
    _verdict(7, "bracket antisymmetrization and action-difference identities",
             ok, f"bracket {worst2:.2e}, action {worst00:.2e}")


def test_criterion_8_face_factorization():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for m in (builders.square_annulus(), builders.square(2),
              builders.annulus(16)):
        sigma = m.boundary
        n1 = sigma.complex.n_simplices(1)
        for _ in range(25):
            datum = BoundaryDatum(
                Cochain(sigma, 1, rng.standard_normal(n1)),
                Cochain(sigma, 1, rng.standard_normal(n1)),
            )
            rep = symplectic.face_factorization_check(sigma, datum)
            worst = max(worst, rep["residual"] / rep["scale"])
    _verdict(8, "bracket additivity over labeled faces incl. corners",
             worst <= TOL["FACTORIZATION_REL"], f"worst {worst:.2e}")


def test_criterion_9_gluing():
    sq = builders.square(2)
    two = mesh.disjoint_union(sq, sq)
    cx = two.complex
    east = sorted(
        {int(v) for f in two.face_labels["m0.east"] for v in cx.simplices[1][f]},
        key=lambda v: cx.coordinates[v][1],
    )
    west = sorted(
        {int(v) for f in two.face_labels["m1.west"] for v in cx.simplices[1][f]},
        key=lambda v: cx.coordinates[v][1],
    )
    rep_rect = dynamics.gluing_check(two, "m0.east", "m1.west",
                                     dict(zip(east, west)))
    st = builders.strip(4)
    rep_ann = dynamics.gluing_check(st, "west", "east",
                                    builders.strip_end_matching(st))
    ok = True
    details = []
    for name, rep in (("rectangle", rep_rect), ("annulus", rep_ann)):
        dims_ok = rep["dims"]["glued_solutions"] == rep["dims"]["equalizer"]
        act_ok = rep["action_residual"] <= TOL["GLUING_ACTION_REL"]
        ok = ok and dims_ok and act_ok and rep["passed"]
        details.append(
            f"{name}: dims {rep['dims']['glued_solutions']}=="
            f"{rep['dims']['equalizer']}, action {rep['action_residual']:.1e}"
        )
    _verdict(9, "gluing equalizer dimensions and action composition", ok,
             "; ".join(details))


def test_criterion_10_gauge_properties():
    rng = np.random.default_rng(SEED + 4)
    m = builders.square_annulus()
    space = dynamics.solution_space(m)
    cols = full_basis(space).columns
    worst_action = 0.0
    for _ in range(25):
        eta = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
        f = Cochain(m, 0, rng.standard_normal(m.complex.n_simplices(0)))
        shifted = eta + dec.d(f)
        scale = max(dynamics.action_scale(eta), dynamics.action_scale(shifted))
        worst_action = max(
            worst_action,
            abs(dynamics.action(shifted) - dynamics.action(eta)) / scale,
        )
    action_ok = worst_action <= TOL["ROUNDOFF_REL"]

    sigma = m.boundary
    n1 = sigma.complex.n_simplices(1)
    worst_idem = 0.0
    for _ in range(10):
        datum = BoundaryDatum(
            Cochain(sigma, 1, rng.standard_normal(n1)),
            Cochain(sigma, 1, rng.standard_normal(n1)),
        )
        once = boundary.gauge_fix_coclosed(datum)
        twice = boundary.gauge_fix_coclosed(once)
        scale = max(np.abs(once.vector()).max(), 1e-300)
        worst_idem = max(worst_idem,
                         np.abs(twice.vector() - once.vector()).max() / scale)
    idem_ok = worst_idem <= TOL["GAUGE_IDEMPOTENT_REL"]

    basis = hodge.harmonic_neumann_basis(m, 1)
    datum = boundary.trace_solution(basis.cochains()[0])
    reps, gens = boundary.integer_period_basis(sigma)
    worst_hol = 0.0
    for w in ([1, 0], [0, 1], [2, -3]):
        shifted = boundary.large_gauge_orbit(datum, w)
        for g in gens:
            _, c0 = boundary.holonomy(datum.phi, g)
            _, c1 = boundary.holonomy(shifted.phi, g)
            diff = abs((c1 - c0 + np.pi) % (2 * np.pi) - np.pi)
            worst_hol = max(worst_hol, diff)
    hol_ok = worst_hol <= TOL["HOLONOMY_MOD_REL"]

    ok = action_ok and idem_ok and hol_ok
    _verdict(10, "gauge invariance, projection idempotence, winding invariance",
             ok, f"action {worst_action:.1e}, idempotence {worst_idem:.1e}, "
                 f"holonomy {worst_hol:.1e}")


def test_criterion_11_factor_discrepancy_flagged():
    rep = ym2d.reduced_form_check(builders.circle(24))
    ok = (rep["factor_discrepancy_flagged"] is True
          and rep["kappa_matches_half"]
          and rep["prose_kappa"] == 1.0)
    _verdict(11, "reduced-form coefficient reported as one half and flagged",
             ok, f"kappa {rep['kappa']:.3f} vs prose {rep['prose_kappa']:.1f}")
