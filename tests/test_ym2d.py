import csv
import io

import numpy as np
import pytest

from decgauge import builders, dec, dynamics, subspaces, ym2d
from decgauge.boundary import BoundaryDatum
from decgauge.dec import Cochain


def test_curvature_constant_prescribed(disk8):
    eta_mu = dec.area_form(disk8, scale=2.0)
    # build a 1-cochain with d eta = 2 * area form by least squares
    d1 = disk8.complex.boundary_matrices[2].T.toarray()
    vals, *_ = np.linalg.lstsq(d1, eta_mu.values, rcond=None)
    eta = Cochain(disk8, 1, vals)
    c_dot, rep = ym2d.curvature_constant(eta)
    assert np.isclose(c_dot, 2.0, rtol=1e-12)
    assert rep["max_deviation"] <= 1e-12


def test_curvature_constant_exact_field(disk8, rng):
    f = Cochain(disk8, 0, rng.standard_normal(disk8.complex.n_simplices(0)))
    c_dot, rep = ym2d.curvature_constant(dec.d(f))
    assert abs(c_dot) <= 1e-14 * max(np.abs(f.values).max(), 1e-300)


def test_curvature_constant_solver_output(disk8):
    space = dynamics.solution_space(disk8)
    eta = space.gauge_fixed_solutions()[0]
    c_dot, rep = ym2d.curvature_constant(eta)
    assert "max_deviation" in rep and "c_dot" in rep


def test_curvature_tolerance_raises(disk8, rng):
    eta = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    _, rep = ym2d.curvature_constant(eta)
    if rep["max_deviation"] > 1e-6 * abs(rep["c_dot"]):
        with pytest.raises(ym2d.Ym2dError, match="varies"):
            ym2d.curvature_constant(eta, tol=1e-6)


def test_line_check_hexagon(disk6):
    rep = ym2d.lagrangian_line_check(disk6)
    assert rep["passed"]
    assert np.isclose(rep["area"], 3 * np.sqrt(3) / 2, rtol=1e-14)
    assert np.isclose(rep["perimeter"], 6.0, rtol=1e-14)
    assert np.isclose(rep["slope"], 6.0 / (3 * np.sqrt(3) / 2), rtol=1e-12)
    for row in rep["solutions"]:
        assert row["relative_residual"] <= 1e-12
        if abs(row["c"]) > 1e-9:
            assert np.isclose(row["c_dot"] / row["c"], rep["slope"], rtol=1e-10)


def test_line_check_fan_sequence():
    slopes = []
    for n in (6, 16, 64):
        rep = ym2d.lagrangian_line_check(builders.disk(n))
        assert rep["max_relative_residual"] <= 1e-12
        slopes.append(rep["slope"])
    # slope approaches the round-disk value 2 from above
    assert slopes[0] > slopes[1] > slopes[2] > 2.0
    assert abs(slopes[2] - 2.0) < 0.01


def test_line_check_zero_datum_line_through_origin(disk8):
    sigma = disk8.boundary
    zero = BoundaryDatum(Cochain.zeros(sigma, 1), Cochain.zeros(sigma, 1))
    eta = dynamics.extend(zero, disk8)
    c_dot, _ = ym2d.curvature_constant(eta)
    assert abs(c_dot) == 0.0


def test_line_check_rejects_multiple_boundary_components(ann8):
    with pytest.raises(ym2d.Ym2dError, match="component"):
        ym2d.lagrangian_line_check(ann8)


@pytest.mark.parametrize("spec", ["disk:N=8", "square:N=4"])
def test_line_check_does_not_depend_on_the_basis_sign(spec, monkeypatch):
    m = builders.from_spec(spec)
    report = ym2d.lagrangian_line_check(m)
    assert all(row["loop_integral"] >= 0 for row in report["solutions"])

    def negated(region):
        space = dynamics.solution_space(region)
        g = space.gauge_fixed_basis
        space.gauge_fixed_basis = subspaces.Subspace(-g.columns, gram=g.gram)
        return space

    monkeypatch.setattr(ym2d, "solution_space", negated)
    assert ym2d.lagrangian_line_check(m) == report


def test_reduced_form_kappa_half(circle12):
    rep = ym2d.reduced_form_check(circle12)
    assert np.isclose(rep["omega_on_unit_pair"], np.pi, rtol=1e-13)
    assert rep["kappa_matches_half"]
    assert rep["factor_discrepancy_flagged"]
    assert rep["prose_kappa"] == 1.0


def test_reduced_form_degenerate_pair(circle12):
    datum = ym2d.Reduced2dDatum(0.7, -1.3, 2 * np.pi).to_boundary_datum(circle12)
    from decgauge.symplectic import omega

    assert omega(datum, datum) == 0.0


def test_reduced_form_scales_with_length():
    small = builders.circle(12, length=2 * np.pi)
    big = builders.circle(12, length=6 * np.pi)
    r_small = ym2d.reduced_form_check(small)
    r_big = ym2d.reduced_form_check(big)
    assert np.isclose(
        r_big["omega_on_unit_pair"] / r_small["omega_on_unit_pair"], 3.0,
        rtol=1e-12,
    )


def test_holonomy_quotient_windings(circle12):
    L = 2 * np.pi
    base = ym2d.Reduced2dDatum(0.25, 0.8, L)
    p0 = ym2d.holonomy_quotient(base, circle12)
    shifted = ym2d.Reduced2dDatum(0.25 + 2 * np.pi * 3 / L, 0.8, L)
    p1 = ym2d.holonomy_quotient(shifted, circle12)
    wrapped = (p1[0] - p0[0] + np.pi) % (2 * np.pi) - np.pi
    assert abs(wrapped) <= 1e-12
    assert np.isclose(p1[1], p0[1], rtol=1e-12)


def test_holonomy_quotient_separates_non_windings(circle12):
    L = 2 * np.pi
    p0 = ym2d.holonomy_quotient(ym2d.Reduced2dDatum(1.0, 0.0, L), circle12)
    p1 = ym2d.holonomy_quotient(ym2d.Reduced2dDatum(1.5, 0.0, L), circle12)
    assert abs(p1[0] - p0[0]) > 1e-3


def test_holonomy_quotient_zero_c(circle12):
    p = ym2d.holonomy_quotient(ym2d.Reduced2dDatum(0.0, 0.5, 2 * np.pi), circle12)
    assert p[0] == 0.0
    assert np.isclose(p[1], 0.5, rtol=1e-12)


def test_extendable_reduced_pair_isotropy(disk6):
    # any two data on the extendability line pair to zero under the two-form
    rep = ym2d.lagrangian_line_check(disk6)
    L, A = rep["perimeter"], rep["area"]
    sigma = disk6.boundary
    from decgauge.symplectic import omega

    for c, cp in ((1.0, -0.5), (0.3, 2.0)):
        a = ym2d.Reduced2dDatum(c, c * L / A, L).to_boundary_datum(sigma)
        b = ym2d.Reduced2dDatum(cp, cp * L / A, L).to_boundary_datum(sigma)
        assert abs(omega(a, b)) <= 1e-13 * max(abs(c), abs(cp)) ** 2 * L


def test_emit_fan_series():
    buf = io.StringIO()
    ym2d.emit_fan_series((6, 16), csv.writer(buf))
    rows = buf.getvalue().strip().splitlines()
    assert rows[0].startswith("N,")
    assert len(rows) == 3
