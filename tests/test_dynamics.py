import numpy as np
import pytest

from decgauge import boundary, builders, dec, dynamics, hodge, mesh
from decgauge.boundary import BoundaryDatum
from decgauge.dec import Cochain
from dense_oracles import full_basis, solutions


def test_solution_space_tri1(tri1):
    # no interior edges: every 1-cochain solves the bulk equation
    space = dynamics.solution_space(tri1)
    assert space.dim == 3
    assert space.gauge_fixed_dim == 3 - (3 - 1)


def test_solution_space_closed_complex(torus_region):
    space = dynamics.solution_space(torus_region)
    assert space.gauge_fixed_dim == hodge.betti_oracle(torus_region, 1) == 2
    for eta in space.gauge_fixed_solutions():
        assert dec.norm(dec.d(eta)) <= 1e-9 * dec.norm(eta)
        assert dec.norm(dec.codifferential(eta)) <= 1e-9 * dec.norm(eta)


def test_solution_space_residuals(ann8):
    space = dynamics.solution_space(ann8)
    for eta in solutions(space):
        assert boundary.solution_residual(eta) <= 1e-9
    adj = (ann8.complex.boundary_matrices[1]
           @ np.diag(ann8.star_diagonal(1)))
    for eta in space.gauge_fixed_solutions():
        assert np.abs(np.asarray(adj) @ eta.values).max() <= 1e-9


def test_restriction_injective_on_gauge_fixed_disk(disk8):
    space = dynamics.solution_space(disk8)
    data = np.column_stack([
        boundary.trace_solution(eta).vector()
        for eta in space.gauge_fixed_solutions()
    ])
    s = np.linalg.svd(data, compute_uv=False)
    assert int(np.sum(s > 1e-8 * s.max())) == space.gauge_fixed_dim


def test_action_of_exact_is_roundoff(disk8, rng):
    f = Cochain(disk8, 0, rng.standard_normal(disk8.complex.n_simplices(0)))
    eta = dec.d(f)
    assert dynamics.action(eta) <= 1e-26 * max(dynamics.action_scale(eta), 1e-300)


def test_action_constant_curvature(disk8):
    sigma = disk8.boundary
    L, A = sigma.total_volume(), disk8.total_volume()
    eps = sigma.complex.orientation * sigma.edge_lengths
    c_dot = L / A
    datum = BoundaryDatum(Cochain(sigma, 1, eps),
                          Cochain(sigma, 1, c_dot * eps))
    eta = dynamics.extend(datum, disk8)
    measured, rep = __import__(
        "decgauge.ym2d", fromlist=["curvature_constant"]
    ).curvature_constant(eta)
    assert np.isclose(dynamics.action(eta), measured**2 * A
                      + ((dec.d(eta).values * disk8.complex.orientation
                          / disk8.volumes(2) - measured) ** 2
                         * disk8.volumes(2)).sum(), rtol=1e-10)


def test_action_additivity_disjoint_union(disk8, ann8, rng):
    union = mesh.disjoint_union(disk8, ann8)
    eta = Cochain(union, 1, rng.standard_normal(union.complex.n_simplices(1)))
    parts = []
    for offset, m in ((0, disk8), (disk8.complex.n_vertices, ann8)):
        vals = np.zeros(m.complex.n_simplices(1))
        for i, e in enumerate(map(tuple, m.complex.simplices[1])):
            j = union.complex.index[1][(e[0] + offset, e[1] + offset)]
            vals[i] = eta.values[j]
        parts.append(dynamics.action(Cochain(m, 1, vals)))
    assert np.isclose(dynamics.action(eta), sum(parts), rtol=1e-13)


def test_theta_vanishes_for_interior_variation(disk8, rng):
    space = dynamics.solution_space(disk8)
    cols = full_basis(space).columns
    eta = Cochain(disk8, 1, cols @ rng.standard_normal(cols.shape[1]))
    x = np.zeros(disk8.complex.n_simplices(1))
    interior = disk8.interior_simplex_mask(1)
    x[interior] = rng.standard_normal(int(interior.sum()))
    assert dynamics.theta(eta, Cochain(disk8, 1, x)) == 0.0


def test_theta_linearity(ann8, rng):
    space = dynamics.solution_space(ann8)
    cols = full_basis(space).columns
    eta = Cochain(ann8, 1, cols @ rng.standard_normal(cols.shape[1]))
    n1 = ann8.complex.n_simplices(1)
    x = Cochain(ann8, 1, rng.standard_normal(n1))
    y = Cochain(ann8, 1, rng.standard_normal(n1))
    lhs = dynamics.theta(eta, 2.0 * x + 3.0 * y)
    rhs = 2.0 * dynamics.theta(eta, x) + 3.0 * dynamics.theta(eta, y)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-300)


def test_action_difference_identity(square2, ann8, tet, rng):
    for m in (square2, ann8, tet):
        space = dynamics.solution_space(m)
        cols = full_basis(space).columns
        for _ in range(10):
            eta = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
            xi = Cochain(m, 1, cols @ rng.standard_normal(cols.shape[1]))
            residual, scale = dynamics.action_difference_residual(eta, xi)
            assert abs(residual) <= 1e-11 * scale


def test_restrict_half_dimension(disk8):
    from decgauge.symplectic import coclosed_pair_subspace

    space = dynamics.solution_space(disk8)
    image = dynamics.restrict(space)
    phi = coclosed_pair_subspace(disk8.boundary)
    assert image.dim * 2 == phi.dim


def test_restrict_harmonic_gives_zero_flux_datum(ann8):
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    eta = basis.cochains()[0]
    datum = boundary.gauge_fix_coclosed(boundary.trace_solution(eta))
    assert np.abs(datum.phi_dot.values).max() <= 1e-12
    space = dynamics.solution_space(ann8)
    image = dynamics.restrict(space)
    assert image.projection_residual(datum.vector()) <= 1e-8


def test_verify_lagrangian_on_required_meshes(disk8, annulus16, square2, tet):
    for m in (disk8, annulus16, square2, tet):
        rep = dynamics.verify_lagrangian(m)
        assert rep["lagrangian"], rep
        assert rep["half_dimension"]
        assert rep["isotropy_max"] <= 1e-11 * rep["isotropy_scale"]
        assert rep["max_principal_angle"] <= 1e-7


def test_verify_lagrangian_empty_boundary(torus_region):
    rep = dynamics.verify_lagrangian(torus_region)
    assert rep["lagrangian"]
    assert rep["dims"]["phi_space"] == 0


def test_extend_round_trip(disk8, ann8):
    for m in (disk8, ann8):
        space = dynamics.solution_space(m)
        eta0 = space.gauge_fixed_solutions()[0]
        datum = boundary.gauge_fix_coclosed(boundary.trace_solution(eta0))
        eta1 = dynamics.extend(datum, m)
        back = boundary.trace_solution(eta1)
        err = np.linalg.norm(back.vector() - datum.vector())
        assert err <= 1e-8 * max(np.linalg.norm(datum.vector()), 1e-300)


def test_extend_rejects_off_line_datum(disk8):
    sigma = disk8.boundary
    eps = sigma.complex.orientation * sigma.edge_lengths
    bad = BoundaryDatum(Cochain(sigma, 1, eps), Cochain.zeros(sigma, 1))
    with pytest.raises(dynamics.NotExtendableError):
        dynamics.extend(bad, disk8)


def test_extend_zero_datum(disk8):
    sigma = disk8.boundary
    zero = BoundaryDatum(Cochain.zeros(sigma, 1), Cochain.zeros(sigma, 1))
    eta = dynamics.extend(zero, disk8)
    assert np.abs(eta.values).max() == 0.0


def test_gluing_two_squares(square2):
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
    rep = dynamics.gluing_check(two, "m0.east", "m1.west", dict(zip(east, west)))
    assert rep["passed"]
    assert rep["dims"]["glued_solutions"] == rep["dims"]["equalizer"]


def test_gluing_strip_to_annulus(strip4):
    rep = dynamics.gluing_check(
        strip4, "west", "east", builders.strip_end_matching(strip4)
    )
    assert rep["passed"]
    glued = mesh.glue(strip4, "west", "east",
                      builders.strip_end_matching(strip4))
    # the glued annulus gains a harmonic direction the strip lacks
    assert hodge.betti_oracle(glued, 1) == 1
    assert hodge.betti_oracle(strip4, 1) == 0
    assert hodge.harmonic_neumann_basis(glued, 1).dim == 1


def test_gluing_self_rejected(strip4):
    with pytest.raises(mesh.MeshError, match="itself"):
        dynamics.gluing_check(strip4, "west", "west", {})


def test_verify_lagrangian_glued_annulus():
    # abstract complex: no global embedding, metric carried by lengths only
    st = builders.strip(6)
    glued = mesh.glue(st, "west", "east", builders.strip_end_matching(st))
    rep = dynamics.verify_lagrangian(glued)
    assert rep["lagrangian"]
    assert rep["dims"]["image"] == 2  # one circulation, one flux direction


def test_verify_lagrangian_solid_torus(solid_torus8):
    rep = dynamics.verify_lagrangian(solid_torus8)
    assert rep["lagrangian"]
    assert rep["half_dimension"]
    assert rep["dims"]["phi_space"] == 2 * rep["dims"]["image"]


def test_extend_harmonic_on_solid_torus(solid_torus8):
    eta = hodge.harmonic_neumann_basis(solid_torus8, 1).cochains()[0]
    datum = boundary.gauge_fix_coclosed(boundary.trace_solution(eta))
    back = boundary.trace_solution(dynamics.extend(datum, solid_torus8))
    err = np.linalg.norm(back.vector() - datum.vector())
    assert err <= 1e-8 * np.linalg.norm(datum.vector())
