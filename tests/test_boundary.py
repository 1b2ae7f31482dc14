import numpy as np
import pytest

from decgauge import boundary, dec, dynamics, hodge
from decgauge.boundary import BoundaryDatum, BoundaryError
from decgauge.dec import Cochain
from dense_oracles import coclosed_defect, full_basis


def test_trace_of_interior_gauge_is_zero(disk8):
    f = np.zeros(disk8.complex.n_simplices(0))
    f[0] = 1.0  # interior fan center
    eta = dec.d(Cochain(disk8, 0, f))
    datum = boundary.trace_solution(eta)
    assert np.abs(datum.phi.values).max() == 0.0
    assert np.abs(datum.phi_dot.values).max() == 0.0


def test_trace_constant_curvature_disk(disk8):
    # build a solution with prescribed constant curvature via extension
    sigma = disk8.boundary
    L = sigma.total_volume()
    A = disk8.total_volume()
    eps = sigma.complex.orientation * sigma.edge_lengths
    c = 1.0
    datum = BoundaryDatum(
        Cochain(sigma, 1, c * eps), Cochain(sigma, 1, (c * L / A) * eps)
    )
    eta = dynamics.extend(datum, disk8)
    out = boundary.trace_solution(eta)
    # loop integral of phi equals c * L, of phi_dot equals cdot * L
    loop_phi = sigma.integral(out.phi.values)
    loop_phidot = sigma.integral(out.phi_dot.values)
    assert np.isclose(loop_phi, c * L, rtol=1e-10)
    assert np.isclose(loop_phidot, (c * L / A) * L, rtol=1e-10)


def test_trace_harmonic_has_zero_flux(ann8):
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    eta = basis.cochains()[0]
    datum = boundary.trace_solution(eta)
    assert np.abs(datum.phi_dot.values).max() <= 1e-12
    assert np.abs(datum.phi.values).max() > 0


def test_trace_rejects_non_solution(disk8, rng):
    eta = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    if boundary.solution_residual(eta) > 1e-9:
        with pytest.raises(BoundaryError, match="bulk equation"):
            boundary.trace_solution(eta)


def test_trace_phi_dot_coclosed_exactly(ann8, rng):
    # chain identity: the flux trace of a solution is coclosed on the boundary
    space = dynamics.solution_space(ann8)
    cols = full_basis(space).columns
    sigma = ann8.boundary
    for _ in range(5):
        eta = Cochain(ann8, 1, cols @ rng.standard_normal(cols.shape[1]))
        datum = boundary.trace_solution(eta)
        defect = dec.norm(dec.codifferential(datum.phi_dot))
        assert defect <= 1e-12 * max(dec.norm(datum.phi_dot), 1e-300)


def test_gauge_fix_fixed_point(circle12):
    eps = circle12.complex.orientation * circle12.edge_lengths
    datum = BoundaryDatum(
        Cochain(circle12, 1, 0.5 * eps), Cochain(circle12, 1, -0.25 * eps)
    )
    fixed = boundary.gauge_fix_coclosed(datum)
    assert np.allclose(fixed.phi.values, datum.phi.values, atol=1e-12)
    assert np.allclose(fixed.phi_dot.values, datum.phi_dot.values, atol=1e-12)


def test_gauge_fix_kills_exact_part(circle12, rng):
    g = Cochain(circle12, 0, rng.standard_normal(circle12.complex.n_simplices(0)))
    datum = BoundaryDatum(dec.d(g), Cochain.zeros(circle12, 1))
    fixed = boundary.gauge_fix_coclosed(datum)
    assert np.abs(fixed.phi.values).max() <= 1e-12 * np.abs(g.values).max()


def test_gauge_fix_idempotent(ann8, rng):
    sigma = ann8.boundary
    datum = BoundaryDatum(
        Cochain(sigma, 1, rng.standard_normal(sigma.complex.n_simplices(1))),
        Cochain(sigma, 1, rng.standard_normal(sigma.complex.n_simplices(1))),
    )
    once = boundary.gauge_fix_coclosed(datum)
    twice = boundary.gauge_fix_coclosed(once)
    scale = max(np.abs(once.vector()).max(), 1e-300)
    assert np.abs(twice.vector() - once.vector()).max() <= 1e-10 * scale
    assert coclosed_defect(once) <= 1e-10


def test_gauge_fix_requires_closed(square2):
    from decgauge.mesh import extract_face

    face = extract_face(square2.boundary, "south")
    datum = BoundaryDatum(Cochain.zeros(face, 1), Cochain.zeros(face, 1))
    with pytest.raises(BoundaryError, match="closed"):
        boundary.gauge_fix_coclosed(datum)


def test_holonomy_circle_constant(circle12):
    eps = circle12.complex.orientation * circle12.edge_lengths
    phi = Cochain(circle12, 1, 0.5 * eps)
    cycle = boundary.component_cycles(circle12)[0]
    total, circ = boundary.holonomy(phi, cycle)
    assert np.isclose(total, np.pi, rtol=1e-13)
    assert np.isclose(circ, np.pi, rtol=1e-13)


def test_holonomy_exact_is_zero(circle12, rng):
    g = Cochain(circle12, 0, rng.standard_normal(circle12.complex.n_simplices(0)))
    phi = dec.d(g)
    cycle = boundary.component_cycles(circle12)[0]
    total, _ = boundary.holonomy(phi, cycle)
    assert abs(total) <= 1e-13 * np.abs(g.values).max()


def test_holonomy_rejects_non_cycle(circle12):
    phi = Cochain.zeros(circle12, 1)
    with pytest.raises(BoundaryError, match="cycle"):
        boundary.holonomy(phi, [(0, 1)])


def test_holonomy_homology_invariance(ann8):
    # closed 1-cochain: integrals agree on homologous cycles
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    eta = basis.cochains()[0]
    sigma = ann8.boundary
    tr = dec.tangential_trace(eta, sigma)
    inner_cycle, outer_cycle = None, None
    for cyc in boundary.component_cycles(sigma):
        verts = {int(v) for i, _ in cyc for v in sigma.complex.simplices[1][i]}
        radius = max(
            np.linalg.norm(sigma.complex.coordinates[v]) for v in verts
        )
        if radius < 2.0:
            inner_cycle = cyc
        else:
            outer_cycle = cyc
    h_in, _ = boundary.holonomy(tr, inner_cycle)
    h_out, _ = boundary.holonomy(tr, outer_cycle)
    assert abs(h_in) > 1e-6
    # inner and outer loops are homologous in the annulus up to orientation
    assert min(abs(h_in - h_out), abs(h_in + h_out)) <= 1e-12 * abs(h_in)


def test_large_gauge_identity(ann8):
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    datum = boundary.trace_solution(basis.cochains()[0])
    out = boundary.large_gauge_orbit(datum, [0, 0])
    assert np.array_equal(out.phi.values, datum.phi.values)


def test_large_gauge_shifts_period_by_two_pi(ann8):
    sigma = ann8.boundary
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    datum = boundary.trace_solution(basis.cochains()[0])
    reps, gens = boundary.integer_period_basis(sigma)
    b = len(reps)
    assert b == 2  # two boundary circles
    shifted = boundary.large_gauge_orbit(datum, [1] + [0] * (b - 1))
    before, _ = boundary.holonomy(datum.phi, gens[0])
    after, _ = boundary.holonomy(shifted.phi, gens[0])
    assert np.isclose(after - before, 2 * np.pi, rtol=0, atol=1e-10)
    # circle value unchanged
    _, c0 = boundary.holonomy(datum.phi, gens[0])
    _, c1 = boundary.holonomy(shifted.phi, gens[0])
    wrapped = (c1 - c0 + np.pi) % (2 * np.pi) - np.pi
    assert abs(wrapped) <= 1e-10
    assert np.array_equal(shifted.phi_dot.values, datum.phi_dot.values)


def test_large_gauge_group_law(ann8, rng):
    sigma = ann8.boundary
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    datum = boundary.trace_solution(basis.cochains()[0])
    reps, _ = boundary.integer_period_basis(sigma)
    b = len(reps)
    w1 = rng.integers(-3, 4, size=b)
    w2 = rng.integers(-3, 4, size=b)
    once = boundary.large_gauge_orbit(
        boundary.large_gauge_orbit(datum, w1), w2
    )
    both = boundary.large_gauge_orbit(datum, w1 + w2)
    scale = max(np.abs(datum.phi.values).max(), 1.0)
    assert np.abs(once.phi.values - both.phi.values).max() <= 1e-12 * scale * 8 * np.pi


def test_large_gauge_wrong_winding_length(ann8):
    datum = boundary.trace_solution(
        hodge.harmonic_neumann_basis(ann8, 1).cochains()[0]
    )
    with pytest.raises(BoundaryError, match="winding"):
        boundary.large_gauge_orbit(datum, [1, 2, 3])


def test_gauge_pairing_with_coclosed_flux_vanishes(ann8, rng):
    # the identity-component action is invisible to the pairing against any
    # coclosed second slot
    sigma = ann8.boundary
    f = Cochain(sigma, 0, rng.standard_normal(sigma.complex.n_simplices(0)))
    raw = Cochain(sigma, 1, rng.standard_normal(sigma.complex.n_simplices(1)))
    coclosed = boundary.gauge_fix_coclosed(
        BoundaryDatum(Cochain.zeros(sigma, 1), raw)
    ).phi_dot
    defect = abs(dec.inner_product(dec.d(f), coclosed))
    scale = dec.norm(dec.d(f)) * dec.norm(coclosed)
    assert defect <= 1e-11 * max(scale, 1e-300)


def test_datum_serialization(tmp_path, circle12):
    eps = circle12.complex.orientation * circle12.edge_lengths
    datum = BoundaryDatum(
        Cochain(circle12, 1, 1.5 * eps), Cochain(circle12, 1, -2.5 * eps)
    )
    path = tmp_path / "datum.json"
    datum.save(path)
    import json

    blob = json.loads(path.read_text())
    assert len(blob["edges"]) == 12
    assert len(blob["phi"]) == 12
    round_tripped = BoundaryDatum.from_vector(
        circle12, np.concatenate([blob["phi"], blob["phi_dot"]])
    )
    assert np.allclose(round_tripped.vector(), datum.vector())


def test_trace_onto_single_face(square2):
    # tracing onto an extracted face composes the parent maps correctly
    from decgauge.mesh import extract_face

    space = dynamics.solution_space(square2)
    eta = space.gauge_fixed_solutions()[0]
    full = boundary.trace_solution(eta)
    south = extract_face(square2.boundary, "south")
    partial = boundary.trace_solution(eta, south)
    idx = south.simplex_maps[1]
    assert np.allclose(partial.phi.values, full.phi.values[idx])
    assert partial.phi.host is south


def test_holonomy_three_homologous_representatives(ann8):
    # closed bulk 1-cochain on the square annulus; three cycles generating
    # the hole class: the inner square, the inner square with a corner
    # detour through an outer vertex, and the outer square
    basis = hodge.harmonic_neumann_basis(ann8, 1)
    eta = basis.cochains()[0]
    cx = ann8.complex

    def edge(u, v):
        return cx.simplex_index(1, (u, v)), 1 if u < v else -1

    inner = [edge(4, 5), edge(5, 6), edge(6, 7), edge(7, 4)]
    detour = [edge(4, 5), edge(5, 6), edge(6, 7), edge(7, 0), edge(0, 4)]
    outer = [edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 0)]
    values = []
    for cyc in (inner, detour, outer):
        assert boundary.cycle_is_closed(ann8, cyc)
        values.append(boundary.holonomy(eta, cyc)[0])
    ref = values[0]
    assert abs(ref) > 1e-6
    for v in values[1:]:
        assert min(abs(v - ref), abs(v + ref)) <= 1e-12 * abs(ref)


def test_gauge_transformation_apply(ann8, rng):
    sigma = ann8.boundary
    datum = boundary.trace_solution(
        hodge.harmonic_neumann_basis(ann8, 1).cochains()[0]
    )
    f = Cochain(sigma, 0, rng.standard_normal(sigma.complex.n_simplices(0)))
    small = boundary.GaugeTransformation(f=f)
    assert small.component == "identity"
    moved = small.apply(datum)
    assert np.allclose(moved.phi.values, (datum.phi + dec.d(f)).values)
    assert np.array_equal(moved.phi_dot.values, datum.phi_dot.values)
    big = boundary.GaugeTransformation(f=f, winding=[1, 0])
    assert big.component == "large"
    moved2 = big.apply(datum)
    assert not np.allclose(moved2.phi.values, moved.phi.values)


def test_gauge_fix_norm_non_increasing(ann8, rng):
    sigma = ann8.boundary
    n1 = sigma.complex.n_simplices(1)
    for _ in range(10):
        datum = BoundaryDatum(
            Cochain(sigma, 1, rng.standard_normal(n1)),
            Cochain(sigma, 1, rng.standard_normal(n1)),
        )
        fixed = boundary.gauge_fix_coclosed(datum)
        assert dec.norm(fixed.phi) <= dec.norm(datum.phi) * (1 + 1e-12)
        assert dec.norm(fixed.phi_dot) <= dec.norm(datum.phi_dot) * (1 + 1e-12)


def test_homology_generators_torus(torus_region):
    sigma = torus_region
    # use the closed surface as its own hypersurface host
    from decgauge.mesh import HypersurfaceMesh

    hs = HypersurfaceMesh(sigma.complex, edge_lengths=sigma.edge_lengths)
    gens, basis = boundary.homology_generators(hs)
    assert len(gens) == 2
    assert basis.dim == 2
