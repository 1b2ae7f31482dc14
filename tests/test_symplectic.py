import numpy as np
import pytest
from dense_oracles import contains, form_kernel, hypersurface_form, restrict_form

from decgauge import builders, dec, symplectic
from decgauge.boundary import BoundaryDatum
from decgauge.dec import Cochain
from decgauge.subspaces import Subspace, from_span, principal_angles
from decgauge.symplectic import SymplecticSpace


def constant_pair(sigma, c, c_dot):
    eps = sigma.complex.orientation * sigma.edge_lengths
    return BoundaryDatum(
        Cochain(sigma, 1, c * eps), Cochain(sigma, 1, c_dot * eps)
    )


def test_omega_antisymmetric_diagonal(circle12):
    a = constant_pair(circle12, 1.2, 3.4)
    assert symplectic.omega(a, a) == 0.0


def test_omega_circle_unit_pair(circle12):
    a = constant_pair(circle12, 1.0, 0.0)
    b = constant_pair(circle12, 0.0, 1.0)
    assert np.isclose(symplectic.omega(a, b), np.pi, rtol=1e-13)


def test_bracket_circle_values(circle12):
    a = constant_pair(circle12, 1.0, 0.0)
    b = constant_pair(circle12, 0.0, 1.0)
    assert np.isclose(symplectic.bracket(a, b), 2 * np.pi, rtol=1e-13)
    assert symplectic.bracket(b, a) == 0.0


def test_bracket_zero_flux_slot(circle12, rng):
    n = circle12.complex.n_simplices(1)
    a = BoundaryDatum(
        Cochain(circle12, 1, rng.standard_normal(n)), Cochain.zeros(circle12, 1)
    )
    b = BoundaryDatum(
        Cochain(circle12, 1, rng.standard_normal(n)), Cochain.zeros(circle12, 1)
    )
    assert symplectic.bracket(a, b) == 0.0


def test_bracket_identity_random(ann8, rng):
    sigma = ann8.boundary
    n = sigma.complex.n_simplices(1)
    for _ in range(20):
        a = BoundaryDatum(
            Cochain(sigma, 1, rng.standard_normal(n)),
            Cochain(sigma, 1, rng.standard_normal(n)),
        )
        b = BoundaryDatum(
            Cochain(sigma, 1, rng.standard_normal(n)),
            Cochain(sigma, 1, rng.standard_normal(n)),
        )
        lhs = symplectic.omega(a, b)
        rhs = 0.5 * symplectic.bracket(a, b) - 0.5 * symplectic.bracket(b, a)
        scale = max(abs(symplectic.bracket(a, b)), abs(symplectic.bracket(b, a)),
                    1e-300)
        assert abs(lhs - rhs) <= 1e-13 * scale


def test_orientation_reversal_flips_sign(circle12, rng):
    n = circle12.complex.n_simplices(1)
    rev = circle12.reversed()
    a_vals = rng.standard_normal(n)
    ad_vals = rng.standard_normal(n)
    b_vals = rng.standard_normal(n)
    bd_vals = rng.standard_normal(n)
    a = BoundaryDatum(Cochain(circle12, 1, a_vals), Cochain(circle12, 1, ad_vals))
    b = BoundaryDatum(Cochain(circle12, 1, b_vals), Cochain(circle12, 1, bd_vals))
    ar = BoundaryDatum(Cochain(rev, 1, a_vals), Cochain(rev, 1, ad_vals))
    br = BoundaryDatum(Cochain(rev, 1, b_vals), Cochain(rev, 1, bd_vals))
    assert symplectic.omega(ar, br) == -symplectic.omega(a, b)
    assert symplectic.bracket(ar, br) == -symplectic.bracket(a, b)


def test_disjoint_union_additivity(rng):
    c1 = builders.circle(8, length=2 * np.pi)
    c2 = builders.circle(10, length=4.0)
    from decgauge.mesh import HypersurfaceMesh, SimplicialComplex

    n1, n2 = 8, 10
    cells = [(i, (i + 1) % n1) for i in range(n1)] + [
        (n1 + i, n1 + (i + 1) % n2) for i in range(n2)
    ]
    coords = np.vstack([c1.complex.coordinates, c2.complex.coordinates + 10.0])
    cx = SimplicialComplex(n1 + n2, cells, coordinates=coords)
    union = HypersurfaceMesh(cx)

    vals = {m: (rng.standard_normal(m.complex.n_simplices(1)),
                rng.standard_normal(m.complex.n_simplices(1)))
            for m in (c1, c2)}
    joint_phi = np.zeros(cx.n_simplices(1))
    joint_dot = np.zeros(cx.n_simplices(1))
    for offset, m in ((0, c1), (n1, c2)):
        for i, e in enumerate(map(tuple, m.complex.simplices[1])):
            j = cx.simplex_index(1, (e[0] + offset, e[1] + offset))
            joint_phi[j] = vals[m][0][i]
            joint_dot[j] = vals[m][1][i]
    a_union = BoundaryDatum(Cochain(union, 1, joint_phi),
                            Cochain(union, 1, joint_dot))
    total = symplectic.omega(a_union, a_union * 1.0)  # zero, sanity
    assert total == 0.0
    b_union = BoundaryDatum(Cochain(union, 1, joint_dot),
                            Cochain(union, 1, joint_phi))
    parts = 0.0
    for m in (c1, c2):
        a = BoundaryDatum(Cochain(m, 1, vals[m][0]), Cochain(m, 1, vals[m][1]))
        b = BoundaryDatum(Cochain(m, 1, vals[m][1]), Cochain(m, 1, vals[m][0]))
        parts += symplectic.omega(a, b)
    assert np.isclose(symplectic.omega(a_union, b_union), parts, rtol=1e-13)


def test_face_factorization_ann8(ann8, rng):
    sigma = ann8.boundary
    n = sigma.complex.n_simplices(1)
    datum = BoundaryDatum(
        Cochain(sigma, 1, rng.standard_normal(n)),
        Cochain(sigma, 1, rng.standard_normal(n)),
    )
    rep = symplectic.face_factorization_check(sigma, datum)
    assert rep["passed"]
    assert set(rep["per_face"]) == {"inner", "outer"}


def test_face_factorization_square_corners(square2, rng):
    sigma = square2.boundary
    n = sigma.complex.n_simplices(1)
    datum = BoundaryDatum(
        Cochain(sigma, 1, rng.standard_normal(n)),
        Cochain(sigma, 1, rng.standard_normal(n)),
    )
    rep = symplectic.face_factorization_check(sigma, datum)
    assert rep["passed"]
    assert len(rep["per_face"]) == 4


def test_face_factorization_single_label(disk8, rng):
    sigma = disk8.boundary
    n = sigma.complex.n_simplices(1)
    datum = BoundaryDatum(
        Cochain(sigma, 1, rng.standard_normal(n)),
        Cochain(sigma, 1, rng.standard_normal(n)),
    )
    rep = symplectic.face_factorization_check(sigma, datum)
    assert rep["passed"]
    assert np.isclose(rep["per_face"]["rim"], rep["total"], rtol=1e-13)


def test_face_factorization_3d_corner_edges(tet, rng):
    # corner strata are edges shared by two labeled triangles; the induced
    # stars split their weight between the faces, so additivity is exact
    sigma = tet.boundary
    n = sigma.complex.n_simplices(1)
    datum = BoundaryDatum(
        Cochain(sigma, 1, rng.standard_normal(n)),
        Cochain(sigma, 1, rng.standard_normal(n)),
    )
    rep = symplectic.face_factorization_check(sigma, datum)
    assert rep["passed"]
    assert len(rep["per_face"]) == 4


def standard_r4():
    omega = np.zeros((4, 4))
    omega[0, 2] = omega[1, 3] = 1.0
    omega[2, 0] = omega[3, 1] = -1.0
    return SymplecticSpace(omega, np.ones(4))


def test_complement_of_full_space_is_kernel():
    w = standard_r4()
    v = from_span(np.eye(4))
    comp = symplectic.symplectic_complement(v, w)
    assert comp.dim == 0  # nondegenerate form has trivial kernel
    assert form_kernel(w).dim == 0


def test_kernel_of_degenerate_form_reported():
    omega = np.zeros((3, 3))
    omega[0, 1] = 1.0
    omega[1, 0] = -1.0
    w = SymplecticSpace(omega, np.ones(3))
    ker = form_kernel(w)
    assert ker.dim == 1
    assert abs(abs(ker.columns[2, 0]) - 1.0) <= 1e-12


def test_complement_of_zero_is_everything():
    w = standard_r4()
    v = Subspace(np.zeros((4, 0)))
    comp = symplectic.symplectic_complement(v, w)
    assert comp.dim == 4


def test_isotropic_line_is_own_complement_in_plane():
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    w = SymplecticSpace(omega, np.ones(2))
    v = from_span(np.array([[1.0], [0.0]]))
    comp = symplectic.symplectic_complement(v, w)
    assert comp.dim == 1
    ok, angle = contains(v, comp)
    assert ok and angle <= 1e-7


def test_lagrangian_plane_in_r4():
    w = standard_r4()
    v = from_span(np.eye(4)[:, :2])  # span(e1, e2): omega(e1, e2) = 0
    flag, info = symplectic.is_lagrangian(v, w)
    assert flag
    assert info["dim"] == 2


def test_coisotropy_applies_rank_tolerance():
    # omega(e2, f2) = 1e-6: a rank cut above it drops that pairing, so the
    # complement of span(e1, e2) grows past the plane itself
    w = standard_r4()
    w.omega_matrix[1, 3], w.omega_matrix[3, 1] = 1e-6, -1e-6
    v = from_span(np.eye(4)[:, :2])
    ok, info = symplectic.is_coisotropic(v, w)
    assert ok and info["complement_dim"] == 2
    ok, info = symplectic.is_coisotropic(v, w, rank_tolerance=1e-3)
    assert not ok and info["complement"].dim == 3
    flag, info = symplectic.is_lagrangian(v, w, rank_tolerance=1e-3)
    assert not flag and info["complement_dim"] == 3


def test_coisotropy_reports_the_angles_it_decides_on():
    # Both the contained case and the one whose complement outgrows the
    # subspace (decided without angles) report the same principal angles.
    w = standard_r4()
    w.omega_matrix[1, 3], w.omega_matrix[3, 1] = 1e-6, -1e-6
    v = from_span(np.eye(4)[:, :2])
    for rank_tolerance, max_angle in ((1e-8, None), (1e-3, np.pi / 2)):
        flag, info = symplectic.is_lagrangian(v, w, rank_tolerance=rank_tolerance)
        comp = info["complement"]
        assert np.array_equal(info["coisotropy_angles"], principal_angles(v, comp))
        if max_angle is None:
            assert flag and info["max_principal_angle"] == info["coisotropy_angles"].max()
        else:
            assert not flag and info["max_principal_angle"] == max_angle


def test_symplectic_plane_not_isotropic():
    w = standard_r4()
    v = from_span(np.eye(4)[:, [0, 2]])  # span(e1, f1): omega = 1
    flag, info = symplectic.is_isotropic(v, w)
    assert not flag
    assert info["max_residual"] > 0.5


def test_omega_nondegenerate_on_coclosed_pairs(ann8):
    sigma = ann8.boundary
    w = hypersurface_form(sigma)
    phi = symplectic.coclosed_pair_subspace(sigma)
    reduced = restrict_form(w, phi)[0]
    svals = np.linalg.svd(reduced.omega_matrix, compute_uv=False)
    assert svals.min() > 1e-8 * svals.max()


def test_kernel_directions_reported_not_dropped(ann8):
    # gauge directions (d f, 0) pair to zero against every coclosed pair
    sigma = ann8.boundary
    w = hypersurface_form(sigma)
    phi = symplectic.coclosed_pair_subspace(sigma)
    rng = np.random.default_rng(5)
    f = Cochain(sigma, 0, rng.standard_normal(sigma.complex.n_simplices(0)))
    df = dec.d(f)
    gauge_vec = np.concatenate([df.values, np.zeros_like(df.values)])
    pairings = phi.columns.T @ (w.omega_matrix @ gauge_vec)
    assert np.abs(pairings).max() <= 1e-11 * max(np.abs(df.values).max(), 1e-300)


def test_face_factorization_rejects_unlabeled(disk8, rng):
    sigma = disk8.boundary
    sigma_nolabels = sigma.reversed()
    sigma_nolabels.face_labels = None
    n = sigma.complex.n_simplices(1)
    datum = BoundaryDatum(
        Cochain(sigma_nolabels, 1, rng.standard_normal(n)),
        Cochain(sigma_nolabels, 1, rng.standard_normal(n)),
    )
    with pytest.raises(Exception, match="label"):
        symplectic.face_factorization_check(sigma_nolabels, datum)
