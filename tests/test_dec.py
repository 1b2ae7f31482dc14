import numpy as np
import pytest
from dense_oracles import laplacian0

from decgauge import dec
from decgauge.dec import Cochain, DECError


def test_d_on_vertex_function_tri1(tri1):
    f = Cochain(tri1, 0, [0.0, 1.0, 2.0])
    df = dec.d(f)
    edges = [tuple(e) for e in tri1.complex.simplices[1]]
    expected = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0}
    for e, v in zip(edges, df.values):
        assert v == expected[e]


def test_d_constant_is_zero(disk8):
    f = Cochain(disk8, 0, np.ones(disk8.complex.n_simplices(0)))
    assert np.all(dec.d(f).values == 0.0)


def test_dd_zero_exactly(disk8, rng):
    f = Cochain(disk8, 0, rng.standard_normal(disk8.complex.n_simplices(0)))
    ddf = dec.d(dec.d(f))
    assert np.all(ddf.values == 0.0) or np.abs(ddf.values).max() < 1e-15


def test_d_degree_out_of_range(tri1):
    top = Cochain(tri1, 2, [1.0])
    with pytest.raises(DECError, match="top degree"):
        dec.d(top)


def test_star_unit_face_tri1(tri1):
    mu = Cochain(tri1, 2, [1.0])
    starred = dec.star(mu)
    assert np.isclose(starred.values[0], 2.0)  # 1 / area, area = 1/2


def test_star_zero(tri1):
    z = Cochain.zeros(tri1, 1)
    assert np.all(dec.star(z).values == 0.0)


def test_star_unstar_round_trip(disk8, rng):
    a = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    back = dec.unstar(dec.star(a))
    assert np.allclose(back.values, a.values, rtol=1e-15, atol=1e-15)


def test_codifferential_constant_loop_cochain(circle12):
    eps = circle12.complex.orientation * circle12.edge_lengths
    phi = Cochain(circle12, 1, 0.8 * eps)
    res = dec.codifferential(phi)
    assert np.abs(res.values).max() < 1e-14


def test_codifferential_of_df_is_laplacian(torus_region, rng):
    f = Cochain(torus_region, 0,
                rng.standard_normal(torus_region.complex.n_simplices(0)))
    lhs = dec.codifferential(dec.d(f))
    lap = laplacian0(torus_region) @ f.values
    w0 = torus_region.star_diagonal(0)
    assert np.allclose(lhs.values, lap / w0, rtol=1e-12, atol=1e-13)


def test_codifferential_zero(disk8):
    z = Cochain.zeros(disk8, 1)
    assert np.all(dec.codifferential(z).values == 0.0)


def test_codifferential_degree_error(disk8):
    f = Cochain.zeros(disk8, 0)
    with pytest.raises(DECError, match="degree"):
        dec.codifferential(f)


def test_inner_product_positive_definite(disk8, rng):
    for _ in range(20):
        a = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
        if np.any(a.values):
            assert dec.inner_product(a, a) > 0.0


def test_inner_product_symmetric(disk8, rng):
    a = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    b = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    assert dec.inner_product(a, b) == dec.inner_product(b, a)


def test_inner_product_symmetric_bitwise_over_many_pairs(disk8, rng):
    n = disk8.complex.n_simplices(1)
    for _ in range(200):
        a = Cochain(disk8, 1, rng.standard_normal(n))
        b = Cochain(disk8, 1, rng.standard_normal(n))
        assert dec.inner_product(a, b) == dec.inner_product(b, a)


def test_inner_product_diagonal_tri1(tri1):
    f = Cochain(tri1, 0, [1.0, 0.0, 0.0])
    g = Cochain(tri1, 0, [0.0, 1.0, 0.0])
    assert dec.inner_product(f, g) == 0.0


def test_inner_product_circle_constant(circle12):
    c = 0.37
    eps = circle12.complex.orientation * circle12.edge_lengths
    phi = Cochain(circle12, 1, c * eps)
    assert np.isclose(dec.inner_product(phi, phi), 2 * np.pi * c**2,
                      rtol=1e-13)


def test_inner_product_host_mismatch(tri1, disk8):
    a = Cochain.zeros(tri1, 1)
    b = Cochain.zeros(disk8, 1)
    with pytest.raises(DECError, match="host"):
        dec.inner_product(a, b)


def test_adjointness_closed_complex(torus_region, rng):
    cx = torus_region.complex
    for _ in range(10):
        f = Cochain(torus_region, 0, rng.standard_normal(cx.n_simplices(0)))
        a = Cochain(torus_region, 1, rng.standard_normal(cx.n_simplices(1)))
        defect, scale = dec.adjointness_defect(f, a)
        assert abs(defect) <= 1e-13 * scale


def test_adjointness_with_boundary(tri1, disk8, ann8, square2, tet, rng):
    for mesh in (tri1, disk8, ann8, square2, tet):
        cx = mesh.complex
        for _ in range(10):
            f = Cochain(mesh, 0, rng.standard_normal(cx.n_simplices(0)))
            a = Cochain(mesh, 1, rng.standard_normal(cx.n_simplices(1)))
            defect, scale = dec.adjointness_defect(f, a)
            assert abs(defect) <= 1e-13 * scale


def test_adjointness_higher_degree(tet, rng):
    e = Cochain(tet, 1, rng.standard_normal(tet.complex.n_simplices(1)))
    b = Cochain(tet, 2, rng.standard_normal(tet.complex.n_simplices(2)))
    defect, scale = dec.adjointness_defect(e, b)
    assert abs(defect) <= 1e-13 * scale


def test_adjointness_zero_inputs(disk8):
    f = Cochain.zeros(disk8, 0)
    a = Cochain.zeros(disk8, 1)
    assert dec.adjointness_defect(f, a)[0] == 0.0


def test_cochain_arithmetic(disk8, rng):
    a = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    b = Cochain(disk8, 1, rng.standard_normal(disk8.complex.n_simplices(1)))
    assert np.allclose((a + b - a).values, b.values)
    assert np.allclose((2.0 * a).values, 2.0 * a.values)
    assert np.allclose((-a).values, -a.values)


def test_cochain_csv(tmp_path, tri1):
    a = Cochain(tri1, 1, [1.0, -0.5, 0.25])
    path = tmp_path / "a.csv"
    a.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("simplex")
    assert len(lines) == 4


def test_area_form_and_integral(disk6):
    mu = dec.area_form(disk6)
    assert np.isclose(dec.integrate(mu), disk6.total_volume(), rtol=1e-14)
