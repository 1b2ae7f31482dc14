import numpy as np
import pytest

from decgauge import subspaces


def test_from_span_orthonormal_under_gram(rng):
    gram = rng.uniform(0.5, 2.0, size=6)
    x = rng.standard_normal((6, 3))
    sub = subspaces.from_span(x, gram=gram)
    assert sub.dim == 3
    assert sub.orthonormality_defect() <= 1e-12


def test_from_span_rank_cut(rng):
    x = rng.standard_normal((5, 2))
    x = np.column_stack([x, x @ np.array([1.0, -2.0])])
    sub = subspaces.from_span(x)
    assert sub.dim == 2


def test_null_space_matches_constraints(rng):
    a = rng.standard_normal((3, 7))
    sub = subspaces.null_space(a)
    assert sub.dim == 4
    assert np.abs(a @ sub.columns).max() <= 1e-12


def test_null_space_empty_matrix():
    sub = subspaces.null_space(np.zeros((0, 4)), n_columns=4)
    assert sub.dim == 4


def test_projection_residual(rng):
    sub = subspaces.from_span(np.eye(5)[:, :2])
    inside = sub.columns @ rng.standard_normal(2)
    assert sub.projection_residual(inside) <= 1e-12
    outside = np.eye(5)[:, 4]
    assert sub.projection_residual(outside) > 0.9


def test_principal_angles_known():
    u = subspaces.from_span(np.eye(4)[:, :2])
    theta = 0.3
    vec = np.array([np.cos(theta), 0.0, np.sin(theta), 0.0])
    v = subspaces.from_span(vec[:, None])
    angles = subspaces.principal_angles(u, v)
    assert np.isclose(angles.max(), theta, rtol=1e-10)


def test_contains_detects_dimension_deficit():
    outer = subspaces.from_span(np.eye(4)[:, :1])
    inner = subspaces.from_span(np.eye(4)[:, :2])
    ok, angle = subspaces.contains(outer, inner)
    assert not ok


def test_ambiguity_flag():
    # smallest retained 3e-8 vs largest discarded 0.5e-8: gap under 10x
    mat = np.diag([1.0, 3e-8, 0.5e-8])
    sub = subspaces.null_space(mat)
    assert sub.ambiguous
    clear = subspaces.null_space(np.diag([1.0, 1.0, 0.0]))
    assert not clear.ambiguous


def test_identical_subspaces_have_zero_angle(rng):
    gram = rng.uniform(0.5, 2.0, size=200)
    a = subspaces.from_span(rng.standard_normal((200, 6)), gram=gram)
    mixed = subspaces.from_span(a.columns @ rng.standard_normal((6, 6)),
                                gram=gram)
    assert subspaces.principal_angles(a, a).max() < 1e-12
    assert subspaces.principal_angles(a, mixed).max() < 1e-12
    ok, angle = subspaces.contains(a, mixed, angle_tolerance=1e-12)
    assert ok and angle < 1e-12


def test_small_angle_resolved_below_arccos_floor():
    theta = 1e-10
    u = subspaces.from_span(np.eye(5)[:, :3])
    v = subspaces.from_span(
        np.array([[1.0, 0.0], [0.0, np.cos(theta)], [0.0, 0.0],
                  [0.0, np.sin(theta)], [0.0, 0.0]]))
    # both orders: the sines come from whichever basis is smaller
    for angles in (subspaces.principal_angles(u, v),
                   subspaces.principal_angles(v, u)):
        assert angles.shape == (2,)
        assert np.isclose(angles.max(), theta, rtol=1e-6)
        assert angles.min() < 1e-15


def test_wide_null_space_matches_padded_svd(rng):
    # a wide matrix takes its full right basis from one SVD, unpadded
    mat = rng.standard_normal((30, 70))
    mat[-5:] = mat[:5]  # rank 25
    wide = subspaces.null_space(mat)
    padded = subspaces.null_space(np.vstack([mat, np.zeros((40, 70))]))
    assert wide.dim == padded.dim == 45
    assert subspaces.principal_angles(wide, padded).max() < 1e-12
    assert np.abs(mat @ wide.columns).max() < 1e-12
    assert wide.singular_values.shape == (30,)
    assert wide.ambiguous is padded.ambiguous is False


def test_rank_cut_reports_its_gap():
    mat = np.diag([1.0, 1e-3, 1e-20])
    for sub in (subspaces.null_space(mat), subspaces.from_span(mat)):
        assert sub.gap == pytest.approx(1e17) and not sub.ambiguous
    assert subspaces.from_span(np.eye(3)).gap == np.inf


def test_rank_cut_against_a_given_scale(rng):
    # A matrix that reduces rows of size one, and is roundoff because they
    # all vanish on the subspace, has full kernel only when cut against
    # the rows' scale; cut against its own largest value it looks full rank.
    noise = 1e-17 * rng.standard_normal((3, 2))
    assert subspaces.null_space(noise).dim == 0
    assert subspaces.null_space(noise, scale=1.0).dim == 2
    assert subspaces.from_span(noise).dim == 2
    assert subspaces.from_span(noise, scale=1.0).dim == 0
    exact = np.array([[1.0, 0.0], [0.0, 1e-3]])
    assert subspaces.from_span(exact, scale=1.0).dim == 2
    assert subspaces.null_space(exact, rank_tolerance=1e-2, scale=1.0).dim == 1


def test_coords_of_a_matrix_are_the_columns_coords(rng):
    sub = subspaces.from_span(rng.standard_normal((6, 2)), gram=rng.uniform(1, 2, 6))
    x = rng.standard_normal((6, 3))
    coords = sub.coords(x)
    for j in range(3):
        assert np.allclose(coords[:, j], sub.coords(x[:, j]), rtol=0, atol=1e-14)
