import numpy as np
import pytest
from scipy import sparse

from dense_oracles import contains, from_scipy

from decgauge import boundary, builders, hodge, subspaces
from decgauge.dec import Cochain, norm


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
    ok, angle = contains(outer, inner)
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
    ok, angle = contains(a, mixed, angle_tolerance=1e-12)
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


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_blocked_cholesky_solve_matches_lu(n, rng):
    # the dense route on a full block (one diagonal block) and on band 31
    # (diagonal blocks of 32, across their edges), against LU and against
    # the pivots of the whole Cholesky
    a = rng.standard_normal((n, n))
    for block in (sparse.csr_matrix(a @ a.T + n * np.eye(n)), banded_spd(n, min(31, n - 1), rng)):
        dense = block.toarray()
        solve, pivots = subspaces._factor(from_scipy(block))
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                    rng.standard_normal((n, 400))):
            x = solve(rhs)
            ref = np.linalg.solve(dense, rhs)
            assert x.shape == ref.shape
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.allclose(pivots, np.diag(np.linalg.cholesky(dense)) ** 2, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 130])
def test_lower_inverse_matches_inv(n, rng):
    # np.linalg.inv up to 32 rows, halves above
    a = rng.standard_normal((n, n))
    factor = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    ref = np.linalg.inv(factor)
    assert np.abs(subspaces._lower_inverse(factor) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_orthonormalize_is_gram_orthonormal_and_spans_y(rng):
    y, gram = rng.standard_normal((40, 5)), rng.uniform(0.5, 2.0, 40)
    factor = np.linalg.cholesky(y.T @ (gram[:, None] * y))
    pivots = np.diag(factor) ** 2
    for tolerance in (None, 1e-8):
        q, ratio = subspaces.orthonormalize(y, gram, tolerance)
        assert np.abs(q.T @ (gram[:, None] * q) - np.eye(5)).max() <= 1e-13
        assert np.abs(q @ factor.T - y).max() <= 1e-13 * np.abs(y).max()  # Y = Q L^T
        assert ratio == (None if tolerance is None else
                         pytest.approx(pivots.min() / pivots.max(), rel=1e-12))


def test_rank_deficient_y_raises_in_orthonormalize(rng):
    y = np.column_stack([rng.standard_normal((40, 4)), np.zeros(40)])
    gram = rng.uniform(0.5, 2.0, 40)
    with pytest.raises(Singular, match="singular"):
        subspaces.orthonormalize(y, gram, 1e-8, Singular)
    with pytest.raises(np.linalg.LinAlgError):
        subspaces.orthonormalize(y, gram)


class Singular(ValueError):
    pass


def banded_spd(n, band, rng):
    """A random sparse SPD matrix of lower bandwidth ``band``, smallest
    eigenvalue 1."""
    offsets = range(-band, band + 1)
    sym = sparse.diags([rng.standard_normal(n - abs(o)) for o in offsets], offsets)
    sym = (sym + sym.T) / 2
    low = np.linalg.eigvalsh(sym.toarray()).min()
    return (sym + sparse.diags(np.full(n, 1.0 - low))).tocsr()


def diagonal_blocks(solve):
    """The number of diagonal blocks of the dense route's ``solve``."""
    strip = solve.args[0]
    return -(-len(strip) // (strip.shape[1] // 2))


BANDS = [(30, 5, 1), (100, 60, 2), (300, 5, 10), (611, 45, 14), (257, 70, 4), (1000, 31, 32)]


@pytest.mark.parametrize("n, band, blocks", BANDS, ids=[f"{n}-{band}" for n, band, _ in BANDS])
def test_banded_route_matches_solve(n, band, blocks, rng):
    # width min(n, max(32, band)): one diagonal block up to 32 unknowns, two
    # when the band is wider than n/2; n is no multiple of the width above
    block = banded_spd(n, band, rng)
    dense = block.toarray()
    pivots = np.diag(np.linalg.cholesky(dense)) ** 2
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        solve, ratio, _ = subspaces.factorize(from_scipy(block))
        assert diagonal_blocks(solve) == blocks
        x = solve(rhs)
        ref = np.linalg.solve(dense, rhs)
        assert x.shape == ref.shape
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert ratio == pytest.approx(pivots.min() / pivots.max(), rel=1e-12)


def weighted_path_laplacian(n, rng, grounded=False):
    """Laplacian of a path with random edge weights: singular (constants)
    unless its first vertex is grounded."""
    w = rng.uniform(0.5, 2.0, n - 1)
    lap = sparse.diags([-w, np.r_[w, 0] + np.r_[0, w], -w], [-1, 0, 1]).tolil()
    if grounded:
        lap[0, 0] += 1.0
    return lap.tocsr()


# One size per route: the Cholesky in one diagonal block (at most
# BANDED_WIDTH_MIN unknowns), in several (band 5), and SuperLU.
ROUTES = {"whole": 30, "banded": 300, "sparse": 1100}


def route_of(solve):
    if getattr(solve, "func", None) is not subspaces._banded_solve:
        return "sparse"
    return "whole" if diagonal_blocks(solve) == 1 else "banded"


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("where", ["middle", "last"])
def test_singular_block_raises_on_every_route(route, where, rng):
    n = ROUTES[route]
    if where == "middle":  # a zero pivot at the last unknown of the first half
        block = sparse.block_diag([weighted_path_laplacian(n // 2, rng),
                                   weighted_path_laplacian(n - n // 2, rng, True)])
    else:
        block = weighted_path_laplacian(n, rng)
    assert route_of(subspaces._factor(from_scipy(block))[0]) == route
    with pytest.raises(Singular, match="singular"):
        subspaces.factorize(from_scipy(block), 1e-8, Singular)


def record_banded(monkeypatch):
    """The (size, width) of every block that takes the banded route."""
    seen, original = [], subspaces._banded_cholesky

    def recording(block, width, *args):
        seen.append((block.shape[0], width))
        return original(block, width, *args)

    monkeypatch.setattr(subspaces, "_banded_cholesky", recording)
    return seen


@pytest.mark.parametrize("spec", ["square:N=16", "annulus:N=256"])
def test_banded_projections_match_superlu(spec, monkeypatch):
    region = builders.from_spec(spec)
    alpha = Cochain(region, 1, np.random.default_rng(0).standard_normal(
        region.complex.n_simplices(1)))
    banded = record_banded(monkeypatch)

    def run():
        dims = (hodge.harmonic_neumann_basis(region, 1).dim,
                hodge.harmonic_dirichlet_basis(region, 1).dim)
        return dims, hodge.hmf_decompose(alpha, region).components()

    dims, parts = run()
    assert banded, "no block took the banded route"
    monkeypatch.setattr(subspaces, "DENSE_BLOCK_MAX", 0)
    ref_dims, ref_parts = run()
    assert dims == ref_dims
    scale = norm(alpha)
    for part, ref in zip(parts, ref_parts):
        assert norm(part - ref) <= 1e-12 * scale


def test_boundary_vertex_block_of_a_large_annulus_is_banded(monkeypatch):
    # 512 unknowns on two circles, two grounded; band 5 in the breadth-first order
    sigma = builders.annulus(256).boundary
    seen = record_banded(monkeypatch)
    x = np.random.default_rng(0).standard_normal((sigma.complex.n_simplices(1), 2))
    project, record = boundary.coclosed_projector(sigma)
    project(x)
    assert seen == [(510, 32)]
    # one factorization, grounded at the last vertex of each circle
    assert (record["block_size"], record["grounded"]) == (510, 2)


def split_entries(block, rng):
    """``block`` as an unsummed COO matrix: every entry split into 2-3 random
    parts, all parts in random order."""
    coo = block.tocoo()
    owner = np.repeat(np.arange(coo.nnz), rng.integers(2, 4, coo.nnz))
    share = rng.uniform(0.5, 1.5, owner.size)
    share /= np.bincount(owner, share)[owner]
    order = rng.permutation(owner.size)
    owner = owner[order]
    return sparse.coo_matrix((coo.data[owner] * share[order],
                              (coo.row[owner], coo.col[owner])), shape=block.shape)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_unsummed_block_solves_as_its_sum_on_every_route(route, rng):
    n = ROUTES[route]
    block = banded_spd(n, 5, rng)
    split = split_entries(block, rng)
    assert split.nnz > 2 * block.nnz
    rhs = rng.standard_normal((n, 3))
    solve, ratio, _ = subspaces.factorize(from_scipy(block))
    solve_split, ratio_split, _ = subspaces.factorize(from_scipy(split))
    assert route_of(solve) == route_of(solve_split) == route
    x, ref = solve_split(rhs), solve(rhs)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert ratio_split == pytest.approx(ratio, rel=1e-12)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_unsummed_singular_block_raises_on_every_route(route, rng):
    block = split_entries(weighted_path_laplacian(ROUTES[route], rng), rng)
    with pytest.raises(Singular, match="singular"):
        subspaces.factorize(from_scipy(block), 1e-8, Singular)


def grounding_case(case, n, rng):
    """A singular block, its kernel dimension and the unknowns it grounds:
    one path (its last unknown); two paths (the last of each, although the
    last two unknowns lie on one path); a path before an SPD block (the
    last unknown is no zero pivot, so one of the path's is located: the
    last one in the route's order)."""
    h = n // 2
    if case == "last":
        return weighted_path_laplacian(n, rng), 1, [n - 1]
    if case == "components":
        return sparse.block_diag([weighted_path_laplacian(h, rng),
                                  weighted_path_laplacian(n - h, rng)]), 2, [h - 1, n - 1]
    return sparse.block_diag([weighted_path_laplacian(h, rng),
                              banded_spd(n - h, 3, rng)]), 1, list(range(h))


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", ["last", "components", "located"])
def test_grounded_block_solves_on_every_route(route, case, rng, monkeypatch):
    block, kernel, grounded = grounding_case(case, ROUTES[route], rng)
    factored, original = [], subspaces._factor

    def counting(b):
        factored.append(b.shape[0])
        return original(b)

    monkeypatch.setattr(subspaces, "_factor", counting)
    solve, ratio, _ = subspaces.factorize(from_scipy(split_entries(block, rng)), 1e-8, Singular,
                                          kernel)
    # one factorization when the try holds the zero pivots, else the try,
    # the shifted block and the reduced one
    assert len(factored) == (3 if case == "located" else 1)
    assert 1e-8 < ratio <= 1.0
    rhs = block @ rng.standard_normal((block.shape[0], 2))  # orthogonal to the kernel
    x = solve(rhs)
    zeros = np.flatnonzero(~x.any(axis=1)).tolist()
    assert len(zeros) == kernel and set(zeros) <= set(grounded)
    assert np.abs(block @ x - rhs).max() <= 1e-10 * np.abs(rhs).max()
    # later solves, of columns or a vector, skip the check
    assert np.abs(solve(rhs) - x).max() <= 1e-12 * np.abs(x).max()
    assert np.abs(solve(rhs[:, 0]) - x[:, 0]).max() <= 1e-12 * np.abs(x).max()
    # a kernel counted once too few leaves a zero pivot; once too many
    # grounds a pivot that is not zero, which the first solve refuses
    with pytest.raises(Singular, match="singular"):
        subspaces.factorize(from_scipy(block), 1e-8, Singular, kernel - 1)
    solve = subspaces.factorize(from_scipy(block), 1e-8, Singular, kernel + 1)[0]
    with pytest.raises(Singular, match="no kernel of dimension"):
        solve(rhs)


def test_a_block_that_is_all_kernel_leaves_an_empty_block():
    # one isolated vertex: its unknown is grounded, and the rest, of no
    # unknowns, is factorized all the same
    solve, ratio, found = subspaces.factorize(from_scipy(sparse.csr_matrix((1, 1))), 1e-8,
                                              Singular, 1)
    assert ratio is None
    assert np.array_equal(solve(np.zeros(1)), np.zeros(1))
    assert np.array_equal(found[0][0], np.ones((1, 1)))
