"""The boundary-reduced solution space and the batched restriction against
dense oracles: the stacked-SVD gauge-fixed kernel and per-column least
squares gauge fixing."""

import numpy as np
import pytest
from scipy import sparse

from decgauge import boundary, builders, dynamics, mesh, subspaces
from decgauge.dec import Cochain, laplacian0
from dense_oracles import field_equation_matrix


def dense_gauge_fixed(m, rank_tolerance=1e-8):
    """Null space of the dense stack [K_I; D] of bulk equation and gauge."""
    el = field_equation_matrix(m)
    adj = (m.complex.boundary_matrices[1]
           @ sparse.diags(m.star_diagonal(1))).toarray()
    stacked = np.vstack([el, adj]) if el.size else adj
    return subspaces.null_space(stacked, gram=m.star_diagonal(1),
                                rank_tolerance=rank_tolerance,
                                n_columns=m.complex.n_simplices(1))


def lstsq_gauge_fix(sigma, values):
    """values + d f with f the minimum-norm least-squares Poisson potential."""
    rhs = -(sigma.complex.boundary_matrices[1]
            @ (sigma.star_diagonal(1) * values))
    f, *_ = np.linalg.lstsq(laplacian0(sigma).toarray(), rhs, rcond=None)
    return values + sigma.complex.boundary_matrices[1].T @ f


def max_angle(a, b):
    return float(subspaces.principal_angles(a, b).max(initial=0.0))


ORACLE_MESHES = ("tri1", "disk8", "ann8", "annulus16", "strip4", "tet",
                 "solid_torus8", "torus_region", "two_annuli")

# Interior blocks are factorized dense up to DENSE_BLOCK_MAX edges and by
# sparse LU above it; every oracle check runs through both.
FACTORIZATIONS = pytest.mark.parametrize("dense_max", [0, 10**9],
                                         ids=["sparse", "dense"])


@pytest.fixture
def factorization(dense_max, monkeypatch):
    monkeypatch.setattr(subspaces, "DENSE_BLOCK_MAX", dense_max)


@FACTORIZATIONS
@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_reduced_kernel_matches_dense_oracle(name, request, factorization):
    m = request.getfixturevalue(name)
    fast = dynamics.solution_space(m).gauge_fixed_basis
    dense = dense_gauge_fixed(m)
    assert fast.dim == dense.dim
    assert max_angle(fast, dense) <= 1e-10
    assert fast.orthonormality_defect() <= 1e-12


@FACTORIZATIONS
@pytest.mark.parametrize("n", [4, 8])
def test_reduced_kernel_matches_dense_oracle_square(n, factorization):
    m = builders.square(n)
    fast = dynamics.solution_space(m).gauge_fixed_basis
    dense = dense_gauge_fixed(m)
    assert fast.dim == dense.dim == 1
    assert max_angle(fast, dense) <= 1e-10


@FACTORIZATIONS
def test_reduced_kernel_keeps_boundaryless_component(torus_region,
                                                     factorization):
    # the closed torus component cannot be eliminated (its interior block
    # is singular); kept whole, it contributes its two harmonic fields
    m = mesh.disjoint_union(builders.annulus(8), torus_region)
    fast = dynamics.solution_space(m).gauge_fixed_basis
    dense = dense_gauge_fixed(m)
    assert fast.dim == dense.dim == 2 + 2
    assert max_angle(fast, dense) <= 1e-10


@FACTORIZATIONS
def test_singular_interior_block_raises(monkeypatch, factorization):
    # Mark one edge of a closed torus as boundary: its interior block then
    # holds a harmonic field vanishing on that edge in its kernel, which must
    # be refused, not factorized by luck.
    torus = mesh.region_from_hypersurface(builders.solid_torus(8).boundary)
    fake = np.zeros(torus.complex.n_simplices(1), dtype=bool)
    fake[0] = True
    monkeypatch.setattr(torus, "boundary_simplex_mask", lambda k: fake)
    with pytest.raises(dynamics.DynamicsError, match="singular"):
        dynamics.solution_space(torus)


def test_restrict_without_gauge_fixed_solutions(disk8):
    space = dynamics.solution_space(disk8)
    empty = dynamics.SolutionSpace(
        disk8, subspaces.Subspace(np.zeros((space.mesh.complex.n_simplices(1),
                                            0)), gram=disk8.star_diagonal(1)))
    image = dynamics.restrict(empty)
    assert image.dim == 0
    assert image.ambient_dim == 2 * disk8.boundary.complex.n_simplices(1)


@pytest.mark.parametrize("name", ["ann8", "disk8", "solid_torus8"])
def test_batched_restrict_matches_per_column(name, request):
    m = request.getfixturevalue(name)
    space = dynamics.solution_space(m)
    image = dynamics.restrict(space)
    per_column = np.column_stack([
        boundary.gauge_fix_coclosed(boundary.trace_solution(eta)).vector()
        for eta in space.gauge_fixed_solutions()
    ])
    reference = subspaces.from_span(per_column, gram=image.gram)
    assert image.dim == reference.dim == space.gauge_fixed_dim
    assert max_angle(image, reference) <= 1e-10


@pytest.mark.parametrize("name", ["ann8", "disk8", "solid_torus8"])
def test_coclosed_projection_matches_lstsq(name, request, rng):
    sigma = request.getfixturevalue(name).boundary
    x = rng.standard_normal((sigma.complex.n_simplices(1), 3))
    fixed = boundary.coclosed_projection(sigma, x)
    for j in range(3):
        expected = lstsq_gauge_fix(sigma, x[:, j])
        assert np.abs(fixed[:, j] - expected).max() <= 1e-10 * np.abs(x).max()


def test_trace_columns_gates_each_column(annulus16, rng):
    cols = dynamics.solution_space(annulus16).gauge_fixed_basis.columns.copy()
    boundary.trace_columns(annulus16, cols, annulus16.boundary)
    cols[:, -1] += 1e-6 * rng.standard_normal(cols.shape[0])
    with pytest.raises(boundary.BoundaryError, match="bulk equation"):
        boundary.trace_columns(annulus16, cols, annulus16.boundary)


def test_trace_solution_matches_columns(ann8):
    eta = dynamics.solution_space(ann8).gauge_fixed_solutions()[0]
    datum = boundary.trace_solution(eta)
    assert isinstance(datum.phi, Cochain)
    phi, phi_dot = boundary.trace_columns(ann8, eta.values[:, None],
                                          ann8.boundary)
    assert np.array_equal(datum.phi.values, phi[:, 0])
    assert np.array_equal(datum.phi_dot.values, phi_dot[:, 0])
