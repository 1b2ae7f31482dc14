"""The boundary-reduced solution space and the batched restriction against
dense oracles: the stacked-SVD gauge-fixed kernel and per-column least
squares gauge fixing."""

import numpy as np
import pytest
from scipy import sparse

from decgauge import boundary, builders, dynamics, hodge, mesh, subspaces
from decgauge.dec import Cochain
from dense_oracles import field_equation_matrix, laplacian0


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


def unkept(m):
    """The same region as a new mesh, with no solution space kept on it:
    each factorization route then builds its own."""
    return mesh.RegionMesh(m.complex, face_labels=m.face_labels,
                           edge_lengths=m.edge_lengths, name=m.name)


ORACLE_MESHES = ("tri1", "disk8", "ann8", "annulus16", "strip4", "tet",
                 "solid_torus8", "torus_region", "two_annuli")

# Interior blocks are factorized by SuperLU above DENSE_BLOCK_MAX edges, below it by
# a block-tridiagonal Cholesky in numpy, in diagonal blocks of width
# max(BANDED_WIDTH_MIN, lower bandwidth) capped at the block's size.  Every
# oracle check runs through SuperLU and through the Cholesky at both ends of
# its width: one diagonal block ("dense") and the narrowest ("banded").
FACTORIZATIONS = pytest.mark.parametrize("route", ["sparse", "dense", "banded"])


@pytest.fixture
def factorization(route, monkeypatch):
    monkeypatch.setattr(subspaces, "DENSE_BLOCK_MAX", 0 if route == "sparse" else 10**9)
    monkeypatch.setattr(subspaces, "BANDED_WIDTH_MIN", 1 if route == "banded" else 10**9)


@FACTORIZATIONS
@pytest.mark.parametrize("name", ORACLE_MESHES)
def test_reduced_kernel_matches_dense_oracle(name, request, factorization):
    m = unkept(request.getfixturevalue(name))
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
    # An annulus has one Dirichlet harmonic field, which the extension's
    # interior block holds in its kernel until it is grounded.  With the
    # relative Betti oracle made to deny it, the block must be refused, not
    # factorized by luck.
    monkeypatch.setattr(hodge, "relative_betti_oracle", lambda m, k: 0)
    with pytest.raises(hodge.HodgeError, match="singular"):
        dynamics.solution_space(builders.annulus(8))


def test_restrict_without_gauge_fixed_solutions():
    # restrict reads Q and its extension, never the gauge-fixed basis: it
    # does not build it, and emptying it leaves the image alone.  The meshes
    # are built here, so no other test's kept space is read or emptied.
    disk8 = builders.from_spec("disk:N=8")
    torus_region = mesh.region_from_hypersurface(builders.solid_torus(8).boundary)
    space = dynamics.solution_space(disk8)
    image = dynamics.restrict(space)
    assert "gauge_fixed_basis" not in vars(space)
    space.gauge_fixed_basis = subspaces.Subspace(
        np.zeros((disk8.complex.n_simplices(1), 0)), gram=disk8.star_diagonal(1))
    again = dynamics.restrict(space)
    assert again.dim == image.dim == 1
    assert again.ambient_dim == 2 * disk8.boundary.complex.n_simplices(1)
    assert np.array_equal(again.columns, image.columns)
    # without a boundary there is nothing to restrict to
    empty = dynamics.restrict(dynamics.solution_space(torus_region))
    assert empty.dim == 0 and empty.ambient_dim == 0


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


# The boundary gauge fix on closed curves and on a 3D shell, and the bulk one
# on a region.
GAUGE_HOSTS = {
    "ann8": lambda: builders.square_annulus().boundary,
    "disk8": lambda: builders.disk(8).boundary,
    "solid_torus8": lambda: builders.solid_torus(8).boundary,
    "cube:N=3": lambda: builders.cube(3).boundary,
    "annulus16 region": lambda: builders.annulus(16),
}


@pytest.mark.parametrize("name", sorted(GAUGE_HOSTS))
def test_coclosed_projection_matches_lstsq(name, rng):
    host = GAUGE_HOSTS[name]()
    x = rng.standard_normal((host.complex.n_simplices(1), 3))
    fixed = boundary.coclosed_projector(host)[0](x)
    for j in range(3):
        expected = lstsq_gauge_fix(host, x[:, j])
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
