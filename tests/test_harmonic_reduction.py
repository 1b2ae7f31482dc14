"""The boundary-reduced harmonic bases against the dense stacked-SVD oracle."""

import numpy as np
import pytest

from decgauge import builders, hodge, mesh, subspaces, tolerances
from decgauge.dec import adjoint_full


def dense_harmonic(m, k, dirichlet):
    """Null space of the dense stack [d_k; del_k S_k], on the interior
    k-simplices (interior adjoint rows) for the Dirichlet condition."""
    cx = m.complex
    n = cx.n_simplices(k)
    inject = np.eye(n)[:, m.interior_simplex_mask(k)] if dirichlet else np.eye(n)
    blocks = []
    if k < cx.dim:
        blocks.append(cx.boundary_matrices[k + 1].T.toarray() @ inject)
    if k >= 1:
        rows = adjoint_full(m, k).toarray()
        if dirichlet:
            rows = rows[m.interior_simplex_mask(k - 1)]
        blocks.append(rows @ inject)
    small = subspaces.null_space(np.vstack(blocks), n_columns=inject.shape[1])
    return subspaces.from_span(inject @ small.columns, gram=m.star_diagonal(k))


def max_angle(a, b):
    return float(subspaces.principal_angles(a, b).max(initial=0.0))


BASES = {"neumann": hodge.harmonic_neumann_basis,
         "dirichlet": hodge.harmonic_dirichlet_basis}

# Eliminated blocks are factorized dense up to DENSE_BLOCK_MAX columns and by
# sparse LU above it; every oracle check runs through both.
FACTORIZATIONS = pytest.mark.parametrize("dense_max", [0, 10**9],
                                         ids=["sparse", "dense"])


@pytest.fixture
def factorization(dense_max, monkeypatch):
    monkeypatch.setattr(subspaces, "DENSE_BLOCK_MAX", dense_max)


MESHES = ("tri1", "disk8", "ann8", "annulus16", "strip4", "tet",
          "solid_torus8", "torus_region", "square:N=4", "square:N=8",
          "annulus8+torus_region")


def region(name, request):
    if name == "annulus8+torus_region":
        # a bounded component reduced next to a closed one kept whole
        return mesh.disjoint_union(builders.annulus(8),
                                   request.getfixturevalue("torus_region"))
    if ":" in name:
        return builders.from_spec(name)
    return request.getfixturevalue(name)


@FACTORIZATIONS
@pytest.mark.parametrize("condition", sorted(BASES))
@pytest.mark.parametrize("name", MESHES)
def test_reduced_harmonic_matches_dense_oracle(name, condition, request,
                                               factorization):
    m = region(name, request)
    for k in range(m.complex.dim + 1):
        harmonic = BASES[condition](m, k)
        fast = harmonic.basis
        dense = dense_harmonic(m, k, condition == "dirichlet")
        assert fast.dim == dense.dim, k
        assert max_angle(fast, dense) <= 1e-10, k
        assert fast.orthonormality_defect() <= 1e-12, k
        assert harmonic.max_residual() <= tolerances.HARMONIC_REL, k


def test_dirichlet_basis_vanishes_off_the_interior(annulus16):
    basis = hodge.harmonic_dirichlet_basis(annulus16, 1).basis
    assert basis.dim == 1
    assert not basis.columns[annulus16.boundary_simplex_mask(1)].any()


@FACTORIZATIONS
def test_singular_eliminated_block_raises(monkeypatch, factorization):
    # Fake one edge of a closed torus as its boundary: every other edge is
    # then eliminated, and a combination of the two harmonic fields vanishing
    # on that edge lies in the eliminated block's kernel.
    torus = mesh.region_from_hypersurface(builders.solid_torus(8).boundary)
    cx = torus.complex
    fake = {k: np.zeros(cx.n_simplices(k), dtype=bool) for k in range(3)}
    fake[1][0] = True
    fake[0][cx.simplices[1][0]] = True
    monkeypatch.setattr(torus, "boundary_simplex_mask", lambda k: fake[k])
    with pytest.raises(hodge.HodgeError, match="singular"):
        hodge.harmonic_neumann_basis(torus, 1)
