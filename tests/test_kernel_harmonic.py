"""H^1(M, bd M) of the solution space, read off the zero pivots of the
Dirichlet extension's block by its first solve: against the dense SVD of
the stacked Hodge rows on every factorization route, with a finite pivot
gap, and the integer oracle's count held at construction."""

import numpy as np
import pytest
from dense_oracles import dense_harmonic, from_scipy
from scipy import sparse
from test_harmonic_reduction import (  # noqa: F401 (factorization is a fixture)
    FACTORIZATIONS, factorization, record_factorized_blocks, torus_times_interval)

from decgauge import builders, dynamics, hodge, mesh, subspaces, tolerances

REGIONS = {
    "annulus:N=16": lambda: builders.annulus(16),
    "annulus:N=256": lambda: builders.annulus(256),
    "two annuli": lambda: mesh.disjoint_union(builders.annulus(8), builders.square_annulus()),
    "T2xI:N=4": lambda: torus_times_interval(4),
}


@FACTORIZATIONS
@pytest.mark.parametrize("name", sorted(REGIONS))
def test_kernel_harmonic_matches_the_sketch(name, factorization):
    # Named for the randomized range finder it was first checked against;
    # ``harmonic_dirichlet_basis`` now reads the same zero pivots, so the
    # reference is the dense SVD oracle.
    m = REGIONS[name]()
    h = dynamics.solution_space(m).harmonic
    assert h.dim == hodge.relative_betti_oracle(m, 1) > 0
    assert h.orthonormality_defect() <= 1e-12
    assert not h.columns[m.boundary_simplex_mask(1)].any()
    assert hodge.HarmonicBasis(m, 1, "dirichlet", h).max_residual() <= tolerances.HARMONIC_REL
    dense = dense_harmonic(m, 1, True)
    assert subspaces.principal_angles(h, dense).max() <= tolerances.PRINCIPAL_ANGLE
    assert np.isfinite(h.gap) and h.gap >= tolerances.RANK_GAP_FACTOR


def test_two_annuli_ground_one_unknown_per_component():
    # The two fields live on disjoint components, so they are S_1-orthogonal
    # as found and each column of H stays on the component of its grounded edge.
    m = REGIONS["two annuli"]()
    space = dynamics.solution_space(m)
    assert space.solve["grounded"] == space.harmonic.dim == 2
    component = m.complex.vertex_components()[m.complex.simplices[1][:, 0]]
    supports = [set(component[np.flatnonzero(c)]) for c in space.harmonic.columns.T]
    assert sorted(map(len, supports)) == [1, 1] and supports[0] != supports[1]


@pytest.mark.parametrize("miscount", [1, -1])
def test_a_miscounted_oracle_raises_at_construction(miscount, monkeypatch):
    # One more grounds a pivot that is not zero, which the first solve
    # (run by the space) refuses; one fewer leaves a zero pivot in the rest.
    original = hodge.relative_betti_oracle
    monkeypatch.setattr(hodge, "relative_betti_oracle",
                        lambda m, k: original(m, k) + miscount)
    with pytest.raises(hodge.HodgeError):
        dynamics.solution_space(builders.annulus(16))


def test_verify_lagrangian_factorizes_the_gauge_fix_and_the_extension(monkeypatch):
    factorized = record_factorized_blocks(monkeypatch)
    m = builders.annulus(256)
    report = dynamics.verify_lagrangian(dynamics.solution_space(m))
    assert report["lagrangian"] and not report["rank_ambiguous"]
    boundary_vertices = m.boundary.complex.n_simplices(0)
    assert factorized == [boundary_vertices, int(m.interior_simplex_mask(1).sum())]


def test_an_exact_zero_pivot_keeps_a_finite_gap():
    # An integer path Laplacian: the grounded Schur pivot is exactly zero,
    # and the unit roundoff of the largest kept pivot keeps the gap finite.
    path = sparse.diags([-np.ones(3), [1.0, 2.0, 2.0, 1.0], -np.ones(3)], [-1, 0, 1])
    solve, ratio, found = subspaces.factorize(from_scipy(path), tolerances.RANK_REL, ValueError, 1)
    assert not found
    solve(np.zeros((4, 0)))
    (null, gap), = found
    assert np.array_equal(null[:, 0], np.ones(4)) and np.array_equal(path @ null, np.zeros((4, 1)))
    assert gap == pytest.approx(ratio / np.finfo(float).eps)
