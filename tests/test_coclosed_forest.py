"""The coclosed boundary basis ``Q`` from the edges off a spanning forest,
against the dense SVD route it replaced (``dense_oracles.svd_coclosed_subspace``);
the forest itself, its fault detection, its record in the Lagrangian report,
and the run's rank tolerance at the gauge-fix pivot gate."""

import numpy as np
import pytest
from dense_oracles import svd_coclosed_subspace
from hypothesis import given, settings
from test_dtn_lagrangian import REGIONS, annulus_and_torus
from test_oracle import relabelled

from decgauge import boundary, builders, dynamics, hodge, mesh, tolerances
from decgauge.boundary import BoundaryError
from decgauge.subspaces import principal_angles
from decgauge.symplectic import coclosed_subspace

FAMILIES = ("disk", "annulus", "ann8", "square", "strip", "tetrahedron",
            "solid_torus", "cube")

BOUNDARIES = {
    **{name: (lambda name=name: REGIONS[name]().boundary) for name in REGIONS},
    **{spec: (lambda spec=spec: builders.from_spec(spec).boundary) for spec in (
        *FAMILIES, "annulus:N=256", "solid_torus:K=48",
        *(f"cube:N={n}" for n in range(2, 7)))},
}


def incidence_defect(sigma, q) -> float:
    """``|del_1 S_1 Q|`` relative to the same sums in absolute values."""
    d, s = sigma.complex.boundary_matrices[1], sigma.star_diagonal(1)
    return float(np.abs(d @ (s[:, None] * q.columns)).max()
                 / (abs(d) @ (s[:, None] * np.abs(q.columns))).max())


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_matches_svd_basis(name, monkeypatch):
    sigma = BOUNDARIES[name]()

    def refuse(*args, **kwargs):
        raise AssertionError("SVD or QR taken for the coclosed basis")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", refuse)
        patched.setattr(np.linalg, "qr", refuse)
        q, record = coclosed_subspace(sigma)
    oracle = svd_coclosed_subspace(sigma)
    assert q.dim == oracle.dim == record["edges_off_forest"]
    assert principal_angles(oracle, q).max() <= 1e-11
    assert q.orthonormality_defect() <= 1e-12
    assert incidence_defect(sigma, q) <= 1e-11
    assert q.gap == np.inf and record["pivot_ratio"] > tolerances.RANK_REL


# -- the forest ------------------------------------------------------------------

def assert_spanning_forest(cx):
    tree = cx.n_vertices - cx.n_components()
    assert cx.forest_edges.shape == (cx.n_simplices(1),)
    assert cx.forest_edges.sum() == tree
    assert hodge._integer_rank(cx.boundary_matrices[1][:, cx.forest_edges]) == tree


@pytest.mark.parametrize("spec", FAMILIES)
def test_forest_spans_every_builtin(spec):
    m = builders.from_spec(spec)
    assert_spanning_forest(m.complex)
    assert_spanning_forest(m.boundary.complex)


def test_forest_spans_a_disconnected_region():
    m = annulus_and_torus()
    assert m.complex.n_components() == 2
    assert_spanning_forest(m.complex)
    assert_spanning_forest(m.boundary.complex)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(relabelled())
def test_forest_spans_under_relabelling(case):
    assert_spanning_forest(case[1].complex)
    assert_spanning_forest(case[1].boundary.complex)


@pytest.mark.parametrize("spec", ["annulus:N=16", "cube:N=2", "solid_torus:K=8"])
def test_one_more_edge_off_the_forest_raises(spec):
    # r + 1 coclosed projections in an r-dimensional space are dependent
    sigma = builders.from_spec(spec).boundary
    forest = sigma.complex.forest_edges.copy()
    forest[np.flatnonzero(forest)[0]] = False
    sigma.complex.forest_edges = forest
    with pytest.raises(BoundaryError, match="singular"):
        coclosed_subspace(sigma)


# -- the record and the run's rank tolerance ---------------------------------------

@pytest.mark.parametrize("name", sorted(REGIONS))
def test_coclosed_basis_record(name):
    # Q, on the space's gauge fix, has the report's exact dimension; the
    # report records that gauge fix's solve, grounded once per component
    space = dynamics.solution_space(REGIONS[name]())
    sigma = space.mesh.boundary
    rep = dynamics.verify_lagrangian(space)
    q, record = coclosed_subspace(sigma, projection=space.gauge_fix)
    assert sorted(record) == ["edges_off_forest", "pivot_ratio", "rank_tolerance"]
    assert record["edges_off_forest"] == q.dim == rep["dims"]["image"]
    assert record["pivot_ratio"] > record["rank_tolerance"] == tolerances.RANK_REL
    solve = rep["gauge_fix_solve"]
    assert sorted(solve) == ["block_size", "grounded", "pivot_ratio", "rank_tolerance"]
    assert solve["grounded"] == sigma.complex.n_components()
    assert solve["block_size"] + solve["grounded"] == sigma.complex.n_vertices
    assert solve["pivot_ratio"] > solve["rank_tolerance"] == tolerances.RANK_REL


def test_closed_region_record_and_shell_ambiguity():
    closed = mesh.region_from_hypersurface(builders.solid_torus(8).boundary)
    rep = dynamics.verify_lagrangian(dynamics.solution_space(closed))
    assert rep["gauge_fix_solve"] == {"block_size": 0, "grounded": 0, "pivot_ratio": None,
                                      "rank_tolerance": tolerances.RANK_REL}
    assert rep["probes"] == {"count": 0, "coclosed_dim": 0, "seed": 0}
    # a shell has no Dirichlet harmonic field and Q cuts no rank: nothing
    # can be ambiguous
    shell = dynamics.solution_space(builders.solid_torus(8))
    assert shell.harmonic is None
    assert dynamics.verify_lagrangian(shell, gap_factor=1e300)["rank_ambiguous"] is False


def test_rank_tolerance_reaches_the_gauge_fix_gate(ann8):
    sigma = ann8.boundary
    x = np.random.default_rng(0).standard_normal((sigma.complex.n_simplices(1), 2))
    boundary.coclosed_projector(sigma)[0](x)
    with pytest.raises(BoundaryError, match="pivot ratio"):
        boundary.coclosed_projector(sigma, rank_tolerance=1.0)[0](x)


def test_solution_space_gauge_fixes_at_its_tolerance(monkeypatch):
    seen = []
    original = hodge.factorize

    def recording(block, rank_tolerance, error, kernel, labels):
        seen.append(rank_tolerance)
        return original(block, rank_tolerance, error, kernel, labels)

    monkeypatch.setattr(hodge, "factorize", recording)
    space = dynamics.solution_space(builders.annulus(16), rank_tolerance=1e-9)
    built = len(seen)  # the gauge fix and the extension, whose kernel is H^1(M, bd M)
    assert built >= 2
    space.gauge_fixed_basis
    assert len(seen) == built + 1
    assert seen == [1e-9] * len(seen)


def test_gauge_fixes_are_the_hodge_exact_part(monkeypatch):
    # Both gauge fixes, on the boundary and in the bulk, solve the degree-0
    # Neumann Hodge Laplacian through the one potential of the Hodge split.
    calls = []
    original = hodge._potential

    def recording(mesh, j, dirichlet, *args, **kwargs):
        calls.append((mesh, j, dirichlet))
        return original(mesh, j, dirichlet, *args, **kwargs)

    monkeypatch.setattr(hodge, "_potential", recording)
    m = builders.annulus(16)
    x = np.random.default_rng(0).standard_normal((m.boundary.complex.n_simplices(1), 2))
    boundary.coclosed_projector(m.boundary)[0](x)
    assert calls == [(m.boundary, 0, False)]
    space = dynamics.solution_space(m)
    calls.clear()
    space.gauge_fixed_basis
    assert calls == [(m, 0, False)]
