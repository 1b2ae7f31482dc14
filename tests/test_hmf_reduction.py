"""The factorized Hodge projections of ``hmf_decompose`` and the fitted
``extend`` against dense least-squares oracles, their singular-block gates,
and the import budget of the dense path."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from dense_oracles import from_scipy
from scipy import sparse

from decgauge import boundary, builders, dynamics, hodge, mesh, subspaces
from decgauge.boundary import BoundaryDatum
from decgauge.dec import Cochain, adjoint_full, norm


def weighted_lstsq(mat, weights, rhs):
    """min ||sqrt(weights) (mat x - rhs)||, refused above condition 1e14."""
    if mat.shape[1] == 0:
        return np.zeros(0)
    w = np.sqrt(weights)
    x, _, rank, svals = np.linalg.lstsq(w[:, None] * mat, w * rhs, rcond=None)
    if rank > 0 and svals.size:
        assert svals[0] / svals[rank - 1] <= 1e14, "ill-conditioned projection"
    return x


def dense_hmf(alpha, neumann_basis):
    """The four components from two dense weighted least-squares problems:
    exact over ``d_(k-1)`` on the interior (k-1)-simplices, coexact over the
    metric adjoint ``B = S_k^-1 d_k^T S_k+1``."""
    m, k = alpha.host, alpha.degree
    cx, w = m.complex, m.star_diagonal(k)
    exact = coexact = np.zeros_like(alpha.values)
    if k >= 1:
        dmat = cx.boundary_matrices[k].T.toarray()[:, m.interior_simplex_mask(k - 1)]
        exact = dmat @ weighted_lstsq(dmat, w, alpha.values)
    if k < cx.dim:
        bmat = adjoint_full(m, k + 1).toarray() / w[:, None]
        coexact = bmat @ weighted_lstsq(bmat, w, alpha.values)
    rest = alpha.values - exact - coexact
    hn = neumann_basis.basis.project(rest)
    return exact, coexact, hn, rest - hn


# Projection blocks are factorized by SuperLU above DENSE_BLOCK_MAX unknowns, below it by
# a block-tridiagonal Cholesky in numpy, in diagonal blocks of width
# max(BANDED_WIDTH_MIN, lower bandwidth) capped at the block's size.  Every
# oracle check runs through SuperLU and through the Cholesky at both ends of
# its width: one diagonal block ("dense") and the narrowest ("banded").
FACTORIZATIONS = pytest.mark.parametrize("route", ["sparse", "dense", "banded"])


@pytest.fixture
def factorization(route, monkeypatch):
    monkeypatch.setattr(subspaces, "DENSE_BLOCK_MAX", 0 if route == "sparse" else 10**9)
    monkeypatch.setattr(subspaces, "BANDED_WIDTH_MIN", 1 if route == "banded" else 10**9)


# Every builtin family, a closed surface, and a closed component next to a
# bounded one: its constants lie in the Dirichlet degree-0 block's kernel and
# its area form in the Neumann degree-2 block's kernel.
MESHES = ("disk:N=8", "annulus:N=16", "ann8", "square:N=4", "strip:N=6",
          "tetrahedron", "solid_torus:K=8", "torus_region",
          "annulus8+torus_region")


def region(name, request):
    if name == "annulus8+torus_region":
        return mesh.disjoint_union(builders.annulus(8),
                                   request.getfixturevalue("torus_region"))
    if name == "torus_region":
        return request.getfixturevalue(name)
    return builders.from_spec(name)


@FACTORIZATIONS
@pytest.mark.parametrize("name", MESHES)
def test_projections_match_dense_oracle(name, request, factorization, rng):
    m = region(name, request)
    for k in range(m.complex.dim + 1):
        basis = hodge.harmonic_neumann_basis(m, k)
        alpha = Cochain(m, k, rng.standard_normal(m.complex.n_simplices(k)))
        deco = hodge.hmf_decompose(alpha, neumann_basis=basis)
        scale = norm(alpha)
        for fast, dense in zip(deco.components(), dense_hmf(alpha, basis)):
            assert norm(fast - Cochain(m, k, dense)) <= 1e-12 * scale, k
        assert deco.residual_norm <= 1e-10, k
        for solve in deco.solves.values():
            if solve["block_size"]:
                assert solve["pivot_ratio"] > solve["rank_tolerance"], k


def test_kernel_is_grounded_before_factorization(request):
    m = region("annulus8+torus_region", request)
    alpha = Cochain(m, 1, np.ones(m.complex.n_simplices(1)))
    solves = hodge.hmf_decompose(alpha).solves
    # the torus constants (relative H_0) and its area form (H_2)
    assert hodge.relative_betti_oracle(m, 0) == hodge.betti_oracle(m, 2) == 1
    assert solves["exact_dirichlet"]["grounded"] == 1
    assert solves["coexact_neumann"]["grounded"] == 1
    assert solves["exact_dirichlet"]["block_size"] == (
        int(m.interior_simplex_mask(0).sum()) - 1)
    assert solves["coexact_neumann"]["block_size"] == m.complex.n_simplices(2) - 1


def test_degree_zero_coexact_is_mean_free(request, rng):
    m = region("annulus8+torus_region", request)
    alpha = Cochain(m, 0, rng.standard_normal(m.complex.n_simplices(0)))
    deco = hodge.hmf_decompose(alpha)
    assert deco.solves == {}
    comp = m.complex.vertex_components()
    w = m.star_diagonal(0)
    means = np.bincount(comp, w * deco.coexact_neumann.values)
    assert np.abs(means).max() <= 1e-12 * norm(alpha)
    assert norm(deco.harmonic_neumann + deco.coexact_neumann - alpha) <= (
        1e-12 * norm(alpha))


@FACTORIZATIONS
def test_unpredicted_kernel_is_refused(request, monkeypatch, factorization):
    # An oracle that misses the closed torus component leaves its constants
    # in the Dirichlet block: the pivot gate must refuse it.
    m = region("annulus8+torus_region", request)
    alpha = Cochain(m, 1, np.ones(m.complex.n_simplices(1)))
    basis = hodge.harmonic_neumann_basis(m, 1)
    monkeypatch.setattr(hodge, "relative_betti_oracle", lambda mesh, k: 0)
    with pytest.raises(hodge.HodgeError, match="singular"):
        hodge.hmf_decompose(alpha, neumann_basis=basis)


@FACTORIZATIONS
def test_faked_boundary_leaves_singular_block(monkeypatch, factorization):
    # The Neumann degree-2 block of a closed torus has the area form as its
    # kernel, b_2 = 1, and reads no boundary mask.  An oracle that misses
    # the form leaves the block singular; one that counts it twice grounds
    # a pivot that is not zero.  Both raise at the pivot gate on every route.
    torus = mesh.region_from_hypersurface(builders.solid_torus(8).boundary)
    basis = hodge.harmonic_neumann_basis(torus, 1)
    true = hodge.betti_oracle
    assert true(torus, 2) == 1
    alpha = Cochain(torus, 1, np.ones(torus.complex.n_simplices(1)))
    for kernel, message in ((0, "singular"), (2, "no kernel of dimension 2")):
        monkeypatch.setattr(hodge, "betti_oracle",
                            lambda m, j: kernel if j == 2 else true(m, j))
        with pytest.raises(hodge.HodgeError, match=message):
            hodge.hmf_decompose(alpha, neumann_basis=basis)


@FACTORIZATIONS
def test_factorized_solve_gate(factorization):
    path = sparse.diags([-np.ones(4), 2 * np.ones(5), -np.ones(4)], [-1, 0, 1])
    solve, ratio, _ = subspaces.factorize(from_scipy(path), 1e-8, hodge.HodgeError)
    assert np.allclose(path @ solve(np.ones(5)), 1.0) and 1e-8 < ratio <= 1.0
    free = path.tolil()
    free[0, 0] = free[4, 4] = 1.0  # Neumann path Laplacian: constants
    with pytest.raises(hodge.HodgeError, match="singular"):
        subspaces.factorize(from_scipy(free), 1e-8, hodge.HodgeError)


def test_decompose_report_lists_solves(capsys):
    from decgauge.cli import main

    assert main(["decompose", "--mesh", "square:N=4", "--degree", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    solves = rep["detail"]["projection_solves"]
    assert {n: s["block_size"] for n, s in solves.items()} == {
        "exact_dirichlet": 9, "coexact_neumann": 32}
    for s in solves.values():
        assert s["rank_tolerance"] == rep["tolerances"]["RANK_REL"]
        assert s["rank_tolerance"] < s["pivot_ratio"] <= 1.0


@pytest.mark.parametrize("name", ["disk8", "ann8", "annulus16", "solid_torus8"])
def test_extend_round_trips(name, request, rng):
    m = request.getfixturevalue(name)
    space = dynamics.solution_space(m)
    eta = Cochain(m, 1, space.gauge_fixed_basis.columns
                  @ rng.standard_normal(space.gauge_fixed_dim))
    datum = boundary.gauge_fix_coclosed(boundary.trace_solution(eta))
    back = boundary.trace_solution(dynamics.extend(datum, m))
    err = np.linalg.norm(back.vector() - datum.vector())
    assert err <= 1e-10 * np.linalg.norm(datum.vector())


@pytest.mark.parametrize("name", ["disk8", "ann8", "annulus16", "solid_torus8"])
def test_extend_refuses_off_image(name, request, rng):
    sigma = request.getfixturevalue(name).boundary
    n = sigma.complex.n_simplices(1)
    bad = BoundaryDatum.from_vector(sigma, rng.standard_normal(2 * n))
    with pytest.raises(dynamics.NotExtendableError):
        dynamics.extend(bad, request.getfixturevalue(name))


def test_extend_does_not_assemble_the_dense_bulk_system(disk8, monkeypatch):
    def refuse(*args):
        raise AssertionError("dense bulk system assembled")

    monkeypatch.setattr(dynamics, "field_equation_matrix", refuse)
    eta = dynamics.solution_space(disk8).gauge_fixed_solutions()[0]
    datum = boundary.gauge_fix_coclosed(boundary.trace_solution(eta))
    dynamics.extend(datum, disk8)


GUARDED = (["decompose", "--mesh", "square:N=16", "--degree", "1"],
           ["harmonic", "--mesh", "annulus:N=256", "--degree", "1"],
           ["harmonic", "--mesh", "solid_torus:K=16", "--degree", "2"],
           ["verify-lagrangian", "--mesh", "solid_torus:K=16"],
           ["verify-axioms", "--mesh", "square:N=4"],
           ["glue", "--mesh", "strip:N=4", "--faces", "west", "east"],
           ["ym2d", "--mesh", "disk:N=8"])


def _loaded_scipy(argv):
    """The exit code of ``argv`` in a fresh interpreter and the scipy
    modules loaded by then."""
    code = ("import io, json, sys, contextlib\n"
            "from decgauge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({argv!r})\n"
            "print(json.dumps([rc, sorted(m for m in sys.modules\n"
            "                             if m.partition('.')[0] == 'scipy')]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    return tuple(json.loads(out.stdout.split("\n")[0]))


@pytest.mark.parametrize("argv", GUARDED, ids=lambda a: " ".join(a[:3]))
def test_dense_path_loads_no_sparse_solver(argv):
    # Importing scipy costs a process about 0.2 s and 30 MB; only SuperLU,
    # for blocks above DENSE_BLOCK_MAX, may pay it.
    assert _loaded_scipy(argv) == (0, [])


def test_blocks_above_the_dense_limit_still_load_superlu():
    rc, loaded = _loaded_scipy(["harmonic", "--mesh", "annulus:N=512", "--degree", "1"])
    assert rc == 0 and "scipy.sparse.linalg" in loaded


@pytest.mark.parametrize("name", ["ann8", "annulus16"])
def test_grounding_ignores_roundoff_in_the_metric(name):
    # H^1(M, bd M) grounds one unknown of the Dirichlet extension (its exact
    # zero).  Dual volumes moved by 1e-15 relative must not move it, and the
    # pivot ratio may move only at roundoff.
    rng = np.random.default_rng(1)

    def grounding(level):
        m = builders.from_spec({"ann8": "ann8", "annulus16": "annulus:N=16"}[name])
        for k in range(m.complex.dim + 1):
            dual = m.dual_volumes(k)
            dual *= 1 + level * rng.standard_normal(dual.shape)
        x = np.random.default_rng(0).standard_normal((m.complex.n_simplices(1), 1))
        extend, record, _ = hodge.dirichlet_extension(m)
        y = extend(x)[m.interior_simplex_mask(1)]
        return np.flatnonzero(y == 0.0).tolist(), record["pivot_ratio"]

    rows, ratio = grounding(0.0)
    assert len(rows) == 1
    for _ in range(20):
        moved, moved_ratio = grounding(1e-15)
        assert moved == rows
        assert moved_ratio == pytest.approx(ratio, rel=1e-12)
