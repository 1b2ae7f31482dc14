"""The sparse exact homology oracle against a dense sympy reference."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from decgauge import builders, hodge, mesh
from test_harmonic_reduction import torus_times_interval

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_integer_rank(matrix) -> int:
    """Exact rank of an integer sparse matrix over the rationals (dense sympy)."""
    if matrix is None or min(matrix.shape) == 0:
        return 0
    dense = matrix.toarray()
    dm = DomainMatrix([[ZZ(int(x)) for x in row] for row in dense],
                      dense.shape, ZZ)
    return int(dm.rank())


def boundary_matrix(m, k, relative):
    mat = m.complex.boundary_matrices[k]
    if relative:
        mat = mat[m.interior_simplex_mask(k - 1)][:, m.interior_simplex_mask(k)]
    return mat


def reference_betti(m, k, relative):
    cx = m.complex
    n_k = int(m.interior_simplex_mask(k).sum()) if relative else cx.n_simplices(k)
    ranks = [reference_integer_rank(boundary_matrix(m, j, relative))
             if 1 <= j <= cx.dim else 0 for j in (k, k + 1)]
    return n_k - sum(ranks)


def all_betti(m):
    dims = range(m.complex.dim + 1)
    return ([hodge.betti_oracle(m, k) for k in dims],
            [hodge.relative_betti_oracle(m, k) for k in dims])


@pytest.mark.parametrize("family", ["disk8", "annulus16", "ann8", "square2",
                                    "strip4", "tet", "solid_torus8"])
def test_oracle_matches_dense_reference(family, request):
    m = request.getfixturevalue(family)
    for k in range(1, m.complex.dim + 1):
        for relative in (False, True):
            mat = boundary_matrix(m, k, relative)
            assert hodge._integer_rank(mat) == reference_integer_rank(mat)
    betti, relative_betti = all_betti(m)
    dims = range(m.complex.dim + 1)
    assert betti == [reference_betti(m, k, False) for k in dims]
    assert relative_betti == [reference_betti(m, k, True) for k in dims]


def unreduced_rank(m, k, relative):
    """Elimination rank of the whole d_k (relative: its interior block)."""
    return hodge._integer_rank(boundary_matrix(m, k, relative))


#: Elimination ranks are also checked against sympy up to this many entries.
SYMPY_ENTRIES = 60_000


def assert_ranks_exact(m):
    """Every rank the oracle reports equals the elimination on the whole
    matrix, and the dense sympy rank where the matrix is small."""
    for k in range(1, m.complex.dim + 1):
        for relative in (False, True):
            m.complex.rank_cache.clear()
            fast = hodge._boundary_rank(m, k, relative)
            assert fast == unreduced_rank(m, k, relative), (k, relative)
            mat = boundary_matrix(m, k, relative)
            if mat.shape[0] * mat.shape[1] <= SYMPY_ENTRIES:
                assert fast == reference_integer_rank(mat), (k, relative)


SMALL = {spec: builders.from_spec(spec) for spec in
         ("disk:N=6", "ann8", "square:N=2", "strip:N=3", "tetrahedron",
          "solid_torus:K=4")}
SMALL_BETTI = {spec: all_betti(m) for spec, m in SMALL.items()}


@st.composite
def relabelled_cells(draw):
    """A small builtin's cells under a random vertex relabelling, every cell
    reversed half of the time: ``(spec, n_vertices, cells, coordinates)``."""
    spec = draw(st.sampled_from(sorted(SMALL)))
    cx = SMALL[spec].complex
    perm = draw(st.permutations(range(cx.n_vertices)))
    cells = [tuple(perm[v] for v in c) for c in cx.oriented_cells()]
    if draw(st.booleans()):
        cells = [(c[1], c[0]) + c[2:] for c in cells]
    coords = np.empty_like(cx.coordinates)
    coords[perm] = cx.coordinates
    return spec, cx.n_vertices, cells, coords


def relabelled():
    return relabelled_cells().map(lambda case: (case[0], mesh.RegionMesh(
        mesh.SimplicialComplex(case[1], case[2], coordinates=case[3]))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relabelled())
def test_oracle_invariant_under_relabelling_and_reversal(case):
    spec, m = case
    assert all_betti(m) == SMALL_BETTI[spec]
    assert_ranks_exact(m)


def test_each_boundary_rank_computed_once(monkeypatch):
    calls = []
    rank = hodge._integer_rank

    def counting_rank(mat):
        calls.append(mat.shape)
        return rank(mat)

    monkeypatch.setattr(hodge, "_integer_rank", counting_rank)
    m = builders.solid_torus(4)
    first = all_betti(m)
    # d_1 and d_3 are closed forms; d_2, absolute and relative, is eliminated.
    assert len(calls) == 2
    for name in ("_integer_rank", "_components", "_closed_components"):
        monkeypatch.setattr(hodge, name, forbidden)
    assert all_betti(m) == first


def forbidden(*args):
    raise AssertionError("the oracle computed a rank it should not need")


def pinched_triangles():
    """Two triangles sharing one vertex: one vertex component, two dual ones."""
    cx = mesh.SimplicialComplex(5, [(0, 1, 2), (0, 3, 4)], coordinates=np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    return mesh.RegionMesh(cx, name="pinched triangles")


def pinched_tetrahedra():
    """Two tetrahedra sharing one edge."""
    cx = mesh.SimplicialComplex(6, [(0, 1, 2, 3), (0, 1, 5, 4)], coordinates=np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
         [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]))
    return mesh.RegionMesh(cx, name="pinched tetrahedra")


EXACT = {
    **{spec: (lambda spec=spec: builders.from_spec(spec)) for spec in
       ("disk:N=6", "annulus:N=8", "ann8", "square:N=3", "strip:N=3", "tetrahedron",
        "solid_torus:K=4", "cube:N=2", "cube:N=3", "cube:N=4")},
    "annulus + closed torus": lambda: mesh.disjoint_union(
        builders.annulus(8),
        mesh.region_from_hypersurface(builders.solid_torus(8).boundary)),
    "T2xI:N=3": lambda: torus_times_interval(3),
}


@pytest.mark.parametrize("name", sorted(EXACT))
def test_closed_forms_and_reduced_middle_rank_are_exact(name):
    m = EXACT[name]()
    assert_ranks_exact(m)
    if m.boundary is not None:
        assert_ranks_exact(m.boundary)


@pytest.mark.parametrize("build", [pinched_triangles, pinched_tetrahedra])
def test_pinched_complexes_count_dual_components(build):
    # One vertex component, two dual components: relative b_n is 2.  Their
    # boundaries are not manifolds, so only the complex itself is checked.
    m = build()
    assert_ranks_exact(m)
    n = m.complex.dim
    assert m.complex.n_components() == 1
    assert np.unique(m.complex.dual_components[0]).size == 2
    assert hodge.relative_betti_oracle(m, n) == 2


def _raw_boundary(cells, k):
    """Boundary matrix d_k of the complex generated by ``cells``, no checks."""
    faces = [sorted({f for c in cells
                     for f in itertools.combinations(sorted(c), j + 1)})
             for j in (k - 1, k)]
    index = {f: i for i, f in enumerate(faces[0])}
    mat = sparse.lil_matrix((len(faces[0]), len(faces[1])), dtype=np.int64)
    for j, s in enumerate(faces[1]):
        for i in range(k + 1):
            mat[index[s[:i] + s[i + 1:]], j] = (-1) ** i
    return mat.tocsr()


def test_rank_exact_over_rationals_on_projective_plane():
    # Six-vertex RP^2: H_1 = Z/2, so b_1 = b_2 = 0 over Q but not over GF(2),
    # where rank d_2 would be 9.  The mesh builder rejects it (non-orientable).
    cells = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
             (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    with pytest.raises(mesh.MeshError):
        mesh.SimplicialComplex(6, cells)
    d1, d2 = _raw_boundary(cells, 1), _raw_boundary(cells, 2)
    assert d1.shape == (6, 15) and d2.shape == (15, 10)
    assert hodge._integer_rank(d1) == 5
    assert hodge._integer_rank(d2) == 10


@pytest.mark.parametrize("rows, expected", [([[2, 3], [4, 6]], 1),
                                            ([[2, 0], [0, 3]], 2)])
def test_rank_with_non_unit_pivots(rows, expected):
    assert hodge._integer_rank(sparse.csr_matrix(np.array(rows))) == expected


def test_cli_import_leaves_sympy_out():
    code = "import sys, decgauge.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
