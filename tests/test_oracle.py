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


SMALL = {spec: builders.from_spec(spec) for spec in
         ("disk:N=6", "ann8", "square:N=2", "strip:N=3", "tetrahedron",
          "solid_torus:K=4")}
SMALL_BETTI = {spec: all_betti(m) for spec, m in SMALL.items()}


@st.composite
def relabelled(draw):
    spec = draw(st.sampled_from(sorted(SMALL)))
    cx = SMALL[spec].complex
    perm = draw(st.permutations(range(cx.n_vertices)))
    cells = [tuple(perm[v] for v in c) for c in cx.oriented_cells()]
    if draw(st.booleans()):
        cells = [(c[1], c[0]) + c[2:] for c in cells]
    coords = np.empty_like(cx.coordinates)
    coords[perm] = cx.coordinates
    relabelled_cx = mesh.SimplicialComplex(cx.n_vertices, cells, coordinates=coords)
    return spec, mesh.RegionMesh(relabelled_cx)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relabelled())
def test_oracle_invariant_under_relabelling_and_reversal(case):
    spec, m = case
    assert all_betti(m) == SMALL_BETTI[spec]


def test_each_boundary_rank_computed_once(monkeypatch):
    calls = []
    rank = hodge._integer_rank

    def counting_rank(mat):
        calls.append(mat.shape)
        return rank(mat)

    monkeypatch.setattr(hodge, "_integer_rank", counting_rank)
    m = builders.solid_torus(4)
    for _ in range(2):
        all_betti(m)
    # d_1..d_3, absolute and interior-restricted: six ranks, each once.
    assert len(calls) == 2 * m.complex.dim


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
