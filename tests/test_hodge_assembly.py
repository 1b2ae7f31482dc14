"""The Hodge blocks kept on each mesh: assembled once per (degree,
condition) from the boundary matrices, read-only, equal to the row form
``A^T diag(w) A`` they replaced, and read by every potential and extension."""

from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from decgauge import boundary, builders, dec, dynamics, hodge, mesh
from decgauge.dec import Cochain
from dense_oracles import row_form_laplacian
from test_acceptance import _builtin_regions


def _summed(m, k, dirichlet):
    """The kept triplets summed, on the rows of the block's unknowns and
    every column, as CSR."""
    row, col, value = hodge._hodge_block(m, k, dirichlet)
    rows = (m.interior_simplex_mask(k) if dirichlet
            else np.ones(m.complex.n_simplices(k), dtype=bool))
    kept = sparse.coo_matrix((value, ((np.cumsum(rows) - 1)[row], col)),
                             shape=(int(rows.sum()), rows.size))
    return kept.tocsr(), rows


def test_kept_blocks_are_the_row_form():
    # the acceptance ladder (with cube:N=3), the glued strip and a closed
    # boundary surface; every degree, both conditions
    strip = builders.strip(4)
    glued = mesh.glue(strip, "west", "east", builders.strip_end_matching(strip))
    for m in [*_builtin_regions(), glued, builders.solid_torus(8).boundary]:
        for k in range(m.complex.dim + 1):
            for dirichlet in (False, True):
                kept, rows = _summed(m, k, dirichlet)
                oracle = row_form_laplacian(m, k, dirichlet)
                scale = abs(oracle).max() if oracle.nnz else 0.0
                gap = abs(kept - oracle)
                assert (gap.max() if gap.nnz else 0.0) <= 1e-14 * scale, (m.name, k)
                square = kept[:, rows].tocoo()
                square.sum_duplicates()
                assert (square - square.T).nnz == 0, (m.name, k, dirichlet)


def test_kept_operators_are_read_only():
    m = builders.annulus(16)
    adjoint = dec.adjoint_full(m, 1)
    assert dec.adjoint_full(m, 1) is adjoint
    with pytest.raises(ValueError):
        adjoint.data[0] = 1.0
    for part in hodge._hodge_block(m, 1, True):
        with pytest.raises(ValueError):
            part[0] = 0


def test_two_decompositions_assemble_each_block_once(monkeypatch):
    # every assembly reads the rows once; so does the dense fallback of the
    # harmonic bases, which a cube with H^1 = H^2 = 0 never takes
    built = []
    original = hodge._hodge_rows

    def counting(m, k, dirichlet):
        built.append((k, dirichlet))
        return original(m, k, dirichlet)

    monkeypatch.setattr(hodge, "_hodge_rows", counting)
    m = builders.cube(3)
    rng = np.random.default_rng(3)
    for _ in range(2):
        for k in (1, 2):
            alpha = Cochain(m, k, rng.standard_normal(m.complex.n_simplices(k)))
            hodge.hmf_decompose(alpha, m)
    # per degree k, the Dirichlet exact part (degree k-1) and the Neumann
    # coexact part (degree k+1); H^1 and H^2 of the cube vanish
    assert Counter(built) == {(0, True): 1, (2, False): 1, (1, True): 1, (3, False): 1}


def test_extend_reads_the_kept_extension(monkeypatch):
    m = builders.annulus(64)
    space = dynamics.solution_space(m)
    eta = Cochain(m, 1, space.random_solutions(np.random.default_rng(4), 1)[:, 0])
    datum = boundary.trace_solution(eta)
    x = np.zeros((m.complex.n_simplices(1), 1))
    x[m.boundary.region_simplex_map(1), 0] = datum.phi.values
    fresh = hodge.dirichlet_extension(m)[0](x)[:, 0]
    factorized = []
    original = hodge.factorize

    def counting(*args):
        factorized.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(hodge, "factorize", counting)
    for _ in range(5):
        extended = dynamics.extend(datum, m)
    assert not factorized
    assert np.abs(extended.values - fresh).max() <= 1e-12 * np.abs(fresh).max()
    back = boundary.trace_solution(extended).vector()
    assert np.linalg.norm(back - datum.vector()) <= 1e-10 * np.linalg.norm(datum.vector())
