"""Dense reference forms of the bulk system, kept as test oracles.

The library never densifies the n1-wide field equation: it works on the
gauge-fixed space and adds the exact fields ``d f`` where it needs full
solutions.  These helpers build the dense operators and the SVD basis of
the full solution space, so tests can check the reduced paths against them.
"""

import numpy as np

from decgauge.dec import Cochain
from decgauge.subspaces import Subspace, null_space


def curvature_adjoint_full(mesh) -> np.ndarray:
    """All rows of d^T S_2 d acting on 1-cochains, dense."""
    d1 = mesh.complex.boundary_matrices[2].T.toarray()
    return d1.T @ (mesh.star_diagonal(2)[:, None] * d1)


def field_equation_matrix(mesh) -> np.ndarray:
    """Interior-edge rows of the curvature adjoint: the bulk field equation."""
    return curvature_adjoint_full(mesh)[mesh.interior_simplex_mask(1)]


def full_basis(space) -> Subspace:
    """S_1-orthonormal basis of every solution of ``space.mesh``, from the
    dense null space of the field equation; its dimension must be the
    gauge-fixed dimension plus the exact gauge directions."""
    m = space.mesh
    basis = null_space(field_equation_matrix(m), gram=m.star_diagonal(1),
                       rank_tolerance=space.rank_tolerance,
                       n_columns=m.complex.n_simplices(1))
    assert basis.dim == space.dim, (basis.dim, space.dim)
    return basis


def solutions(space):
    """The columns of :func:`full_basis` as cochains."""
    cols = full_basis(space).columns
    return [Cochain(space.mesh, 1, cols[:, j]) for j in range(cols.shape[1])]
