"""Orthonormal subspace representations, null spaces, and principal angles.

All subspaces carry the inner product (a positive diagonal, or any SPD
matrix) they are orthonormal against, plus the singular values that decided
their numerical rank, so rank-threshold ambiguity can be reported instead of
silently resolved.
"""

from __future__ import annotations

import numpy as np

from . import tolerances

#: Eliminated blocks up to this size are factorized dense: below it a dense
#: Cholesky costs less than importing SuperLU (0.13 s, 10 MB).
DENSE_BLOCK_MAX = 1000


def _as_gram(gram, dim):
    if gram is None:
        return np.ones(dim)
    gram = np.asarray(gram, dtype=float)
    if gram.ndim == 1:
        if gram.shape != (dim,):
            raise ValueError("gram diagonal has wrong length")
        if np.any(gram <= 0):
            raise ValueError("gram diagonal must be positive")
        return gram
    raise ValueError("only diagonal gram matrices are supported")


class Subspace:
    """A linear subspace with gram-orthonormal basis columns.

    Attributes
    ----------
    columns : (dim, rank) array with columns^T diag(gram) columns = identity.
    gram : positive diagonal of the inner product.
    rank_tolerance : relative singular value cut used to fix the rank.
    singular_values : spectrum of the generating matrix (may be empty).
    gap : retained over discarded singular value at the rank cut (inf
        without a cut); ``ambiguous`` when below ``RANK_GAP_FACTOR``.
    """

    def __init__(self, columns, gram=None, rank_tolerance=tolerances.RANK_REL,
                 singular_values=None, gap=np.inf):
        columns = np.atleast_2d(np.asarray(columns, dtype=float))
        self.columns = columns
        self.gram = _as_gram(gram, columns.shape[0])
        self.rank_tolerance = float(rank_tolerance)
        self.singular_values = (
            np.asarray(singular_values, dtype=float)
            if singular_values is not None
            else np.zeros(0)
        )
        self.gap = float(gap)

    @property
    def ambiguous(self) -> bool:
        return self.gap < tolerances.RANK_GAP_FACTOR

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.columns.shape[0]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of the gram-orthogonal projection of ``x`` (a vector,
        or a matrix column by column)."""
        return self.columns.T @ (self.gram * np.asarray(x, dtype=float).T).T

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.columns @ self.coords(x)

    def projection_residual(self, x: np.ndarray) -> float:
        """Relative distance of ``x`` from the subspace in the gram norm."""
        x = np.asarray(x, dtype=float)
        r = x - self.project(x)
        num = float(np.sqrt(np.dot(r, self.gram * r)))
        den = float(np.sqrt(np.dot(x, self.gram * x)))
        return num / den if den > 0 else num

    def orthonormality_defect(self) -> float:
        g = self.columns.T @ (self.gram[:, None] * self.columns)
        return float(np.abs(g - np.eye(self.dim)).max()) if self.dim else 0.0


def from_span(matrix, gram=None, rank_tolerance=tolerances.RANK_REL,
              scale=None) -> Subspace:
    """Gram-orthonormal basis of the column span, rank cut at the tolerance
    times ``scale`` (default: the largest singular value)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    dim = matrix.shape[0]
    gram = _as_gram(gram, dim)
    if matrix.shape[1] == 0 or not np.any(matrix):
        return Subspace(np.zeros((dim, 0)), gram, rank_tolerance)
    w = np.sqrt(gram)
    u, s, _ = np.linalg.svd(w[:, None] * matrix, full_matrices=False)
    rank = int(np.sum(s > rank_tolerance * (s.max() if scale is None else scale)))
    cols = u[:, :rank] / w[:, None]
    return Subspace(cols, gram, rank_tolerance, singular_values=s,
                    gap=_gap(s, rank))


def null_space(matrix, gram=None, rank_tolerance=tolerances.RANK_REL,
               n_columns=None, embed=None, scale=None) -> Subspace:
    """Gram-orthonormal basis of the kernel of ``matrix``.

    ``matrix`` may have zero rows; ``n_columns`` disambiguates the ambient
    dimension in that case.  With ``embed`` (full column rank) ``matrix`` is
    ``A @ embed`` and the result ``embed @ ker(matrix)``, in ``embed``'s rows.
    A wide matrix takes the full right basis from its SVD, unpadded.  The
    rank cut is the tolerance times ``scale``, by default the largest
    singular value; a matrix that reduces larger rows, and may be roundoff
    when they all vanish, must pass the scale of those rows.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        if n_columns is None:
            n_columns = matrix.shape[1] if matrix.ndim == 2 else 0
        eye = np.eye(n_columns) if embed is None else embed
        return from_span(eye, gram=_as_gram(gram, eye.shape[0]),
                         rank_tolerance=rank_tolerance)
    matrix = np.atleast_2d(matrix)
    _, s, vt = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    smax = (s.max() if s.size else 0.0) if scale is None else scale
    rank = int(np.sum(s > rank_tolerance * smax)) if smax > 0 else 0
    kernel = vt[rank:].T if embed is None else embed @ vt[rank:].T
    g = _as_gram(gram, kernel.shape[0])
    if kernel.shape[1] == 0:
        out = Subspace(np.zeros((kernel.shape[0], 0)), g, rank_tolerance)
    else:
        # The kernel is exactly full rank, so a Cholesky of its weighted
        # Gram re-orthonormalizes it far cheaper than a second SVD.
        m = kernel.T @ (g[:, None] * kernel)
        try:
            r = np.linalg.cholesky(m)
            cols_g = np.linalg.solve(r, kernel.T).T
            out = Subspace(cols_g, g, rank_tolerance)
        except np.linalg.LinAlgError:
            out = from_span(kernel, gram=g, rank_tolerance=rank_tolerance)
    out.singular_values, out.gap = s, min(out.gap, _gap(s, rank))
    return out


def factorized_solve(block, rhs, rank_tolerance=tolerances.RANK_REL,
                     error=ValueError):
    """Solution and pivot ratio of the sparse SPD ``block`` for ``rhs``: dense
    Cholesky up to ``DENSE_BLOCK_MAX`` unknowns, SuperLU above.  A pivot
    ratio (smallest over largest) not above the rank tolerance raises ``error``."""
    try:
        if block.shape[0] > DENSE_BLOCK_MAX:
            from scipy.sparse.linalg import splu
            lu = splu(block.tocsc())
            pivots, x = np.abs(lu.U.diagonal()), lu.solve(rhs)
        else:
            pivots = np.diag(np.linalg.cholesky(block.toarray())) ** 2
            x = np.linalg.solve(block.toarray(), rhs)
    except (RuntimeError, np.linalg.LinAlgError):  # exactly singular
        pivots = np.zeros(1)
    ratio = float(pivots.min() / max(pivots.max(), 1e-300))
    if not ratio > rank_tolerance:
        raise error(f"factorized block of {block.shape[0]} unknowns is "
                    f"singular (pivot ratio {ratio:.1e}, rank tolerance "
                    f"{rank_tolerance:.1e})")
    return x, ratio


def reduced_null_space(a, lap, kept, gram=None,
                       rank_tolerance=tolerances.RANK_REL,
                       error=ValueError) -> Subspace:
    """Kernel of the sparse ``a``, eliminating the columns ``J`` not ``kept``.

    The rows ``J`` of the sparse PSD ``lap`` (e.g. ``a^T W a``, ``W`` a
    positive diagonal) must vanish on ``ker a``.  So ``ker a = E ker(a E)``,
    ``E = [I_keep; -lap_JJ^-1 lap_J,keep]``: one :func:`factorized_solve`
    of ``lap_JJ`` (its pivot gate raises ``error``), a dense null space of
    ``a E`` only.  Nothing eliminated: ``null_space(a)``.
    """
    elim, keep = np.flatnonzero(~kept), np.flatnonzero(kept)
    if not elim.size:
        return null_space(a.toarray(), gram=gram, rank_tolerance=rank_tolerance,
                          n_columns=a.shape[1])
    e = np.zeros((a.shape[1], keep.size))
    e[keep, np.arange(keep.size)] = 1.0
    lap = lap.tocsr()
    e[elim] = -factorized_solve(lap[elim][:, elim], lap[elim][:, keep].toarray(),
                                rank_tolerance, error)[0]
    return null_space(a @ e, gram=gram, rank_tolerance=rank_tolerance,
                      n_columns=keep.size, embed=e)


def _gap(s, rank) -> float:
    if rank == 0 or rank >= s.size or not s[rank] > 0:
        return np.inf
    return float(s[rank - 1] / s[rank])


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles (radians, ascending) between two subspaces of one
    ambient space, in ``a``'s inner product.  Angles below pi/4 come from
    their sines (Knyazev-Argentati): arccos cannot resolve angles below 1e-8.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return np.zeros(0)
    m = a.columns.T @ (a.gram[:, None] * b.columns)
    cos = np.linalg.svd(m, compute_uv=False)
    perp = b.columns - a.columns @ m if a.dim >= b.dim else \
        a.columns - b.columns @ m.T
    sin = np.linalg.svd(np.sqrt(a.gram)[:, None] * perp, compute_uv=False)
    small = np.arcsin(np.clip(sin[::-1], 0.0, 1.0))
    return np.where(cos ** 2 >= 0.5, small, np.arccos(np.clip(cos, -1.0, 1.0)))


def contains(outer: Subspace, inner: Subspace,
             angle_tolerance=tolerances.PRINCIPAL_ANGLE):
    """Whether every direction of ``inner`` lies in ``outer``.

    Returns ``(contained, max_angle)``; containment holds when all principal
    angles against ``inner``'s full dimension stay below the tolerance.
    """
    return _contains(outer, inner, principal_angles(outer, inner), angle_tolerance)


def _contains(outer: Subspace, inner: Subspace, angles, angle_tolerance):
    """``contains`` from the already computed ``principal_angles(outer, inner)``."""
    if inner.dim == 0:
        return True, 0.0
    if outer.dim < inner.dim:
        return False, float(np.pi / 2)
    # svd of the (outer.dim x inner.dim) matrix yields inner.dim values.
    max_angle = float(angles.max(initial=0.0))
    return max_angle <= angle_tolerance, max_angle
