"""Orthonormal subspace representations, null spaces, and principal angles.

All subspaces carry the inner product (a positive diagonal, or any SPD
matrix) they are orthonormal against, plus the singular values that decided
their numerical rank, so rank-threshold ambiguity can be reported instead of
silently resolved.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tolerances
from .csr import CSR
from .mesh import _components

#: Blocks up to this size are factorized by a Cholesky in numpy, above it by
#: SuperLU: below it the Cholesky costs less than importing scipy (about 0.2 s
#: and 30 MB).  The Cholesky goes block by block (:func:`_banded_cholesky`),
#: in diagonal blocks of width ``max(BANDED_WIDTH_MIN, lower bandwidth)``, one
#: when that covers the block.  In ``hodge``'s breadth-first order the
#: benchmark's blocks of 256 or more unknowns have bandwidths of 3-52.
DENSE_BLOCK_MAX = 1024
BANDED_WIDTH_MIN = 32


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
               n_columns=None, scale=None) -> Subspace:
    """Gram-orthonormal basis of the kernel of ``matrix``.

    ``matrix`` may have zero rows; ``n_columns`` disambiguates the ambient
    dimension in that case.  A wide matrix takes the full right basis from
    its SVD, unpadded.  The rank cut is the tolerance times ``scale``, by
    default the largest singular value; a matrix that reduces larger rows,
    and may be roundoff when they all vanish, must pass the scale of those
    rows.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        if n_columns is None:
            n_columns = matrix.shape[1] if matrix.ndim == 2 else 0
        return from_span(np.eye(n_columns), gram=_as_gram(gram, n_columns),
                         rank_tolerance=rank_tolerance)
    matrix = np.atleast_2d(matrix)
    _, s, vt = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    smax = (s.max() if s.size else 0.0) if scale is None else scale
    rank = int(np.sum(s > rank_tolerance * smax)) if smax > 0 else 0
    kernel = vt[rank:].T
    g = _as_gram(gram, kernel.shape[0])
    # The kernel is exactly full rank, so a Cholesky of its weighted Gram
    # re-orthonormalizes it far cheaper than a second SVD.
    try:
        out = Subspace(orthonormalize(kernel, g)[0], g, rank_tolerance)
    except np.linalg.LinAlgError:
        out = from_span(kernel, gram=g, rank_tolerance=rank_tolerance)
    out.singular_values, out.gap = s, min(out.gap, _gap(s, rank))
    return out


def orthonormalize(y, gram, rank_tolerance=None, error=ValueError):
    """Gram-orthonormal ``Y L^-T`` (:func:`_lower_inverse`) for the Cholesky
    factor ``L L^T = Y^T diag(gram) Y`` of a full-rank ``Y``, and its pivot
    ratio (:func:`_pivot_gate` at ``rank_tolerance``).  Without one the ratio
    is None and a Gram that is not positive definite raises LinAlgError."""
    m = y.T @ (gram[:, None] * y)
    if rank_tolerance is None:
        factor, ratio = np.linalg.cholesky(m), None
    else:
        factor, pivots = _cholesky(m)
        ratio = _pivot_gate(pivots, rank_tolerance, error)
    del m  # free the Gram before the product
    return y @ _lower_inverse(factor).T, ratio


def _cholesky(matrix):
    """Cholesky factor of the dense SPD ``matrix`` and its pivots (squared
    diagonal entries), all zero if it is not positive definite."""
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return None, np.zeros(len(matrix))
    return factor, np.diag(factor) ** 2


def _pivot_gate(pivots, rank_tolerance, error, kernel=0):
    """Smallest over largest pivot (None without one); a ratio not above the
    rank tolerance raises ``error``, naming the ``kernel`` grounded apart."""
    if not pivots.size:
        return None
    ratio = float(pivots.min() / max(pivots.max(), 1e-300))
    if not ratio > rank_tolerance:
        raise error(f"factorized block of {pivots.size + kernel} unknowns is singular "
                    f"beyond a kernel of dimension {kernel} (pivot ratio {ratio:.1e}, "
                    f"rank tolerance {rank_tolerance:.1e})")
    return ratio


def _banded_cholesky(block, width):
    """Block-tridiagonal Cholesky of the sparse SPD ``block`` of lower
    bandwidth at most ``width``, in diagonal blocks of ``width`` rows, and its
    pivots (the squared diagonals of every block factor; zero from the first
    block that is not positive definite).  Block row k of the n x 2w strip
    holds ``L_k,k-1`` and the inverse of ``L_kk``, so :func:`_banded_solve`
    needs only matmuls."""
    n = block.shape[0]
    shift = block.row // width - block.indices // width  # 1: below the diagonal block
    keep = (shift == 0) | (shift == 1)
    row = block.row[keep]
    at = row * (2 * width) + block.indices[keep] - (row // width - 1) * width
    strip = np.bincount(at, block.data[keep], n * 2 * width).reshape(n, 2 * width)
    pivots = np.zeros(n)
    for i in range(0, n, width):
        rows = strip[i:i + width]
        diag = rows[:, width:width + len(rows)]
        if i:  # L_k,k-1 = A_k,k-1 L_k-1,k-1^-T and its Schur update
            rows[:, :width] = rows[:, :width] @ inverse.T
            diag = diag - rows[:, :width] @ rows[:, :width].T
        try:
            factor = np.linalg.cholesky(diag)
        except np.linalg.LinAlgError:  # not positive definite: zero pivots
            break
        pivots[i:i + width] = np.diag(factor) ** 2
        inverse = _lower_inverse(factor)
        rows[:, width:width + len(rows)] = inverse
    return strip, pivots


def _lower_inverse(factor, block=32):
    """Inverse of the lower triangular ``factor`` by halves:
    ``[[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]``.  At widths
    of 100-300 it takes a third to a sixth of the time of ``np.linalg.inv``,
    an LU."""
    n = len(factor)
    if n <= block:
        return np.linalg.inv(factor)
    h = n // 2
    out = np.zeros_like(factor)
    out[:h, :h] = _lower_inverse(factor[:h, :h], block)
    out[h:, h:] = _lower_inverse(factor[h:, h:], block)
    out[h:, :h] = -(out[h:, h:] @ factor[h:, :h]) @ out[:h, :h]
    return out


def _banded_solve(strip, rhs):
    """Solve ``L L^T x = rhs`` for the :func:`_banded_cholesky` strip."""
    x = np.array(rhs, dtype=float)
    n, width = strip.shape[0], strip.shape[1] // 2
    starts = range(0, n, width)
    for i in starts:
        j = min(i + width, n)
        if i:
            x[i:j] -= strip[i:j, :width] @ x[i - width:i]
        x[i:j] = strip[i:j, width:width + j - i] @ x[i:j]
    for i in reversed(starts):
        j = min(i + width, n)
        if j < n:
            x[i:j] -= strip[j:j + width, :width].T @ x[j:j + width]
        x[i:j] = strip[i:j, width:width + j - i].T @ x[i:j]
    return x


def _factor(block):
    """The solve of the SPD :class:`~decgauge.csr.CSR` ``block`` (a map of a
    right-hand side, a vector or columns, to the solution), and its pivots
    in the block's order (zero where it is not positive definite), by one of
    two routes.  Up to ``DENSE_BLOCK_MAX`` unknowns a block-tridiagonal
    Cholesky in numpy (:func:`_banded_cholesky`) in the block's given order,
    one diagonal block when its band is as wide as the block.  Above it
    SuperLU (scipy's, imported here; the symmetric block's rows are its
    columns) with a minimum degree ordering and no off-diagonal pivoting."""
    n = block.shape[0]
    if n <= DENSE_BLOCK_MAX:
        width = min(n, max(BANDED_WIDTH_MIN, int((block.row - block.indices).max(initial=0))))
        strip, pivots = _banded_cholesky(block, max(width, 1))  # an empty block: width 1
        return functools.partial(_banded_solve, strip), pivots
    from scipy.sparse import csc_matrix, linalg
    try:
        lu = linalg.splu(csc_matrix((block.data, block.indices, block.indptr), shape=block.shape),
                         permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                         options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular
        return None, np.zeros(n)
    return lu.solve, np.abs(lu.U.diagonal())[lu.perm_c]  # U's column j is unknown perm_c^-1[j]


def factorize(block, rank_tolerance=tolerances.RANK_REL, error=ValueError, kernel=0,
              labels=None):
    """The solve of the sparse symmetric positive semidefinite ``block``
    (:func:`_factor`), its pivot ratio, and a list that its first solve
    fills with the block's kernel.  The block has ``kernel`` zero pivots;
    each leaves its row of the Schur complement zero, so the solve
    grounds their unknowns (returns zero there, and factorizes the rest)
    and the other pivots stay as they were (Higham 1990).  They are tried at
    the last unknown of each component of the block's graph (``labels`` per
    unknown when the caller holds them, else labelled here), then at the
    last ones; if the rest is singular, located at the smallest pivots of
    the block shifted by 1e-4 of the gate's floor (its largest diagonal
    entry times the rank tolerance).  A pivot ratio of the rest not above
    the rank tolerance raises ``error``, and so does the first solve, which
    also solves for the grounded unknowns' couplings ``C``, if their Schur
    complement is above it; else it keeps that kernel, each grounded unit
    vector less the solve of its ``C^T``, and its gap: the smallest kept
    pivot over the largest grounded one plus eps times the largest kept."""
    n = block.shape[0]
    if not kernel:
        solve, pivots = _factor(block)
        return solve, _pivot_gate(pivots, rank_tolerance, error), []
    row, col, order = block.row, block.indices, np.arange(n)[::-1]
    if kernel > 1:  # the last unknown of each component first
        if labels is None:
            upper = row < col
            labels = _components(n, np.column_stack([row[upper], col[upper]]))[0]
        tail = np.zeros(n, dtype=bool)
        tail[n - 1 - np.unique(labels[order], return_index=True)[1]] = True
        order = order[np.argsort(~tail[order], kind="stable")]

    def reduce(grounded):  # the factor of the rest
        kept = np.ones(n, dtype=bool)
        kept[grounded] = False
        return kept, *_factor(block[kept, kept])

    grounded = np.sort(order[:kernel])
    kept, solve, pivots = reduce(grounded)
    if pivots.size and not pivots.min() > rank_tolerance * pivots.max():  # the rest is singular
        shift, eye = 1e-4 * rank_tolerance * block.data[row == col].max(initial=0.0), np.arange(n)
        shifted = CSR(np.r_[block.data, n * [shift]], np.r_[row, eye], np.r_[col, eye], (n, n))
        grounded = np.sort(np.argsort(_factor(shifted)[1], kind="stable")[:kernel])
        kept, solve, pivots = reduce(grounded)
    ratio, checked = _pivot_gate(pivots, rank_tolerance, error, kernel), []
    top, low = pivots.max(initial=0.0), pivots.min(initial=np.inf)
    rows = block[grounded].toarray()  # the grounded rows, dense
    coupling = rows[:, kept]

    def grounded_solve(rhs):
        x, rhs = np.zeros(np.shape(rhs)), rhs[kept]
        if checked:
            x[kept] = solve(rhs)
            return x
        y = solve(np.column_stack([np.atleast_2d(rhs.T).T, coupling.T]))
        worst = np.abs(np.diag(rows[:, grounded] - coupling @ y[:, -kernel:])).max()
        if not worst <= rank_tolerance * top:
            raise error(f"factorized block of {n} unknowns has no kernel of dimension "
                        f"{kernel} (grounded pivot {worst:.1e}, largest kept pivot "
                        f"{top:.1e}, rank tolerance {rank_tolerance:.1e})")
        null = np.zeros((n, kernel))
        null[kept], null[grounded] = -y[:, -kernel:], np.eye(kernel)
        checked.append((null, low / (worst + np.finfo(float).eps * top)))
        x[kept] = y[:, :-kernel].reshape(rhs.shape)
        return x

    return grounded_solve, ratio, checked


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


def _contains(outer: Subspace, inner: Subspace, angles, angle_tolerance):
    """Whether every direction of ``inner`` lies in ``outer``, from the
    ``principal_angles(outer, inner)``: ``(contained, max_angle)``, all
    angles against ``inner``'s full dimension below the tolerance."""
    if inner.dim == 0:
        return True, 0.0
    if outer.dim < inner.dim:
        return False, float(np.pi / 2)
    # svd of the (outer.dim x inner.dim) matrix yields inner.dim values.
    max_angle = float(angles.max(initial=0.0))
    return max_angle <= angle_tolerance, max_angle
