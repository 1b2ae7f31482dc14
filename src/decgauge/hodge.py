"""Harmonic fields, Betti oracles, and the four-way orthogonal decomposition.

The combinatorial oracle computes homology ranks from integer boundary
matrices in exact arithmetic and never touches the metric, so it can audit
the metric pipeline: the dimension of every harmonic basis must reproduce
the oracle's rank exactly.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import sparse

from . import tolerances
from .dec import Cochain, DECError, adjoint_full, codifferential, d, inner_product, norm
from .mesh import RegionMesh
from .subspaces import Subspace, from_span, null_space


class HodgeError(ValueError):
    """Solver failure or inconsistent harmonic dimensions."""


def _integer_rank(matrix) -> int:
    """Exact rank over the rationals of a sparse integer matrix.

    Fraction-free Gaussian elimination on the rows, held as dicts of Python
    ints: nothing is densified, rounded or reduced modulo a prime.  The row
    with the fewest entries is the next pivot row, a row with a unit entry
    beats one without, and ties go to the lowest index; within the row the
    pivot is a unit entry if there is one, then the entry whose column is
    shortest, then the lowest column.  On a boundary matrix this starts as
    a collapse: a facet of a single cell removes that cell without fill-in.
    A unit pivot p clears the entry a of another row by row -= a*p*pivot_row;
    any other pivot by row <- p*row - a*pivot_row, divided by the row's gcd.
    """
    if matrix is None or min(matrix.shape) == 0:
        return 0
    mat = sparse.csr_matrix(matrix)
    indptr, indices, data = mat.indptr, mat.indices.tolist(), mat.data.tolist()
    rows, cols = {}, {}
    for i in range(mat.shape[0]):
        row = {j: v for j, v in zip(indices[indptr[i]:indptr[i + 1]],
                                    data[indptr[i]:indptr[i + 1]]) if v}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)

    heap, queued = [], {}

    def push(i):
        row = rows[i]
        key = (len(row), 1 not in row.values() and -1 not in row.values(), i)
        if queued.get(i) != key:
            queued[i] = key
            heapq.heappush(heap, key)

    for i in rows:
        push(i)
    rank = 0
    while heap:
        key = heapq.heappop(heap)
        i = key[2]
        if queued.get(i) != key:
            continue
        del queued[i]
        prow = rows.pop(i)
        for j in prow:
            cols[j].discard(i)
        c = min(prow, key=lambda j: (abs(prow[j]) != 1, len(cols[j]), j))
        p = prow.pop(c)
        unit = abs(p) == 1
        for t in cols.pop(c):
            row = rows[t]
            a = row.pop(c)
            if unit:
                factor = a * p
            else:
                factor = a
                for j in row:
                    row[j] *= p
            for j, v in prow.items():
                w = row.get(j, 0) - factor * v
                if w:
                    if j not in row:
                        cols[j].add(t)
                    row[j] = w
                elif j in row:
                    del row[j]
                    cols[j].discard(t)
            if not unit and row:
                g = math.gcd(*row.values())
                for j in row:
                    row[j] //= g
            if row:
                push(t)
            else:
                del rows[t]
                queued.pop(t, None)
        rank += 1
    return rank


def _boundary_rank(mesh, k: int, relative: bool) -> int:
    """Rank of the boundary matrix d_k, cached on the complex.

    ``relative`` restricts d_k to interior simplices in both degrees: the
    boundary matrix of the quotient complex (region, boundary).
    """
    cx = mesh.complex if hasattr(mesh, "complex") else mesh
    if k < 1 or k > cx.dim:
        return 0
    key = (k, relative)
    if key not in cx.rank_cache:
        mat = cx.boundary_matrices[k]
        if relative:
            mat = mat[mesh.interior_simplex_mask(k - 1)][:, mesh.interior_simplex_mask(k)]
        cx.rank_cache[key] = _integer_rank(mat)
    return cx.rank_cache[key]


def betti_oracle(mesh, k: int) -> int:
    """dim H_k from integer ranks of the boundary matrices (no metric)."""
    cx = mesh.complex if hasattr(mesh, "complex") else mesh
    if k < 0 or k > cx.dim:
        return 0
    return (cx.n_simplices(k) - _boundary_rank(cx, k, False)
            - _boundary_rank(cx, k + 1, False))


def relative_betti_oracle(mesh: RegionMesh, k: int) -> int:
    """dim H_k(M, boundary) from the quotient complex, exact integer ranks."""
    cx = mesh.complex
    if k < 0 or k > cx.dim:
        return 0
    n_k = int(mesh.interior_simplex_mask(k).sum())
    return (n_k - _boundary_rank(mesh, k, True)
            - _boundary_rank(mesh, k + 1, True))


class HarmonicBasis:
    """Orthonormal basis of harmonic k-fields under one trace condition."""

    def __init__(self, mesh, degree, boundary_condition, basis: Subspace):
        self.mesh = mesh
        self.degree = int(degree)
        self.boundary_condition = boundary_condition
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.dim

    def cochains(self):
        return [
            Cochain(self.mesh, self.degree, self.basis.columns[:, j])
            for j in range(self.dim)
        ]

    def max_residual(self) -> float:
        """max over columns of (||d a|| + ||d* a||) / ||a||."""
        neumann = self.degree >= 1 and self.boundary_condition == "neumann"
        if neumann:
            adjoint = adjoint_full(self.mesh, self.degree)
            mask = ~self.mesh.interior_simplex_mask(self.degree - 1)
        worst = 0.0
        for a in self.cochains():
            total = 0.0
            if self.degree < self.mesh.complex.dim:
                total += norm(d(a))
            if self.degree >= 1:
                total += norm(codifferential(a))
                if neumann:
                    raw = adjoint @ a.values
                    total += float(np.linalg.norm(raw[mask]))
            worst = max(worst, total / max(norm(a), 1e-300))
        return worst


def _stack_dense(blocks):
    mats = [np.atleast_2d(np.asarray(b.toarray() if sparse.issparse(b) else b,
                                     dtype=float)) for b in blocks if b is not None]
    mats = [m for m in mats if m.shape[0] > 0]
    if not mats:
        return np.zeros((0, 0))
    return np.vstack(mats)


def harmonic_neumann_basis(mesh, k: int,
                           rank_tolerance=tolerances.RANK_REL) -> HarmonicBasis:
    """Closed, coclosed fields with vanishing normal trace; dim = Betti number.

    The Neumann condition rides along for free: the kernel of the full
    metric adjoint of d is the interior-coclosed condition plus zero flux
    through the boundary dual cells.
    """
    cx = mesh.complex
    blocks = []
    if k < cx.dim:
        blocks.append(cx.boundary_matrices[k + 1].T)
    if k >= 1:
        blocks.append(adjoint_full(mesh, k))
    stacked = _stack_dense(blocks)
    basis = null_space(stacked, gram=mesh.star_diagonal(k),
                       rank_tolerance=rank_tolerance,
                       n_columns=cx.n_simplices(k))
    out = HarmonicBasis(mesh, k, "neumann", basis)
    expected = betti_oracle(mesh, k)
    if out.dim != expected:
        raise HodgeError(
            f"harmonic Neumann dimension {out.dim} != Betti number {expected} "
            f"(degree {k}); residual {out.max_residual():.3e}, "
            f"singular values {basis.singular_values}"
        )
    return out


def harmonic_dirichlet_basis(mesh: RegionMesh, k: int,
                             rank_tolerance=tolerances.RANK_REL) -> HarmonicBasis:
    """Closed, coclosed fields with vanishing tangential trace.

    Dimension equals the relative homology rank of the pair (region,
    boundary), computed independently by the integer oracle.
    """
    cx = mesh.complex
    interior = mesh.interior_simplex_mask(k)
    inject = np.eye(cx.n_simplices(k))[:, interior]
    blocks = []
    if k < cx.dim:
        blocks.append(cx.boundary_matrices[k + 1].T @ inject)
    if k >= 1:
        rows = adjoint_full(mesh, k).toarray()[mesh.interior_simplex_mask(k - 1)]
        blocks.append(rows @ inject)
    stacked = _stack_dense(blocks)
    small = null_space(stacked, rank_tolerance=rank_tolerance,
                       n_columns=int(interior.sum()))
    cols = inject @ small.columns if small.dim else np.zeros((cx.n_simplices(k), 0))
    basis = from_span(cols, gram=mesh.star_diagonal(k),
                      rank_tolerance=rank_tolerance)
    out = HarmonicBasis(mesh, k, "dirichlet", basis)
    expected = relative_betti_oracle(mesh, k)
    if out.dim != expected:
        raise HodgeError(
            f"harmonic Dirichlet dimension {out.dim} != relative Betti "
            f"{expected} (degree {k})"
        )
    return out


class HmfDecomposition:
    """Four mutually orthogonal components of a k-cochain.

    exact_dirichlet + coexact_neumann + harmonic_neumann + harmonic_exact
    reproduces the input; ``residual_norm`` is the worst relative pairwise
    orthogonality defect among nonzero components.
    """

    def __init__(self, exact_dirichlet, coexact_neumann, harmonic_neumann,
                 harmonic_exact, residual_norm):
        self.exact_dirichlet = exact_dirichlet
        self.coexact_neumann = coexact_neumann
        self.harmonic_neumann = harmonic_neumann
        self.harmonic_exact = harmonic_exact
        self.residual_norm = residual_norm

    def components(self):
        return (self.exact_dirichlet, self.coexact_neumann,
                self.harmonic_neumann, self.harmonic_exact)

    def reconstruction(self) -> Cochain:
        a, b, c, e = self.components()
        return a + b + c + e

    def report(self) -> dict:
        names = ("exact_dirichlet", "coexact_neumann", "harmonic_neumann",
                 "harmonic_exact")
        return {
            "component_norms": {n: norm(c) for n, c in zip(names, self.components())},
            "residual_norm": self.residual_norm,
        }


def _weighted_lstsq(mat, weights, rhs):
    """min ||sqrt(weights) (mat x - rhs)||, with a condition estimate."""
    if mat.shape[1] == 0:
        return np.zeros(0)
    w = np.sqrt(weights)
    a = w[:, None] * mat
    b = w * rhs
    x, _, rank, svals = np.linalg.lstsq(a, b, rcond=None)
    if rank > 0 and svals.size:
        cond = svals[0] / svals[rank - 1]
        if cond > 1e14:
            raise HodgeError(f"ill-conditioned projection solve, cond ~ {cond:.2e}")
    return x


def hmf_decompose(alpha: Cochain, mesh: RegionMesh | None = None,
                  neumann_basis: HarmonicBasis | None = None) -> HmfDecomposition:
    """Successive orthogonal projections onto the four summands.

    Solves the Dirichlet potential problem for the exact part, the Neumann
    problem for the coexact part, projects onto the harmonic Neumann basis,
    and assigns the remainder to the exact-harmonic summand.
    """
    mesh = mesh if mesh is not None else alpha.host
    if alpha.host is not mesh:
        raise DECError("cochain does not live on the given region")
    cx = mesh.complex
    k = alpha.degree
    weights = mesh.star_diagonal(k)

    if k >= 1:
        interior = mesh.interior_simplex_mask(k - 1)
        dmat = cx.boundary_matrices[k].T.toarray()[:, interior]
        x = _weighted_lstsq(dmat, weights, alpha.values)
        exact = Cochain(mesh, k, dmat @ x)
    else:
        exact = Cochain.zeros(mesh, k)

    if k < cx.dim:
        # Image of the metric adjoint of d applied to (k+1)-cochains.
        bmat = adjoint_full(mesh, k + 1).toarray() / weights[:, None]
        y = _weighted_lstsq(bmat, weights, alpha.values)
        coexact = Cochain(mesh, k, bmat @ y)
    else:
        coexact = Cochain.zeros(mesh, k)

    if neumann_basis is None:
        neumann_basis = harmonic_neumann_basis(mesh, k)
    rest = alpha.values - exact.values - coexact.values
    hn = Cochain(mesh, k, neumann_basis.basis.project(rest))
    he = Cochain(mesh, k, rest - hn.values)

    comps = (exact, coexact, hn, he)
    # Components at roundoff of the input carry no meaningful direction;
    # exclude them from the normalized orthogonality defect.
    floor = 1e-13 * max(norm(alpha), 1e-300)
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            ni, nj = norm(comps[i]), norm(comps[j])
            if ni > floor and nj > floor:
                worst = max(worst, abs(inner_product(comps[i], comps[j])) / (ni * nj))
    return HmfDecomposition(*comps, residual_norm=worst)


def coclosed_decompose(phi: Cochain,
                       input_tolerance=tolerances.COCLOSED_INPUT_REL):
    """Split a coclosed 1-cochain on a closed hypersurface into harmonic
    plus coexact parts (orthogonally)."""
    sigma = phi.host
    if phi.degree != 1:
        raise DECError("coclosed decomposition expects a 1-cochain")
    if hasattr(sigma, "is_closed") and not sigma.is_closed():
        raise DECError("hypersurface must be closed")
    defect = norm(codifferential(phi))
    scale = max(norm(phi), 1e-300)
    if defect > input_tolerance * scale:
        raise DECError(
            f"input is not coclosed: |d* phi| = {defect:.3e} vs {scale:.3e}"
        )
    basis = harmonic_neumann_basis(sigma, 1)
    harmonic = Cochain(sigma, 1, basis.basis.project(phi.values))
    coexact = phi - harmonic
    return harmonic, coexact
