"""Harmonic fields, Betti oracles, and the four-way orthogonal decomposition.

The combinatorial oracle computes homology ranks exactly and never touches
the metric, so it can audit the metric pipeline: the dimension of every
harmonic basis must reproduce the oracle's rank exactly.  The ranks of d_1
and of the top d_n are counts of components of the vertex graph and of the
dual graph; only d_2 of a 3D complex takes an integer elimination, on the
block left after removing the rows and columns of two spanning forests
(:func:`_boundary_rank`).
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy import sparse

from . import tolerances
from .dec import Cochain, DECError, adjoint_full, codifferential, d, inner_product, norm
from .mesh import RegionMesh, _components
from .subspaces import Subspace, factorize, orthonormalize


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


def _closed_components(mesh) -> np.ndarray:
    """Mask over the vertex components of those without a boundary vertex."""
    cx = mesh.complex
    touched = cx.vertex_components()[cx.simplices[0][mesh.boundary_simplex_mask(0), 0]]
    return ~np.isin(np.arange(cx.n_components()), touched)


def _boundary_rank(mesh, k: int, relative: bool) -> int:
    """Rank of the boundary matrix d_k, cached on the complex.

    ``relative`` restricts d_k to interior simplices in both degrees: the
    boundary matrix of the quotient complex (region, boundary).

    The ranks of d_1 and of the top d_n are graph counts.  The rank of d_1
    is n_0 minus the number of vertex components (Kirchhoff).  Relative, the
    boundary vertices act as one ground row, which is deleted; an interior
    vertex reaches the ground through an interior edge exactly when its
    component has a boundary vertex, so the rank is the number of interior
    vertices minus the number of components without one.  Every accepted
    complex has at most two cofaces per facet, with opposite induced signs
    on a shared facet, so a chain in the kernel of d_n takes equal values,
    in units of the orientation, on two cells that share a facet, and zero
    on a cell with a boundary facet: the kernel is the orientation on each
    dual component (cells joined across shared facets), and for the absolute
    rank only on those that touch no boundary facet.  A third coface or an
    inconsistent orientation would break this count.

    Only a middle degree (d_2 of a 3D complex) is left to
    :func:`_integer_rank`, and on a block.  The image of d_2 lies in the
    cycles of the vertex graph (relative: with the boundary vertices merged
    into one node), and a cycle that vanishes off a spanning forest is
    zero, so the rows off a forest keep the rank.  By d_2 d_3 = 0, the
    forest facet of a leaf of the dual forest is a combination of the
    leaf's other facets; leaf by leaf, the columns off the dual forest span
    all the columns.
    """
    cx = mesh.complex if hasattr(mesh, "complex") else mesh
    if k < 1 or k > cx.dim:
        return 0
    key = (k, relative)
    if key in cx.rank_cache:
        return cx.rank_cache[key]
    n = cx.dim
    if k == 1:
        lost = (int(mesh.boundary_simplex_mask(0).sum()) + int(_closed_components(mesh).sum())
                if relative else cx.n_components())
        rank = cx.n_vertices - lost
    elif k == n:
        labels = cx.dual_components[0]
        cells = np.unique(labels)
        if not relative:
            top = cx.boundary_matrices[n]
            touched = labels[top.indices[top.indptr[cx.boundary_facets()]]]
            cells = np.setdiff1d(cells, touched)
        rank = cx.n_simplices(n) - len(cells)
    else:  # a middle degree, 1 < k < n
        rows = np.ones(cx.n_simplices(k - 1), dtype=bool)
        cols = np.ones(cx.n_simplices(k), dtype=bool)
        if relative:
            rows, cols = mesh.interior_simplex_mask(k - 1), mesh.interior_simplex_mask(k)
        if k == 2:
            forest = cx.forest_edges
            if relative:  # the boundary vertices merged into one ground node
                ground = np.arange(cx.n_vertices)
                bd = cx.simplices[0][mesh.boundary_simplex_mask(0), 0]
                ground[bd] = bd[:1]
                forest = np.zeros_like(rows)
                forest[rows] = _components(cx.n_vertices, ground[cx.simplices[1][rows]])[1]
            rows = rows & ~forest
        if k == n - 1:
            cols = cols & ~cx.dual_components[1]
        rank = _integer_rank(cx.boundary_matrices[k][rows][:, cols])
    cx.rank_cache[key] = rank
    return rank


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


def _hodge_rows(mesh, k: int, dirichlet: bool):
    """The rows ``A = [d_k; del_k S_k]`` of the Hodge Laplacian ``A^T diag(w)
    A`` of degree k on every k-simplex, as CSR blocks with their weights ``w
    = (S_k+1, S_k-1^-1)``; Dirichlet keeps the interior (k-1) rows."""
    cx = mesh.complex
    out = []
    if k < cx.dim:
        out.append((cx.boundary_matrices[k + 1].T.tocsr(), mesh.star_diagonal(k + 1)))
    if k >= 1:
        rows = mesh.interior_simplex_mask(k - 1) if dirichlet else slice(None)
        out.append((adjoint_full(mesh, k)[rows], 1.0 / mesh.star_diagonal(k - 1)[rows]))
    return out


def _hodge_block(mesh, k: int, dirichlet: bool):
    """The Hodge Laplacian of degree k as unsummed COO triplets ``(row, col,
    value)``, ``(A_ri A_rj) w_r`` per row r of :func:`_hodge_rows` and pair of
    its entries i, j: up ``S_s s_i s_j``, down ``(S_i S_j) (1/S_t) s_i s_j``,
    so the summed block is exactly symmetric.  Dirichlet keeps the interior
    rows: the block and its coupling to the boundary.  Built once per mesh,
    degree and condition, and kept on the mesh read-only."""
    if (k, dirichlet) in mesh._hodge_blocks:
        return mesh._hodge_blocks[k, dirichlet]
    parts = []
    for a, w in _hodge_rows(mesh, k, dirichlet):
        count = np.diff(a.indptr)
        r = np.repeat(np.arange(len(count)), count)  # the row of each entry
        width = count[r]
        p = np.repeat(np.arange(a.nnz), width)  # each entry, once per entry of its row
        q = np.arange(p.size) - np.repeat(np.cumsum(width) - width - a.indptr[r], width)
        parts.append((a.indices[p], a.indices[q], (a.data[p] * a.data[q]) * w[r[p]]))
    out = tuple(np.concatenate(x) for x in zip(*parts))
    if dirichlet:
        out = tuple(x[mesh.interior_simplex_mask(k)[out[0]]] for x in out)
    for x in out:
        x.flags.writeable = False
    mesh._hodge_blocks[k, dirichlet] = out
    return out


def _harmonic_basis(mesh, k: int, rank_tolerance, dirichlet: bool) -> HarmonicBasis:
    """Harmonic k-fields: the kernel of the rows of :func:`_hodge_rows`.

    In degree 0, the indicator of each component (Dirichlet: each without a
    boundary vertex); in the top degree n, ``orientation / S_n`` on each
    component (Neumann: each closed one).  A dimension other than the
    integer oracle's (relative) Betti number raises.  Otherwise the kernel
    of the Hodge Laplacian of degree k (Dirichlet: on the interior
    k-simplices), read off the zero pivots that its one factorization is
    grounded at (:func:`_potential`); an oracle off by one either way
    raises there."""
    cx = mesh.complex
    n, condition = cx.dim, "dirichlet" if dirichlet else "neumann"
    if 0 < k < n:
        kernel = _potential(mesh, k, dirichlet, rank_tolerance)[2]
        return HarmonicBasis(mesh, k, condition, kernel())
    gram = mesh.star_diagonal(k)
    expected = (relative_betti_oracle if dirichlet else betti_oracle)(mesh, k)
    comp, closed = cx.vertex_components(), _closed_components(mesh)
    values, labels = ((np.ones(cx.n_simplices(0)), comp) if k == 0 else
                      (cx.orientation / gram, comp[cx.simplices[n][:, 0]]))
    keep = closed if dirichlet == (k == 0) else np.ones_like(closed)
    fields = np.where(labels[:, None] == np.flatnonzero(keep), values[:, None], 0.0)
    out = HarmonicBasis(mesh, k, condition,
                        Subspace(fields / np.sqrt(gram @ fields ** 2), gram, rank_tolerance))
    if out.dim != expected:
        raise HodgeError(
            f"harmonic {condition} dimension {out.dim} != "
            f"{'relative ' if dirichlet else ''}Betti number {expected} "
            f"(degree {k}); residual {out.max_residual():.3e}"
        )
    return out


def harmonic_neumann_basis(mesh, k: int,
                           rank_tolerance=tolerances.RANK_REL) -> HarmonicBasis:
    """Closed, coclosed fields with vanishing normal trace; dim = Betti number.

    The Neumann condition rides along for free: the kernel of the full
    metric adjoint of d is the interior-coclosed condition plus zero flux
    through the boundary dual cells (:func:`_harmonic_basis`).
    """
    return _harmonic_basis(mesh, k, rank_tolerance, False)


def harmonic_dirichlet_basis(mesh: RegionMesh, k: int,
                             rank_tolerance=tolerances.RANK_REL) -> HarmonicBasis:
    """Closed, coclosed fields with vanishing tangential trace.

    Dimension equals the relative homology rank of the pair (region,
    boundary), computed independently by the integer oracle
    (:func:`_harmonic_basis`).
    """
    return _harmonic_basis(mesh, k, rank_tolerance, True)


class HmfDecomposition:
    """Four mutually orthogonal components of a k-cochain.

    exact_dirichlet + coexact_neumann + harmonic_neumann + harmonic_exact
    reproduces the input; ``residual_norm`` is the worst relative pairwise
    orthogonality defect among nonzero components; ``solves`` holds the size
    and pivot ratio of each projection solve.
    """

    def __init__(self, exact_dirichlet, coexact_neumann, harmonic_neumann,
                 harmonic_exact, residual_norm, solves=None):
        self.exact_dirichlet = exact_dirichlet
        self.coexact_neumann = coexact_neumann
        self.harmonic_neumann = harmonic_neumann
        self.harmonic_exact = harmonic_exact
        self.residual_norm = residual_norm
        self.solves = solves or {}

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
            "projection_solves": self.solves,
        }


def _potential(mesh, j: int, dirichlet: bool, rank_tolerance):
    """Factorize the Hodge Laplacian of degree ``j`` (:func:`_hodge_block`)
    once, grounded at the zero pivots of the kernel that the integer oracle
    predicts (:func:`subspaces.factorize`).  Returns its solve, a map of a
    right-hand side on the unknowns (a vector or columns, orthogonal to its
    kernel) to the potential, its record, and a map to the kernel, a
    :class:`Subspace` on every j-simplex: the columns that the first solve
    finds (run on no columns if none ran), S_j-orthonormalized by one
    Cholesky of their Gram (:func:`subspaces.orthonormalize`), with their
    pivot gap (none and ``inf`` without a kernel).  On a complex with
    coordinates the unknowns go by the breadth-first ranks of their vertices
    (:attr:`SimplicialComplex.vertex_rank`), lowest first, lexicographically;
    a Neumann block of degree 0 passes on the complex's component labels."""
    cx = mesh.complex
    cols = mesh.interior_simplex_mask(j) if dirichlet else slice(None)
    index = np.arange(cx.n_simplices(j))[cols]
    kernel = (relative_betti_oracle if dirichlet else betti_oracle)(mesh, j)
    order = np.arange(index.size)  # the unknowns in the block's order
    if cx.vertex_rank is not None:
        ranks = np.sort(cx.vertex_rank[cx.simplices[j][index]], axis=1)
        order = np.lexsort(ranks.T[::-1])
    solve, ratio, found = (lambda rhs: rhs), None, []  # an empty block
    if index.size:
        row, col, value = _hodge_block(mesh, j, dirichlet)
        at = np.full(cx.n_simplices(j), -1)  # each unknown's place in the block
        at[index[order]] = np.arange(index.size)
        keep = (at[row] >= 0) & (at[col] >= 0)
        block = (value[keep], (at[row[keep]], at[col[keep]]))
        labels = cx.vertex_components()[order] if j == 0 and not dirichlet else None
        solve, ratio, found = factorize(sparse.coo_matrix(block, shape=(index.size,) * 2),
                                        rank_tolerance, HodgeError, kernel, labels)

    def potential(rhs):
        x = np.zeros(np.shape(rhs))
        x[order] = solve(rhs[order])
        return x

    def harmonic():
        columns, gap, gram = np.zeros((cx.n_simplices(j), kernel)), np.inf, mesh.star_diagonal(j)
        if kernel:
            if not found:
                solve(np.zeros((index.size, 0)))
            columns[index[order]], gap = found[0]
            columns = orthonormalize(columns, gram)[0]
        return Subspace(columns, gram, rank_tolerance, gap=gap)

    return potential, {"block_size": int(index.size - kernel), "grounded": kernel,
                       "pivot_ratio": ratio, "rank_tolerance": rank_tolerance}, harmonic


def _exact_projection(mesh, k: int, dirichlet: bool, rank_tolerance):
    """The S_k-projection onto ``d`` of the (k-1)-cochains (Dirichlet: the
    interior ones), a map of a vector or columns, and its record: the Hodge
    Laplacian of degree k-1 for ``d^T S_k x`` (:func:`_potential`)."""
    cols = mesh.interior_simplex_mask(k - 1) if dirichlet else slice(None)
    dt, s = mesh.complex.boundary_matrices[k][cols], mesh.star_diagonal(k)  # d^T
    potential, record, _ = _potential(mesh, k - 1, dirichlet, rank_tolerance)
    return (lambda x: dt.T @ potential(dt @ (s * x.T).T)), record


def _coexact_part(mesh, k: int, x, rank_tolerance):
    """S_k-projection of ``x`` (a vector or columns) onto the range of
    ``B = S_k^-1 d_k^T S_k+1`` and the solve's record: the Neumann Hodge
    Laplacian of degree k+1, down term ``B^T S_k B``, for ``B^T S_k x``
    (:func:`_potential`)."""
    sb = adjoint_full(mesh, k + 1)  # S_k B
    potential, record, _ = _potential(mesh, k + 1, False, rank_tolerance)
    return sparse.diags(1.0 / mesh.star_diagonal(k)) @ (sb @ potential(sb.T @ x)), record


def dirichlet_extension(mesh: RegionMesh, rank_tolerance=tolerances.RANK_REL):
    """The Dirichlet extension: a map of 1-cochain columns ``x`` to the
    columns equal to ``x`` on the boundary edges that solve the Dirichlet
    Hodge Laplacian ``L`` of degree 1 on the interior edges ``J``, ``L_JJ
    y_J = -L_J,bd x_bd`` (:func:`_potential`, grounded at its zero pivots
    when H^1(M, boundary) is nonzero, an empty block without interior edges;
    both blocks of the kept :func:`_hodge_block`).  So ``d^T S_2 d y`` and
    ``del_1 S_1 y`` vanish on the interior edges and vertices.  Returns the
    map, its record and the map to the kernel of ``L_JJ``, H^1(M, boundary),
    S_1-orthonormal with its pivot gap."""
    potential, record, harmonic = _potential(mesh, 1, True, rank_tolerance)
    interior = mesh.interior_simplex_mask(1)
    row, col, value = _hodge_block(mesh, 1, True)
    cut = ~interior[col]
    coupling = sparse.csr_matrix((value[cut], (row[cut], col[cut])), shape=(interior.size,) * 2)

    def extend(x):
        y = np.array(x, dtype=float)
        y[interior] = potential(-(coupling @ y)[interior])
        return y

    return extend, record, harmonic


def hmf_decompose(alpha: Cochain, mesh: RegionMesh | None = None,
                  neumann_basis: HarmonicBasis | None = None,
                  rank_tolerance=tolerances.RANK_REL,
                  roundoff_tolerance=tolerances.ROUNDOFF_REL) -> HmfDecomposition:
    """Orthogonal projections onto the four summands; two independent solves.

    The Dirichlet :func:`_exact_projection` and the Neumann :func:`_coexact_part`
    (in degree 0, ``alpha`` minus its weighted mean per component).  The
    rest is projected onto the harmonic Neumann basis (built unless given,
    if the Betti number is nonzero); the remainder is exact harmonic.
    Components below ``roundoff_tolerance * |alpha|`` are left out of the
    orthogonality defect."""
    mesh = mesh if mesh is not None else alpha.host
    if alpha.host is not mesh:
        raise DECError("cochain does not live on the given region")
    k = alpha.degree
    if neumann_basis is None and betti_oracle(mesh, k):
        neumann_basis = harmonic_neumann_basis(mesh, k, rank_tolerance)
    exact = coexact = np.zeros_like(alpha.values)
    solves = {}
    if k >= 1:
        project, solves["exact_dirichlet"] = _exact_projection(
            mesh, k, True, rank_tolerance)
        exact = project(alpha.values)
    if 1 <= k < mesh.complex.dim:
        coexact, solves["coexact_neumann"] = _coexact_part(
            mesh, k, alpha.values, rank_tolerance)
    elif k < mesh.complex.dim:  # degree 0: all but the constants per component
        coexact = alpha.values - neumann_basis.basis.project(alpha.values)
    rest = alpha.values - exact - coexact
    hn = (neumann_basis.basis.project(rest) if neumann_basis is not None
          else np.zeros_like(rest))
    comps = tuple(Cochain(mesh, k, v) for v in (exact, coexact, hn, rest - hn))
    # Components at roundoff of the input carry no meaningful direction;
    # exclude them from the normalized orthogonality defect.
    floor = roundoff_tolerance * max(norm(alpha), 1e-300)
    big = [c for c in comps if norm(c) > floor]
    worst = max((abs(inner_product(a, b)) / (norm(a) * norm(b))
                 for a, b in itertools.combinations(big, 2)), default=0.0)
    return HmfDecomposition(*comps, residual_norm=worst, solves=solves)


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
