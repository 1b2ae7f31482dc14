"""Bulk field equation, action, restriction to boundary data, and gluing.

The field equation operator keeps the interior-edge rows of the full
curvature adjoint; its boundary rows are exactly the normal flux paired by
the boundary two-form.  That split makes the restricted solution pairing
symmetric, so isotropy of the image holds to roundoff.  The image is the
graph of the Dirichlet-to-Neumann map over the coclosed boundary traces,
and it is verified to be Lagrangian inside the coclosed pairs from that
map alone.  The same Dirichlet extension of boundary traces gives the
solution space, the restriction and the extension of boundary data.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from . import tolerances
from .boundary import (
    BoundaryDatum,
    BoundaryError,
    coclosed_projection,
    trace_columns,
    trace_solution,
)
from .dec import Cochain, DECError, d, inner_product, normal_trace, tangential_trace
from .hodge import dirichlet_extension, relative_betti_oracle
from .mesh import GlueInfo, RegionMesh, glue
from .subspaces import Subspace, from_span, null_space, orthonormalize, principal_angles
from .symplectic import coclosed_subspace


class DynamicsError(ValueError):
    """Solver failure, non-extendable datum, or gluing mismatch."""


def _curvature_adjoint(mesh: RegionMesh) -> sparse.csr_matrix:
    """All rows of d^T S_2 d acting on 1-cochains, sparse."""
    d1 = mesh.complex.boundary_matrices[2].T
    return (d1.T @ sparse.diags(mesh.star_diagonal(2)) @ d1).tocsr()


def field_equation_matrix(mesh: RegionMesh) -> np.ndarray:
    """The bulk field equation (interior rows of the curvature adjoint), dense."""
    if mesh.complex.dim < 2:
        raise DynamicsError("field equation needs a region of dimension >= 2")
    return _curvature_adjoint(mesh)[mesh.interior_simplex_mask(1)].toarray()


class SolutionSpace:
    """Solutions of the bulk equation, from the Dirichlet extension ``A``
    (``extension``, its solve record ``solve``) of ``Q`` (``coclosed``, the
    r S-orthonormal coclosed boundary 1-cochains, record ``coclosed_basis``;
    None without a boundary), and the Dirichlet harmonic basis ``H`` the
    solve was grounded on (``grounding``, or None).  A solution with zero
    trace is closed, so it lies in ``H`` plus exact fields: every solution
    is ``A c + H h + d f``.
    ``gauge_fixed_dim`` is the exact count ``r - c(bd M) + c_bounded(M) +
    b_1(M, bd M)`` (components of the boundary and of M with a boundary,
    relative Betti number); ``dim`` adds the ``n_0 - components`` exact
    directions.  No full basis is ever built.
    """

    def __init__(self, mesh: RegionMesh, coclosed, coclosed_basis: dict, extension,
                 grounding, solve: dict, gauge_fixed_dim: int, rank_tolerance):
        self.mesh = mesh
        self.coclosed = coclosed
        self.coclosed_basis = coclosed_basis
        self.extension = extension
        self.grounding = grounding
        self.solve = solve
        self.gauge_fixed_dim = int(gauge_fixed_dim)
        self.rank_tolerance = rank_tolerance

    @property
    def dim(self) -> int:
        cx = self.mesh.complex
        return self.gauge_fixed_dim + cx.n_simplices(0) - cx.n_components()

    @functools.cached_property
    def gauge_fixed_basis(self) -> Subspace:
        """The solutions S_1-orthogonal to every ``d f``: ``[A, H]`` less its
        exact part (:func:`~decgauge.boundary.coclosed_projection`, one
        grounded vertex-Laplacian solve), orthonormalized.  The exact
        Dirichlet fields drop out at the rank cut; a rank other than
        ``gauge_fixed_dim`` raises.  Built on first use."""
        x = self.extension
        if self.grounding is not None:
            x = np.hstack([x, self.grounding.columns])
        fixed = coclosed_projection(self.mesh, x, self.rank_tolerance) if x.size else x
        basis = from_span(fixed, gram=self.mesh.star_diagonal(1),
                          rank_tolerance=self.rank_tolerance)
        if basis.dim != self.gauge_fixed_dim:
            raise DynamicsError(
                f"gauge-fixed rank {basis.dim} != exact count "
                f"{self.gauge_fixed_dim}; singular values {basis.singular_values}")
        return basis

    def gauge_fixed_solutions(self):
        return [Cochain(self.mesh, 1, c) for c in self.gauge_fixed_basis.columns.T]

    def random_solutions(self, rng, count: int) -> np.ndarray:
        """``count`` random solutions ``G.project(x) + d f`` as columns, ``x``
        and ``f`` standard normal; the projection, unlike coefficients on
        the basis, does not depend on how the basis is rotated."""
        cx = self.mesh.complex
        x = rng.standard_normal((cx.n_simplices(1), count))
        f = rng.standard_normal((cx.n_simplices(0), count))
        return self.gauge_fixed_basis.project(x) + cx.boundary_matrices[1].T @ f


def solution_space(mesh: RegionMesh,
                   rank_tolerance=tolerances.RANK_REL) -> SolutionSpace:
    """``Q``, its Dirichlet extension ``A``, the grounding basis and the
    exact gauge-fixed count (see :class:`SolutionSpace`).  A singular
    interior block, or a kernel the relative Betti number does not predict,
    raises in the extension's pivot gate."""
    cx = mesh.complex
    if cx.dim < 2:
        raise DynamicsError("field equation needs a region of dimension >= 2")
    sigma = mesh.boundary
    x, q, bounded = np.zeros((cx.n_simplices(1), 0)), None, 0
    record = {"edges_off_forest": 0, "pivot_ratio": None, "rank_tolerance": rank_tolerance}
    if sigma is not None:
        q, record = coclosed_subspace(sigma, rank_tolerance)
        x = np.zeros((cx.n_simplices(1), q.dim))
        x[sigma.region_simplex_map(1)] = q.columns
        bounded = (np.unique(cx.vertex_components()[sigma.vertex_map]).size
                   - sigma.complex.n_components())
    x, solve, grounding = dirichlet_extension(mesh, x, rank_tolerance)
    count = x.shape[1] + bounded + relative_betti_oracle(mesh, 1)
    return SolutionSpace(mesh, q, record, x, grounding, solve, count, rank_tolerance)


def actions(mesh: RegionMesh, columns):
    """Actions ``<d a, d a>`` of the 1-cochain columns, and their attainable
    magnitudes (absolute-value arithmetic): flat fields have action at
    roundoff of that scale, so action identities are judged against it."""
    d1 = mesh.complex.boundary_matrices[2].T
    s2 = mesh.star_diagonal(2)
    da, absd = d1 @ columns, abs(d1) @ np.abs(columns)
    return s2 @ (da * da), s2 @ (absd * absd)


def action(eta: Cochain) -> float:
    """<d eta, d eta> with the degree-2 inner product; zero iff flat."""
    if eta.degree != 1:
        raise DECError("the action takes 1-cochains")
    return float(actions(eta.host, eta.values)[0])


def action_scale(eta: Cochain) -> float:
    """Attainable magnitude of the action sum (see :func:`actions`)."""
    return float(actions(eta.host, eta.values)[1])


def theta(eta: Cochain, variation: Cochain) -> float:
    """Boundary pairing -2 <trace of the variation, flux trace of eta>.

    The sign makes the quadratic action-difference identity
    S(a) - S(b) + (theta(a, a-b) + theta(b, a-b)) / 2 = 0 hold exactly for
    solution pairs.
    """
    mesh = eta.host
    if variation.host is not mesh:
        raise DECError("variation lives on a different region")
    sigma = mesh.boundary
    if sigma is None:
        return 0.0
    tr = tangential_trace(variation, sigma)
    nt = normal_trace(d(eta), sigma)
    return -2.0 * inner_product(tr, nt)


def action_difference_residual(eta: Cochain, xi: Cochain):
    """Residual and scale of the action-difference identity on a solution pair.

    The residual is S(eta) - S(xi) + (theta(eta, v) + theta(xi, v)) / 2 with
    v = eta - xi; the scale sums the same terms in absolute-value arithmetic
    (see :func:`actions`).  The trace of v and each flux are taken once.
    """
    if eta.degree != 1:
        raise DECError("the action takes 1-cochains")
    mesh = eta.host
    delta = eta - xi
    (s_eta, abs_eta), (s_xi, abs_xi) = (actions(mesh, c.values) for c in (eta, xi))
    thetas, theta_scales = [0.0, 0.0], [0.0, 0.0]
    sigma = mesh.boundary
    if sigma is not None:
        tr = tangential_trace(delta, sigma)
        idx = sigma.simplex_maps[1]
        abs_tr = np.abs(delta.values[idx])
        d1, s2 = abs(mesh.complex.boundary_matrices[2].T), mesh.star_diagonal(2)
        for i, c in enumerate((eta, xi)):
            thetas[i] = -2.0 * inner_product(tr, normal_trace(d(c), sigma))
            absflux = d1.T @ (s2 * (d1 @ np.abs(c.values)))
            theta_scales[i] = 2.0 * float(np.dot(abs_tr, absflux[idx]))
    residual = (float(s_eta) - float(s_xi)
                + 0.5 * thetas[0] + 0.5 * thetas[1])
    scale = max(float(abs_eta) + float(abs_xi)
                + 0.5 * theta_scales[0] + 0.5 * theta_scales[1], 1e-300)
    return residual, scale


def restrict(space: SolutionSpace, rank_tolerance=tolerances.RANK_REL,
             solution_tolerance=tolerances.SOLUTION_REL) -> Subspace:
    """Image of the solutions inside the coclosed pairs, orthonormal in the
    doubled boundary stars: ``[Q; flux A] L^-T`` (each extension's bulk
    residual gated), ``L L^T = I + flux^T S flux`` its Gram matrix
    (:func:`~decgauge.subspaces.orthonormalize`).  Q is
    S-orthonormal, so every singular value is at least 1 and no rank is
    cut.  The grounding fields and ``d f`` add nothing: the first are
    closed with zero trace, the second leave the coclosed part of the trace
    and the flux alone."""
    sigma = space.mesh.boundary
    if sigma is None:
        return Subspace(np.zeros((0, 0)), gram=None,
                        rank_tolerance=rank_tolerance)
    s = sigma.star_diagonal(1)
    flux = trace_columns(space.mesh, space.extension, sigma, solution_tolerance)[1]
    gram = np.tile(s, 2)
    cols = orthonormalize(np.vstack([space.coclosed.columns, flux]), gram)[0]
    return Subspace(cols, gram=gram, rank_tolerance=rank_tolerance)


def verify_lagrangian(space: SolutionSpace,
                      isotropy_tolerance=tolerances.ISOTROPY_REL,
                      angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                      solution_tolerance=tolerances.SOLUTION_REL,
                      gap_factor=tolerances.RANK_GAP_FACTOR,
                      coclosed_tolerance=tolerances.COCLOSED_INPUT_REL) -> dict:
    """The restricted solutions inside the coclosed boundary pairs, as the
    graph of the Dirichlet-to-Neumann map ``Lam`` (phi to the flux of its
    extension) over the coclosed traces; no gauge-fixed basis is built.

    The fluxes of the space's extension ``A`` of ``Q`` (r columns) are
    taken with every column's bulk residual gated.
    In the coordinates ``(Q c, Q c_dot)`` of the coclosed pairs the image is
    graph(M), ``M = Q^T S Lam Q``, and the two-form is ``sign/2 [[0, I],
    [-I, 0]]``.  So half-dimension holds by construction.  With ``L L^T =
    I + M^T M``, ``[I; M] L^-T`` is an orthonormal basis of graph(M) and
    ``[-M; I] L^-T`` one of the orthogonal complement of graph(M^T), the
    symplectic complement; both pair graph(M) through ``K = L^-1 (M - M^T)
    L^-T``.  What is measured is:

    - isotropy, the form on the orthonormal graph basis, ``max |K| / 2``
      (scale 1/2);
    - Green's identity ``M = (dA)^T S_2 dA`` (the bulk action of the
      extensions), which makes M symmetric: the largest gap plus one unit
      roundoff of the sums' magnitudes, relative to the largest action, and
      gated by ``isotropy_tolerance`` too; unlike the symmetry, it is not
      vacuous when r = 1;
    - coisotropy: the principal angles between graph(M) and graph(M^T),
      the arcsines of the singular values of ``K``, must stay below
      ``angle_tolerance``;
    - the fluxes' distance from span Q (``embedding_defect``, each pair
      relative to its norm), at most ``coclosed_tolerance``.

    ``gauge_fixed`` is the space's exact count; ``rank_ambiguous`` when the
    grounding basis's gap is below ``gap_factor`` (Q cuts no rank).
    Without a boundary every reading is zero."""
    mesh, sigma, q = space.mesh, space.mesh.boundary, space.coclosed
    r = 0 if q is None else q.dim
    iso = green = embed_defect = 0.0
    sines = np.zeros(0)
    if sigma is not None:
        cx, s, x = mesh.complex, sigma.star_diagonal(1), space.extension
        flux = trace_columns(mesh, x, sigma, solution_tolerance)[1]
        m = q.coords(flux)
        # |[q; flux]| >= |q| = 1: the distance of each image pair from the pairs
        off = flux - q.columns @ m
        embed_defect = float((np.sqrt(s @ off ** 2) / np.sqrt(1.0 + s @ flux ** 2)
                              ).max(initial=0.0))
        da = cx.boundary_matrices[2].T @ x
        energy = da.T @ (mesh.star_diagonal(2)[:, None] * da)
        # A gap below one unit roundoff of what the two sums accumulate is not
        # resolved, so that much is added: a computed zero is not an exact one.
        resolution = np.finfo(float).eps / 2 * (
            (np.abs(q.columns) * np.abs(s[:, None] * flux)).sum(axis=0)
            + np.diag(energy)).max(initial=0.0)
        green = float((np.abs(m - energy).max(initial=0.0) + resolution)
                      / max(np.diag(energy).max(initial=0.0), 1e-300))
        inv = orthonormalize(np.vstack([np.eye(r), m]), np.ones(2 * r))[0][:r]  # L^-T
        k = inv.T @ (m - m.T) @ inv
        iso = 0.5 * float(np.abs(k).max(initial=0.0))
        sines = np.linalg.svd(k, compute_uv=False)[::-1]
    angles = np.arcsin(np.clip(sines, 0.0, 1.0))
    max_angle = float(angles.max(initial=0.0))
    return {
        "mesh": mesh.name,
        "dims": {
            "solution_space": space.dim,
            "gauge_fixed": space.gauge_fixed_dim,
            "phi_space": 2 * r,
            "image": r,
            "complement": r,
        },
        "isotropy_max": iso,
        "isotropy_scale": 0.5,
        "green_residual": green,
        "coisotropy_angles": [float(a) for a in angles],
        "max_principal_angle": max_angle,
        "embedding_defect": embed_defect,
        "extension_solve": space.solve,
        "coclosed_basis": space.coclosed_basis,
        "half_dimension": True,
        "rank_ambiguous": space.grounding is not None and space.grounding.gap < gap_factor,
        "lagrangian": bool(iso <= isotropy_tolerance * 0.5
                           and green <= isotropy_tolerance
                           and max_angle <= angle_tolerance
                           and embed_defect <= coclosed_tolerance),
    }


class NotExtendableError(DynamicsError):
    """The datum lies outside the image of the restriction map."""


#: Largest round-trip residual :func:`extend` accepts; no CLI report applies it.
EXTEND_ROUNDTRIP_REL = 1e-8


def extend(datum: BoundaryDatum, mesh: RegionMesh,
           membership_tolerance=EXTEND_ROUNDTRIP_REL,
           rank_tolerance=tolerances.RANK_REL,
           solution_tolerance=tolerances.SOLUTION_REL) -> Cochain:
    """The bulk solution whose boundary datum reproduces the input.

    The datum's phi, in whatever gauge, is extended by one
    :func:`~decgauge.hodge.dirichlet_extension`.  Every solution with that
    trace differs from the extension by a closed field, which has no flux,
    so the datum is extendable exactly when phi_dot is the extension's
    flux.  The round trip is the membership test: the distance of the
    extension's datum from the input, relative to the input, in the
    boundary stars."""
    sigma = mesh.boundary
    if sigma is None:
        raise DynamicsError("region has no boundary to extend from")
    if datum.host is not sigma:
        raise BoundaryError("datum does not live on the region's boundary")
    vec = datum.vector()
    w = np.sqrt(np.tile(sigma.star_diagonal(1), 2))
    scale = float(np.linalg.norm(w * vec))
    if scale == 0.0:
        return Cochain.zeros(mesh, 1)
    x = np.zeros((mesh.complex.n_simplices(1), 1))
    x[sigma.region_simplex_map(1), 0] = datum.phi.values
    eta = Cochain(mesh, 1, dirichlet_extension(mesh, x, rank_tolerance)[0][:, 0])
    back = trace_solution(eta, sigma, solution_tolerance).vector()
    residual = float(np.linalg.norm(w * (back - vec))) / scale
    if residual > membership_tolerance:
        raise NotExtendableError(
            f"datum is not extendable: round-trip residual {residual:.3e} "
            f"exceeds {membership_tolerance:.1e}"
        )
    return eta


def _matched_rows(mesh: RegionMesh, label_a: str, matching: dict, curvature):
    """Sparse rows per edge ``a`` of face ``label_a`` and its matched edge
    ``b`` (resorting sign ``s``): ``R_trace = a - s b`` (traces agree) and,
    where ``a`` becomes interior, ``R_flux = K_a + s K_b`` (fluxes cancel,
    ``K`` the curvature adjoint).  Edges of the face's perimeter (3D) lie
    on other faces too and stay on the boundary: they get no flux row."""
    cx = mesh.complex
    facets = cx.simplices[cx.dim - 1][sorted(mesh.face_labels[label_a])]
    edges = facets[:, np.transpose(np.triu_indices(cx.dim, 1))].reshape(-1, 2)
    ia, first = np.unique(cx.simplex_indices(1, edges), return_index=True)
    image = np.arange(cx.n_vertices)
    image[list(matching)] = list(matching.values())
    mapped = image[edges[first]]
    ib = cx.simplex_indices(1, mapped)
    sb = np.where(mapped[:, 0] < mapped[:, 1], 1.0, -1.0)
    rows, shape = np.arange(len(ia)), (len(ia), cx.n_simplices(1))
    pa = sparse.csr_matrix((np.ones(len(ia)), (rows, ia)), shape=shape)
    pb = sparse.csr_matrix((sb, (rows, ib)), shape=shape)
    others = [f for lab, fs in mesh.face_labels.items() if lab != label_a for f in fs]
    inner = ~cx.facet_closure(others, 1)[ia]
    return (pa - pb).tocsr(), ((pa + pb)[inner] @ curvature).tocsr()


def gluing_check(mesh: RegionMesh, label_a: str, label_b: str, matching: dict,
                 rank_tolerance=tolerances.RANK_REL,
                 angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                 action_tolerance=tolerances.GLUING_ACTION_REL,
                 length_tolerance=tolerances.GLUE_LENGTH_REL,
                 solution_tolerance=tolerances.SOLUTION_REL, glued=None) -> dict:
    """Glued solutions versus the equalizer of the two face restrictions
    (matched traces agree, matched fluxes cancel), modulo gauge.

    Every solution is ``g + d f`` (:class:`SolutionSpace`), so with ``P``
    the pullback and ``G``, ``G'`` the cut and glued gauge-fixed bases:
    containment is ``[K_I; R_trace; R_flux] P G' = 0`` to
    ``solution_tolerance`` and ``R_trace d P_0 = 0`` exactly; the
    equalizer is ``G ker [R_flux G; N^T R_trace G]``, ``N = ker (R_trace
    d)^T``, plus ``n_0 - rank(R_trace d) - components`` exact fields.
    Containment and equal dimensions make the spaces equal; also ``P G'``
    projected onto ``G`` must span the gauge-fixed equalizer, and the action
    compose across ``P``.  ``glued`` is this gluing's mesh, if already
    built (then ``length_tolerance`` is not read).
    """
    if glued is None:
        glued = glue(mesh, label_a, label_b, matching, length_tolerance)
    info: GlueInfo = glued.glue_info
    cx = mesh.complex
    curvature = _curvature_adjoint(mesh)
    trace, flux = _matched_rows(mesh, label_a, matching, curvature)
    space, glued_space = (solution_space(m, rank_tolerance) for m in (mesh, glued))
    pulled = info.pull_back(1, glued_space.gauge_fixed_basis.columns)

    rows = sparse.vstack([curvature[mesh.interior_simplex_mask(1)], trace, flux])
    # Each column is accurate to roundoff of its largest entry, not entry by
    # entry: a solution may vanish under every row but for roundoff.
    reach = np.linalg.norm(abs(rows) @ np.ones(cx.n_simplices(1)))
    containment = float((np.linalg.norm(rows @ pulled, axis=0) / np.maximum(
        reach * np.abs(pulled).max(axis=0, initial=0.0), 1e-300)).max(initial=0.0))
    trace_d = (trace @ cx.boundary_matrices[1].T).tocsc()
    p0 = sparse.csr_matrix((np.ones(cx.n_vertices), (np.arange(cx.n_vertices),
                                                     info.simplex_maps[0])))
    gauge_leak = float(abs(trace_d @ p0).max())

    # In coordinates on G.  Ranks are cut against the unreduced rows and
    # columns: when every solution matches, the reduced constraints are
    # roundoff, and their own largest singular value would keep it.
    g = space.gauge_fixed_basis
    seam = np.flatnonzero(np.diff(trace_d.indptr))  # vertices under the rows
    left = null_space(trace_d[:, seam].toarray().T, n_columns=trace.shape[0])
    rows_scale = np.sqrt(sparse.vstack([trace, flux]).power(2) @ (1.0 / g.gram)).max()
    constraint = np.vstack([flux @ g.columns, left.columns.T @ (trace @ g.columns)])
    equalizer = null_space(constraint, rank_tolerance=rank_tolerance,
                           n_columns=g.dim, scale=rows_scale)
    pulled_gf = from_span(g.coords(pulled), rank_tolerance=rank_tolerance,
                          scale=np.sqrt(g.gram @ pulled ** 2).max(initial=0.0))
    max_angle = float(principal_angles(pulled_gf, equalizer).max(initial=0.0))
    equalizer_dim = (equalizer.dim + cx.n_vertices - (trace.shape[0] - left.dim)
                     - cx.n_components())

    # The action composes on G' and on three random full glued solutions.
    mixed = np.hstack([glued_space.gauge_fixed_basis.columns,
                       glued_space.random_solutions(np.random.default_rng(0), 3)])
    s_glued, scale_glued = actions(glued, mixed)
    s_cut, scale_cut = actions(mesh, info.pull_back(1, mixed))
    worst_action = float((np.abs(s_glued - s_cut) / np.maximum(
        np.maximum(scale_glued, scale_cut), 1e-300)).max(initial=0.0))

    passed = (glued_space.dim == equalizer_dim and pulled_gf.dim == equalizer.dim
              and max_angle <= angle_tolerance and containment <= solution_tolerance
              and gauge_leak == 0.0 and worst_action <= action_tolerance)
    return {
        "mesh": mesh.name,
        "glued_mesh": glued.name,
        "dims": {
            "glued_solutions": glued_space.dim,
            "equalizer": equalizer_dim,
            "glued_gauge_fixed": glued_space.gauge_fixed_dim,
            "pulled_gauge_fixed": pulled_gf.dim,
            "equalizer_gauge_fixed": equalizer.dim,
        },
        "containment_residual": containment,
        "trace_gauge_leak": gauge_leak,
        "max_principal_angle": max_angle,
        "action_residual": worst_action,
        "matched_edges": int(trace.shape[0]),
        "passed": bool(passed),
    }
