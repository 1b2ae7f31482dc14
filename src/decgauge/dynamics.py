"""Bulk field equation, action, restriction to boundary data, and gluing.

The field equation operator keeps the interior-edge rows of the full
curvature adjoint; its boundary rows are exactly the normal flux paired by
the boundary two-form.  That split makes the restricted solution pairing
symmetric, so isotropy of the image holds to roundoff, and the image of
the gauge-fixed solutions is verified to be Lagrangian inside the coclosed
pairs at rank tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse

from . import tolerances
from .boundary import (
    BoundaryDatum,
    BoundaryError,
    coclosed_potential,
    trace_columns,
    trace_solution,
)
from .dec import Cochain, DECError, d, inner_product, normal_trace, tangential_trace
from .mesh import GlueInfo, RegionMesh, glue
from .subspaces import Subspace, from_span, null_space, principal_angles, reduced_null_space
from .symplectic import SymplecticSpace, coclosed_pair_subspace, is_lagrangian


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
    """Solutions ``g + d f`` of the bulk equation, ``g`` gauge-fixed.

    ``gauge_fixed_basis`` is ``ker A`` computed reduced onto the boundary
    edges (see :func:`solution_space`); its ``singular_values`` are the
    spectrum of the reduced matrix ``A E``, not of ``A``.  Every gauge orbit
    meets it once, S_1-orthogonally, so ``dim`` adds the ``n_0 -
    components`` exact directions and no full basis is ever built.
    """

    def __init__(self, mesh: RegionMesh, gauge_fixed: Subspace,
                 rank_tolerance=tolerances.RANK_REL):
        self.mesh = mesh
        self.gauge_fixed_basis = gauge_fixed
        self.rank_tolerance = rank_tolerance

    @property
    def dim(self) -> int:
        cx = self.mesh.complex
        return self.gauge_fixed_dim + cx.n_simplices(0) - cx.n_components()

    @property
    def gauge_fixed_dim(self) -> int:
        return self.gauge_fixed_basis.dim

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
    """Gauge-fixed solutions ``ker A``, ``A = [K_I; D]`` (bulk equation on
    interior edges, coclosed gauge ``D = del_1 S_1`` at every vertex).

    With ``L = K + D^T S_0^-1 D`` every ``a`` in ``ker A`` solves
    ``L_J a = 0``, ``J`` the interior edges of components with a boundary,
    so :func:`~decgauge.subspaces.reduced_null_space` eliminates them.
    ``L_JJ`` is singular on harmonic fields vanishing on the kept edges (so
    boundaryless components are kept whole); then ``DynamicsError``.
    """
    if mesh.complex.dim < 2:
        raise DynamicsError("field equation needs a region of dimension >= 2")
    cx = mesh.complex
    k = _curvature_adjoint(mesh)
    gauge = (cx.boundary_matrices[1] @ sparse.diags(mesh.star_diagonal(1))).tocsr()
    a = sparse.vstack([k[mesh.interior_simplex_mask(1)], gauge]).tocsr()
    comp = cx.vertex_components()[cx.simplices[1][:, 0]]
    on_boundary = mesh.boundary_simplex_mask(1)
    kept = on_boundary | ~np.isin(comp, comp[on_boundary])
    lap = k + gauge.T @ sparse.diags(1.0 / mesh.star_diagonal(0)) @ gauge
    gauge_fixed = reduced_null_space(a, lap, kept, gram=mesh.star_diagonal(1),
                                     rank_tolerance=rank_tolerance,
                                     error=DynamicsError)
    return SolutionSpace(mesh, gauge_fixed, rank_tolerance)


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


def theta_scale(eta: Cochain, variation: Cochain) -> float:
    """Attainable magnitude of the theta pairing (absolute-value arithmetic)."""
    mesh = eta.host
    sigma = mesh.boundary
    if sigma is None:
        return 0.0
    cx = mesh.complex
    d1 = abs(cx.boundary_matrices[2].T)
    absflux = d1.T @ (mesh.star_diagonal(2) * (d1 @ np.abs(eta.values)))
    idx = sigma.simplex_maps[1]
    return 2.0 * float(np.dot(np.abs(variation.values[idx]), absflux[idx]))


def action_difference_residual(eta: Cochain, xi: Cochain):
    """Residual and scale of the action-difference identity on a solution pair."""
    delta = eta - xi
    residual = (action(eta) - action(xi)
                + 0.5 * theta(eta, delta) + 0.5 * theta(xi, delta))
    scale = max(
        action_scale(eta) + action_scale(xi)
        + 0.5 * theta_scale(eta, delta) + 0.5 * theta_scale(xi, delta),
        1e-300,
    )
    return residual, scale


def _boundary_traces(space: SolutionSpace, solution_tolerance):
    """Traces ``[phi; phi_dot]`` of the gauge-fixed basis, a column per
    solution (each residual-gated), boundary-gauge-fixed by one coclosed
    projection ``phi + d f``; and the potentials ``f`` of phi's gauge fix."""
    mesh, sigma = space.mesh, space.mesh.boundary
    x = np.hstack(trace_columns(mesh, space.gauge_fixed_basis.columns, sigma,
                                solution_tolerance))
    f = coclosed_potential(sigma, x)
    fixed = x + sigma.complex.boundary_matrices[1].T @ f
    return np.vstack(np.hsplit(fixed, 2)), f[:, :space.gauge_fixed_dim]


def restrict(space: SolutionSpace, rank_tolerance=tolerances.RANK_REL,
             solution_tolerance=tolerances.SOLUTION_REL) -> Subspace:
    """Image of the gauge-fixed solutions inside the coclosed pairs
    (:func:`_boundary_traces`), orthonormal in the doubled boundary stars."""
    sigma = space.mesh.boundary
    if sigma is None:
        return Subspace(np.zeros((0, 0)), gram=None,
                        rank_tolerance=rank_tolerance)
    return from_span(_boundary_traces(space, solution_tolerance)[0],
                     gram=np.tile(sigma.star_diagonal(1), 2),
                     rank_tolerance=rank_tolerance)


def verify_lagrangian(mesh: RegionMesh,
                      rank_tolerance=tolerances.RANK_REL,
                      isotropy_tolerance=tolerances.ISOTROPY_REL,
                      angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                      solution_tolerance=tolerances.SOLUTION_REL,
                      gap_factor=tolerances.RANK_GAP_FACTOR,
                      space: SolutionSpace | None = None) -> dict:
    """Isotropy, coisotropy, and dimension bookkeeping of the restricted
    solution space inside the gauge-fixed boundary pairs; ``rank_ambiguous``
    when a rank cut's gap is below ``gap_factor``.  ``space``, the mesh's
    :func:`solution_space` if a caller already built it, is not rebuilt."""
    sigma = mesh.boundary
    if sigma is None:
        return {
            "mesh": mesh.name,
            "dims": {"phi_space": 0, "image": 0},
            "isotropy_max": 0.0,
            "coisotropy_angles": [],
            "half_dimension": True,
            "rank_ambiguous": False,
            "lagrangian": True,
            "note": "empty boundary, trivially Lagrangian",
        }
    space = space or solution_space(mesh, rank_tolerance)
    image = restrict(space, rank_tolerance, solution_tolerance)
    phi = coclosed_pair_subspace(sigma, rank_tolerance)
    reduced, to_reduced, _ = SymplecticSpace.from_hypersurface(sigma).restrict(phi)
    x, y = image.columns, to_reduced(image.columns)
    embed_defect = float((np.linalg.norm(phi.columns @ y - x, axis=0) / np.maximum(
        np.linalg.norm(x, axis=0), 1e-300)).max(initial=0.0))
    image_red = from_span(y, rank_tolerance=rank_tolerance)

    lag, info = is_lagrangian(image_red, reduced, isotropy_tolerance,
                              angle_tolerance, rank_tolerance)
    comp = info["complement"]
    half = (phi.dim == 2 * image_red.dim)
    return {
        "mesh": mesh.name,
        "dims": {
            "solution_space": space.dim,
            "gauge_fixed": space.gauge_fixed_dim,
            "phi_space": phi.dim,
            "image": image_red.dim,
            "complement": comp.dim,
        },
        "isotropy_max": info["max_residual"],
        "isotropy_scale": info.get("scale", 1.0),
        "coisotropy_angles": [float(a) for a in info["coisotropy_angles"]],
        "max_principal_angle": info["max_principal_angle"],
        "embedding_defect": embed_defect,
        "half_dimension": bool(half),
        "rank_ambiguous": min(sub.gap for sub in (space.gauge_fixed_basis,
                              image, phi, image_red, comp)) < gap_factor,
        "lagrangian": bool(lag and half),
    }


class NotExtendableError(DynamicsError):
    """The datum lies outside the image of the restriction map."""


def extend(datum: BoundaryDatum, mesh: RegionMesh,
           membership_tolerance=tolerances.EXTEND_ROUNDTRIP_REL,
           rank_tolerance=tolerances.RANK_REL,
           solution_tolerance=tolerances.SOLUTION_REL) -> Cochain:
    """A bulk solution ``G c + d F`` whose boundary datum reproduces the input.

    ``c`` fits the datum on the traces of the gauge-fixed basis ``G``
    (:func:`_boundary_traces`) by weighted least squares; its relative
    residual is the membership test.  ``F``, the potential of the traces'
    gauge fix extended by zero inside, makes the tangential trace phi and
    leaves the flux alone.  The round trip is gated."""
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
    space = solution_space(mesh, rank_tolerance)
    traced, potential = _boundary_traces(space, solution_tolerance)
    c = np.linalg.lstsq(w[:, None] * traced, w * vec, rcond=None)[0]
    residual = float(np.linalg.norm(w * (traced @ c - vec))) / scale
    if residual > membership_tolerance:
        raise NotExtendableError(
            f"datum is not extendable: projection residual {residual:.3e} "
            f"exceeds {membership_tolerance:.1e}"
        )
    cx = mesh.complex
    f = np.zeros(cx.n_simplices(0))
    f[sigma.region_simplex_map(0)] = potential @ c
    eta = Cochain(mesh, 1, space.gauge_fixed_basis.columns @ c
                  + cx.boundary_matrices[1].T @ f)

    back = trace_solution(eta, sigma, solution_tolerance)
    err = np.linalg.norm(back.vector() - vec) / max(np.linalg.norm(vec), 1e-300)
    if err > membership_tolerance:
        raise NotExtendableError(
            f"extension round trip failed: relative error {err:.3e}"
        )
    return eta


def _matched_rows(mesh: RegionMesh, label_a: str, matching: dict, curvature):
    """Sparse rows per edge ``a`` of face ``label_a`` and its matched edge
    ``b`` (resorting sign ``s``): ``R_trace = a - s b`` (traces agree) and
    ``R_flux = K_a + s K_b`` (fluxes cancel, ``K`` the curvature adjoint)."""
    cx = mesh.complex
    pairs = {}
    for f in mesh.face_labels[label_a]:
        for e in itertools.combinations(map(int, cx.simplices[cx.dim - 1][f]), 2):
            mapped = [matching[v] for v in e]
            pairs[cx.index[1][e]] = (cx.index[1][tuple(sorted(mapped))],
                                     1.0 if mapped[0] < mapped[1] else -1.0)
    ia = sorted(pairs)
    ib, sb = zip(*(pairs[i] for i in ia))
    rows, shape = np.arange(len(ia)), (len(ia), cx.n_simplices(1))
    pa = sparse.csr_matrix((np.ones(len(ia)), (rows, ia)), shape=shape)
    pb = sparse.csr_matrix((sb, (rows, ib)), shape=shape)
    return (pa - pb).tocsr(), ((pa + pb) @ curvature).tocsr()


def gluing_check(mesh: RegionMesh, label_a: str, label_b: str, matching: dict,
                 rank_tolerance=tolerances.RANK_REL,
                 angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                 action_tolerance=tolerances.GLUING_ACTION_REL,
                 length_tolerance=tolerances.GLUE_LENGTH_REL,
                 solution_tolerance=tolerances.SOLUTION_REL) -> dict:
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
    compose across ``P``.
    """
    glued = glue(mesh, label_a, label_b, matching, length_tolerance)
    info: GlueInfo = glued.glue_info
    cx = mesh.complex
    curvature = _curvature_adjoint(mesh)
    trace, flux = _matched_rows(mesh, label_a, matching, curvature)
    space, glued_space = (solution_space(m, rank_tolerance) for m in (mesh, glued))
    pulled = info.pull_back(1, glued_space.gauge_fixed_basis.columns)

    rows = sparse.vstack([curvature[mesh.interior_simplex_mask(1)], trace, flux])
    containment = float((np.linalg.norm(rows @ pulled, axis=0) / np.maximum(
        np.linalg.norm(abs(rows) @ np.abs(pulled), axis=0), 1e-300)).max(initial=0.0))
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
