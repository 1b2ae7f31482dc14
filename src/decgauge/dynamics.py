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


def curvature_adjoint_full(mesh: RegionMesh) -> np.ndarray:
    """All rows of d^T S_2 d acting on 1-cochains."""
    cx = mesh.complex
    d1 = cx.boundary_matrices[2].T
    return (d1.T @ sparse.diags(mesh.star_diagonal(2)) @ d1).toarray()


def field_equation_matrix(mesh: RegionMesh) -> np.ndarray:
    """Interior-edge rows of the curvature adjoint: the bulk field equation."""
    if mesh.complex.dim < 2:
        raise DynamicsError("field equation needs a region of dimension >= 2")
    full = curvature_adjoint_full(mesh)
    return full[mesh.interior_simplex_mask(1)]


class SolutionSpace:
    """Solutions of the bulk equation and their coclosed Neumann representatives.

    ``gauge_fixed_basis`` is ``ker A`` computed reduced onto the boundary
    edges (see :func:`solution_space`); its ``singular_values`` are the
    spectrum of the reduced matrix ``A E``, not of ``A``.

    The full solution basis is computed on first access; every gauge orbit
    meets the gauge-fixed space exactly once, so its dimension is the
    gauge-fixed dimension plus the exact gauge directions, and that identity
    is asserted whenever the full basis is materialized.
    """

    def __init__(self, mesh: RegionMesh, gauge_fixed: Subspace,
                 rank_tolerance=tolerances.RANK_REL):
        self.mesh = mesh
        self.gauge_fixed_basis = gauge_fixed
        self.rank_tolerance = rank_tolerance
        self._basis = None

    @property
    def exact_gauge_dim(self) -> int:
        cx = self.mesh.complex
        return cx.n_simplices(0) - cx.n_components()

    @property
    def basis(self) -> Subspace:
        if self._basis is None:
            el = field_equation_matrix(self.mesh)
            self._basis = null_space(
                el, gram=self.mesh.star_diagonal(1),
                rank_tolerance=self.rank_tolerance,
                n_columns=self.mesh.complex.n_simplices(1),
            )
            if self._basis.dim != self.dim:
                raise DynamicsError(
                    f"solution dimension {self._basis.dim} != gauge-fixed "
                    f"dimension {self.gauge_fixed_basis.dim} plus "
                    f"{self.exact_gauge_dim} exact gauge directions"
                )
        return self._basis

    @property
    def dim(self) -> int:
        return self.gauge_fixed_basis.dim + self.exact_gauge_dim

    @property
    def gauge_fixed_dim(self) -> int:
        return self.gauge_fixed_basis.dim

    def solutions(self):
        return [
            Cochain(self.mesh, 1, self.basis.columns[:, j])
            for j in range(self.basis.dim)
        ]

    def gauge_fixed_solutions(self):
        return [
            Cochain(self.mesh, 1, self.gauge_fixed_basis.columns[:, j])
            for j in range(self.gauge_fixed_basis.dim)
        ]

    def report(self) -> dict:
        return {
            "dim": self.dim,
            "gauge_fixed_dim": self.gauge_fixed_dim,
            "exact_gauge_dim": self.exact_gauge_dim,
        }


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
    d1 = cx.boundary_matrices[2].T
    k = (d1.T @ sparse.diags(mesh.star_diagonal(2)) @ d1).tocsr()
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


def action(eta: Cochain) -> float:
    """<d eta, d eta> with the degree-2 inner product; zero iff flat."""
    if eta.degree != 1:
        raise DECError("the action takes 1-cochains")
    deta = d(eta)
    return inner_product(deta, deta)


def action_scale(eta: Cochain) -> float:
    """Attainable magnitude of the action sum (absolute-value arithmetic).

    Flat fields have action at roundoff of this scale, not of the action
    value itself, so residuals of action identities are judged against it.
    """
    cx = eta.host.complex
    absd = abs(cx.boundary_matrices[2].T) @ np.abs(eta.values)
    return float(np.dot(absd, eta.host.star_diagonal(2) * absd))


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
                      gap_factor=tolerances.RANK_GAP_FACTOR) -> dict:
    """Isotropy, coisotropy, and dimension bookkeeping of the restricted
    solution space inside the gauge-fixed boundary pairs; ``rank_ambiguous``
    when a rank cut's gap is below ``gap_factor``."""
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
    space = solution_space(mesh, rank_tolerance)
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


def gluing_check(mesh: RegionMesh, label_a: str, label_b: str, matching: dict,
                 rank_tolerance=tolerances.RANK_REL,
                 angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                 action_tolerance=tolerances.GLUING_ACTION_REL,
                 length_tolerance=tolerances.GLUE_LENGTH_REL) -> dict:
    """Equalizer of the two face restrictions versus the glued solutions.

    Solutions on the glued region pull back to solutions on the cut region
    whose matched traces agree and whose matched fluxes cancel; the check
    computes both subspaces independently and compares them, then verifies
    the action composes across the pullback.
    """
    glued = glue(mesh, label_a, label_b, matching, length_tolerance)
    info: GlueInfo = glued.glue_info

    glued_space = solution_space(glued, rank_tolerance)
    pullback_cols = np.column_stack([
        info.pull_back(1, glued_space.basis.columns[:, j])
        for j in range(glued_space.dim)
    ]) if glued_space.dim else np.zeros((mesh.complex.n_simplices(1), 0))
    pulled = from_span(pullback_cols, gram=mesh.star_diagonal(1),
                       rank_tolerance=rank_tolerance)

    cx = mesh.complex
    n = cx.dim
    n1 = cx.n_simplices(1)
    el = field_equation_matrix(mesh)
    full = curvature_adjoint_full(mesh)

    # Matched edge pairs across the two faces, with resorting signs.
    pair_of = {}
    for f in sorted(mesh.face_labels[label_a]):
        tup = tuple(cx.simplices[n - 1][f])
        for e in itertools.combinations(tup, 2):
            ia = cx.index[1][e]
            ib = cx.index[1][tuple(sorted(matching[v] for v in e))]
            sa = 1
            mapped = [matching[v] for v in e]
            sb = 1 if mapped[0] < mapped[1] else -1
            pair_of[ia] = (ib, sa, sb)
    trace_rows = []
    flux_rows = []
    for ia, (ib, sa, sb) in sorted(pair_of.items()):
        row = np.zeros(n1)
        row[ia] = sa
        row[ib] -= sb
        trace_rows.append(row)
        flux_rows.append(sa * full[ia] + sb * full[ib])
    stacked = np.vstack([el] + trace_rows + flux_rows)
    equalizer = null_space(stacked, gram=mesh.star_diagonal(1),
                           rank_tolerance=rank_tolerance, n_columns=n1)

    angles = principal_angles(pulled, equalizer)
    max_angle = float(angles.max(initial=0.0))
    dims_equal = pulled.dim == equalizer.dim

    worst_action = 0.0
    for j in range(glued_space.dim):
        vals = glued_space.basis.columns[:, j]
        eta_glued = Cochain(glued, 1, vals)
        eta_cut = Cochain(mesh, 1, info.pull_back(1, vals))
        scale = max(action_scale(eta_glued), action_scale(eta_cut), 1e-300)
        worst_action = max(
            worst_action, abs(action(eta_glued) - action(eta_cut)) / scale
        )

    passed = (dims_equal and max_angle <= angle_tolerance
              and worst_action <= action_tolerance)
    return {
        "mesh": mesh.name,
        "glued_mesh": glued.name,
        "dims": {
            "glued_solutions": glued_space.dim,
            "equalizer": equalizer.dim,
        },
        "max_principal_angle": max_angle,
        "action_residual": worst_action,
        "matched_edges": len(pair_of),
        "passed": bool(passed),
    }
