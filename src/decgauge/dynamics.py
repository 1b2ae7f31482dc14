"""Bulk field equation, action, restriction to boundary data, and gluing.

The field equation operator keeps the interior-edge rows of the full
curvature adjoint; its boundary rows are exactly the normal flux paired by
the boundary two-form.  That split makes the restricted solution pairing
symmetric, so isotropy of the image holds to roundoff.  The image is the
graph of the Dirichlet-to-Neumann map over the coclosed boundary traces,
and it is verified to be Lagrangian inside the coclosed pairs from a few
random probes of that map.  The same Dirichlet extension of boundary traces gives the
solution space, the restriction and the extension of boundary data.
"""

from __future__ import annotations

import functools

import numpy as np

from . import tolerances
from .boundary import (
    BoundaryDatum,
    BoundaryError,
    coclosed_projector,
    trace_columns,
    trace_solution,
)
from .csr import CSR
from .dec import Cochain, DECError, adjoint_full, d, inner_product, normal_trace, tangential_trace
from .hodge import dirichlet_extension, relative_betti_oracle
from .mesh import GlueInfo, RegionMesh
# null_space is not called here: bench/selftest.py checks that its tracer restores this copy.
from .subspaces import Subspace, from_span, null_space, orthonormalize  # noqa: F401
from .symplectic import coclosed_subspace


class DynamicsError(ValueError):
    """Solver failure, non-extendable datum, or gluing mismatch."""


def _curvature_adjoint(mesh: RegionMesh):
    """All rows of ``K = d^T S_2 d`` acting on 1-cochains and ``|K|``, sparse,
    built once per mesh, read-only (as :func:`~decgauge.dec.adjoint_full`)."""
    if "curvature" not in mesh._adjoints:
        k = adjoint_full(mesh, 2) @ mesh.complex.boundary_matrices[2].T
        mesh._adjoints["curvature"] = k, abs(k)
    return mesh._adjoints["curvature"]


def field_equation_matrix(mesh: RegionMesh) -> np.ndarray:
    """The bulk field equation (interior rows of the curvature adjoint), dense."""
    if mesh.complex.dim < 2:
        raise DynamicsError("field equation needs a region of dimension >= 2")
    return _curvature_adjoint(mesh)[0][mesh.interior_simplex_mask(1)].toarray()


#: Probes of :func:`verify_lagrangian` (min(r, PROBES) traces) and :func:`gluing_check`.
PROBES = 8


class SolutionSpace:
    """Solutions of the bulk equation from two factorizations: the boundary
    gauge fix ``gauge_fix`` (:func:`~decgauge.boundary.coclosed_projector`,
    record ``gauge_fix_solve``) and the Dirichlet extension ``extend``
    (record ``solve``), whose block's kernel is the Dirichlet harmonic basis
    ``H`` (``harmonic``, or None).  A solution with zero trace is closed, so
    every solution extends a coclosed trace, plus ``H h + d f``.
    ``coclosed_dim`` is r, the boundary edges off the spanning forest;
    ``gauge_fixed_dim`` the exact count ``r - c(bd M) + c_bounded(M) +
    b_1(M, bd M)`` (components of the boundary and of M with a boundary,
    relative Betti number); ``dim`` adds the ``n_0 - components`` exact
    directions.  What is r columns wide is built on first use: Q
    (``coclosed``), its extension A (``extension``), ``gauge_fixed_basis``.
    The space is kept on its mesh (:func:`solution_space`), so every array
    it keeps is read-only; its attributes are not, and reassigning one
    changes the space for every later caller on that mesh.
    """

    def __init__(self, mesh: RegionMesh, gauge_fix, gauge_fix_solve: dict, extend,
                 solve: dict, harmonic, rank_tolerance, coclosed_dim: int,
                 gauge_fixed_dim: int):
        self.mesh, self.rank_tolerance = mesh, rank_tolerance
        self.gauge_fix, self.gauge_fix_solve = gauge_fix, gauge_fix_solve
        self.coclosed_dim, self.gauge_fixed_dim = coclosed_dim, gauge_fixed_dim
        self.extend, self.solve, self.harmonic = extend, solve, harmonic

    @property
    def dim(self) -> int:
        cx = self.mesh.complex
        return self.gauge_fixed_dim + cx.n_simplices(0) - cx.n_components()

    def random_traces(self, rng, count: int) -> np.ndarray:
        """``count`` coclosed boundary traces ``Q g``, ``g`` standard normal,
        drawn as the gauge fix of ``z / sqrt(S)``, ``z`` standard normal."""
        s = self.mesh.boundary.star_diagonal(1)
        return self.gauge_fix(rng.standard_normal((s.size, count)) / np.sqrt(s)[:, None])

    def extend_traces(self, phi) -> np.ndarray:
        """The extensions of the boundary 1-cochain columns ``phi``."""
        x = np.zeros((self.mesh.complex.n_simplices(1), phi.shape[1]))
        x[self.mesh.boundary.region_simplex_map(1)] = phi
        return self.extend(x)

    @functools.cached_property
    def coclosed(self) -> Subspace | None:
        """Q (:func:`~decgauge.symplectic.coclosed_subspace`), or None."""
        if self.mesh.boundary is None:
            return None
        return _read_only(coclosed_subspace(self.mesh.boundary, self.rank_tolerance,
                                            self.gauge_fix)[0])

    @functools.cached_property
    def extension(self) -> np.ndarray:
        """A, the extension of Q."""
        if self.coclosed is None:
            x = np.zeros((self.mesh.complex.n_simplices(1), 0))
        else:
            x = self.extend_traces(self.coclosed.columns)
        x.flags.writeable = False
        return x

    @functools.cached_property
    def gauge_fixed_basis(self) -> Subspace:
        """The solutions S_1-orthogonal to every ``d f``: ``[A, H]`` less its
        exact part (:func:`~decgauge.boundary.coclosed_projector`, one
        grounded vertex-Laplacian solve), orthonormalized.  The exact
        Dirichlet fields drop out at the rank cut; a rank other than
        ``gauge_fixed_dim`` raises.  Built on first use."""
        x = self.extension
        if self.harmonic is not None:
            x = np.hstack([x, self.harmonic.columns])
        if x.size:
            x = coclosed_projector(self.mesh, self.rank_tolerance)[0](x)
        basis = from_span(x, gram=self.mesh.star_diagonal(1),
                          rank_tolerance=self.rank_tolerance)
        if basis.dim != self.gauge_fixed_dim:
            raise DynamicsError(
                f"gauge-fixed rank {basis.dim} != exact count "
                f"{self.gauge_fixed_dim}; singular values {basis.singular_values}")
        return _read_only(basis)

    def gauge_fixed_solutions(self):
        return [Cochain(self.mesh, 1, c) for c in self.gauge_fixed_basis.columns.T]

    def random_solutions(self, rng, count: int) -> np.ndarray:
        """``count`` random solutions as columns: the extensions of
        :meth:`random_traces`, plus ``H.project(x)`` and ``d f``, ``x`` and
        ``f`` standard normal; no basis is built, or read."""
        cx = self.mesh.complex
        out = cx.boundary_matrices[1].T @ rng.standard_normal((cx.n_simplices(0), count))
        if self.mesh.boundary is not None:
            out += self.extend_traces(self.random_traces(rng, count))
        if self.harmonic is not None:
            out += self.harmonic.project(rng.standard_normal((cx.n_simplices(1), count)))
        return out


def _read_only(space: Subspace) -> Subspace:
    """``space`` with its basis columns and gram made read-only."""
    space.columns.flags.writeable = False
    space.gram.flags.writeable = False
    return space


def _exact_counts(mesh: RegionMesh) -> tuple[int, int]:
    """r and the gauge-fixed count of :class:`SolutionSpace`, from integers only."""
    sigma, r, bounded = mesh.boundary, 0, 0
    if sigma is not None:
        r = int((~sigma.complex.forest_edges).sum())
        bounded = (np.unique(mesh.complex.vertex_components()[sigma.vertex_map]).size
                   - sigma.complex.n_components())
    return r, r + bounded + relative_betti_oracle(mesh, 1)


def solution_space(mesh: RegionMesh,
                   rank_tolerance=tolerances.RANK_REL) -> SolutionSpace:
    """The boundary gauge fix, the Dirichlet extension and the exact counts
    (see :class:`SolutionSpace`), and ``H``, the kernel that the extension's
    first solve, run here, finds, S_1-orthonormalized, with its pivot gap.
    A singular block raises at its pivot gate, and a kernel that the
    relative Betti number overcounts at that first solve.  Built once per
    mesh and rank tolerance and kept on the mesh, which is not changed
    after its construction: the factorizations and what the space builds
    on first use last as long as the mesh."""
    if rank_tolerance in mesh._solution_spaces:
        return mesh._solution_spaces[rank_tolerance]
    if mesh.complex.dim < 2:
        raise DynamicsError("field equation needs a region of dimension >= 2")
    gauge_fix, record = None, {"block_size": 0, "grounded": 0, "pivot_ratio": None,
                               "rank_tolerance": rank_tolerance}
    if mesh.boundary is not None:
        gauge_fix, record = coclosed_projector(mesh.boundary, rank_tolerance)
    extend, solve, kernel = dirichlet_extension(mesh, rank_tolerance)
    harmonic = _read_only(kernel()) if relative_betti_oracle(mesh, 1) else None
    space = SolutionSpace(mesh, gauge_fix, record, extend, solve, harmonic,
                          rank_tolerance, *_exact_counts(mesh))
    mesh._solution_spaces[rank_tolerance] = space
    return space


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
    cut.  The harmonic fields and ``d f`` add nothing: the first are
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
                      coclosed_tolerance=tolerances.COCLOSED_INPUT_REL,
                      seed=0) -> dict:
    """The restricted solutions inside the coclosed boundary pairs, as the
    graph of the Dirichlet-to-Neumann map ``Lam`` (phi to the flux of its
    extension) over the r coclosed traces, read on ``k = min(r, PROBES)``
    probes ``Phi = Q g``, ``g`` standard normal from ``seed``
    (:meth:`SolutionSpace.random_traces`); nothing r columns wide is built.

    In the coordinates of the coclosed pairs the image is graph(M), ``M =
    Q^T S Lam Q``: half-dimension holds by construction, and it is
    Lagrangian exactly when M is symmetric, an operator identity that random
    probes check (Freivalds).  The probes' fluxes ``F`` are taken with every
    bulk residual gated; ``m = Phi^T S F = g^T M g``.  With ``F_c = Q M g``
    the coclosed part of F (its gauge fix) and ``L L^T = Phi^T S Phi +
    F_c^T S F_c``, the form on the orthonormal basis ``[Phi; F_c] L^-T`` of
    graph(M) on the probes is ``sign/2 K``, ``K = L^-1 (m - m^T) L^-T``:

    - isotropy, ``max |K| / 2`` (scale 1/2);
    - Green's identity ``m = (dA Phi)^T S_2 (dA Phi)``, which makes M
      symmetric and is not vacuous when r = 1: the largest gap plus one unit
      roundoff of the sums' magnitudes, relative to the largest action,
      gated by ``isotropy_tolerance``;
    - coisotropy: the angles between graph(M) and graph(M^T) on the probes,
      the arcsines of the singular values of ``K``, below ``angle_tolerance``;
    - the fluxes' distance from the coclosed traces (a second gauge fix,
      each pair relative to its norm), at most ``coclosed_tolerance``.

    With r <= PROBES the probes span every coclosed trace, so the check is
    complete and the angles are those of graph(M) on all of them.  ``dims``
    are the exact counts; ``rank_ambiguous`` when the pivot gap of ``H`` (the
    extension's zero pivots) is below ``gap_factor``.  Without a boundary
    every reading is zero."""
    mesh, sigma, r = space.mesh, space.mesh.boundary, space.coclosed_dim
    k = min(r, PROBES)
    iso = green = embed_defect = 0.0
    sines = np.zeros(0)
    if k:
        s = sigma.star_diagonal(1)
        phi = space.random_traces(np.random.default_rng(seed), k)
        x = space.extend_traces(phi)
        flux = trace_columns(mesh, x, sigma, solution_tolerance)[1]
        s_flux = s[:, None] * flux
        m = phi.T @ s_flux
        coclosed_flux = space.gauge_fix(flux)
        off = flux - coclosed_flux
        embed_defect = float(np.sqrt(s @ off ** 2 / (s @ phi ** 2 + s @ flux ** 2)).max())
        da = mesh.complex.boundary_matrices[2].T @ x
        energy = da.T @ (mesh.star_diagonal(2)[:, None] * da)
        # A gap below one unit roundoff of what the two sums accumulate is not
        # resolved, so that much is added: a computed zero is not an exact one.
        resolution = np.finfo(float).eps / 2 * (
            (np.abs(phi) * np.abs(s_flux)).sum(axis=0) + np.diag(energy)).max()
        green = float((np.abs(m - energy).max() + resolution)
                      / max(np.diag(energy).max(), 1e-300))
        top, bottom = np.vsplit(orthonormalize(np.vstack([phi, coclosed_flux]),
                                               np.tile(s, 2))[0], 2)
        k_form = top.T @ (s[:, None] * bottom)
        k_form = k_form - k_form.T
        iso = 0.5 * float(np.abs(k_form).max())
        sines = np.linalg.svd(k_form, compute_uv=False)[::-1]
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
        "probes": {"count": k, "coclosed_dim": r, "seed": seed},
        "extension_solve": dict(space.solve),
        "gauge_fix_solve": dict(space.gauge_fix_solve),
        "half_dimension": True,
        "rank_ambiguous": space.harmonic is not None and space.harmonic.gap < gap_factor,
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

    The datum's phi, in whatever gauge, is extended by the Dirichlet
    extension kept on the mesh (:func:`solution_space`).  Every solution with that
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
    space = solution_space(mesh, rank_tolerance)
    eta = Cochain(mesh, 1, space.extend_traces(datum.phi.values[:, None])[:, 0])
    back = trace_solution(eta, sigma, solution_tolerance).vector()
    residual = float(np.linalg.norm(w * (back - vec))) / scale
    if residual > membership_tolerance:
        raise NotExtendableError(
            f"datum is not extendable: round-trip residual {residual:.3e} "
            f"exceeds {membership_tolerance:.1e}"
        )
    return eta


def _matched_rows(info: GlueInfo, curvature):
    """Sparse rows per matched edge pair ``(a, b, s)`` of the seam: ``R_trace
    = a - s b`` (traces agree) and, where the glued edge is interior, ``R_flux
    = K_a + s K_b`` (fluxes cancel).  Edges of the face's perimeter (3D) lie
    on other faces too and stay on the boundary: they get no flux row."""
    rows, ones = np.tile(np.arange(info.edge_a.size), 2), np.ones(info.edge_a.size)
    edges, shape = np.r_[info.edge_a, info.edge_b], (ones.size, info.parent.complex.n_simplices(1))
    return (CSR(np.r_[ones, -info.edge_sign], rows, edges, shape),
            CSR(np.r_[ones, info.edge_sign], rows, edges, shape)[info.interior] @ curvature)


def gluing_check(glued: RegionMesh, rank_tolerance=tolerances.RANK_REL,
                 action_tolerance=tolerances.GLUING_ACTION_REL,
                 solution_tolerance=tolerances.SOLUTION_REL, seed=0) -> dict:
    """Glued solutions versus the equalizer of the two face restrictions
    (matched traces agree, matched fluxes cancel) on the seam that
    ``glued.glue_info`` records, on ``PROBES`` columns drawn from ``seed``;
    nothing r columns wide is built, nor the cut region's space.

    With ``P`` the pullback and ``K``, ``K'`` the cut and glued curvature
    adjoints, the equalizer is ``P Sol(M')`` when ``K' = P^T K P``
    (``operator_residual``), ``ker R_trace = im P`` (``trace_row_leak``, a
    row per merged edge) and ``R_flux`` are the rows of ``P^T K`` at the
    interior seam edges of M' (``flux_row_residual``, None if ``seam_rows``
    miscount); then its dimension is the glued exact count.  Pulled-back
    glued solutions must solve the cut rows and compose the action.
    """
    info: GlueInfo = glued.glue_info
    if info is None:
        raise DynamicsError(f"{glued.name or 'the region'} is not a glued region")
    mesh, (p, pt) = info.parent, info.pullback
    cx, (n1, n1_glued) = mesh.complex, p.shape
    (curv, abs_curv), (curv_g, abs_curv_g) = (_curvature_adjoint(m) for m in (mesh, glued))
    trace, flux = _matched_rows(info, curv)
    glued_space = solution_space(glued, rank_tolerance)
    rng = np.random.default_rng(seed)

    def gap(a, b, scale):  # largest |a - b| per column over the column's scale
        return float((np.abs(a - b).max(axis=0, initial=0.0) / np.maximum(
            scale.max(axis=0, initial=0.0), 1e-300)).max(initial=0.0))

    y = rng.standard_normal((n1_glued, PROBES))
    py = p @ y
    operator = gap(curv_g @ y, pt @ (curv @ py),
                   abs_curv_g @ np.abs(y) + abs(pt) @ (abs_curv @ np.abs(py)))
    trace_leak = float(np.abs(trace @ py).max(initial=0.0))
    seam = np.flatnonzero(glued.interior_simplex_mask(1) & (
        np.bincount(info.simplex_maps[1], minlength=n1_glued) == 2))
    counts = trace.shape[0] == n1 - n1_glued and flux.shape[0] == seam.size
    x = rng.standard_normal((n1, PROBES))
    flux_rows = gap(flux @ x, (pt @ (curv @ x))[seam], abs(flux) @ np.abs(x)
                    + (abs(pt) @ (abs_curv @ np.abs(x)))[seam]) if counts else None

    # Relative to each column's largest entry: a solution may vanish under every row.
    solutions = glued_space.random_solutions(rng, PROBES)
    pulled = p @ solutions
    rows = (curv[mesh.interior_simplex_mask(1)], trace, flux)
    reach = np.linalg.norm(np.concatenate([abs(r) @ np.ones(n1) for r in rows]))
    residual = np.linalg.norm(np.vstack([r @ pulled for r in rows]), axis=0)
    containment = float((residual / np.maximum(
        reach * np.abs(pulled).max(axis=0, initial=0.0), 1e-300)).max(initial=0.0))
    n0 = cx.n_vertices
    p0 = CSR(np.ones(n0), np.arange(n0), info.simplex_maps[0], (n0, glued.complex.n_vertices))
    gauge_leak = float(np.abs((trace @ cx.boundary_matrices[1].T @ p0).data).max(initial=0.0))
    (s_glued, scale_glued), (s_cut, scale_cut) = actions(glued, solutions), actions(mesh, pulled)
    worst_action = gap(s_glued[None], s_cut[None], np.maximum(scale_glued, scale_cut)[None])

    seam_ok = (operator <= solution_tolerance and trace_leak == 0.0 and counts
               and flux_rows <= solution_tolerance)
    return {
        "mesh": mesh.name, "glued_mesh": glued.name,
        "dims": {"glued_solutions": glued_space.dim,
                 "equalizer": glued_space.dim if seam_ok else None,
                 "cut_solutions": _exact_counts(mesh)[1] + n0 - cx.n_components(),
                 "glued_gauge_fixed": glued_space.gauge_fixed_dim},
        "operator_residual": operator, "flux_row_residual": flux_rows,
        "trace_row_leak": trace_leak,
        "seam_rows": {"trace": int(trace.shape[0]), "flux": int(flux.shape[0]),
                      "merged_edges": n1 - n1_glued, "interior_seam_edges": int(seam.size)},
        "containment_residual": containment, "trace_gauge_leak": gauge_leak,
        "action_residual": worst_action, "probes": {"count": PROBES, "seed": seed},
        "extension_solve": dict(glued_space.solve),
        "passed": bool(seam_ok and containment <= solution_tolerance and gauge_leak == 0.0
                       and worst_action <= action_tolerance),
    }
