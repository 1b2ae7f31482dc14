"""Dense and superseded reference forms of the bulk system, kept as test
oracles.

The library never densifies the n1-wide field equation: it works on the
gauge-fixed space and adds the exact fields ``d f`` where it needs full
solutions.  These helpers build the dense operators and the SVD basis of
the full solution space, so tests can check the reduced paths against them.
The library builds its solutions from the Dirichlet extension of the
coclosed boundary traces; :func:`reduced_gauge_fixed` and
:func:`traced_restrict` are the route through the null space of the stacked
bulk system and the traces of its basis that it replaced, and
:func:`svd_lagrangian` the Lagrangian check through them, the restriction
and the 2n-wide two-form.  :func:`r_wide_lagrangian` reads the Lagrangian
check off the r x r matrix ``M = Q^T S Lam Q`` of every coclosed trace, the
route the probe readings replaced, and :func:`qr_lagrangian_readings` takes
its isotropy and coisotropy readings from QR bases of graph(M) and
graph(M^T), the route the r x r Cholesky readings replaced.
:func:`svd_coclosed_subspace` is the coclosed boundary basis from the dense
SVD of the boundary incidence, the route the spanning-forest basis replaced.
:func:`laplacian0` assembles the vertex Laplacian outside the Hodge systems,
and :func:`row_form_laplacian` any Hodge block in the row form ``A^T diag(w)
A`` that the kept per-simplex assembly replaced.  :func:`dense_harmonic` is
the harmonic basis from the dense SVD of the stacked Hodge rows, the
reference that the zero-pivot kernels of the Hodge blocks are checked against.
:func:`hypersurface_form`, :func:`form_kernel`, :func:`restrict_form` and
:func:`contains` complete the dense two-form API of ``decgauge.symplectic``,
and :func:`coclosed_defect` measures boundary data against the codifferential.
:func:`r_wide_gluing` is the gluing check on the r-wide gauge-fixed bases of
the cut and glued regions, with a numeric equalizer, the route the probe
identities replaced; :func:`dense_equalizer` is the n1-wide equalizer of the
cut region's full solutions, from the per-edge seam of :func:`seam_by_edge`.
"""

import itertools

import numpy as np
from scipy import sparse

from decgauge import dynamics, tolerances
from decgauge.boundary import coclosed_projector, trace_columns
from decgauge.dec import Cochain, adjoint_full, codifferential, norm
from decgauge.subspaces import (Subspace, from_span, null_space, orthonormalize,
                                 principal_angles)
from decgauge.subspaces import _contains
from decgauge.symplectic import SymplecticSpace, _omega_scale, is_lagrangian


def coclosed_defect(datum) -> float:
    """The larger codifferential of a datum's phi and phi_dot, relative to
    the larger of their norms."""
    scale = max(norm(datum.phi), norm(datum.phi_dot), 1e-300)
    return max(norm(codifferential(datum.phi)), norm(codifferential(datum.phi_dot))) / scale


def contains(outer, inner, angle_tolerance=tolerances.PRINCIPAL_ANGLE):
    """Whether every direction of ``inner`` lies in ``outer``:
    ``(contained, max_angle)`` from their principal angles."""
    return _contains(outer, inner, principal_angles(outer, inner), angle_tolerance)


def hypersurface_form(sigma) -> SymplecticSpace:
    """The 2n x 2n two-form ``sign/2 [[0, S], [-S, 0]]`` of a hypersurface on
    the concatenated (phi, phi_dot) coordinates, with the doubled stars."""
    n, s = sigma.complex.n_simplices(1), sigma.star_diagonal(1)
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = 0.5 * sigma.orientation_sign * np.diag(s)
    return SymplecticSpace(m - m.T, np.concatenate([s, s]))


def form_kernel(w, rank_tolerance=tolerances.RANK_REL) -> Subspace:
    """Degeneracy directions of the two-form of ``w``, reported explicitly."""
    return null_space(w.omega_matrix, gram=w.gram, rank_tolerance=rank_tolerance,
                      n_columns=w.ambient_dim)


def restrict_form(w, phi_subspace):
    """The two-form of ``w`` reduced on a subspace, and the map of a vector
    or columns to the subspace's coordinates (exact inside it)."""
    q = phi_subspace.columns
    omega_red = q.T @ w.omega_matrix @ q
    reduced = SymplecticSpace(0.5 * (omega_red - omega_red.T), np.ones(q.shape[1]))
    return reduced, lambda x: q.T @ (w.gram * np.asarray(x, dtype=float).T).T


def laplacian0(host):
    """Sparse weighted 0-form Laplacian d^T S_1 d (closed-complex adjoint)."""
    d0 = host.complex.boundary_matrices[1].T
    return d0.T @ sparse.diags(host.star_diagonal(1)) @ d0


def row_form_laplacian(mesh, k, dirichlet):
    """The Hodge Laplacian of degree k in row form, ``A^T diag(w) A`` with
    ``A = [d_k; d_k-1^T S_k]`` and ``w = (S_k+1, S_k-1^-1)`` (Dirichlet: the
    interior (k-1) rows), on the rows of its unknowns (Dirichlet: the
    interior k-simplices) and every column, as CSR."""
    cx = mesh.complex
    rows = mesh.interior_simplex_mask(k - 1) if dirichlet and k else slice(None)
    blocks, weights = [], []
    if k < cx.dim:
        blocks.append(cx.boundary_matrices[k + 1].T)
        weights.append(mesh.star_diagonal(k + 1))
    if k >= 1:
        adjoint = cx.boundary_matrices[k] @ sparse.diags(mesh.star_diagonal(k))
        blocks.append(adjoint.tocsr()[rows])
        weights.append(1.0 / mesh.star_diagonal(k - 1)[rows])
    a = sparse.vstack(blocks).tocsc()
    full = (a.T @ sparse.diags(np.concatenate(weights)) @ a).tocsr()
    return full[mesh.interior_simplex_mask(k)] if dirichlet else full


def dense_harmonic(m, k, dirichlet):
    """Null space of the dense stack [d_k; del_k S_k], on the interior
    k-simplices (interior adjoint rows) for the Dirichlet condition."""
    cx = m.complex
    n = cx.n_simplices(k)
    inject = np.eye(n)[:, m.interior_simplex_mask(k)] if dirichlet else np.eye(n)
    blocks = []
    if k < cx.dim:
        blocks.append(cx.boundary_matrices[k + 1].T.toarray() @ inject)
    if k >= 1:
        rows = adjoint_full(m, k).toarray()
        if dirichlet:
            rows = rows[m.interior_simplex_mask(k - 1)]
        blocks.append(rows @ inject)
    small = null_space(np.vstack(blocks), n_columns=inject.shape[1])
    return from_span(inject @ small.columns, gram=m.star_diagonal(k))


def curvature_adjoint_full(mesh) -> np.ndarray:
    """All rows of d^T S_2 d acting on 1-cochains, dense."""
    d1 = mesh.complex.boundary_matrices[2].T.toarray()
    return d1.T @ (mesh.star_diagonal(2)[:, None] * d1)


def field_equation_matrix(mesh) -> np.ndarray:
    """Interior-edge rows of the curvature adjoint: the bulk field equation."""
    return curvature_adjoint_full(mesh)[mesh.interior_simplex_mask(1)]


def svd_coclosed_subspace(sigma, rank_tolerance=tolerances.RANK_REL) -> Subspace:
    """S-orthonormal basis of ``ker del_1 S_1`` on the hypersurface, the dense
    null space of the whole boundary incidence; its rank cut must find the
    exact dimension, edges minus exact gauge directions."""
    cx, s = sigma.complex, sigma.star_diagonal(1)
    single = null_space(cx.boundary_matrices[1].toarray() * s, gram=s,
                        rank_tolerance=rank_tolerance, n_columns=cx.n_simplices(1))
    assert single.dim == cx.n_simplices(1) - cx.n_simplices(0) + cx.n_components()
    return single


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


def reduced_gauge_fixed(mesh, rank_tolerance=tolerances.RANK_REL) -> Subspace:
    """Gauge-fixed solutions ``ker A``, ``A = [K_I; D]`` (bulk equation on
    interior edges, coclosed gauge ``D = del_1 S_1`` at every vertex), the
    dense null space of the stacked system."""
    cx = mesh.complex
    d1 = cx.boundary_matrices[2].T
    k = (d1.T @ sparse.diags(mesh.star_diagonal(2)) @ d1).tocsr()
    gauge = (cx.boundary_matrices[1] @ sparse.diags(mesh.star_diagonal(1))).tocsr()
    a = sparse.vstack([k[mesh.interior_simplex_mask(1)], gauge]).tocsr()
    return null_space(a.toarray(), gram=mesh.star_diagonal(1),
                      rank_tolerance=rank_tolerance, n_columns=a.shape[1])


def traced_restrict(mesh, gauge_fixed: Subspace,
                    rank_tolerance=tolerances.RANK_REL,
                    solution_tolerance=tolerances.SOLUTION_REL) -> Subspace:
    """Traces ``[phi; phi_dot]`` of a gauge-fixed basis, a column per
    solution (each residual-gated), boundary-gauge-fixed by one coclosed
    projection, orthonormal in the doubled boundary stars."""
    sigma = mesh.boundary
    x = np.hstack(trace_columns(mesh, gauge_fixed.columns, sigma, solution_tolerance))
    fixed = coclosed_projector(sigma)[0](x)
    return from_span(np.vstack(np.hsplit(fixed, 2)),
                     gram=np.tile(sigma.star_diagonal(1), 2),
                     rank_tolerance=rank_tolerance)


def svd_lagrangian(mesh, rank_tolerance=tolerances.RANK_REL,
                   isotropy_tolerance=tolerances.ISOTROPY_REL,
                   angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                   solution_tolerance=tolerances.SOLUTION_REL) -> dict:
    """The Lagrangian check by SVDs: the gauge-fixed solution space, its
    restricted image in the coclosed pairs, both reduced by the 2n x 2n
    two-form, and the symplectic complement by a null space."""
    sigma, cx = mesh.boundary, mesh.complex
    gauge_fixed = reduced_gauge_fixed(mesh, rank_tolerance)
    image = traced_restrict(mesh, gauge_fixed, rank_tolerance, solution_tolerance)
    single = svd_coclosed_subspace(sigma, rank_tolerance)
    phi = Subspace(np.kron(np.eye(2), single.columns), gram=np.tile(single.gram, 2),
                   rank_tolerance=rank_tolerance)
    reduced, to_reduced = restrict_form(hypersurface_form(sigma), phi)
    x, y = image.columns, to_reduced(image.columns)
    embed_defect = float((np.linalg.norm(phi.columns @ y - x, axis=0) / np.maximum(
        np.linalg.norm(x, axis=0), 1e-300)).max(initial=0.0))
    image_red = from_span(y, rank_tolerance=rank_tolerance)
    lag, info = is_lagrangian(image_red, reduced, isotropy_tolerance,
                              angle_tolerance, rank_tolerance)
    half = phi.dim == 2 * image_red.dim
    return {
        "dims": {
            "solution_space": gauge_fixed.dim + cx.n_simplices(0) - cx.n_components(),
            "gauge_fixed": gauge_fixed.dim,
            "phi_space": phi.dim,
            "image": image_red.dim,
            "complement": info["complement"].dim,
        },
        "isotropy_max": info["max_residual"],
        "isotropy_scale": _omega_scale(reduced),
        "max_principal_angle": info["max_principal_angle"],
        "embedding_defect": embed_defect,
        "half_dimension": bool(half),
        "lagrangian": bool(lag and half),
    }


def qr_lagrangian_readings(space, solution_tolerance=tolerances.SOLUTION_REL):
    """``(isotropy_max, coisotropy_angles)`` of graph(M), ``M = Q^T S Lam Q``:
    the two-form on a QR basis of graph(M), and the principal angles
    between it and a QR basis of graph(M^T).  The fluxes come from
    ``dynamics.trace_columns``, so a fault patched in there shows here too."""
    q = space.coclosed
    flux = dynamics.trace_columns(space.mesh, space.extension, space.mesh.boundary,
                                  solution_tolerance)[1]
    m = q.coords(flux)
    image, comp = (Subspace(np.linalg.qr(np.vstack([np.eye(q.dim), g]))[0])
                   for g in (m, m.T))
    top, bottom = np.vsplit(image.columns, 2)
    iso = float(np.abs(0.5 * (top.T @ bottom - bottom.T @ top)).max(initial=0.0))
    return iso, principal_angles(image, comp)


def r_wide_lagrangian(space, isotropy_tolerance=tolerances.ISOTROPY_REL,
                      angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                      solution_tolerance=tolerances.SOLUTION_REL,
                      coclosed_tolerance=tolerances.COCLOSED_INPUT_REL) -> dict:
    """The readings of ``dynamics.verify_lagrangian`` on all r coclosed
    traces: ``M = Q^T S Lam Q`` from the extension ``A`` of ``Q``, Green's
    identity ``M = (dA)^T S_2 dA``, and ``K = L^-1 (M - M^T) L^-T`` for
    ``L L^T = I + M^T M``, ``L^-T`` the top block of the orthonormal graph
    basis ``[I; M] L^-T``.  The fluxes come from ``dynamics.trace_columns``,
    so a fault patched in there shows here too."""
    mesh, sigma, q = space.mesh, space.mesh.boundary, space.coclosed
    r = 0 if q is None else q.dim
    iso = green = embed_defect = 0.0
    sines = np.zeros(0)
    if r:
        s, x = sigma.star_diagonal(1), space.extension
        flux = dynamics.trace_columns(mesh, x, sigma, solution_tolerance)[1]
        m = q.coords(flux)
        off = flux - q.columns @ m
        embed_defect = float((np.sqrt(s @ off ** 2) / np.sqrt(1.0 + s @ flux ** 2)).max())
        da = mesh.complex.boundary_matrices[2].T @ x
        energy = da.T @ (mesh.star_diagonal(2)[:, None] * da)
        resolution = np.finfo(float).eps / 2 * (
            (np.abs(q.columns) * np.abs(s[:, None] * flux)).sum(axis=0)
            + np.diag(energy)).max()
        green = float((np.abs(m - energy).max() + resolution)
                      / max(np.diag(energy).max(), 1e-300))
        inv = orthonormalize(np.vstack([np.eye(r), m]), np.ones(2 * r))[0][:r]
        k = inv.T @ (m - m.T) @ inv
        iso = 0.5 * float(np.abs(k).max())
        sines = np.linalg.svd(k, compute_uv=False)[::-1]
    angles = np.arcsin(np.clip(sines, 0.0, 1.0))
    max_angle = float(angles.max(initial=0.0))
    return {
        "isotropy_max": iso,
        "green_residual": green,
        "coisotropy_angles": angles,
        "max_principal_angle": max_angle,
        "embedding_defect": embed_defect,
        "lagrangian": bool(iso <= isotropy_tolerance * 0.5
                           and green <= isotropy_tolerance
                           and max_angle <= angle_tolerance
                           and embed_defect <= coclosed_tolerance),
    }


def r_wide_gluing(glued, rank_tolerance=tolerances.RANK_REL,
                  angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                  action_tolerance=tolerances.GLUING_ACTION_REL,
                  solution_tolerance=tolerances.SOLUTION_REL) -> dict:
    """Glued solutions versus the equalizer of the two face restrictions,
    modulo gauge, on the r-wide gauge-fixed bases.

    Every solution is ``g + d f``, so with ``P`` the pullback and ``G``,
    ``G'`` the cut and glued gauge-fixed bases: containment is ``[K_I;
    R_trace; R_flux] P G' = 0`` to ``solution_tolerance`` and ``R_trace d
    P_0 = 0`` exactly; the equalizer is ``G ker [R_flux G; N^T R_trace G]``,
    ``N = ker (R_trace d)^T``, plus ``n_0 - rank(R_trace d) - components``
    exact fields, its dimension a numerical rank.  ``P G'`` projected onto
    ``G`` must span the gauge-fixed equalizer, and the action compose
    across ``P`` on ``G'`` and three random full glued solutions.
    """
    info = glued.glue_info
    mesh = info.parent
    cx = mesh.complex
    curvature = dynamics._curvature_adjoint(mesh)[0]
    trace, flux = dynamics._matched_rows(info, curvature)
    space, glued_space = (dynamics.solution_space(m, rank_tolerance) for m in (mesh, glued))
    pullback = info.pullback[0]
    pulled = pullback @ glued_space.gauge_fixed_basis.columns

    rows = sparse.vstack([curvature[mesh.interior_simplex_mask(1)], trace, flux])
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

    mixed = np.hstack([glued_space.gauge_fixed_basis.columns,
                       glued_space.random_solutions(np.random.default_rng(0), 3)])
    s_glued, scale_glued = dynamics.actions(glued, mixed)
    s_cut, scale_cut = dynamics.actions(mesh, pullback @ mixed)
    worst_action = float((np.abs(s_glued - s_cut) / np.maximum(
        np.maximum(scale_glued, scale_cut), 1e-300)).max(initial=0.0))

    passed = (glued_space.dim == equalizer_dim and pulled_gf.dim == equalizer.dim
              and max_angle <= angle_tolerance and containment <= solution_tolerance
              and gauge_leak == 0.0 and worst_action <= action_tolerance)
    return {
        "dims": {
            "glued_solutions": glued_space.dim,
            "equalizer": equalizer_dim,
            "cut_solutions": space.dim,
            "pulled_gauge_fixed": pulled_gf.dim,
            "equalizer_gauge_fixed": equalizer.dim,
        },
        "containment_residual": containment,
        "trace_gauge_leak": gauge_leak,
        "max_principal_angle": max_angle,
        "action_residual": worst_action,
        "passed": bool(passed),
    }


def seam_by_edge(m, label_a, matching, glued):
    """Per edge ``a`` of face ``label_a``, one simplex at a time: its matched
    edge ``b``, the sign ``s`` that resorts b's mapped vertices, and whether
    ``glued`` has the edge inside."""
    cx = m.complex
    inside = glued.interior_simplex_mask(1)[glued.glue_info.simplex_maps[1]]
    seam = {}
    for f in sorted(m.face_labels[label_a]):
        for e in itertools.combinations(tuple(cx.simplices[cx.dim - 1][f]), 2):
            mapped = [matching[v] for v in e]
            ia, ib = cx.simplex_index(1, e), cx.simplex_index(1, mapped)
            seam[ia] = (ib, 1 if mapped[0] < mapped[1] else -1, bool(inside[ia]))
    return seam


def dense_equalizer(m, label_a, matching, glued):
    """Kernel of the dense stack [K_I; traces agree; fluxes cancel], with a
    flux row only where ``glued`` has the matched edge inside."""
    full, n1 = curvature_adjoint_full(m), m.complex.n_simplices(1)
    rows = [field_equation_matrix(m)]
    for ia, (ib, sb, inside) in seam_by_edge(m, label_a, matching, glued).items():
        trace = np.zeros(n1)
        trace[ia], trace[ib] = 1.0, -sb
        rows.append(trace[None])
        if inside:
            rows.append((full[ia] + sb * full[ib])[None])
    return null_space(np.vstack(rows), gram=m.star_diagonal(1), n_columns=n1)
