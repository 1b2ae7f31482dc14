"""Reduced boundary data of bulk solutions, gauge fixing, and holonomy.

A solution's boundary datum is the pair (phi, phi_dot): the tangential
trace of the solution on the boundary edges together with the normal flux
of its curvature through the boundary dual cells, rescaled by the induced
boundary star weights.  For a field satisfying the bulk equation, phi_dot
is automatically coclosed on the boundary, an exact consequence of the
chain identity; only phi requires coclosed gauge fixing.
"""

from __future__ import annotations

import json

import numpy as np

from . import tolerances
from .dec import Cochain, adjoint_full, d
from .hodge import HodgeError, _exact_projection, harmonic_neumann_basis
from .mesh import HypersurfaceMesh, RegionMesh


class BoundaryError(ValueError):
    """Invalid boundary datum, cycle, or gauge operation."""


class BoundaryDatum:
    """Pair of degree-1 cochains (phi, phi_dot) on one hypersurface."""

    def __init__(self, phi: Cochain, phi_dot: Cochain):
        if phi.host is not phi_dot.host:
            raise BoundaryError("phi and phi_dot live on different hypersurfaces")
        if phi.degree != 1 or phi_dot.degree != 1:
            raise BoundaryError("boundary data are degree-1 cochains")
        self.phi = phi
        self.phi_dot = phi_dot

    @property
    def host(self) -> HypersurfaceMesh:
        return self.phi.host

    def vector(self) -> np.ndarray:
        return np.concatenate([self.phi.values, self.phi_dot.values])

    @classmethod
    def from_vector(cls, sigma: HypersurfaceMesh, vec) -> "BoundaryDatum":
        vec = np.asarray(vec, dtype=float)
        n = sigma.complex.n_simplices(1)
        if vec.shape != (2 * n,):
            raise BoundaryError("vector length does not match the hypersurface")
        return cls(Cochain(sigma, 1, vec[:n]), Cochain(sigma, 1, vec[n:]))

    def __add__(self, other):
        if other.host is not self.host:
            raise BoundaryError("data live on different hypersurfaces")
        return BoundaryDatum(self.phi + other.phi, self.phi_dot + other.phi_dot)

    def __sub__(self, other):
        if other.host is not self.host:
            raise BoundaryError("data live on different hypersurfaces")
        return BoundaryDatum(self.phi - other.phi, self.phi_dot - other.phi_dot)

    def __mul__(self, scalar):
        return BoundaryDatum(self.phi * scalar, self.phi_dot * scalar)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        edges = [list(map(int, e)) for e in self.host.complex.simplices[1]]
        return {
            "edges": edges,
            "phi": [float(v) for v in self.phi.values],
            "phi_dot": [float(v) for v in self.phi_dot.values],
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)


def _bulk_residuals(mesh: RegionMesh, columns):
    """The fluxes ``d^T S_2 d`` of the 1-cochain columns on every edge, and
    their relative bulk residuals: the interior rows, in S_1 norms."""
    s1 = mesh.star_diagonal(1)
    flux = adjoint_full(mesh, 2) @ (mesh.complex.boundary_matrices[2].T @ columns)
    res = flux * (mesh.interior_simplex_mask(1) / s1)[:, None]
    return flux, np.sqrt(np.einsum("ij,i,ij->j", res, s1, res)) / np.maximum(
        np.sqrt(np.einsum("ij,i,ij->j", columns, s1, columns)), 1e-300)


def solution_residual(eta: Cochain) -> float:
    """Relative residual of the bulk field equation on interior edges."""
    mesh = eta.host
    if not isinstance(mesh, RegionMesh):
        raise BoundaryError("solutions live on regions")
    return float(_bulk_residuals(mesh, eta.values[:, None])[1][0])


def trace_solution(eta: Cochain, sigma: HypersurfaceMesh | None = None,
                   tolerance=tolerances.SOLUTION_REL) -> BoundaryDatum:
    """Boundary datum of a bulk solution on a face or the full boundary.

    phi is the restriction to the boundary edges; phi_dot represents the
    flux of the curvature through the boundary dual cells, divided by the
    induced degree-1 star weights so that boundary pairings are ordinary
    hypersurface inner products.
    """
    mesh = eta.host
    if not isinstance(mesh, RegionMesh):
        raise BoundaryError("solutions live on regions")
    if eta.degree != 1:
        raise BoundaryError("solutions are 1-cochains")
    if sigma is None:
        sigma = mesh.boundary
        if sigma is None:
            raise BoundaryError("region has empty boundary")
    phi, phi_dot = trace_columns(mesh, eta.values[:, None], sigma, tolerance)
    return BoundaryDatum.from_vector(sigma, np.concatenate([phi, phi_dot])[:, 0])


def trace_columns(mesh: RegionMesh, columns, sigma: HypersurfaceMesh,
                  tolerance=tolerances.SOLUTION_REL):
    """(phi, phi_dot) matrices of a matrix of bulk solutions, each column
    gated by its own :func:`solution_residual`."""
    if sigma.root_region() is not mesh:
        raise BoundaryError("hypersurface does not belong to the region")
    flux, res = _bulk_residuals(mesh, columns)
    if res.max(initial=0.0) > tolerance:
        raise BoundaryError(
            f"field does not satisfy the bulk equation: residual {res.max():.3e}")
    idx = sigma.region_simplex_map(1)
    return columns[idx], flux[idx] / sigma.star_diagonal(1)[:, None]


def coclosed_projector(host, rank_tolerance=tolerances.RANK_REL):
    """The coclosed projection on a closed hypersurface (the boundary gauge
    fix) or a region (the bulk one), a map of columns ``x`` to ``x`` less its
    Neumann :func:`~decgauge.hodge._exact_projection`, and the record of its
    vertex Laplacian, grounded at a vertex per component and pivot-gated."""
    if isinstance(host, HypersurfaceMesh) and not host.is_closed():
        raise BoundaryError("coclosed gauge fixing needs a closed hypersurface")
    try:
        exact, record = _exact_projection(host, 1, False, rank_tolerance)
    except HodgeError as exc:
        raise BoundaryError(str(exc)) from exc
    return (lambda x: x - exact(x)), record


def gauge_fix_coclosed(datum: BoundaryDatum) -> BoundaryDatum:
    """The unique coclosed representative of a datum's gauge orbit: both
    components through :func:`coclosed_projector`, an idempotent projection."""
    fixed = coclosed_projector(datum.host)[0](
        np.column_stack([datum.phi.values, datum.phi_dot.values]))
    return BoundaryDatum.from_vector(datum.host, fixed.T.ravel())


# -- holonomy ---------------------------------------------------------------------


def _as_cycle(sigma: HypersurfaceMesh, cycle):
    out = []
    n_edges = sigma.complex.n_simplices(1)
    for item in cycle:
        idx, sign = int(item[0]), int(item[1])
        if not 0 <= idx < n_edges:
            raise BoundaryError(f"cycle references unknown edge {idx}")
        if sign not in (-1, 1):
            raise BoundaryError("cycle signs must be +1 or -1")
        out.append((idx, sign))
    return out


def cycle_is_closed(sigma: HypersurfaceMesh, cycle) -> bool:
    chain = np.zeros(sigma.complex.n_simplices(1), dtype=np.int64)
    for idx, sign in _as_cycle(sigma, cycle):
        chain[idx] += sign
    bnd = sigma.complex.boundary_matrices[1] @ chain
    return not np.any(bnd)


def holonomy(phi: Cochain, cycle):
    """Signed sum of a 1-cochain along a cycle, and its value mod 2*pi.

    ``cycle`` is a list of (edge index, sign) pairs whose integer boundary
    must vanish.  Returns ``(integral, circle_value)`` with the circle value
    wrapped into [0, 2*pi).
    """
    sigma = phi.host
    if phi.degree != 1:
        raise BoundaryError("holonomy is defined for 1-cochains")
    pairs = _as_cycle(sigma, cycle)
    if not cycle_is_closed(sigma, pairs):
        raise BoundaryError("edge list is not a cycle (nonzero boundary)")
    total = float(sum(sign * phi.values[idx] for idx, sign in pairs))
    return total, total % (2 * np.pi)


def component_cycles(sigma: HypersurfaceMesh) -> list:
    """For a 1-dimensional closed hypersurface, one around-cycle per component."""
    cx = sigma.complex
    if cx.dim != 1:
        raise BoundaryError("component cycles need a 1-dimensional hypersurface")
    comp = cx.vertex_components()
    cycles = []
    for c in range(comp.max() + 1):
        cycle = [
            (i, int(cx.orientation[i]))
            for i in range(cx.n_simplices(1))
            if comp[cx.simplices[1][i][0]] == c
        ]
        cycles.append(cycle)
    return cycles


def homology_generators(sigma: HypersurfaceMesh,
                        rank_tolerance=tolerances.RANK_REL):
    """Independent 1-cycles spanning the first homology of the hypersurface.

    Candidates are the fundamental cycles of a breadth-first spanning
    forest; shortest total length wins, lexicographic edge lists break
    ties, and candidates enter greedily while the period matrix against
    the harmonic basis keeps gaining rank.
    """
    cx = sigma.complex
    basis = harmonic_neumann_basis(sigma, 1)
    b = basis.dim
    if b == 0:
        return [], basis

    edges = [tuple(map(int, e)) for e in cx.simplices[1]]
    adj = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    parent = {}
    parent_edge = {}
    in_tree = set()
    comp = cx.vertex_components()
    for c in range(comp.max() + 1):
        root = min(v for v in range(cx.n_vertices) if comp[v] == c)
        parent[root] = root
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v, i in sorted(adj.get(u, [])):
                if v not in parent:
                    parent[v] = u
                    parent_edge[v] = i
                    in_tree.add(i)
                    queue.append(v)

    def path_to_root(v):
        out = []
        while parent[v] != v:
            i = parent_edge[v]
            u = parent[v]
            a, bb = edges[i]
            out.append((i, 1 if (a, bb) == (v, u) else -1))
            v = u
        return out

    candidates = []
    for i, (u, v) in enumerate(edges):
        if i in in_tree:
            continue
        up = {e: s for e, s in path_to_root(u)}
        vp = {e: s for e, s in path_to_root(v)}
        cycle = {i: 1}
        # edge i goes u -> v with +1 on the sorted tuple (u < v); close it
        # with the tree path v -> root -> u.
        for e, s in vp.items():
            cycle[e] = cycle.get(e, 0) + s
        for e, s in up.items():
            cycle[e] = cycle.get(e, 0) - s
        pairs = [(e, s) for e, s in sorted(cycle.items()) if s != 0]
        length = float(sum(abs(s) * sigma.edge_lengths[e] for e, s in pairs))
        candidates.append((length, [e for e, _ in pairs], pairs))
    candidates.sort(key=lambda t: (t[0], t[1]))

    chosen = []
    periods = np.zeros((0, b))
    for _, _, pairs in candidates:
        if len(chosen) == b:
            break
        row = np.array(
            [holonomy(col, pairs)[0] for col in basis.cochains()]
        ).reshape(1, b)
        trial = np.vstack([periods, row])
        s = np.linalg.svd(trial, compute_uv=False)
        if int(np.sum(s > rank_tolerance * s.max())) == trial.shape[0]:
            chosen.append(pairs)
            periods = trial
    if len(chosen) != b:
        raise BoundaryError(
            f"found only {len(chosen)} independent generator cycles, need {b}"
        )
    return chosen, basis


class GaugeTransformation:
    """Boundary gauge element: identity part f plus an integer winding."""

    def __init__(self, f: Cochain | None = None, winding=None):
        self.f = f
        self.winding = None if winding is None else np.asarray(winding, dtype=int)
        self.component = "identity" if winding is None or not np.any(self.winding) \
            else "large"

    def apply(self, datum: BoundaryDatum) -> BoundaryDatum:
        out = datum
        if self.f is not None:
            out = BoundaryDatum(out.phi + d(self.f), out.phi_dot)
        if self.winding is not None and np.any(self.winding):
            out = large_gauge_orbit(out, self.winding)
        return out


def integer_period_basis(sigma: HypersurfaceMesh):
    """Harmonic 1-cochains whose period matrix over the generators is the
    identity, together with the generator cycles."""
    cache = getattr(sigma, "_period_cache", None)
    if cache is not None:
        return cache
    generators, basis = homology_generators(sigma)
    b = basis.dim
    if b == 0:
        sigma._period_cache = ([], [])
        return sigma._period_cache
    cols = basis.basis.columns
    periods = np.array(
        [[holonomy(Cochain(sigma, 1, cols[:, i]), g)[0] for i in range(b)]
         for g in generators]
    )
    coeff = np.linalg.solve(periods, np.eye(b))
    normalized = [Cochain(sigma, 1, cols @ coeff[:, i]) for i in range(b)]
    sigma._period_cache = (normalized, generators)
    return sigma._period_cache


def large_gauge_orbit(datum: BoundaryDatum, winding) -> BoundaryDatum:
    """Shift phi by 2*pi times an integer combination of unit-period
    harmonic representatives; phi_dot is untouched and all holonomies are
    preserved mod 2*pi."""
    sigma = datum.host
    reps, _ = integer_period_basis(sigma)
    winding = np.asarray(winding, dtype=int)
    if winding.shape != (len(reps),):
        raise BoundaryError(
            f"winding vector needs length {len(reps)}, got {winding.shape}"
        )
    phi = datum.phi
    for w, rep in zip(winding, reps):
        if w:
            phi = phi + (2 * np.pi * float(w)) * rep
    return BoundaryDatum(phi, datum.phi_dot)
