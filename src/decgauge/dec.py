"""Cochain calculus: exterior derivative, Hodge stars, codifferential, traces.

The codifferential is fixed by the discrete integration-by-parts identity

    <d f, a>_k  =  <f, codifferential(a)>_{k-1}  +  sum over boundary
                   (k-1)-simplices of f * normal flux of a,

which holds exactly (to roundoff) on every complex because the two sides
are assembled from the same incidence rows: ``codifferential`` keeps the
interior rows of the metric adjoint of ``d`` and the boundary rows are the
normal flux.  Every exactness claim downstream (isotropy of restricted
solutions, the 2D line condition, gluing bookkeeping) rests on this split.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy import sparse

from .mesh import HypersurfaceMesh, RegionMesh


class DECError(ValueError):
    """Invalid degree, host mismatch, or missing metric."""


class Cochain:
    """A degree-k real cochain on the simplices of a host mesh.

    Values are indexed by the host complex's sorted k-simplex list; flipping
    a simplex's orientation corresponds to negating its value, so integrals
    and traces carry the orientation signs, not the storage.
    """

    def __init__(self, host, degree: int, values):
        if degree < 0 or degree > host.complex.dim:
            raise DECError(
                f"degree {degree} out of range for a {host.complex.dim}-complex"
            )
        values = np.asarray(values, dtype=float)
        if values.shape != (host.complex.n_simplices(degree),):
            raise DECError(
                f"expected {host.complex.n_simplices(degree)} values for "
                f"degree {degree}, got {values.shape}"
            )
        self.host = host
        self.degree = int(degree)
        self.values = values

    @classmethod
    def zeros(cls, host, degree: int) -> "Cochain":
        return cls(host, degree, np.zeros(host.complex.n_simplices(degree)))

    def copy(self) -> "Cochain":
        return Cochain(self.host, self.degree, self.values.copy())

    def _check_mate(self, other):
        if not isinstance(other, Cochain):
            raise DECError("expected a cochain")
        if other.host is not self.host or other.degree != self.degree:
            raise DECError("cochains live on different hosts or degrees")

    def __add__(self, other):
        self._check_mate(other)
        return Cochain(self.host, self.degree, self.values + other.values)

    def __sub__(self, other):
        self._check_mate(other)
        return Cochain(self.host, self.degree, self.values - other.values)

    def __mul__(self, scalar):
        return Cochain(self.host, self.degree, float(scalar) * self.values)

    __rmul__ = __mul__

    def __neg__(self):
        return Cochain(self.host, self.degree, -self.values)

    def __repr__(self):
        return (f"Cochain(degree={self.degree}, "
                f"n={self.values.shape[0]}, host={type(self.host).__name__})")

    def to_csv(self, path):
        """Write (simplex id, vertex tuple, value) rows."""
        simplices = self.host.complex.simplices[self.degree]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["simplex", "vertices", "value"])
            for i, (tup, v) in enumerate(zip(map(tuple, simplices), self.values)):
                writer.writerow([i, " ".join(map(str, tup)), repr(float(v))])


def _same_host(a: Cochain, b: Cochain):
    if a.host is not b.host:
        raise DECError("cochains live on different hosts")


def d(alpha: Cochain) -> Cochain:
    """Exterior derivative (coboundary); d of d vanishes exactly."""
    host = alpha.host
    k = alpha.degree
    if k >= host.complex.dim:
        raise DECError(f"no derivative above top degree {host.complex.dim}")
    mat = host.complex.boundary_matrices[k + 1]
    return Cochain(host, k + 1, mat.T @ alpha.values)


def star(alpha: Cochain) -> Cochain:
    """Diagonal Hodge star; values scale by dual volume over primal volume.

    The result represents the complementary-degree cochain on the dual
    cells, which are in bijection with the primal k-simplices, so it is
    stored with the same index set (and degree label) as the input.
    """
    weights = alpha.host.star_diagonal(alpha.degree)
    return Cochain(alpha.host, alpha.degree, weights * alpha.values)


def unstar(alpha: Cochain) -> Cochain:
    """Inverse of :func:`star` (the weights are strictly positive)."""
    weights = alpha.host.star_diagonal(alpha.degree)
    return Cochain(alpha.host, alpha.degree, alpha.values / weights)


def inner_product(alpha: Cochain, beta: Cochain) -> float:
    """Positive-definite diagonal pairing sum(star weight * a * b)."""
    _same_host(alpha, beta)
    if alpha.degree != beta.degree:
        raise DECError("inner product needs equal degrees")
    w = alpha.host.star_diagonal(alpha.degree)
    return float(np.dot(w, alpha.values * beta.values))


def norm(alpha: Cochain) -> float:
    return float(np.sqrt(max(inner_product(alpha, alpha), 0.0)))


def adjoint_full(host, k: int):
    """All rows of the metric adjoint data d^T S_k (without S_{k-1} scaling),
    built once per host and degree and kept read-only."""
    if k < 1 or k > host.complex.dim:
        raise DECError(f"no adjoint rows for degree {k}")
    if k not in host._adjoints:
        mat = host.complex.boundary_matrices[k]
        host._adjoints[k] = sparse.csr_matrix(
            (mat.data * host.star_diagonal(k)[mat.indices], mat.indices, mat.indptr),
            shape=mat.shape)
        host._adjoints[k].data.flags.writeable = False
    return host._adjoints[k]


def codifferential(alpha: Cochain) -> Cochain:
    """Interior codifferential: the adjoint of d with boundary rows removed.

    On a closed complex this is the full metric adjoint of d; on a complex
    with boundary, rows on boundary (k-1)-simplices are zero and their
    content is surfaced by :func:`normal_trace` instead.
    """
    host = alpha.host
    k = alpha.degree
    if k < 1:
        raise DECError("codifferential needs degree >= 1")
    raw = adjoint_full(host, k) @ alpha.values
    raw = raw * host.interior_simplex_mask(k - 1)
    return Cochain(host, k - 1, raw / host.star_diagonal(k - 1))


def tangential_trace(alpha: Cochain, sigma: HypersurfaceMesh) -> Cochain:
    """Pullback of a k-cochain to a boundary hypersurface or face of its host."""
    if sigma.root_region() is not alpha.host:
        raise DECError("hypersurface does not belong to the cochain's host")
    k = alpha.degree
    if k > sigma.complex.dim:
        raise DECError("cannot trace above the hypersurface dimension")
    return Cochain(sigma, k, alpha.values[sigma.region_simplex_map(k)])


def normal_trace(alpha: Cochain, sigma: HypersurfaceMesh) -> Cochain:
    """The boundary flux of a k-cochain as a (k-1)-cochain on the hypersurface.

    Defined so that the boundary term of the adjointness identity is exactly
    the hypersurface inner product of a trace against this cochain.
    """
    host = alpha.host
    k = alpha.degree
    if k < 1:
        raise DECError("normal trace needs degree >= 1")
    if sigma.root_region() is not host:
        raise DECError("hypersurface does not belong to the cochain's host")
    raw = adjoint_full(host, k) @ alpha.values
    idx = sigma.region_simplex_map(k - 1)
    return Cochain(sigma, k - 1, raw[idx] / sigma.star_diagonal(k - 1))


def adjointness_defect(f: Cochain, alpha: Cochain) -> tuple[float, float]:
    """Residual of <df, a> - <f, d* a> - boundary pairing, zero to roundoff,
    and its natural scale: the largest magnitude of the three terms, the
    boundary pairing's summed in absolute values.

    ``f`` has degree k-1 and ``alpha`` degree k on the same region.
    """
    _same_host(f, alpha)
    if alpha.degree != f.degree + 1:
        raise DECError("degrees must differ by one")
    host = f.host
    lhs = inner_product(d(f), alpha)
    mid = inner_product(f, codifferential(alpha))
    boundary = absolute = 0.0
    if isinstance(host, RegionMesh) and host.boundary is not None:
        sigma = host.boundary
        tr = tangential_trace(f, sigma)
        nt = normal_trace(alpha, sigma)
        w = sigma.star_diagonal(f.degree)
        boundary = float(np.dot(tr.values, w * nt.values))
        absolute = float(np.dot(np.abs(tr.values), w * np.abs(nt.values)))
    return lhs - mid - boundary, max(abs(lhs), abs(mid), absolute, 1e-30)


def integrate(alpha: Cochain) -> float:
    """Integral of a top-degree cochain over the oriented host."""
    host = alpha.host
    if alpha.degree != host.complex.dim:
        raise DECError("only top-degree cochains integrate over the host")
    ori = host.complex.orientation
    sign = getattr(host, "orientation_sign", 1)
    return sign * float(np.dot(ori, alpha.values))


def boundary_integral(eta: Cochain) -> float:
    """Signed sum of a 1-cochain over the induced boundary of its region."""
    host = eta.host
    if not isinstance(host, RegionMesh):
        raise DECError("boundary integral needs a region host")
    if eta.degree != host.complex.dim - 1:
        raise DECError("boundary integral needs a codimension-one cochain")
    sigma = host.boundary
    if sigma is None:
        return 0.0
    tr = tangential_trace(eta, sigma)
    return sigma.integral(tr.values)


def area_form(mesh: RegionMesh, scale: float = 1.0) -> Cochain:
    """Top cochain whose value on each positively oriented cell is its volume."""
    cx = mesh.complex
    vals = scale * mesh.volumes(cx.dim) * cx.orientation
    return Cochain(mesh, cx.dim, vals)
