"""The boundary two-form, the bracket, and isotropic/coisotropic tests.

On the concatenated (phi, phi_dot) coordinates of a hypersurface the
two-form has the block shape [[0, S/2], [-S/2, 0]] with S the degree-1
star weights, times the hypersurface's global orientation sign; reversing
the orientation negates every evaluation exactly.
"""

from __future__ import annotations

import numpy as np

from . import tolerances
from .boundary import BoundaryDatum, BoundaryError, coclosed_projector
from .dec import Cochain, inner_product
from .mesh import HypersurfaceMesh, extract_face
from .subspaces import (Subspace, _contains, from_span, null_space, orthonormalize,
                        principal_angles)


def bracket(a: BoundaryDatum, b: BoundaryDatum) -> float:
    """<a.phi, b.phi_dot> on the hypersurface, oriented."""
    if a.host is not b.host:
        raise BoundaryError("data live on different hypersurfaces")
    return a.host.orientation_sign * inner_product(a.phi, b.phi_dot)


def omega(a: BoundaryDatum, b: BoundaryDatum) -> float:
    """Antisymmetrized half-difference of the brackets."""
    return 0.5 * (bracket(a, b) - bracket(b, a))


class SymplecticSpace:
    """Concatenated (phi, phi_dot) coordinates with their two-form and gram."""

    def __init__(self, omega_matrix, gram):
        self.omega_matrix = np.asarray(omega_matrix, dtype=float)
        self.gram = np.asarray(gram, dtype=float)
        if self.omega_matrix.shape[0] != self.omega_matrix.shape[1]:
            raise ValueError("two-form matrix must be square")
        skew = np.abs(self.omega_matrix + self.omega_matrix.T).max(initial=0.0)
        scale = np.abs(self.omega_matrix).max(initial=1.0)
        if skew > 1e-13 * max(scale, 1.0):
            raise ValueError("two-form matrix is not antisymmetric")

    @property
    def ambient_dim(self) -> int:
        return self.omega_matrix.shape[0]


def coclosed_subspace(sigma: HypersurfaceMesh, rank_tolerance=tolerances.RANK_REL,
                      projection=None) -> tuple[Subspace, dict]:
    """S-orthonormal basis ``Q`` of the coclosed 1-cochains (``ker del_1 S_1``)
    and its record.  The coclosed projections ``Y`` of the r edges off the
    spanning forest (``projection``, by default a
    :func:`~decgauge.boundary.coclosed_projector` of its own) are
    independent, as a ``d f`` vanishing on a spanning forest is zero:
    ``Q = Y L^-T`` for ``L L^T = Y^T S Y``, pivot-gated
    (:func:`~decgauge.subspaces.orthonormalize`)."""
    s = sigma.star_diagonal(1)
    off = np.flatnonzero(~sigma.complex.forest_edges)
    y = np.zeros((s.size, off.size))
    y[off, np.arange(off.size)] = 1.0
    y = (projection or coclosed_projector(sigma, rank_tolerance)[0])(y)
    cols, ratio = orthonormalize(y, s, rank_tolerance, BoundaryError)
    q = Subspace(cols, gram=s, rank_tolerance=rank_tolerance)
    return q, {"edges_off_forest": off.size, "pivot_ratio": ratio,
               "rank_tolerance": rank_tolerance}


def coclosed_pair_subspace(sigma: HypersurfaceMesh,
                           rank_tolerance=tolerances.RANK_REL) -> Subspace:
    """The gauge-fixed pairs: both components coclosed on the hypersurface.

    The constraint is block diagonal over the two slots, so the kernel is
    one :func:`coclosed_subspace`, assembled twice.
    """
    single = coclosed_subspace(sigma, rank_tolerance)[0]
    n, r = single.columns.shape
    cols = np.zeros((2 * n, 2 * r))
    cols[:n, :r] = single.columns
    cols[n:, r:] = single.columns
    return Subspace(cols, gram=np.tile(single.gram, 2), rank_tolerance=rank_tolerance)


def symplectic_complement(v: Subspace, w: SymplecticSpace,
                          rank_tolerance=tolerances.RANK_REL) -> Subspace:
    """All directions of the ambient space pairing to zero against ``v``."""
    if v.ambient_dim != w.ambient_dim:
        raise ValueError("subspace does not live in the symplectic space")
    if v.dim == 0:
        return from_span(np.eye(w.ambient_dim), gram=w.gram,
                         rank_tolerance=rank_tolerance)
    constraint = v.columns.T @ w.omega_matrix
    return null_space(constraint, gram=w.gram, rank_tolerance=rank_tolerance,
                      n_columns=w.ambient_dim)


def _omega_scale(w: SymplecticSpace) -> float:
    return float(np.abs(w.omega_matrix).max(initial=0.0)) or 1.0


def is_isotropic(v: Subspace, w: SymplecticSpace,
                 tolerance=tolerances.ISOTROPY_REL):
    """Whether the two-form vanishes on the subspace; returns (flag, info)."""
    if v.dim == 0:
        return True, {"dim": 0, "max_residual": 0.0}
    block = v.columns.T @ w.omega_matrix @ v.columns
    residual = float(np.abs(block).max())
    scale = _omega_scale(w)
    info = {"dim": v.dim, "max_residual": residual, "scale": scale}
    return residual <= tolerance * scale, info


def is_coisotropic(v: Subspace, w: SymplecticSpace,
                   angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                   rank_tolerance=tolerances.RANK_REL):
    """Whether the symplectic complement is contained in the subspace; the
    complement itself is returned as ``info["complement"]``, and the principal
    angles of the subspace against it as ``info["angles"]``."""
    comp = symplectic_complement(v, w, rank_tolerance)
    angles = principal_angles(v, comp)
    ok, max_angle = _contains(v, comp, angles, angle_tolerance)
    info = {
        "dim": v.dim,
        "complement": comp,
        "complement_dim": comp.dim,
        "angles": angles,
        "max_principal_angle": max_angle,
        "rank_ambiguous": comp.ambiguous,
    }
    return ok, info


def is_lagrangian(v: Subspace, w: SymplecticSpace,
                  tolerance=tolerances.ISOTROPY_REL,
                  angle_tolerance=tolerances.PRINCIPAL_ANGLE,
                  rank_tolerance=tolerances.RANK_REL):
    """Isotropic and coisotropic at once; returns (flag, diagnostics)."""
    iso, iso_info = is_isotropic(v, w, tolerance)
    coiso, coiso_info = is_coisotropic(v, w, angle_tolerance, rank_tolerance)
    info = {
        "isotropic": iso,
        "coisotropic": coiso,
        "dim": v.dim,
        "ambient_dim": w.ambient_dim,
        "complement": coiso_info["complement"],
        "complement_dim": coiso_info["complement_dim"],
        "coisotropy_angles": coiso_info["angles"],
        "max_residual": iso_info["max_residual"],
        "max_principal_angle": coiso_info["max_principal_angle"],
        "rank_ambiguous": coiso_info["rank_ambiguous"],
    }
    return iso and coiso, info


def face_factorization_check(sigma: HypersurfaceMesh, datum: BoundaryDatum,
                             tolerance=tolerances.FACTORIZATION_REL) -> dict:
    """Bracket additivity over labeled faces.

    Each face is extracted with its own induced stars, so dual-volume
    pieces of the corner strata split between the adjacent faces and sum
    back exactly.
    """
    if sigma.face_labels is None:
        raise BoundaryError("hypersurface carries no face labels")
    if datum.host is not sigma:
        raise BoundaryError("datum does not live on the hypersurface")
    labeled = set()
    for facets in sigma.face_labels.values():
        labeled |= set(facets)
    if labeled != set(range(sigma.complex.n_simplices(sigma.complex.dim))):
        raise BoundaryError("face labels do not partition the hypersurface")

    total = bracket(datum, datum)
    per_face = {}
    acc = 0.0
    for label in sorted(sigma.face_labels):
        face = extract_face(sigma, label)
        idx = face.simplex_maps[1]
        phi = Cochain(face, 1, datum.phi.values[idx])
        phi_dot = Cochain(face, 1, datum.phi_dot.values[idx])
        value = face.orientation_sign * inner_product(phi, phi_dot)
        per_face[label] = value
        acc += value
    scale = max(abs(total), sum(abs(v) for v in per_face.values()), 1e-30)
    residual = abs(total - acc)
    return {
        "total": total,
        "per_face": per_face,
        "sum_of_faces": acc,
        "residual": residual,
        "scale": scale,
        "passed": bool(residual <= tolerance * scale),
    }
