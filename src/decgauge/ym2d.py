"""The two-dimensional reduction: constant boundary data on loops.

On a connected 2D region with connected boundary, the gauge-fixed boundary
pairs collapse to two constants (c, c_dot) per unit length, extendability
is the line c * perimeter = c_dot * area, and the quotient by integer
windings is a cylinder.  The loop integral of a solution equals the sum of
its curvature values by the chain-level Stokes identity, so the line
condition holds to roundoff, not to discretization error.
"""

from __future__ import annotations

import numpy as np

from . import tolerances
from .boundary import BoundaryDatum, holonomy, component_cycles
from .dec import Cochain, boundary_integral, d
from .dynamics import solution_space
from .mesh import HypersurfaceMesh, RegionMesh
from .symplectic import omega


class Ym2dError(ValueError):
    """Wrong dimension or non-constant data where constants are required."""


class Reduced2dDatum:
    """Constant boundary datum (c ds, c_dot ds) on a loop of given length."""

    def __init__(self, c: float, c_dot: float, length: float):
        if length <= 0:
            raise Ym2dError("loop length must be positive")
        self.c = float(c)
        self.c_dot = float(c_dot)
        self.length = float(length)

    def to_boundary_datum(self, sigma: HypersurfaceMesh) -> BoundaryDatum:
        """Realize the constants as cochains on a closed 1D loop."""
        if sigma.complex.dim != 1 or not sigma.is_closed():
            raise Ym2dError("constant data live on closed 1D loops")
        weights = sigma.complex.orientation * sigma.edge_lengths
        return BoundaryDatum(
            Cochain(sigma, 1, self.c * weights),
            Cochain(sigma, 1, self.c_dot * weights),
        )


def curvature_constant(eta: Cochain, tol: float | None = None):
    """Area-weighted mean of the per-face curvature ratio, with its spread.

    Returns ``(c_dot, report)``; the report lists the maximum deviation of
    the per-face ratio from the mean.  The bulk equation does not force the
    ratio to be exactly constant on irregular meshes, so the deviation is
    informative unless ``tol`` is passed, in which case exceeding it raises.
    """
    mesh = eta.host
    if not isinstance(mesh, RegionMesh) or mesh.complex.dim != 2:
        raise Ym2dError("curvature constants are a 2D notion")
    deta = d(eta)
    areas = mesh.volumes(2)
    ratios = mesh.complex.orientation * deta.values / areas
    total_area = areas.sum()
    c_dot = float(np.dot(areas, ratios) / total_area)
    deviation = float(np.abs(ratios - c_dot).max(initial=0.0))
    report = {
        "c_dot": c_dot,
        "max_deviation": deviation,
        "area": float(total_area),
    }
    if tol is not None and deviation > tol * max(abs(c_dot), 1e-300):
        raise Ym2dError(
            f"curvature ratio varies by {deviation:.3e}; not a constant-curvature "
            "field at the requested tolerance"
        )
    return c_dot, report


def lagrangian_line_check(mesh: RegionMesh,
                          tolerance=tolerances.STOKES_LINE_REL) -> dict:
    """Per-solution check of loop integral = curvature constant * area.

    Both sides are the same chain-level sum, so the residual is pure
    roundoff.  Each solution's sign is chosen so that its loop integral is
    not negative: the rows do not depend on the sign of the basis.  Reports
    the mesh area, perimeter, and the line slope perimeter / area relating
    extendable constants.
    """
    if mesh.complex.dim != 2:
        raise Ym2dError("the line condition is a 2D statement")
    sigma = mesh.boundary
    if sigma is None:
        raise Ym2dError("region has empty boundary")
    if mesh.complex.n_components() != 1:
        raise Ym2dError("region must be connected")
    if sigma.complex.n_components() != 1:
        raise Ym2dError(
            "boundary has several components; check them per component"
        )
    area = mesh.total_volume()
    perimeter = sigma.total_volume()
    space = solution_space(mesh)
    rows = []
    worst = 0.0
    for eta in space.gauge_fixed_solutions():
        loop = boundary_integral(eta)
        if loop < 0:
            eta, loop = -eta, -loop
        c_dot, _ = curvature_constant(eta)
        residual = loop - c_dot * area
        scale = max(
            float(np.abs(eta.values).sum()), abs(loop), abs(c_dot) * area, 1e-300
        )
        worst = max(worst, abs(residual) / scale)
        rows.append(
            {
                "loop_integral": loop,
                "c_dot": c_dot,
                "c": loop / perimeter,
                "residual": residual,
                "relative_residual": abs(residual) / scale,
            }
        )
    return {
        "mesh": mesh.name,
        "area": area,
        "perimeter": perimeter,
        "slope": perimeter / area,
        "solutions": rows,
        "max_relative_residual": worst,
        "passed": bool(worst <= tolerance),
    }


def reduced_form_check(sigma: HypersurfaceMesh,
                       tolerance=tolerances.REDUCED_FORM_REL) -> dict:
    """Measured coefficient of the reduced two-form on constant data.

    Evaluates the boundary two-form on constant pairs and reports kappa in
    omega = kappa * length * (c c_dot' - c' c_dot).  The implemented
    formula carries the one-half, so kappa = 1/2 (to ``tolerance``); the
    companion prose description of the reduced structure as length times
    the area form (kappa = 1) disagrees by that factor, and the report
    flags the discrepancy rather than normalizing it away.
    """
    if sigma.complex.dim != 1 or not sigma.is_closed():
        raise Ym2dError("the reduced form lives on closed 1D loops")
    length = sigma.total_volume()
    a = Reduced2dDatum(1.0, 0.0, length).to_boundary_datum(sigma)
    b = Reduced2dDatum(0.0, 1.0, length).to_boundary_datum(sigma)
    measured = omega(a, b)
    kappa = measured / length
    return {
        "length": length,
        "omega_on_unit_pair": measured,
        "kappa": kappa,
        "prose_kappa": 1.0,
        "kappa_matches_half": bool(abs(kappa - 0.5) <= tolerance),
        "factor_discrepancy_flagged": True,
    }


def holonomy_quotient(datum: Reduced2dDatum | BoundaryDatum,
                      sigma: HypersurfaceMesh):
    """Cylinder coordinates (loop integral mod 2*pi, curvature constant).

    Constant data differing by an integer winding (c shifted by 2*pi k /
    length) land on the same point; the fiber coordinate is untouched.
    """
    if sigma.complex.dim != 1 or not sigma.is_closed():
        raise Ym2dError("the holonomy quotient lives on closed 1D loops")
    if isinstance(datum, Reduced2dDatum):
        bd = datum.to_boundary_datum(sigma)
    else:
        bd = datum
    cycle = component_cycles(sigma)[0]
    _, circle = holonomy(bd.phi, cycle)
    length = sigma.total_volume()
    fiber_total, _ = holonomy(bd.phi_dot, cycle)
    return circle, fiber_total / length


def emit_fan_series(ns, writer) -> None:
    """Write (N, area, perimeter, slope, residual) rows for disk fans."""
    from .builders import disk

    writer.writerow(["N", "area", "perimeter", "slope", "max_relative_residual"])
    for n in ns:
        rep = lagrangian_line_check(disk(int(n)))
        writer.writerow([
            int(n),
            repr(rep["area"]),
            repr(rep["perimeter"]),
            repr(rep["slope"]),
            repr(rep["max_relative_residual"]),
        ])
