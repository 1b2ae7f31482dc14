"""Gated tolerances, collected in one table.

Every threshold that decides a pass/fail anywhere in the library or the CLI
reports lives here, so reports can cite the constant by name.  Values are
relative unless the name says otherwise.
"""

from __future__ import annotations

#: Residual of the discrete Stokes / adjointness identity.
ADJOINTNESS_REL = 1e-12

#: Numerical rank cut, relative to the largest singular value.
RANK_REL = 1e-8

#: Gap factor below which a rank decision is flagged as ambiguous.
RANK_GAP_FACTOR = 10.0

#: Subspace containment: all principal angles below this (radians).  The
#: sine-based angles of equal subspaces read at most 5e-15 on the benchmark
#: meshes, so the gate sits four orders above its noise.
PRINCIPAL_ANGLE = 1e-10

#: Harmonic basis defining property, ||d a|| + ||d* a|| <= this * ||a||.
HARMONIC_REL = 1e-9

#: Orthogonality and reconstruction of the four-way decomposition.
HMF_REL = 1e-10

#: Residual of a claimed bulk solution under the field equation operator.
SOLUTION_REL = 1e-9

#: Isotropy of restricted solution pairs under the boundary two-form.
ISOTROPY_REL = 1e-11

#: Bracket / action-difference identities on random solution pairs.
AXIOM_IDENTITY_REL = 1e-11

#: Bracket additivity over labeled boundary faces.
FACTORIZATION_REL = 1e-12

#: Boundary-loop integral versus curvature-times-area line condition.
STOKES_LINE_REL = 1e-12

#: Action composition across a gluing.
GLUING_ACTION_REL = 1e-11

#: Identities that hold up to floating-point roundoff only.
ROUNDOFF_REL = 1e-13

#: Idempotence of the coclosed gauge-fixing projection.
GAUGE_IDEMPOTENT_REL = 1e-10

#: Holonomy invariance mod 2*pi under integer winding shifts.
HOLONOMY_MOD_REL = 1e-10

#: Round trip of extension after restriction, and membership projection.
EXTEND_ROUNDTRIP_REL = 1e-8

#: Acceptable coclosedness defect of inputs that claim to be coclosed.
COCLOSED_INPUT_REL = 1e-8

#: Matched edge lengths must agree to this before a gluing is accepted.
GLUE_LENGTH_REL = 1e-12

DEFAULTS = {
    name: value
    for name, value in sorted(globals().items())
    if name.isupper() and isinstance(value, float)
}


def table(overrides: dict[str, float] | None = None) -> dict[str, float]:
    """Tolerance table, optionally with per-name overrides applied."""
    out = dict(DEFAULTS)
    if overrides:
        for name, value in overrides.items():
            key = name.upper()
            if key not in out:
                raise KeyError(f"unknown tolerance {name!r}")
            if not value > 0:
                raise ValueError(f"tolerance {name!r} must be positive")
            out[key] = float(value)
    return out
