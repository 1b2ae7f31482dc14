"""The axiom suite of the boundary formulation, one check row per axiom, and
the check-row helpers that the ``verify-lagrangian`` and ``glue`` commands
share with it."""

from __future__ import annotations

import functools

import numpy as np

from . import builders, tolerances
from .boundary import BoundaryDatum, trace_solution
from .dec import Cochain, d
from .dynamics import (action, action_difference_residual, action_scale, gluing_check,
                       solution_space, verify_lagrangian)
from .mesh import RegionMesh, disjoint_union, glue
from .symplectic import bracket, face_factorization_check, omega


def _check(check_id, passed, **extra):
    return {"id": check_id, "passed": bool(passed), **extra}


def _lagrangian(space, tol, seed) -> dict:
    """:func:`verify_lagrangian` of the space under the run's tolerances."""
    return verify_lagrangian(space, tol["ISOTROPY_REL"], tol["PRINCIPAL_ANGLE"],
                             tol["SOLUTION_REL"], tol["RANK_GAP_FACTOR"],
                             tol["COCLOSED_INPUT_REL"], seed)


def _lagrangian_fields(rep: dict) -> dict:
    """Check-row fields of a :func:`verify_lagrangian` report (A9 and
    ``verify-lagrangian``): every reading a gate applies to."""
    return {k: rep[k] for k in ("dims", "isotropy_max", "green_residual",
                                "max_principal_angle", "embedding_defect",
                                "half_dimension", "rank_ambiguous")}


def _gluing_fields(rep: dict) -> dict:
    """Check-row fields of a :func:`gluing_check` report (A11 and ``glue``)."""
    return {k: v for k, v in rep.items()
            if k not in ("mesh", "glued_mesh", "passed")}


@functools.cache
def _glued_strip(length_tolerance) -> RegionMesh:
    """A11's default gluing, strip:N=4 west~east, built once per length
    tolerance: a metric mesh never changes."""
    strip = builders.strip(4)
    return glue(strip, "west", "east", builders.strip_end_matching(strip),
                length_tolerance)


def verify_axioms(mesh: RegionMesh, tol=None, rng=None,
                  glue_fixture=None) -> dict:
    """Run the mapped verification per axiom of the boundary framework.

    A1-A3 and A10 are structural (properties of the data types, reported
    with ``checked: false``); A4 tests the bracket and action-difference
    identities, A5 the orientation involution, A6 disjoint-union
    additivity, A7 face factorization, A8 gauge invariance of the action, A9
    the Lagrangian embedding, A11/A12 the gluing exact sequence on the
    built-in strip, or on ``glue_fixture`` (mesh, label_a, label_b,
    matching), glued under the run's ``GLUE_LENGTH_REL``.
    """
    tol = tol or tolerances.table()
    rng = rng if rng is not None else np.random.default_rng(0)
    axioms = {}

    for ax in ("A1", "A2", "A3", "A10"):
        axioms[ax] = _check(ax, True, checked=False,
                            note="structural, not checked at run time")

    space = solution_space(mesh, tol["RANK_REL"])
    sigma = mesh.boundary
    if sigma is None:
        for ax in ("A4", "A5", "A7"):
            axioms[ax] = _check(ax, True, note="empty boundary")
    else:
        eta, xi = (Cochain(mesh, 1, c) for c in space.random_solutions(rng, 2).T)
        a = trace_solution(eta, tolerance=tol["SOLUTION_REL"])
        b = trace_solution(xi, tolerance=tol["SOLUTION_REL"])
        eq2 = omega(a, b) - 0.5 * bracket(a, b) + 0.5 * bracket(b, a)
        eq2_scale = max(abs(bracket(a, b)), abs(bracket(b, a)), 1e-300)
        eq00, eq00_scale = action_difference_residual(eta, xi)
        ok4 = (abs(eq2) <= tol["AXIOM_IDENTITY_REL"] * eq2_scale
               and abs(eq00) <= tol["AXIOM_IDENTITY_REL"] * eq00_scale)
        axioms["A4"] = _check("A4", ok4,
                              bracket_identity_residual=abs(eq2) / eq2_scale,
                              action_identity_residual=abs(eq00) / eq00_scale,
                              tolerance=tol["AXIOM_IDENTITY_REL"])

        rev = sigma.reversed()
        flipped, flipped_b = (BoundaryDatum(Cochain(rev, 1, x.phi.values),
                                            Cochain(rev, 1, x.phi_dot.values))
                              for x in (a, b))
        inv = omega(flipped, flipped_b) + omega(a, b)
        braid = bracket(flipped, flipped_b) + bracket(a, b)
        axioms["A5"] = _check("A5", inv == 0.0 and braid == 0.0,
                              omega_flip_residual=abs(inv),
                              bracket_flip_residual=abs(braid))

        fact = face_factorization_check(sigma, a, tol["FACTORIZATION_REL"])
        axioms["A7"] = _check("A7", fact["passed"],
                              residual=fact["residual"], scale=fact["scale"],
                              per_face=fact["per_face"],
                              tolerance=tol["FACTORIZATION_REL"])

    double = disjoint_union(mesh, mesh)
    eta_d = Cochain(double, 1, rng.standard_normal(double.complex.n_simplices(1)))
    # The union lists the first copy's edges, then the second's.
    half_a, half_b = np.split(eta_d.values, 2)
    s_total = action(eta_d)
    s_parts = action(Cochain(mesh, 1, half_a)) + action(Cochain(mesh, 1, half_b))
    scale6 = max(action_scale(eta_d), 1e-300)
    axioms["A6"] = _check("A6", abs(s_total - s_parts) <= tol["ROUNDOFF_REL"] * scale6,
                          residual=abs(s_total - s_parts) / scale6,
                          tolerance=tol["ROUNDOFF_REL"])

    eta = Cochain(mesh, 1, space.random_solutions(rng, 1)[:, 0])
    f = Cochain(mesh, 0, rng.standard_normal(mesh.complex.n_simplices(0)))
    shifted = eta + d(f)
    res8 = abs(action(shifted) - action(eta))
    scale8 = max(action_scale(shifted), action_scale(eta), 1e-300)
    axioms["A8"] = _check("A8", res8 <= tol["ROUNDOFF_REL"] * scale8,
                          residual=res8 / scale8, tolerance=tol["ROUNDOFF_REL"])

    rep9 = _lagrangian(space, tol, int(rng.integers(2**31)))
    axioms["A9"] = _check("A9", rep9["lagrangian"], **_lagrangian_fields(rep9))

    glued = (glue(*glue_fixture, tol["GLUE_LENGTH_REL"]) if glue_fixture
             else _glued_strip(tol["GLUE_LENGTH_REL"]))
    rep11 = gluing_check(glued, tol["RANK_REL"], tol["GLUING_ACTION_REL"],
                         tol["SOLUTION_REL"])
    axioms["A11"] = _check("A11", rep11["passed"], **_gluing_fields(rep11))

    # The glued boundary is the image of the faces left unglued.
    info = glued.glue_info
    kept = [f for lab, facets in info.parent.face_labels.items()
            if lab not in info.labels for f in facets]
    expected = np.unique(info.simplex_maps[info.parent.complex.dim - 1][kept])
    actual = glued.complex.boundary_facets()
    axioms["A12"] = _check("A12", np.array_equal(expected, actual),
                           boundary_facets=len(actual),
                           expected_facets=len(expected))
    return axioms
