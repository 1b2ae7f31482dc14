"""One route from boundary data to bulk solutions: the solution space, the
restriction and the extension all read the Dirichlet extension of the
coclosed boundary traces.  Checked against the stacked-null-space route it
replaced (``dense_oracles.reduced_gauge_fixed``), with the boundary-wide
null space and a second interior factorization kept off every solution
path."""

import json

import numpy as np
import pytest
from dense_oracles import coclosed_defect, reduced_gauge_fixed

from decgauge import boundary, builders, cli, dynamics, hodge, mesh, subspaces
from decgauge.boundary import BoundaryDatum
from decgauge.dec import Cochain


def glued(spec):
    m = builders.from_spec(spec)
    return mesh.glue(m, "west", "east", builders.strip_end_matching(m))


def torus_surface():
    return mesh.region_from_hypersurface(builders.solid_torus(8).boundary,
                                         name="torus_surface")


REGIONS = {
    **{spec: (lambda spec=spec: builders.from_spec(spec)) for spec in (
        "disk:N=8", "disk:N=64", "annulus:N=16", "annulus:N=64", "annulus:N=256",
        "ann8", "square:N=4", "square:N=12", "square:N=24", "strip:N=4",
        "strip:N=192", "tetrahedron", "solid_torus:K=8", "solid_torus:K=32",
        "cube:N=2", "cube:N=3", "cube:N=4")},
    **{f"glued {spec}": (lambda spec=spec: glued(spec)) for spec in (
        "strip:N=4", "strip:N=96", "strip:N=192", "cube:N=3", "cube:N=4")},
    "torus surface": torus_surface,
    "two annuli": lambda: mesh.disjoint_union(builders.annulus(8),
                                              builders.square_annulus()),
    "annulus + torus": lambda: mesh.disjoint_union(builders.annulus(8),
                                                   torus_surface()),
    "disk + torus": lambda: mesh.disjoint_union(builders.disk(8), torus_surface()),
}


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_gauge_fixed_space_matches_the_stacked_route(name):
    m = REGIONS[name]()
    space = dynamics.solution_space(m)
    oracle = reduced_gauge_fixed(m)
    basis = space.gauge_fixed_basis
    assert basis.dim == space.gauge_fixed_dim == oracle.dim
    assert subspaces.principal_angles(basis, oracle).max(initial=0.0) <= 1e-12
    assert basis.orthonormality_defect() <= 1e-12


EXTEND_MESHES = {
    "disk:N=8": lambda: builders.disk(8),
    "ann8": builders.square_annulus,
    "annulus:N=64": lambda: builders.annulus(64),
    "solid_torus:K=8": lambda: builders.solid_torus(8),
    "cube:N=3": lambda: builders.cube(3),
    "disk + torus": REGIONS["disk + torus"],
}


@pytest.mark.parametrize("name", sorted(EXTEND_MESHES))
def test_extend_takes_traces_in_any_gauge(name):
    # A full solution g + d f traces to a phi outside the coclosed gauge;
    # extend must still reproduce its datum, and refuse a perturbed flux.
    m = EXTEND_MESHES[name]()
    rng = np.random.default_rng(11)
    eta = Cochain(m, 1, dynamics.solution_space(m).random_solutions(rng, 1)[:, 0])
    datum = boundary.trace_solution(eta)
    assert coclosed_defect(datum) > 1e-3
    back = boundary.trace_solution(dynamics.extend(datum, m)).vector()
    vec = datum.vector()
    assert np.linalg.norm(back - vec) <= (dynamics.EXTEND_ROUNDTRIP_REL
                                          * np.linalg.norm(vec))
    sigma = m.boundary
    off = rng.standard_normal(sigma.complex.n_simplices(1))
    bad = BoundaryDatum(datum.phi, datum.phi_dot + Cochain(sigma, 1, off))
    with pytest.raises(dynamics.NotExtendableError):
        dynamics.extend(bad, m)


@pytest.mark.parametrize("name", ["disk8", "ann8", "solid_torus8"])
def test_solution_paths_take_no_boundary_wide_null_space(name, request,
                                                         strip4):
    # The boundary-wide elimination kernel is gone; every solution path
    # runs through the Dirichlet extension alone.
    assert not hasattr(subspaces, "reduced_null_space")
    assert not hasattr(dynamics, "reduced_null_space")
    m = request.getfixturevalue(name)
    space = dynamics.solution_space(m)
    assert dynamics.verify_lagrangian(space)["lagrangian"]
    eta = Cochain(m, 1, space.random_solutions(np.random.default_rng(2), 1)[:, 0])
    datum = boundary.trace_solution(eta)
    back = boundary.trace_solution(dynamics.extend(datum, m))
    assert np.linalg.norm(back.vector() - datum.vector()) <= 1e-10 * np.linalg.norm(
        datum.vector())
    assert dynamics.gluing_check(mesh.glue(strip4, "west", "east",
                                           builders.strip_end_matching(strip4)))["passed"]
    assert all(row["passed"] for row in cli.verify_axioms(m).values())


def test_verify_axioms_factorizes_once_per_mesh(monkeypatch):
    m = builders.annulus(16)
    strip = builders.strip(4)
    fixture = (strip, "west", "east", builders.strip_end_matching(strip))
    extended = []
    original = dynamics.dirichlet_extension

    def counting(region, *args, **kwargs):
        extended.append(region)
        return original(region, *args, **kwargs)

    monkeypatch.setattr(dynamics, "dirichlet_extension", counting)
    monkeypatch.setattr(hodge, "dirichlet_extension", counting)
    axioms = cli.verify_axioms(m, glue_fixture=fixture)
    assert all(row["passed"] for row in axioms.values())
    # the glued annulus of A11 is extended, the cut strip never
    assert sum(r is m for r in extended) == 1
    assert not any(r is strip for r in extended) and not strip._solution_spaces
    assert len(extended) == 2


def test_gauge_fixed_basis_is_built_on_first_use():
    # a mesh of its own: a space kept by another test may have built it
    ann8 = builders.from_spec("ann8")
    space = dynamics.solution_space(ann8)
    assert "gauge_fixed_basis" not in vars(space)
    assert space.dim == 9 and space.gauge_fixed_dim == 2
    basis = space.gauge_fixed_basis
    assert space.gauge_fixed_basis is basis
    # every column is a solution, S_1-orthogonal to every d f
    d0 = ann8.complex.boundary_matrices[1].T
    assert np.abs(d0.T @ (ann8.star_diagonal(1)[:, None] * basis.columns)).max() <= 1e-12
    boundary.trace_columns(ann8, basis.columns, ann8.boundary)


def test_kept_space_is_read_only():
    # one space per mesh and rank tolerance, its arrays read-only, and no
    # report shares its solve records: a report changed after the fact
    # leaves the next one byte-identical
    m = builders.from_spec("annulus:N=16")
    space = dynamics.solution_space(m)
    assert dynamics.solution_space(m) is space
    assert dynamics.solution_space(m, 1e-9) is not space
    bases = (space.coclosed, space.gauge_fixed_basis, space.harmonic)
    for kept in (space.extension, *(b.columns for b in bases), *(b.gram for b in bases)):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1.0
    first = dynamics.verify_lagrangian(space, seed=5)
    text = json.dumps(first, sort_keys=True)
    first["extension_solve"]["grounded"] = first["gauge_fix_solve"]["block_size"] = -1
    again = dynamics.verify_lagrangian(dynamics.solution_space(m), seed=5)
    assert json.dumps(again, sort_keys=True) == text


def test_gauge_fixed_rank_is_checked_against_the_count():
    # a mesh of its own: the wrong count stays on the space kept on it
    space = dynamics.solution_space(builders.from_spec("ann8"))
    space.gauge_fixed_dim += 1
    with pytest.raises(dynamics.DynamicsError, match="exact count"):
        space.gauge_fixed_basis
