"""The array construction of ``SimplicialComplex`` against the loop-and-dict
reference, exactly, on every complex that the builders, boundary and face
extraction, gluing and disjoint unions construct."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from decgauge import builders, mesh
from reference_complex import ReferenceComplex
from test_oracle import SRC, relabelled_cells


def assert_matches_reference(cx, n_vertices, cells) -> ReferenceComplex:
    ref = ReferenceComplex(n_vertices, cells)
    assert cx.dim == ref.dim
    for new, old in zip(cx.simplices, ref.simplices, strict=True):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert np.array_equal(cx.orientation, ref.orientation)
    for new, old in zip(cx.boundary_matrices[1:], ref.boundary_matrices[1:], strict=True):
        assert new.shape == old.shape
        for part in ("indptr", "indices", "data"):
            a, b = getattr(new, part), getattr(old, part)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    facets = ref.boundary_facets()
    assert np.array_equal(cx.boundary_facets(), facets)
    signs = np.zeros(len(ref.cofaces), dtype=np.int64)
    signs[facets] = [ref.induced_facet_sign(f) for f in facets]
    assert np.array_equal(cx.induced_signs, signs)
    assert np.array_equal(cx.vertex_components(), ref.vertex_components())
    for k in range(cx.dim):
        for subset in (facets, np.arange(0, len(ref.cofaces), 2)):
            assert np.array_equal(cx.facet_closure(subset, k), ref.closure(subset, k))
    return ref


def assert_strata_match_reference(region, ref):
    k = region.complex.dim - 2
    expected = {}
    if k >= 0:
        for a, b in itertools.combinations(sorted(region.face_labels), 2):
            common = (ref.closure(sorted(region.face_labels[a]), k)
                      & ref.closure(sorted(region.face_labels[b]), k))
            if common.any():
                expected[(a, b)] = set(np.flatnonzero(common).tolist())
    assert region.strata == expected


def check_every_complex(build):
    """Run ``build`` (returning regions) and check each complex it constructs,
    and each returned region's boundary mask and corner strata."""
    made = []
    init = mesh.SimplicialComplex.__init__

    def record(self, n_vertices, cells, coordinates=None):
        init(self, n_vertices, cells, coordinates)
        made.append((self, n_vertices, np.array(cells).tolist()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh.SimplicialComplex, "__init__", record)
        regions = build()
    refs = {id(cx): assert_matches_reference(cx, n, cells) for cx, n, cells in made}
    for region in regions:
        ref = refs[id(region.complex)]
        for k in range(region.complex.dim + 1):
            expected = (ref.closure(ref.boundary_facets(), k) if k < ref.dim
                        else np.zeros(len(ref.simplices[k]), dtype=bool))
            assert np.array_equal(region.boundary_simplex_mask(k), expected)
        assert_strata_match_reference(region, ref)
    return made


def with_boundary_and_faces(region):
    """The region, after extracting its boundary and each labelled face."""
    sigma = region.boundary
    if sigma is not None:
        for label in sorted(sigma.face_labels or ()):
            mesh.extract_face(sigma, label)
    return [region]


BUILTINS = ["disk:N=8", "annulus:N=16", "ann8", "square:N=4", "strip:N=4",
            "tetrahedron", "solid_torus:K=4", "cube:N=2"]


@pytest.mark.parametrize("spec", BUILTINS)
def test_builtin_matches_reference(spec):
    made = check_every_complex(lambda: with_boundary_and_faces(builders.from_spec(spec)))
    assert len(made) >= 2  # the region and its boundary at least


def test_circle_matches_reference():
    check_every_complex(lambda: [mesh.region_from_hypersurface(builders.circle(12))])


def test_glued_strip_matches_reference():
    def build():
        st = builders.strip(4)
        return with_boundary_and_faces(
            mesh.glue(st, "west", "east", builders.strip_end_matching(st)))
    check_every_complex(build)


def test_disjoint_union_matches_reference():
    check_every_complex(lambda: with_boundary_and_faces(
        mesh.disjoint_union(builders.annulus(8), builders.square_annulus())))


def test_region_from_hypersurface_matches_reference():
    check_every_complex(lambda: [mesh.region_from_hypersurface(
        builders.solid_torus(4).boundary, name="torus_surface")])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(relabelled_cells())
def test_relabelled_complex_matches_reference(case):
    _, n_vertices, cells, coords = case
    check_every_complex(lambda: with_boundary_and_faces(mesh.RegionMesh(
        mesh.SimplicialComplex(n_vertices, cells, coordinates=coords))))


def test_building_loads_no_graph_or_sparse_solver():
    # Components come from the edge array itself and the boundary matrices
    # are decgauge.csr matrices: importing any of scipy would cost a process
    # about 0.2 s and 30 MB just to build a mesh.
    code = ("import sys\n"
            "from decgauge import builders\n"
            f"for spec in {BUILTINS!r}:\n"
            "    m = builders.from_spec(spec)\n"
            "    m.complex.vertex_components(), m.boundary.complex.vertex_components()\n"
            "builders.circle(12).complex.vertex_components()\n"
            "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
