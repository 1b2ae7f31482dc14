"""The edge-length metric: primal and barycentric dual volumes.

The reference below embeds each simplex isometrically from its edge lengths
and measures every barycentric flag simplex with a determinant, one cell at a
time; the library computes the same volumes from Gram matrices, batched over
all cells.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decgauge import builders, dynamics, mesh
from decgauge.mesh import MeshError, SimplicialComplex


def simplex_volume(points):
    """Unsigned k-volume of the simplex spanned by ``points`` ((k+1, m) array)."""
    if len(points) == 1:
        return 1.0
    edges = points[1:] - points[0]
    det = max(np.linalg.det(edges @ edges.T), 0.0)
    return math.sqrt(det) / math.factorial(len(points) - 1)


def embed(tup, length_of):
    """Local isometric coordinates of a simplex, first vertex at the origin."""
    m = len(tup)
    gram = np.zeros((m - 1, m - 1))
    for i in range(1, m):
        for j in range(1, m):
            lij = length_of(tup[i], tup[j]) if i != j else 0.0
            gram[i - 1, j - 1] = 0.5 * (length_of(tup[0], tup[i]) ** 2
                                        + length_of(tup[0], tup[j]) ** 2 - lij**2)
    w, v = np.linalg.eigh(gram)
    assert np.all(w > -1e-12 * max(1.0, w.max(initial=0.0)))
    return np.vstack([np.zeros(m - 1), v * np.sqrt(np.clip(w, 0.0, None))])


def reference_volumes(m):
    """Primal and dual volumes per degree, from per-cell embeddings."""
    cx = m.complex
    n = cx.dim
    index = [{s: i for i, s in enumerate(map(tuple, cx.simplices[k].tolist()))}
             for k in range(n + 1)]

    def length_of(i, j):
        return m.edge_lengths[index[1][tuple(sorted((i, j)))]]

    vols = [np.ones(cx.n_simplices(0))] + [
        np.array([simplex_volume(embed(tuple(s), length_of)) for s in cx.simplices[k]])
        for k in range(1, n + 1)
    ]
    duals = [np.zeros(cx.n_simplices(k)) for k in range(n + 1)]
    for cell in map(tuple, cx.simplices[n]):
        local = dict(zip(cell, embed(cell, length_of)))
        bary = {sub: np.mean([local[v] for v in sub], axis=0)
                for r in range(1, n + 2) for sub in itertools.combinations(cell, r)}
        for k in range(n + 1):
            for sub in itertools.combinations(cell, k + 1):
                rest = [v for v in cell if v not in sub]
                for order in itertools.permutations(rest):
                    chain = [tuple(sorted(sub + order[:j])) for j in range(len(order) + 1)]
                    duals[k][index[k][sub]] += simplex_volume(
                        np.array([bary[c] for c in chain]))
    return vols, duals


def with_boundaries_and_faces(m):
    out = [m]
    if isinstance(m, mesh.RegionMesh) and m.boundary is not None:
        out.append(m.boundary)
        out += [mesh.extract_face(m.boundary, lab) for lab in sorted(m.boundary.face_labels)]
    return out


def glued_strip():
    # Its representative coordinates put the seam edges 95 units long; only
    # the inherited edge lengths carry its metric.
    strip = builders.strip(96)
    return mesh.glue(strip, "west", "east", builders.strip_end_matching(strip))


CASES = {
    "disk:N=8": lambda: builders.disk(8),
    "annulus:N=16": lambda: builders.annulus(16),
    "annulus:N=256": lambda: builders.annulus(256),
    "ann8": builders.square_annulus,
    "square:N=3": lambda: builders.square(3),
    "strip:N=4": lambda: builders.strip(4),
    "tetrahedron": builders.tetrahedron,
    "solid_torus:K=4": lambda: builders.solid_torus(4),
    "solid_torus:K=8": lambda: builders.solid_torus(8),
    "cube:N=2": lambda: builders.cube(2),
    "circle": lambda: builders.circle(12),
    "glued strip:N=96": glued_strip,
    "union": lambda: mesh.disjoint_union(builders.annulus(8), builders.square_annulus()),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_volumes_match_embedding_reference(name):
    for m in with_boundaries_and_faces(CASES[name]()):
        vols, duals = reference_volumes(m)
        for k in range(m.complex.dim + 1):
            np.testing.assert_allclose(m.volumes(k), vols[k], rtol=1e-12, atol=0)
            np.testing.assert_allclose(m.dual_volumes(k), duals[k], rtol=1e-12, atol=0)


def test_disjoint_union_lists_first_part_then_shifted_second():
    a, b = builders.annulus(8), builders.square_annulus()
    union = mesh.disjoint_union(a, b)
    for k in range(3):
        expected = np.vstack([a.complex.simplices[k],
                              b.complex.simplices[k] + a.complex.n_vertices])
        assert np.array_equal(union.complex.simplices[k], expected)
    assert np.array_equal(union.edge_lengths,
                          np.concatenate([a.edge_lengths, b.edge_lengths]))


def test_triangle_inequality_violation_rejected():
    cx = SimplicialComplex(3, [(0, 1, 2)])
    with pytest.raises(MeshError, match="flat space"):
        mesh.RegionMesh(cx, edge_lengths=[1.0, 1.0, 3.0])


def test_tetrahedron_with_valid_faces_but_no_embedding_rejected():
    # Each face is a proper triangle, but the apex is nearer to the base
    # vertices (0.55) than the base circumradius (1/sqrt(3)) allows.
    cx = SimplicialComplex(4, [(0, 1, 2, 3)])
    lengths = [1.0, 1.0, 0.55, 1.0, 0.55, 0.55]  # edges (01, 02, 03, 12, 13, 23)
    with pytest.raises(MeshError, match="flat space"):
        mesh.RegionMesh(cx, edge_lengths=lengths)


SMALL = {spec: builders.from_spec(spec) for spec in
         ("disk:N=5", "ann8", "square:N=2", "strip:N=3", "tetrahedron", "solid_torus:K=3")}
SMALL_LAGRANGIAN = {spec: dynamics.verify_lagrangian(dynamics.solution_space(m))
                    for spec, m in SMALL.items()}


@st.composite
def relabelled_and_reversed(draw):
    spec = draw(st.sampled_from(sorted(SMALL)))
    cx = SMALL[spec].complex
    perm = draw(st.permutations(range(cx.n_vertices)))
    cells = [(perm[c[1]], perm[c[0]]) + tuple(perm[v] for v in c[2:])
             for c in cx.oriented_cells()]
    coords = np.empty_like(cx.coordinates)
    coords[perm] = cx.coordinates
    relabelled_cx = SimplicialComplex(cx.n_vertices, cells, coordinates=coords)
    return spec, perm, mesh.RegionMesh(relabelled_cx)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(relabelled_and_reversed())
def test_relabelling_and_reversal_only_permute_the_metric(case):
    spec, perm, m = case
    original = SMALL[spec]
    for k in range(m.complex.dim + 1):
        image = m.complex.simplex_indices(k, np.asarray(perm)[original.complex.simplices[k]])
        np.testing.assert_allclose(m.volumes(k)[image], original.volumes(k), rtol=1e-12)
        np.testing.assert_allclose(m.dual_volumes(k)[image], original.dual_volumes(k),
                                   rtol=1e-12)
    rep, ref = dynamics.verify_lagrangian(dynamics.solution_space(m)), SMALL_LAGRANGIAN[spec]
    assert rep["dims"] == ref["dims"]
    assert rep["half_dimension"] == ref["half_dimension"]
    assert rep["lagrangian"] == ref["lagrangian"] is True
