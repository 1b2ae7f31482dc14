"""The breadth-first vertex rank that orders the Hodge blocks
(``SimplicialComplex.vertex_rank``): a permutation, started in every
component, kept by hypersurfaces, the bandwidth it leaves the blocks that
``hodge._potential`` factorizes, and the natural order without coordinates."""

import numpy as np
import pytest
from dense_oracles import scipy_csr
from scipy import sparse

from decgauge import boundary, builders, hodge, mesh, subspaces, tolerances

SPECS = ("disk", "annulus:N=256", "ann8", "square:N=16", "strip", "solid_torus:K=48",
         "cube:N=3")


def rebuilt(m, coordinates):
    """``m`` on a new complex with the given vertex coordinates; without
    them, with ``m``'s edge lengths."""
    cx = mesh.SimplicialComplex(m.complex.n_vertices, m.complex.oriented_cells(), coordinates)
    return mesh.RegionMesh(cx, m.face_labels, None if coordinates is not None else m.edge_lengths)


def jittered(m, seed, scale=0.2):
    """``m`` with each interior vertex moved by up to ``scale`` times the
    grid spacing along each axis; the boundary stays straight."""
    coords = m.complex.coordinates.copy()
    inside = ~m.boundary_simplex_mask(0)
    h = m.edge_lengths.min()
    coords[inside] += np.random.default_rng(seed).uniform(-scale * h, scale * h,
                                                          (inside.sum(), coords.shape[1]))
    return rebuilt(m, coords)


def potential_block(m, j, dirichlet, monkeypatch):
    """The block that ``hodge._potential`` hands ``factorize``, in its order."""
    seen, original = [], hodge.factorize

    def recording(block, *args):
        seen.append(block)
        return original(block, *args)

    with monkeypatch.context() as patched:
        patched.setattr(hodge, "factorize", recording)
        hodge._potential(m, j, dirichlet, tolerances.RANK_REL)
    return scipy_csr(seen[0]).tocoo()


def bandwidth(block):
    return int((block.row - block.col).max())


@pytest.mark.parametrize("spec", SPECS)
def test_rank_is_a_permutation(spec):
    m = builders.from_spec(spec)
    for cx in (m.complex, m.boundary.complex):
        assert np.array_equal(np.sort(cx.vertex_rank), np.arange(cx.n_vertices))


@pytest.mark.parametrize("spec", ["annulus:N=256", "ann8"])
def test_each_circle_of_an_annulus_boundary_starts_the_order(spec):
    # the boundary's two circles as a complex of its own: one search from
    # each circle's vertices at its minimum of the longest axis (two on
    # each square of ann8), the two fronts taken in turn
    sigma = builders.from_spec(spec).boundary.complex
    cx = mesh.SimplicialComplex(sigma.n_vertices, sigma.oriented_cells(), sigma.coordinates)
    comp = cx.vertex_components()
    x = cx.coordinates[:, np.argmax(np.ptp(cx.coordinates, axis=0))]
    start = x == np.array([x[comp == c].min() for c in comp])
    assert np.unique(comp[start]).tolist() == [0, 1]
    first = np.argsort(cx.vertex_rank)[:start.sum()]
    assert sorted(first) == np.flatnonzero(start).tolist()


@pytest.mark.parametrize("spec", SPECS)
def test_hypersurfaces_keep_their_regions_order(spec):
    m = builders.from_spec(spec)
    sigma = m.boundary
    faces = [mesh.extract_face(sigma, label) for label in sigma.face_labels]
    for sub in (sigma, *faces):
        verts = sub.vertex_map if sub.parent is m else sigma.vertex_map[sub.vertex_map]
        in_region = m.complex.vertex_rank[verts]
        assert np.all(np.diff(in_region[np.argsort(sub.complex.vertex_rank)]) > 0)


def test_annulus_blocks_are_narrow(monkeypatch):
    # In the barycentre sweep that this order replaced, the degree-1
    # Neumann block of annulus:N=256 had bandwidth 166: the inner ring's
    # edges sat inside the outer ring's x-range.
    m = builders.annulus(256)
    block = potential_block(m, 1, False, monkeypatch)
    assert block.shape == (1024, 1024)
    assert bandwidth(block) <= subspaces.BANDED_WIDTH_MIN
    sigma = m.boundary
    assert bandwidth(potential_block(sigma, 0, False, monkeypatch)) <= 8


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_square_blocks_stay_narrow(seed, monkeypatch):
    # the sweep read 49-51 on square:N=16, 70-75 jittered
    m = builders.from_spec("square:N=16")
    bound = 52
    if seed is not None:
        m, bound = jittered(m, seed), 66
    for dirichlet in (False, True):
        assert bandwidth(potential_block(m, 1, dirichlet, monkeypatch)) <= bound


def test_without_coordinates_the_natural_order(monkeypatch):
    m = builders.annulus(256)
    bare = rebuilt(m, None)
    assert bare.complex.vertex_rank is None and bare.boundary.complex.vertex_rank is None
    row, col, value = hodge._hodge_block(bare, 1, False)
    natural = sparse.coo_matrix((value, (row, col)), shape=(1024, 1024)).toarray()
    assert np.array_equal(potential_block(bare, 1, False, monkeypatch).toarray(), natural)
    for basis in (hodge.harmonic_neumann_basis, hodge.harmonic_dirichlet_basis):
        for k in (0, 1, 2):
            assert basis(bare, k).dim == basis(m, k).dim


def test_degree_zero_grounding_reads_the_complex_labels(monkeypatch):
    # the boundary block of an annulus has two components; factorize takes
    # their labels from the complex instead of labelling the block's graph
    def refuse(*args):
        raise AssertionError("factorize labelled the block's graph")

    sigma = builders.annulus(256).boundary
    x = np.random.default_rng(0).standard_normal((sigma.complex.n_simplices(1), 2))
    monkeypatch.setattr(subspaces, "_components", refuse)
    project, record = boundary.coclosed_projector(sigma)
    project(x)
    assert record["grounded"] == 2


def test_square_triangle_blocks_fit_the_narrowest_width(monkeypatch):
    # keyed by their lowest and highest vertex rank alone, the two triangles
    # of each grid square tied and the block read bandwidth 33
    m = builders.from_spec("square:N=16")
    for dirichlet in (False, True):
        block = potential_block(m, 2, dirichlet, monkeypatch)
        assert block.shape == (512, 512)
        assert bandwidth(block) <= subspaces.BANDED_WIDTH_MIN
