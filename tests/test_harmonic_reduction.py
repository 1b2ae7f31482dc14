"""The harmonic bases (closed forms in degree 0 and the top degree, the
zero-pivot kernel of the degree's Hodge block in between) against the dense
stacked-SVD oracle."""

import json

import numpy as np
import pytest
from dense_oracles import dense_harmonic

from decgauge import builders, cli, hodge, mesh, subspaces, tolerances


def max_angle(a, b):
    return float(subspaces.principal_angles(a, b).max(initial=0.0))


BASES = {"neumann": hodge.harmonic_neumann_basis,
         "dirichlet": hodge.harmonic_dirichlet_basis}

# Projection blocks are factorized by SuperLU above DENSE_BLOCK_MAX unknowns, below it by
# a block-tridiagonal Cholesky in numpy, in diagonal blocks of width
# max(BANDED_WIDTH_MIN, lower bandwidth) capped at the block's size.  Every
# oracle check runs through SuperLU and through the Cholesky at both ends of
# its width: one diagonal block ("dense") and the narrowest ("banded").
FACTORIZATIONS = pytest.mark.parametrize("route", ["sparse", "dense", "banded"])


@pytest.fixture
def factorization(route, monkeypatch):
    monkeypatch.setattr(subspaces, "DENSE_BLOCK_MAX", 0 if route == "sparse" else 10**9)
    monkeypatch.setattr(subspaces, "BANDED_WIDTH_MIN", 1 if route == "banded" else 10**9)


# cube:N=3 has interior edges; glued once it has b = 1, 1, 0, 0; glued twice
# it is the torus times an interval (b = 1, 2, 1, 0), where H^1 and H^2 each
# ground the other's projections.
MESHES = ("tri1", "disk8", "ann8", "annulus16", "strip4", "tet",
          "solid_torus8", "torus_region", "square:N=4", "square:N=8",
          "annulus8+torus_region", "cube:N=3", "glued cube:N=3", "T2xI:N=3")


def glued_cube(n):
    m = builders.cube(n)
    return mesh.glue(m, "west", "east", builders.strip_end_matching(m))


def torus_seam(n):
    """cube:N=n glued west~east, and its south~north matching (vertices
    paired by x, z): the second gluing into T^2 x I, across an annulus whose
    perimeter meets the top and bottom faces at corner edges."""
    m = glued_cube(n)
    cx = m.complex

    def side(label):
        verts = np.unique(cx.simplices[2][sorted(m.face_labels[label])])
        return verts[np.lexsort(cx.coordinates[verts][:, [0, 2]].T[::-1])].tolist()

    return m, "south", "north", dict(zip(side("south"), side("north")))


def torus_times_interval(n):
    """cube:N=n glued west~east, then south~north."""
    return mesh.glue(*torus_seam(n))


def region(name, request):
    if name == "annulus8+torus_region":
        # a bounded component next to a closed one
        return mesh.disjoint_union(builders.annulus(8),
                                   request.getfixturevalue("torus_region"))
    if name == "glued cube:N=3":
        return glued_cube(3)
    if name == "T2xI:N=3":
        return torus_times_interval(3)
    if ":" in name:
        return builders.from_spec(name)
    return request.getfixturevalue(name)


@FACTORIZATIONS
@pytest.mark.parametrize("condition", sorted(BASES))
@pytest.mark.parametrize("name", MESHES)
def test_reduced_harmonic_matches_dense_oracle(name, condition, request,
                                               factorization):
    m = region(name, request)
    for k in range(m.complex.dim + 1):
        harmonic = BASES[condition](m, k)
        fast = harmonic.basis
        dense = dense_harmonic(m, k, condition == "dirichlet")
        assert fast.dim == dense.dim, k
        assert max_angle(fast, dense) <= 1e-10, k
        assert fast.orthonormality_defect() <= 1e-12, k
        assert harmonic.max_residual() <= tolerances.HARMONIC_REL, k


def test_harmonic_bases_take_no_null_space(monkeypatch):
    # On T^2 x I every projection block with a kernel is grounded at its own
    # zero pivots: no basis of one degree waits on another's, and no null
    # space is taken.
    m = torus_times_interval(3)

    def refuse(*args, **kwargs):
        raise AssertionError("null space taken")

    monkeypatch.setattr(subspaces, "null_space", refuse)
    assert not hasattr(hodge, "null_space") and not hasattr(hodge, "DENSE_SVD_MAX")
    assert not hasattr(hodge, "from_span")
    assert not [name for name in vars(hodge) if name.startswith("SKETCH")]
    dims = {c: [BASES[c](m, k).dim for k in range(4)] for c in sorted(BASES)}
    assert dims == {"dirichlet": [0, 1, 2, 1], "neumann": [1, 2, 1, 0]}


def test_dirichlet_basis_vanishes_off_the_interior(annulus16):
    basis = hodge.harmonic_dirichlet_basis(annulus16, 1).basis
    assert basis.dim == 1
    assert not basis.columns[annulus16.boundary_simplex_mask(1)].any()


@FACTORIZATIONS
def test_faked_boundary_on_a_closed_torus_raises(monkeypatch, factorization):
    # Fake one edge of a closed torus as its boundary: the torus then has no
    # closed component for its Neumann area form, against the integer
    # oracle's b_2 = 1.  No Neumann block reads the boundary, so H^1 is still
    # found on every route; the closed form of degree 2 refuses the fake.
    torus = mesh.region_from_hypersurface(builders.solid_torus(8).boundary)
    cx = torus.complex
    fake = {k: np.zeros(cx.n_simplices(k), dtype=bool) for k in range(3)}
    fake[1][0] = True
    fake[0][cx.simplices[1][0]] = True
    monkeypatch.setattr(torus, "boundary_simplex_mask", lambda k: fake[k])
    assert hodge.harmonic_neumann_basis(torus, 1).dim == 2
    with pytest.raises(hodge.HodgeError,
                       match=r"dimension 0 != Betti number 1 \(degree 2\)"):
        hodge.harmonic_neumann_basis(torus, 2)


# (mesh, condition, degree) with a nonzero harmonic space, against an oracle
# moved by one either way: one more grounds an unknown whose Schur pivot is
# not zero (the first solve's gate), one fewer leaves a zero pivot among
# the factorized unknowns (the pivot gate).
MISCOUNTED = [("ann8", "neumann", 1), ("ann8", "dirichlet", 1),
              ("solid_torus8", "neumann", 1), ("solid_torus8", "dirichlet", 2)]


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("name,condition,k", MISCOUNTED)
def test_miscounted_oracle_raises(name, condition, k, shift, request,
                                  monkeypatch):
    m = request.getfixturevalue(name)
    oracle = "relative_betti_oracle" if condition == "dirichlet" else "betti_oracle"
    true = getattr(hodge, oracle)
    assert true(m, k) > 0
    monkeypatch.setattr(hodge, oracle,
                        lambda mesh, j: true(mesh, j) + shift * (j == k))
    with pytest.raises(hodge.HodgeError, match="dimension"):
        BASES[condition](m, k)


def test_harmonic_output_is_byte_identical(tmp_path):
    out = tmp_path / "harmonic.json"
    runs = []
    for _ in range(2):
        assert cli.main(["harmonic", "--mesh", "annulus:N=16", "--degree", "1",
                         "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == ["harmonic.json", "harmonic_neumann0.csv"]


def record_factorized_blocks(monkeypatch):
    """A list that gets the size of every block that ``hodge`` factorizes."""
    sizes, original = [], hodge.factorize

    def counting(block, *args):
        sizes.append(block.shape[0])
        return original(block, *args)

    monkeypatch.setattr(hodge, "factorize", counting)
    return sizes


def test_each_harmonic_basis_factorizes_its_own_block(monkeypatch, capsys):
    # annulus:N=256 (b_1 = 1 both ways): the Neumann block of degree 1 on
    # every edge and the Dirichlet one on the interior edges, nothing else;
    # decompose adds the Neumann block of degree 2 once, for its coexact part.
    m = builders.annulus(256)
    edges, interior = m.complex.n_simplices(1), int(m.interior_simplex_mask(1).sum())
    assert (edges, interior) == (1024, 512)
    argv = ["--mesh", "annulus:N=256", "--degree", "1"]
    for command, blocks in (("harmonic", [edges, interior]),
                            ("decompose", [edges, m.complex.n_simplices(2)])):
        sizes = record_factorized_blocks(monkeypatch)
        assert cli.main([command, *argv]) == 0
        capsys.readouterr()
        assert sizes == blocks, command


@FACTORIZATIONS
@pytest.mark.parametrize("condition", sorted(BASES))
def test_a_zero_kernel_still_factorizes_and_gates_its_block(condition, monkeypatch,
                                                            factorization):
    # square:N=4 has b_1 = 0 both ways: the basis has no columns and no rank
    # cut (gap inf), but its block is factorized, and a singular one raises.
    m = builders.from_spec("square:N=4")
    sizes = record_factorized_blocks(monkeypatch)
    basis = BASES[condition](m, 1).basis
    assert basis.dim == 0 and basis.gap == np.inf
    assert sizes == [int(m.interior_simplex_mask(1).sum()) if condition == "dirichlet"
                     else m.complex.n_simplices(1)]
    original = hodge._hodge_block

    def zeroed(mesh, k, dirichlet):
        row, col, value = original(mesh, k, dirichlet)
        return row, col, 0.0 * value

    monkeypatch.setattr(hodge, "_hodge_block", zeroed)
    with pytest.raises(hodge.HodgeError, match="singular beyond a kernel of dimension 0"):
        BASES[condition](m, 1)


def test_harmonic_report_carries_each_gap(capsys):
    # A basis with a kernel reports the pivot gap of its zero pivots; one
    # without reports null (its gap is inf, which JSON cannot hold).
    gaps = {}
    for spec in ("annulus:N=16", "square:N=4"):
        assert cli.main(["harmonic", "--mesh", spec, "--degree", "1"]) == 0
        detail = json.loads(capsys.readouterr().out)["detail"]
        gaps[spec] = detail["neumann_gap"], detail["dirichlet_gap"]
    assert gaps["square:N=4"] == (None, None)
    assert all(gap >= tolerances.RANK_GAP_FACTOR for gap in gaps["annulus:N=16"])
