"""Built-in mesh generators for disks, annuli, squares, strips, and 3D bodies.

These remove any external mesher dependency: every verification run works on
meshes constructed here.  Disks are regular N-gon fans of circumradius 1,
annuli two concentric N-gons, so areas and perimeters follow closed-form
polygon formulas in tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from .mesh import HypersurfaceMesh, MeshError, RegionMesh, SimplicialComplex


def disk(n: int = 16) -> RegionMesh:
    """Regular n-gon fan of circumradius 1 with a single labeled rim."""
    if n < 3:
        raise MeshError("disk needs at least 3 rim vertices")
    angles = 2 * np.pi * np.arange(n) / n
    coords = np.vstack([[0.0, 0.0], np.column_stack([np.cos(angles), np.sin(angles)])])
    rim = 1 + np.arange(n + 1) % n
    cells = np.column_stack([np.zeros(n, dtype=int), rim[:-1], rim[1:]])
    cx = SimplicialComplex(n + 1, cells, coordinates=coords)
    return RegionMesh(cx, face_labels={"rim": cx.boundary_facets()}, name=f"disk:N={n}")


def _ring_region(outer: np.ndarray, inner: np.ndarray, name: str) -> RegionMesh:
    """The band between two closed n-gons, vertex k of the outer one joined
    to vertex k of the inner one, with faces "outer" and "inner"."""
    n = len(outer)
    a = np.arange(n)
    b = (a + 1) % n
    cells = np.stack([a, b, n + a, b, n + b, n + a], axis=1).reshape(-1, 3)
    cx = SimplicialComplex(2 * n, cells, coordinates=np.vstack([outer, inner]))
    facets = cx.boundary_facets()
    on_outer = cx.simplices[1][facets, 1] < n
    return RegionMesh(cx, face_labels={"outer": facets[on_outer], "inner": facets[~on_outer]},
                      name=name)


def annulus(n: int = 16, inner_radius: float = 0.5) -> RegionMesh:
    """Annulus between concentric regular n-gons, faces "inner" and "outer"."""
    if n < 3:
        raise MeshError("annulus needs at least 3 vertices per ring")
    if not 0 < inner_radius < 1:
        raise MeshError("inner radius must lie in (0, 1)")
    angles = 2 * np.pi * np.arange(n) / n
    outer = np.column_stack([np.cos(angles), np.sin(angles)])
    return _ring_region(outer, inner_radius * outer, f"annulus:N={n}")


def square_annulus() -> RegionMesh:
    """The 8-triangle square annulus between [-2,2]^2 and [-1,1]^2."""
    inner = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=float)
    return _ring_region(2 * inner, inner, "ann8")


def _grid_region(nx: int, ny: int, width: float, height: float, name: str) -> RegionMesh:
    """Axis-aligned rectangle triangulated on an (nx+1) x (ny+1) grid."""
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    coords = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    vid = lambda i, j: j * (nx + 1) + i
    j, i = np.divmod(np.arange(nx * ny), nx)
    a, b, c, d = vid(i, j), vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)
    cells = np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3)
    cx = SimplicialComplex((nx + 1) * (ny + 1), cells, coordinates=coords)
    facets = cx.boundary_facets()
    y, x = np.divmod(cx.simplices[1][facets], nx + 1)  # grid position of each end
    sides = {"south": y == 0, "east": x == nx, "north": y == ny, "west": x == 0}
    return RegionMesh(
        cx,
        face_labels={side: facets[at.all(axis=1)] for side, at in sides.items()},
        name=name,
    )


def square(n: int = 2) -> RegionMesh:
    """Unit square on an n x n grid with labeled sides (4 corner vertices)."""
    if n < 1:
        raise MeshError("square needs n >= 1")
    return _grid_region(n, n, 1.0, 1.0, f"square:N={n}")


def strip(n: int = 4, height: int = 1) -> RegionMesh:
    """A 1 x n strip of unit squares; gluing "west" to "east" gives an annulus."""
    if n < 2:
        raise MeshError("strip needs n >= 2 for a valid end-to-end gluing")
    return _grid_region(n, height, float(n), float(height), f"strip:N={n}")


def strip_end_matching(mesh: RegionMesh) -> dict:
    """Canonical vertex matching of a region's west face onto its east face
    (strips, squares, cubes): the vertices of each face's facets, paired in
    the order of every coordinate but x."""
    cx = mesh.complex
    for lab in ("west", "east"):
        if lab not in mesh.face_labels:
            raise MeshError("mesh has no west/east faces to match")

    def side(label):
        verts = np.unique(cx.simplices[cx.dim - 1][sorted(mesh.face_labels[label])])
        return verts[np.lexsort(cx.coordinates[verts, 1:].T[::-1])].tolist()

    return dict(zip(side("west"), side("east")))


def tetrahedron() -> RegionMesh:
    """A single solid tetrahedron with one label per boundary triangle."""
    coords = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    cx = SimplicialComplex(4, [(0, 1, 2, 3)], coordinates=coords)
    labels = {f"f{i}": {i} for i in range(cx.n_simplices(2))}
    return RegionMesh(cx, face_labels=labels, name="tetrahedron")


def solid_torus(k: int = 8, major_radius: float = 2.0) -> RegionMesh:
    """Solid torus from k triangular prisms around a circle, 3 tets each."""
    if k < 3:
        raise MeshError("solid torus needs at least 3 segments")
    section = np.array([[0.5, 0.0], [-0.25, 0.4], [-0.25, -0.4]])
    theta = 2 * np.pi * np.arange(k) / k
    radius = major_radius + section[:, 0]
    coords = np.stack([np.outer(np.cos(theta), radius), np.outer(np.sin(theta), radius),
                       np.tile(section[:, 1], (k, 1))], axis=-1).reshape(-1, 3)
    # Prism s has vertices 3s + (0, 1, 2) and the same on section s + 1.
    prism = np.hstack([np.arange(3 * k).reshape(k, 3),
                       np.roll(np.arange(3 * k), -3).reshape(k, 3)])
    cells = prism[:, [[0, 1, 2, 5], [0, 1, 4, 5], [0, 3, 4, 5]]].reshape(-1, 4)
    flip = ~(np.linalg.det(coords[cells[:, 1:]] - coords[cells[:, :1]]) > 0)
    cells[flip, :2] = cells[flip, 1::-1]
    cx = SimplicialComplex(3 * k, cells, coordinates=coords)
    return RegionMesh(cx, face_labels={"shell": cx.boundary_facets()},
                      name=f"solid_torus:K={k}")


def cube(n: int = 2) -> RegionMesh:
    """Unit cube on an n x n x n grid, each voxel cut into the 6 tetrahedra
    of its main diagonal (Freudenthal/Kuhn), each oriented by the sign of
    its determinant.  Faces "west"/"east" (x), "south"/"north" (y) and
    "bottom"/"top" (z) meet in 12 corner edges: the first builtin 3D mesh
    with interior edges and vertices."""
    if n < 1:
        raise MeshError("cube needs n >= 1")
    grid = np.stack(np.meshgrid(*[np.arange(n + 1)] * 3, indexing="ij"),
                    axis=-1)[..., ::-1].reshape(-1, 3)  # vertex v = (x, y, z)
    steps = np.eye(3, dtype=int)[list(itertools.permutations(range(3)))]
    corners = np.concatenate([np.zeros((6, 1, 3), dtype=int),
                              np.cumsum(steps, axis=1)], axis=1)  # (6, 4, 3)
    origins = grid[(grid < n).all(axis=1)]
    vid = lambda p: (p[..., 2] * (n + 1) + p[..., 1]) * (n + 1) + p[..., 0]
    cells = vid(origins[:, None, None] + corners).reshape(-1, 4)
    coords = grid / n
    edges = coords[cells[:, 1:]] - coords[cells[:, :1]]
    flip = np.linalg.det(edges) < 0
    cells[flip, :2] = cells[flip, 1::-1]
    cx = SimplicialComplex(len(grid), cells, coordinates=coords)
    facets = cx.boundary_facets()
    at = grid[cx.simplices[2][facets]]  # (facets, 3 vertices, 3 axes)
    labels = {}
    for axis, (low, high) in enumerate((("west", "east"), ("south", "north"),
                                        ("bottom", "top"))):
        for label, value in ((low, 0), (high, n)):
            labels[label] = facets[(at[:, :, axis] == value).all(axis=1)]
    return RegionMesh(cx, face_labels=labels, name=f"cube:N={n}")


def circle(n: int = 24, length: float = 2 * np.pi) -> HypersurfaceMesh:
    """Closed polygonal loop of n edges with total length as given."""
    if n < 3:
        raise MeshError("circle needs at least 3 edges")
    radius = length / (2 * n * np.sin(np.pi / n))
    angles = 2 * np.pi * np.arange(n) / n
    coords = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    cells = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    cx = SimplicialComplex(n, cells, coordinates=coords)
    return HypersurfaceMesh(cx, orientation_sign=1)


_BUILDERS = {
    "disk": lambda **kw: disk(int(kw.get("N", 16))),
    "annulus": lambda **kw: annulus(int(kw.get("N", 16))),
    "ann8": lambda **kw: square_annulus(),
    "square": lambda **kw: square(int(kw.get("N", 2))),
    "strip": lambda **kw: strip(int(kw.get("N", 4))),
    "tetrahedron": lambda **kw: tetrahedron(),
    "solid_torus": lambda **kw: solid_torus(int(kw.get("K", 8))),
    "cube": lambda **kw: cube(int(kw.get("N", 2))),
}


def from_spec(spec: str) -> RegionMesh:
    """Build a region from a spec string like ``disk:N=16`` or ``ann8``."""
    name, _, args = spec.partition(":")
    name = name.strip().lower()
    if name not in _BUILDERS:
        raise MeshError(
            f"unknown builtin mesh {name!r}; known: {sorted(_BUILDERS)}"
        )
    kwargs = {}
    if args:
        for item in args.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise MeshError(f"malformed mesh spec argument {item!r}")
            try:
                kwargs[key.strip()] = int(value)
            except ValueError:
                raise MeshError(f"non-integer mesh spec argument {item!r}") from None
    try:
        return _BUILDERS[name](**kwargs)
    except TypeError as exc:
        raise MeshError(f"bad arguments for mesh {name!r}: {exc}") from None
