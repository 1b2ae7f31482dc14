"""Simplicial complexes with boundary, face labels, corner strata, and gluing.

Simplices are stored as sorted vertex tuples; each top-dimensional cell
carries a separate orientation sign (the parity of the permutation sorting
the cell as it was supplied).  All incidence matrices are integer valued,
so the chain identity "boundary of boundary is zero" can be checked exactly.

The metric is carried by edge lengths.  When vertex coordinates are present
lengths are derived from them; a glued complex, which in general has no
global isometric embedding, keeps the lengths inherited from its parts.
All primal volumes and barycentric dual volumes are computed from lengths
alone: a k-simplex's Gram matrix G_ij = (l_0i² + l_0j² - l_ij²)/2 of the edge
vectors from its first vertex gives its volume sqrt(det G)/k!, and a
barycentric dual piece inside a top cell has Gram D G Dᵀ, D the constant
barycentric-weight differences along its flag.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse

from . import tolerances


class MeshError(ValueError):
    """Invalid complex, labeling, or gluing data."""


def _sort_parity(cell) -> int:
    """Sign of the permutation that sorts ``cell`` (must have distinct entries)."""
    cell = list(cell)
    sign = 1
    for i in range(len(cell)):
        for j in range(i + 1, len(cell)):
            if cell[i] > cell[j]:
                sign = -sign
            elif cell[i] == cell[j]:
                raise MeshError(f"degenerate cell {tuple(cell)}")
    return sign


def _row_index(rows: np.ndarray) -> np.ndarray:
    """Position of each row among the distinct rows, in lexicographic order.

    Rows that list every k-simplex of a complex at least once, as sorted
    vertex tuples, get their simplex index: simplices are stored sorted.
    """
    return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)


def _gram_volume(gram: np.ndarray) -> np.ndarray:
    """Volumes sqrt(det G)/m! of the simplices with stacked (..., m, m) Grams."""
    det = np.clip(np.linalg.det(gram), 0.0, None)
    return np.sqrt(det) / math.factorial(gram.shape[-1])


def _dual_flags(n: int):
    """Barycentric dual pieces of an n-simplex, per sub-simplex degree k.

    Yields ``(k, subs, delta)``.  ``subs`` are the local k-faces.  Face ``s``
    has one piece per ordering ``p`` of the other vertices: the simplex on
    the barycenters of the growing flag from the face up to the cell.  Row j
    of ``delta[s, p]`` is the weight difference between the flag's (j+1)-th
    barycenter and the face's, in coordinates 1..n, so over the edge vectors
    from local vertex 0 the piece of a cell with Gram ``G`` has Gram
    ``delta G deltaᵀ``.
    """
    def barycenter(verts):
        w = np.zeros(n + 1)
        w[list(verts)] = 1.0 / len(verts)
        return w[1:]

    for k in range(n + 1):
        subs = list(itertools.combinations(range(n + 1), k + 1))
        delta = np.zeros((len(subs), math.factorial(n - k), n - k, n))
        for s, sub in enumerate(subs):
            rest = [v for v in range(n + 1) if v not in sub]
            for p, order in enumerate(itertools.permutations(rest)):
                for j in range(n - k):
                    delta[s, p, j] = barycenter(sub + order[: j + 1]) - barycenter(sub)
        yield k, subs, delta


class SimplicialComplex:
    """Oriented simplicial complex of dimension ``dim``.

    Parameters
    ----------
    n_vertices : int
        Number of vertices (indexed 0..n_vertices-1).
    cells : sequence of tuples
        Top-dimensional cells as ordered vertex tuples; the vertex order
        fixes each cell's orientation.
    coordinates : array or None
        Optional (n_vertices, m) embedding, used for lengths and export.
    """

    def __init__(self, n_vertices, cells, coordinates=None):
        cells = [tuple(int(v) for v in c) for c in cells]
        if not cells:
            raise MeshError("complex needs at least one top cell")
        sizes = {len(c) for c in cells}
        if len(sizes) != 1:
            raise MeshError("cells of mixed dimension")
        self.dim = len(cells[0]) - 1
        self.n_vertices = int(n_vertices)
        for c in cells:
            if any(v < 0 or v >= self.n_vertices for v in c):
                raise MeshError(f"cell {c} references unknown vertex")
        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=float)
            if coordinates.shape[0] != self.n_vertices:
                raise MeshError("coordinate count does not match vertex count")
        self.coordinates = coordinates

        sorted_cells = [tuple(sorted(c)) for c in cells]
        if len(set(sorted_cells)) != len(sorted_cells):
            raise MeshError("repeated top cell")
        self.orientation = np.array([_sort_parity(c) for c in cells], dtype=np.int64)

        # Enumerate all faces of all dimensions, lexicographically ordered.
        self.simplices: list[np.ndarray] = []
        self.index: list[dict] = []
        for k in range(self.dim + 1):
            faces = set()
            for c in sorted_cells:
                faces.update(itertools.combinations(c, k + 1))
            ordered = sorted(faces)
            self.simplices.append(np.array(ordered, dtype=np.int64))
            self.index.append({s: i for i, s in enumerate(ordered)})
        # Top cells were re-sorted lexicographically; carry orientation along.
        perm = {self.index[self.dim][s]: j for j, s in enumerate(sorted_cells)}
        self.orientation = np.array(
            [self.orientation[perm[i]] for i in range(len(cells))], dtype=np.int64
        )

        self.boundary_matrices = self._build_boundary_matrices()
        # Exact ranks of the boundary matrices, filled in by the homology
        # oracle: key (k, relative), relative meaning restricted to interior
        # simplices.
        self.rank_cache: dict[tuple[int, bool], int] = {}
        self._check_dd_zero()
        self._facet_cofaces = self._build_facet_cofaces()
        self._check_manifold_and_orientation()

    # -- construction helpers -------------------------------------------------

    def _build_boundary_matrices(self):
        mats = [None]
        for k in range(1, self.dim + 1):
            rows, cols, vals = [], [], []
            for j, s in enumerate(map(tuple, self.simplices[k])):
                for i in range(k + 1):
                    face = s[:i] + s[i + 1 :]
                    rows.append(self.index[k - 1][face])
                    cols.append(j)
                    vals.append((-1) ** i)
            m = sparse.csr_matrix(
                (np.array(vals, dtype=np.int64), (rows, cols)),
                shape=(len(self.simplices[k - 1]), len(self.simplices[k])),
            )
            mats.append(m)
        return mats

    def _check_dd_zero(self):
        for k in range(2, self.dim + 1):
            prod = self.boundary_matrices[k - 1] @ self.boundary_matrices[k]
            if prod.nnz and np.any(prod.data != 0):
                raise MeshError("boundary of boundary is nonzero")

    def _build_facet_cofaces(self):
        """For each (dim-1)-simplex, the list of (cell index, incidence sign)."""
        if self.dim == 0:
            return []
        bnd = self.boundary_matrices[self.dim].tocsc()
        cofaces = [[] for _ in range(len(self.simplices[self.dim - 1]))]
        for j in range(bnd.shape[1]):
            start, end = bnd.indptr[j], bnd.indptr[j + 1]
            for r, v in zip(bnd.indices[start:end], bnd.data[start:end]):
                cofaces[r].append((j, int(v)))
        return cofaces

    def _check_manifold_and_orientation(self):
        if self.dim == 0:
            return
        for f, hits in enumerate(self._facet_cofaces):
            if len(hits) > 2:
                raise MeshError(
                    f"facet {tuple(self.simplices[self.dim - 1][f])} shared by "
                    f"{len(hits)} top cells (non-manifold)"
                )
            if len(hits) == 2:
                (t1, s1), (t2, s2) = hits
                if self.orientation[t1] * s1 + self.orientation[t2] * s2 != 0:
                    raise MeshError(
                        "inconsistently oriented cells across facet "
                        f"{tuple(self.simplices[self.dim - 1][f])}"
                    )

    # -- queries ---------------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    def simplex_index(self, k: int, tup) -> int:
        try:
            return self.index[k][tuple(sorted(tup))]
        except KeyError:
            raise MeshError(f"no {k}-simplex {tuple(tup)} in complex") from None

    def boundary_facets(self) -> np.ndarray:
        """Indices of (dim-1)-simplices incident to exactly one top cell."""
        if self.dim == 0:
            return np.array([], dtype=int)
        return np.array(
            [f for f, hits in enumerate(self._facet_cofaces) if len(hits) == 1],
            dtype=int,
        )

    def induced_facet_sign(self, facet_index: int) -> int:
        """Boundary orientation sign of a boundary facet."""
        (cell, s) = self._facet_cofaces[facet_index][0]
        return int(self.orientation[cell] * s)

    def vertex_components(self) -> np.ndarray:
        """Connected component label per vertex (via the 1-skeleton)."""
        adj = [[] for _ in range(self.n_vertices)]
        if self.dim >= 1:
            for a, b in self.simplices[1]:
                adj[a].append(b)
                adj[b].append(a)
        labels = -np.ones(self.n_vertices, dtype=int)
        comp = 0
        for start in range(self.n_vertices):
            if labels[start] >= 0:
                continue
            stack = [start]
            labels[start] = comp
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if labels[w] < 0:
                        labels[w] = comp
                        stack.append(w)
            comp += 1
        return labels

    def n_components(self) -> int:
        return int(self.vertex_components().max()) + 1

    def oriented_cells(self) -> list[tuple]:
        """Top cells as ordered tuples realizing their orientation sign."""
        out = []
        for i, s in enumerate(map(tuple, self.simplices[self.dim])):
            if self.orientation[i] > 0 or self.dim == 0:
                out.append(s)
            else:
                out.append((s[1], s[0]) + s[2:])
        return out


class _MetricMesh:
    """Shared metric machinery for regions and hypersurfaces."""

    complex: SimplicialComplex
    edge_lengths: np.ndarray

    def _init_metric(self, edge_lengths=None):
        cx = self.complex
        if cx.dim >= 1:
            if edge_lengths is not None:
                lengths = np.asarray(edge_lengths, dtype=float)
                if lengths.shape != (cx.n_simplices(1),):
                    raise MeshError("edge length array has wrong shape")
            else:
                if cx.coordinates is None:
                    raise MeshError("need coordinates or edge lengths for a metric")
                edges = cx.simplices[1]
                diff = cx.coordinates[edges[:, 1]] - cx.coordinates[edges[:, 0]]
                lengths = np.linalg.norm(diff, axis=1)
            if np.any(lengths <= 0):
                raise MeshError("non-positive edge length")
            self.edge_lengths = lengths
        else:
            self.edge_lengths = np.zeros(0)
        self._compute_volumes()

    def _gram(self, simplices: np.ndarray) -> np.ndarray:
        """Gram matrices of each simplex's edge vectors from its first vertex,
        G_ij = (l_0i² + l_0j² - l_ij²)/2 by the law of cosines."""
        m = simplices.shape[1]
        sq = np.zeros((len(simplices), m, m))
        if m > 1:
            i, j = np.triu_indices(m, 1)
            edges = _row_index(simplices[:, np.stack([i, j], axis=1)].reshape(-1, 2))
            sq[:, i, j] = sq[:, j, i] = self.edge_lengths[edges].reshape(-1, len(i)) ** 2
        return 0.5 * (sq[:, :1, 1:] + sq[:, 1:, :1] - sq[:, 1:, 1:])

    def _compute_volumes(self):
        cx = self.complex
        n = cx.dim
        cells = cx.simplices[n]
        gram = self._gram(cells)
        # Positive semidefinite for a valid flat simplex; tolerate roundoff.
        w = np.linalg.eigvalsh(gram)
        floor = -1e-12 * np.maximum(1.0, w.max(axis=1, initial=0.0))
        bad = np.any(w < floor[:, None], axis=1)
        if bad.any():
            raise MeshError(f"edge lengths of {tuple(cells[bad.argmax()].tolist())} "
                            "do not embed in flat space")
        vols = {0: np.ones(cx.n_simplices(0))}
        if n >= 1:
            vols[1] = self.edge_lengths.copy()
        for k in range(2, n + 1):
            vols[k] = _gram_volume(gram if k == n else self._gram(cx.simplices[k]))
        duals = {}
        for k, subs, delta in _dual_flags(n):
            pieces = delta @ gram[:, None, None] @ delta.swapaxes(-1, -2)
            size = _gram_volume(pieces).sum(axis=2)
            index = _row_index(cells[:, subs].reshape(-1, k + 1))
            duals[k] = np.bincount(index, weights=size.reshape(-1),
                                   minlength=cx.n_simplices(k))
        for k in range(n + 1):
            if np.any(vols[k] <= 0):
                raise MeshError(f"degenerate {k}-simplex (zero volume)")
            if np.any(duals[k] <= 0):
                raise MeshError(f"non-positive dual volume at degree {k}")
        self._volumes = vols
        self._dual_volumes = duals

    def volumes(self, k: int) -> np.ndarray:
        return self._volumes[k]

    def dual_volumes(self, k: int) -> np.ndarray:
        return self._dual_volumes[k]

    def star_diagonal(self, k: int) -> np.ndarray:
        """Diagonal Hodge weights, dual volume over primal volume per k-simplex."""
        if k < 0 or k > self.complex.dim:
            raise MeshError(f"no Hodge star for degree {k}")
        return self._dual_volumes[k] / self._volumes[k]

    def total_volume(self) -> float:
        return float(self._volumes[self.complex.dim].sum())

    def _submesh(self, cells, orientation_sign=1, face_labels=None):
        """The hypersurface spanned by ``cells`` (oriented top cells, as tuples
        of this mesh's vertices) with the inherited metric; ``face_labels``
        name this mesh's simplices of the cells' dimension."""
        cx = self.complex
        verts = sorted({int(v) for c in cells for v in c})
        vmap = {v: i for i, v in enumerate(verts)}
        coords = cx.coordinates[verts] if cx.coordinates is not None else None
        sub = SimplicialComplex(
            len(verts), [tuple(vmap[v] for v in c) for c in cells], coordinates=coords
        )
        # The vertex map is increasing, so sorted tuples map to sorted tuples.
        smaps = [
            np.array([cx.index[k][tuple(verts[v] for v in s)]
                      for s in sub.simplices[k]], dtype=int)
            for k in range(sub.dim + 1)
        ]
        labels = None
        if face_labels:
            back = {int(f): i for i, f in enumerate(smaps[sub.dim])}
            labels = {lab: frozenset(back[f] for f in facets)
                      for lab, facets in face_labels.items()}
        return HypersurfaceMesh(
            sub,
            edge_lengths=self.edge_lengths[smaps[1]] if sub.dim >= 1 else None,
            orientation_sign=orientation_sign,
            parent=self,
            vertex_map=np.array(verts, dtype=int),
            simplex_maps=smaps,
            face_labels=labels,
        )

    def _closure_subsimplices(self, facet_indices, k):
        """Indices of k-simplices contained in the closure of given facets."""
        cx = self.complex
        out = set()
        for f in facet_indices:
            tup = tuple(cx.simplices[cx.dim - 1][f])
            for sub in itertools.combinations(tup, k + 1):
                out.add(cx.index[k][sub])
        return out

    def boundary_simplex_mask(self, k: int) -> np.ndarray:
        """Boolean mask of k-simplices contained in the boundary."""
        cx = self.complex
        mask = np.zeros(cx.n_simplices(k), dtype=bool)
        if k < cx.dim:
            mask[list(self._closure_subsimplices(cx.boundary_facets(), k))] = True
        return mask

    def interior_simplex_mask(self, k: int) -> np.ndarray:
        return ~self.boundary_simplex_mask(k)


class HypersurfaceMesh(_MetricMesh):
    """A closed or bounded (n-1)-complex carrying the induced metric.

    ``orientation_sign`` is a global flag; the reversed hypersurface shares
    all data and flips only this sign (integrals and the boundary two-form
    negate with it).
    """

    def __init__(self, complex_, edge_lengths=None, orientation_sign=1,
                 parent=None, vertex_map=None, simplex_maps=None,
                 face_labels=None):
        self.complex = complex_
        self.orientation_sign = int(orientation_sign)
        if self.orientation_sign not in (-1, 1):
            raise MeshError("orientation sign must be +1 or -1")
        self.parent = parent
        self.vertex_map = vertex_map
        self.simplex_maps = simplex_maps
        self.face_labels = dict(face_labels) if face_labels else None
        self._init_metric(edge_lengths)

    @property
    def dim(self) -> int:
        return self.complex.dim

    def is_closed(self) -> bool:
        return self.complex.boundary_facets().size == 0

    def reversed(self) -> "HypersurfaceMesh":
        out = HypersurfaceMesh.__new__(HypersurfaceMesh)
        out.__dict__ = dict(self.__dict__)
        out.orientation_sign = -self.orientation_sign
        return out

    def integral(self, values: np.ndarray) -> float:
        """Integral of a top-degree cochain over the oriented hypersurface."""
        ori = self.complex.orientation
        return self.orientation_sign * float(np.dot(ori, values))

    def root_region(self):
        """The region this hypersurface (or face of one) was extracted from."""
        node = self
        while isinstance(node, HypersurfaceMesh):
            node = node.parent
        return node

    def region_simplex_map(self, k: int) -> np.ndarray:
        """Indices of this mesh's k-simplices inside the root region."""
        if self.simplex_maps is None:
            raise MeshError("hypersurface has no parent region")
        idx = self.simplex_maps[k]
        node = self.parent
        while isinstance(node, HypersurfaceMesh):
            idx = node.simplex_maps[k][idx]
            node = node.parent
        return idx


class RegionMesh(_MetricMesh):
    """An n-dimensional simplicial region with labeled boundary faces.

    ``face_labels`` maps a label string to the set of boundary facet indices
    (indices into the (n-1)-simplex list) carrying that label.  Corner strata
    are the pairwise intersections of the closures of labeled faces.
    """

    def __init__(self, complex_, face_labels=None, edge_lengths=None, name=""):
        self.complex = complex_
        self.name = name
        self._init_metric(edge_lengths)
        self.face_labels = self._normalize_labels(face_labels)
        self.strata = self._corner_strata()
        self._boundary = None
        self.glue_info = None

    # -- labels and strata -----------------------------------------------------

    def _normalize_labels(self, face_labels):
        cx = self.complex
        bfacets = set(int(f) for f in cx.boundary_facets())
        if face_labels is None:
            if bfacets:
                return {"boundary": frozenset(bfacets)}
            return {}
        out = {}
        seen = {}
        for label, facets in face_labels.items():
            idx = frozenset(int(f) for f in facets)
            for f in idx:
                if f not in bfacets:
                    raise MeshError(
                        f"label {label!r} marks a non-boundary facet"
                    )
                if f in seen:
                    raise MeshError(
                        f"facet {f} labeled both {seen[f]!r} and {label!r}"
                    )
                seen[f] = label
            out[str(label)] = idx
        unlabeled = bfacets - set(seen)
        if unlabeled:
            raise MeshError(f"unlabeled boundary facets: {sorted(unlabeled)}")
        return out

    def _corner_strata(self):
        cx = self.complex
        if cx.dim < 2 or not self.face_labels:
            return {}
        strata = {}
        labels = sorted(self.face_labels)
        k = cx.dim - 2
        closures = {
            lab: self._closure_subsimplices(self.face_labels[lab], k)
            for lab in labels
        }
        for a, b in itertools.combinations(labels, 2):
            common = closures[a] & closures[b]
            if common:
                strata[(a, b)] = frozenset(common)
        return strata

    # -- boundary --------------------------------------------------------------

    @property
    def boundary(self):
        """The full boundary hypersurface with induced orientation, or None."""
        if self._boundary is None:
            cx = self.complex
            facets = cx.boundary_facets()
            if facets.size == 0:
                return None
            cells = []
            for f in facets:
                tup = tuple(int(v) for v in cx.simplices[cx.dim - 1][f])
                # A 0-dimensional boundary keeps its vertices as they are.
                if cx.induced_facet_sign(f) < 0 and cx.dim > 1:
                    tup = (tup[1], tup[0]) + tup[2:]
                cells.append(tup)
            self._boundary = self._submesh(cells, face_labels=self.face_labels)
        return self._boundary

    # -- export ----------------------------------------------------------------

    def save_off(self, path):
        save_off(self, path)


def boundary_complex(mesh: RegionMesh) -> HypersurfaceMesh:
    """The boundary (n-1)-complex with induced orientation and metric."""
    bd = mesh.boundary
    if bd is None:
        raise MeshError("region has empty boundary")
    return bd


def extract_face(sigma: HypersurfaceMesh, label: str) -> HypersurfaceMesh:
    """Sub-hypersurface of the facets carrying one label."""
    if sigma.face_labels is None:
        raise MeshError("hypersurface has no face labels")
    if label not in sigma.face_labels:
        raise MeshError(f"unknown face label {label!r}")
    oriented = sigma.complex.oriented_cells()
    cells = [oriented[f] for f in sorted(sigma.face_labels[label])]
    return sigma._submesh(cells, orientation_sign=sigma.orientation_sign)


# -- gluing ---------------------------------------------------------------------


class GlueInfo:
    """Maps from a parent region into a glued quotient region."""

    def __init__(self, vertex_map, simplex_maps, simplex_signs):
        self.vertex_map = vertex_map          # parent vertex -> glued vertex
        self.simplex_maps = simplex_maps      # per k: parent index -> glued index
        self.simplex_signs = simplex_signs    # per k: resorting parity

    def pull_back(self, k, values_on_glued):
        """Cochain pullback: values on the glued complex to the parent."""
        return self.simplex_signs[k] * values_on_glued[self.simplex_maps[k]]


def _facets_of_label(mesh: RegionMesh, label: str):
    if label not in mesh.face_labels:
        raise MeshError(f"unknown face label {label!r}")
    return sorted(mesh.face_labels[label])


def glue(mesh: RegionMesh, label_a: str, label_b: str, matching: dict,
         length_tolerance=tolerances.GLUE_LENGTH_REL) -> RegionMesh:
    """Glue a region along two disjoint, isometric labeled faces.

    ``matching`` is a vertex bijection from the vertices of face ``label_a``
    onto those of face ``label_b``; it must identify the two faces
    simplex-by-simplex, reversing the induced boundary orientation, and
    matched edges must have equal length to ``length_tolerance``.
    """
    if label_a == label_b:
        raise MeshError("cannot glue a face to itself")
    cx = mesh.complex
    n = cx.dim
    facets_a = _facets_of_label(mesh, label_a)
    facets_b = _facets_of_label(mesh, label_b)
    if len(facets_a) != len(facets_b):
        raise MeshError("faces are not combinatorially isomorphic (facet counts)")

    verts_a = {int(v) for f in facets_a for v in cx.simplices[n - 1][f]}
    verts_b = {int(v) for f in facets_b for v in cx.simplices[n - 1][f]}
    if verts_a & verts_b:
        raise MeshError("faces share vertices; gluing along intersecting faces "
                        "is not supported")
    matching = {int(a): int(b) for a, b in matching.items()}
    if set(matching) != verts_a or set(matching.values()) != verts_b:
        raise MeshError("matching is not a bijection between the face vertex sets")

    # The matching must map facets to facets and reverse induced orientation.
    facet_set_b = {tuple(cx.simplices[n - 1][f]): f for f in facets_b}
    for f in facets_a:
        tup = tuple(cx.simplices[n - 1][f])
        image = tuple(sorted(matching[v] for v in tup))
        if image not in facet_set_b:
            raise MeshError("matching does not map facets onto facets")
        fb = facet_set_b[image]
        sign_a = cx.induced_facet_sign(f)
        sign_b = cx.induced_facet_sign(fb)
        mapped = [matching[v] for v in tup]
        if sign_a * _sort_parity(mapped) * sign_b != -1:
            raise MeshError("matching does not reverse orientation")

    # Matched edges must be isometric.
    for f in facets_a:
        tup = tuple(cx.simplices[n - 1][f])
        for e in itertools.combinations(tup, 2):
            la = mesh.edge_lengths[cx.index[1][e]]
            lb = mesh.edge_lengths[
                cx.index[1][tuple(sorted(matching[v] for v in e))]
            ]
            if abs(la - lb) > length_tolerance * max(la, lb):
                raise MeshError("matched edges differ in length; gluing must be "
                                "an isometry")

    # Quotient vertex set: b-vertices collapse onto their a-partners.
    collapse = {b: a for a, b in matching.items()}
    new_id = {}
    next_id = 0
    for v in range(cx.n_vertices):
        if v in collapse:
            continue
        new_id[v] = next_id
        next_id += 1
    for b, a in collapse.items():
        new_id[b] = new_id[a]

    cells = [tuple(new_id[v] for v in c) for c in cx.oriented_cells()]
    coords = None
    if cx.coordinates is not None:
        coords = np.zeros((next_id, cx.coordinates.shape[1]))
        for v in range(cx.n_vertices):
            if v not in collapse:
                coords[new_id[v]] = cx.coordinates[v]
    glued_cx = SimplicialComplex(next_id, cells, coordinates=coords)

    smaps, ssigns = [], []
    face_a_closure = {k: mesh._closure_subsimplices(facets_a, k) for k in range(n)}
    for k in range(n + 1):
        idx = np.zeros(cx.n_simplices(k), dtype=int)
        sgn = np.zeros(cx.n_simplices(k), dtype=np.int64)
        for i, s in enumerate(map(tuple, cx.simplices[k])):
            image = [new_id[v] for v in s]
            if len(set(image)) != len(image):
                raise MeshError("gluing collapses a simplex")
            idx[i] = glued_cx.index[k][tuple(sorted(image))]
            sgn[i] = _sort_parity(image)
        smaps.append(idx)
        ssigns.append(sgn)
        # Only the matched face pairs may merge; any further collision means
        # the quotient is not a simplicial complex (mesh too coarse).
        expected = cx.n_simplices(k) - (len(face_a_closure[k]) if k < n else 0)
        if glued_cx.n_simplices(k) != expected:
            raise MeshError(
                f"gluing identifies {k}-simplices beyond the matched faces; "
                "refine the mesh"
            )

    lengths = np.zeros(glued_cx.n_simplices(1))
    for i in range(cx.n_simplices(1)):
        lengths[smaps[1][i]] = mesh.edge_lengths[i]

    glued_labels = {}
    for lab, facets in mesh.face_labels.items():
        if lab in (label_a, label_b):
            continue
        glued_labels[lab] = frozenset(int(smaps[n - 1][f]) for f in facets)

    out = RegionMesh(
        glued_cx,
        face_labels=glued_labels or None,
        edge_lengths=lengths,
        name=f"{mesh.name}/glued[{label_a}~{label_b}]" if mesh.name else "glued",
    )
    out.glue_info = GlueInfo(
        vertex_map=np.array([new_id[v] for v in range(cx.n_vertices)], dtype=int),
        simplex_maps=smaps,
        simplex_signs=ssigns,
    )
    return out


def disjoint_union(a: RegionMesh, b: RegionMesh, names=("m0", "m1")) -> RegionMesh:
    """Disjoint union of two regions of equal dimension."""
    if a.complex.dim != b.complex.dim:
        raise MeshError("regions of different dimension")
    na = a.complex.n_vertices
    cells = a.complex.oriented_cells() + [
        tuple(v + na for v in c) for c in b.complex.oriented_cells()
    ]
    coords = None
    if a.complex.coordinates is not None and b.complex.coordinates is not None:
        if a.complex.coordinates.shape[1] == b.complex.coordinates.shape[1]:
            coords = np.vstack([a.complex.coordinates, b.complex.coordinates])
    cx = SimplicialComplex(na + b.complex.n_vertices, cells, coordinates=coords)

    # Every simplex of ``b`` sorts after every simplex of ``a``, so each degree
    # lists ``a``'s simplices, then ``b``'s, in their own order.
    lengths = np.concatenate([a.edge_lengths, b.edge_lengths])
    offset = a.complex.n_simplices(cx.dim - 1)
    labels = {
        f"{prefix}.{lab}": frozenset(int(f) + shift for f in facets)
        for prefix, shift, mesh in ((names[0], 0, a), (names[1], offset, b))
        for lab, facets in mesh.face_labels.items()
    }
    return RegionMesh(cx, face_labels=labels or None, edge_lengths=lengths,
                      name=f"{names[0]}+{names[1]}")


def region_from_hypersurface(sigma: HypersurfaceMesh, name="") -> RegionMesh:
    """Treat a closed hypersurface as a region in its own dimension."""
    if not sigma.is_closed():
        raise MeshError("only a closed hypersurface can serve as a region")
    return RegionMesh(sigma.complex, edge_lengths=sigma.edge_lengths, name=name)


# -- OFF input / output -----------------------------------------------------------


def load_off(path, labels) -> RegionMesh:
    """Load a triangle mesh from an OFF file with a face-label sidecar.

    The sidecar is a JSON document mapping boundary facet vertex tuples
    (as comma-separated index strings, e.g. ``"3,7"``) to label strings.
    """
    path = Path(path)
    tokens: list[str] = []
    with path.open() as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4
        coords = []
        for _ in range(nv):
            coords.append([float(t) for t in tokens[pos : pos + 3]])
            pos += 3
        cells = []
        for _ in range(nf):
            cnt = int(tokens[pos])
            cells.append(tuple(int(t) for t in tokens[pos + 1 : pos + 1 + cnt]))
            pos += 1 + cnt
    except (IndexError, ValueError) as exc:
        raise MeshError(f"{path}: malformed OFF data: {exc}") from None
    if any(len(c) != 3 for c in cells):
        raise MeshError(f"{path}: only triangle cells are supported")
    coords = np.asarray(coords)
    if np.allclose(coords[:, 2], 0.0):
        coords = coords[:, :2]
        # Planar triangles are reoriented counterclockwise.
        fixed = []
        for c in cells:
            p = coords[list(c)]
            area2 = (p[1][0] - p[0][0]) * (p[2][1] - p[0][1]) - (
                p[2][0] - p[0][0]
            ) * (p[1][1] - p[0][1])
            fixed.append(c if area2 > 0 else (c[1], c[0], c[2]))
        cells = fixed
    cx = SimplicialComplex(nv, cells, coordinates=coords)

    if isinstance(labels, (str, Path)):
        with open(labels) as fh:
            labels = json.load(fh)
    face_labels = None
    if labels:
        face_labels = {}
        for key, lab in labels.items():
            tup = tuple(sorted(int(t) for t in str(key).split(",")))
            idx = cx.index[cx.dim - 1].get(tup)
            if idx is None:
                raise MeshError(f"label sidecar names unknown facet {key!r}")
            face_labels.setdefault(str(lab), set()).add(idx)
    return RegionMesh(cx, face_labels=face_labels, name=path.stem)


def save_off(mesh: RegionMesh, path):
    """Write the region to OFF (representative coordinates, triangles only)."""
    cx = mesh.complex
    if cx.dim != 2:
        raise MeshError("OFF export supports 2-dimensional regions only")
    if cx.coordinates is None:
        raise MeshError("region has no representative coordinates to export")
    coords = cx.coordinates
    if coords.shape[1] == 2:
        coords = np.hstack([coords, np.zeros((coords.shape[0], 1))])
    lines = ["OFF", f"{cx.n_vertices} {cx.n_simplices(2)} 0"]
    for p in coords:
        lines.append(" ".join(f"{x:.17g}" for x in p))
    for cell in cx.oriented_cells():
        lines.append("3 " + " ".join(str(v) for v in cell))
    Path(path).write_text("\n".join(lines) + "\n")
