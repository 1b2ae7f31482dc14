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

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from . import tolerances
from .csr import CSR

#: Input validation, not a gated tolerance (builders never see a run's
#: table): a cell's edge-length Gram may have eigenvalues down to minus this
#: times its largest (at least 1) and still count as a flat simplex.
FLAT_GRAM_FLOOR = 1e-12


class MeshError(ValueError):
    """Invalid complex, labeling, or gluing data."""


def _parity(rows: np.ndarray) -> np.ndarray:
    """Sign of the permutation that sorts each row (rows of distinct entries)."""
    i, j = np.triu_indices(rows.shape[1], 1)
    return 1 - 2 * ((rows[:, i] > rows[:, j]).sum(axis=1) % 2)


def _unique_rows(rows: np.ndarray):
    """The distinct rows in lexicographic order, each row's position among
    them (``np.unique(rows, axis=0, return_inverse=True)``) and the stable
    ``lexsort`` of the integer columns that finds them."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ranked[new], index, order


def _gram_volume(gram: np.ndarray) -> np.ndarray:
    """Volumes sqrt(det G)/m! of the simplices with Grams stacked as an
    (m, m, ...) array.  det G is the product of the pivots of an elimination
    in whole-array steps, as accurate as LU for semidefinite G (a cofactor
    expansion loses digits on thin simplices); a pivot <= 0 makes it 0."""
    size = len(gram)
    det = np.ones(gram.shape[2:])
    for m in range(size, 0, -1):
        pivot = np.maximum(gram[0, 0], 0.0)
        det *= pivot
        if m > 1:
            scale = np.where(pivot > 0, pivot, 1.0)
            gram = gram[1:, 1:] - gram[1:, :1] * (gram[:1, 1:] / scale)
    return np.sqrt(det) / math.factorial(size)


@functools.cache
def _dual_flags(n: int) -> tuple:
    """Barycentric dual pieces of an n-simplex, per sub-simplex degree k, as
    read-only linear maps from a cell's Gram to the Grams of its pieces;
    built once per dimension.

    Local k-face ``s`` (the k+1 vertex choices in ``itertools.combinations``
    order) has one piece per ordering ``p`` of the other vertices: the
    simplex on the barycenters of the growing flag from the face up to the
    cell.  Row j of ``delta[s, p]`` is the weight difference between the
    flag's (j+1)-th barycenter and the face's, in coordinates 1..n, so over
    the edge vectors from local vertex 0 the piece of a cell with Gram ``G``
    has Gram ``delta G deltaᵀ``: ``np.tensordot(maps[k], G, 2)``, a Gram per
    ``[s, p]`` and per cell stacked along ``G``'s trailing axis.
    """
    def barycenter(verts):
        w = np.zeros(n + 1)
        w[list(verts)] = 1.0 / len(verts)
        return w[1:]

    maps = []
    for k in range(n + 1):
        subs = list(itertools.combinations(range(n + 1), k + 1))
        delta = np.zeros((len(subs), math.factorial(n - k), n - k, n))
        for s, sub in enumerate(subs):
            rest = [v for v in range(n + 1) if v not in sub]
            for p, order in enumerate(itertools.permutations(rest)):
                for j in range(n - k):
                    delta[s, p, j] = barycenter(sub + order[: j + 1]) - barycenter(sub)
        piece = np.einsum("spai,spbj->abspij", delta, delta, order="C")
        piece.flags.writeable = False
        maps.append(piece)
    return tuple(maps)


def _components(n: int, pairs: np.ndarray):
    """Component label per node of the graph on ``n`` nodes with the edges
    ``pairs`` (an (m, 2) array), numbered by each component's smallest node,
    and a spanning forest as an edge mask: each root joined to a smaller one
    hooks onto the smallest through one edge, a forest edge, then every node
    jumps to its root, until no edge joins two roots.  A loop never hooks."""
    root = np.arange(n)
    forest = np.zeros(len(pairs), dtype=bool)
    while True:
        a, b = root[pairs[:, 0]], root[pairs[:, 1]]
        live = np.flatnonzero(a != b)
        if not live.size:
            return np.unique(root, return_inverse=True)[1], forest
        lo, hi = np.minimum(a, b)[live], np.maximum(a, b)[live]
        order = np.lexsort((lo, hi))
        hook = order[np.r_[True, np.diff(hi[order]) != 0]]
        forest[live[hook]] = True
        root[hi[hook]] = lo[hook]
        while not np.array_equal(root[root], root):
            root = root[root]


class SimplicialComplex:
    """Oriented simplicial complex of dimension ``dim``.

    Its topology is the sorted simplex arrays, the integer boundary
    matrices and the face map :meth:`faces` that builds them: cofaces and
    the induced boundary orientation are read off the matrices, the faces
    of simplices and their closures off the face map, and every other
    lookup from vertex rows to simplex indices goes through
    :meth:`simplex_indices`.

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
        if len(cells) == 0:
            raise MeshError("complex needs at least one top cell")
        try:
            cells = np.array(cells, dtype=np.int64)
        except ValueError:
            raise MeshError("cells of mixed dimension") from None
        if cells.ndim != 2:
            raise MeshError("cells of mixed dimension")
        self.dim = cells.shape[1] - 1
        self.n_vertices = int(n_vertices)
        unknown = ((cells < 0) | (cells >= self.n_vertices)).any(axis=1)
        if unknown.any():
            raise MeshError(f"cell {tuple(cells[unknown.argmax()].tolist())} "
                            "references unknown vertex")
        if coordinates is not None:
            coordinates = np.asarray(coordinates, dtype=float)
            if coordinates.shape[0] != self.n_vertices:
                raise MeshError("coordinate count does not match vertex count")
        self.coordinates = coordinates

        ranked = np.sort(cells, axis=1)
        degenerate = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        if degenerate.any():
            cell = tuple(cells[degenerate.argmax()].tolist())
            raise MeshError(f"degenerate cell {cell}")
        top, where, _ = _unique_rows(ranked)
        if len(top) != len(cells):
            raise MeshError("repeated top cell")
        # Top cells are stored sorted; each keeps the parity of its input order.
        self.orientation = np.empty(len(cells), dtype=np.int64)
        self.orientation[where] = _parity(cells)

        # Each degree is the distinct faces of the degree above, in
        # lexicographic order; each face's position is its row in d_k.  Of a
        # sorted row, the later the vertex dropped, the smaller the face: in
        # reverse the faces come in ``faces(k, k-1)`` order.
        self.simplices = [top]
        self.boundary_matrices = []
        self._faces = {}
        for k in range(self.dim, 0, -1):
            above = self.simplices[0]
            drop = np.nonzero(~np.eye(k + 1, dtype=bool))[1].reshape(k + 1, k)
            faces, rows, order = _unique_rows(above[:, drop].reshape(-1, k))
            signs = np.tile(1 - 2 * (np.arange(k + 1) % 2), len(above))
            self._faces[k, k - 1] = rows.reshape(-1, k + 1)[:, ::-1]
            self.simplices.insert(0, faces)
            self.boundary_matrices.insert(0, CSR.from_rows(  # the sort lists cofaces ascending
                signs[order], order // (k + 1), None, (len(faces), len(above)), rows[order]))
        self.boundary_matrices.insert(0, None)
        # Exact ranks of the boundary matrices, filled in by the homology
        # oracle: key (k, relative), relative meaning restricted to interior
        # simplices.
        self.rank_cache: dict[tuple[int, bool], int] = {}
        self._check_dd_zero()
        # Per (dim-1)-simplex, the sum of its cofaces' orientations times
        # their signs in d_dim: the induced boundary orientation on a boundary
        # facet, 0 on an interior facet whose two cells agree.
        self.induced_signs = (self.boundary_matrices[self.dim] @ self.orientation
                              if self.dim else np.zeros(0, dtype=np.int64))
        self._check_manifold_and_orientation()
        # The vertex graph: components and a spanning forest of the edges.
        self._components, self.forest_edges = _components(
            self.n_vertices, self.simplices[1] if self.dim else np.zeros((0, 2), dtype=np.int64))

    # -- construction helpers -------------------------------------------------

    def _check_dd_zero(self):
        for k in range(2, self.dim + 1):
            prod = self.boundary_matrices[k - 1] @ self.boundary_matrices[k]
            if np.any(prod.data != 0):
                raise MeshError("boundary of boundary is nonzero")

    def _check_manifold_and_orientation(self):
        if self.dim == 0:
            return
        cofaces = np.diff(self.boundary_matrices[self.dim].indptr)
        facets = self.simplices[self.dim - 1]
        crowded = cofaces > 2
        if crowded.any():
            f = crowded.argmax()
            raise MeshError(f"facet {tuple(facets[f].tolist())} shared by "
                            f"{cofaces[f]} top cells (non-manifold)")
        clash = (cofaces == 2) & (self.induced_signs != 0)
        if clash.any():
            raise MeshError("inconsistently oriented cells across facet "
                            f"{tuple(facets[clash.argmax()].tolist())}")

    # -- queries ---------------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    def faces(self, k: int, m: int) -> np.ndarray:
        """Index of the m-face of every k-simplex on each choice of m+1 of
        its k+1 sorted vertices: one row per k-simplex, one column per
        choice in ``itertools.combinations`` order.  Gathers through the
        (k-1)-faces kept by the construction; cached and read-only."""
        if (k, m) not in self._faces:
            if m == k:
                out = np.arange(self.n_simplices(k))[:, None]
            else:
                # A choice missing local vertex j lies in the facet lacking
                # j, at column k - j, where its vertices above j shift down.
                local = {c: i for i, c in enumerate(
                    itertools.combinations(range(k), m + 1))}
                facet, within = [], []
                for choice in itertools.combinations(range(k + 1), m + 1):
                    j = max(set(range(k + 1)) - set(choice))
                    facet.append(k - j)
                    within.append(local[tuple(v - (v > j) for v in choice)])
                out = self.faces(k - 1, m)[self.faces(k, k - 1)[:, facet], within]
            self._faces[k, m] = out
        self._faces[k, m].flags.writeable = False
        return self._faces[k, m]

    def simplex_indices(self, k: int, rows) -> np.ndarray:
        """Index of the k-simplex on each row's vertices (in any order), or -1
        where the row spans no k-simplex of the complex."""
        table = self.simplices[k]
        rows = np.sort(np.asarray(rows, dtype=np.int64).reshape(-1, k + 1), axis=1)
        index = _unique_rows(np.vstack([table, rows]))[1]
        owner = np.full(index.max() + 1, -1)
        owner[index[:len(table)]] = np.arange(len(table))
        return owner[index[len(table):]]

    def simplex_index(self, k: int, tup) -> int:
        tup = tuple(int(v) for v in tup)
        i = self.simplex_indices(k, [tup])[0] if len(tup) == k + 1 else -1
        if i < 0:
            raise MeshError(f"no {k}-simplex {tup} in complex")
        return int(i)

    def boundary_facets(self) -> np.ndarray:
        """Indices of (dim-1)-simplices incident to exactly one top cell."""
        return np.flatnonzero(self.induced_signs)

    def facet_closure(self, facets, k: int) -> np.ndarray:
        """Mask of the k-simplices that are faces of the given facets
        ((dim-1)-simplex indices), by one gather of their k-faces."""
        mask = np.zeros(self.n_simplices(k), dtype=bool)
        mask[self.faces(self.dim - 1, k)[np.fromiter(facets, dtype=np.int64)]] = True
        return mask

    def vertex_components(self) -> np.ndarray:
        """Connected component label per vertex (via the 1-skeleton)."""
        return self._components

    def n_components(self) -> int:
        return int(self._components.max()) + 1

    @functools.cached_property
    def dual_components(self):
        """The dual graph, built on first use: its nodes are the top cells,
        and each facet with two cofaces joins them (the rows of d_dim with
        two entries).  The component label per top cell, and the facets of
        a spanning forest as a mask over the (dim-1)-simplices."""
        top = self.boundary_matrices[self.dim]
        shared = np.flatnonzero(np.diff(top.indptr) == 2)
        pairs = top.indices[top.indptr[shared][:, None] + np.arange(2)]
        labels, forest = _components(self.n_simplices(self.dim), pairs)
        mask = np.zeros(self.n_simplices(self.dim - 1), dtype=bool)
        mask[shared[forest]] = True
        return labels, mask

    _rank_source = None  # (parent complex, vertex map), set by ``_submesh``

    @functools.cached_property
    def vertex_rank(self):
        """Each vertex's place in a breadth-first order of the 1-skeleton
        (Cuthill-McKee), or None without coordinates.  It starts from every
        vertex at its component's minimum of the longest coordinate axis,
        ties included, and reaches each vertex's neighbours in index order,
        so each level keeps the order of the one before.  A hypersurface's
        complex keeps its region's order (``_rank_source``)."""
        if self.coordinates is None:
            return None
        if self._rank_source is not None:
            parent, verts = self._rank_source
            return np.argsort(np.argsort(parent.vertex_rank[verts]))
        x = self.coordinates[:, int(np.argmax(np.ptp(self.coordinates, axis=0)))]
        low = np.full(self.n_components(), np.inf)
        np.minimum.at(low, self._components, x)
        near = [[] for _ in range(self.n_vertices)]
        for a, b in (self.simplices[1].tolist() if self.dim else ()):
            near[a].append(b)
            near[b].append(a)
        start = x == low[self._components]
        order, reached = np.flatnonzero(start).tolist(), start.tolist()
        for v in order:  # the queue: the loop reaches what it appends
            for u in near[v]:
                if not reached[u]:
                    reached[u] = True
                    order.append(u)
        return np.argsort(order)  # the inverse of the order

    def oriented_cells(self) -> np.ndarray:
        """Top cells as vertex rows realizing their orientation sign."""
        cells = self.simplices[self.dim].copy()
        if self.dim:
            flip = self.orientation < 0
            cells[flip, :2] = cells[flip, 1::-1]
        return cells


class _MetricMesh:
    """Shared metric machinery for regions and hypersurfaces."""

    complex: SimplicialComplex
    edge_lengths: np.ndarray

    def _init_metric(self, edge_lengths=None):
        cx = self.complex
        # kept per degree: boundary masks, dec's and dynamics' adjoints, hodge's blocks
        self._boundary_masks, self._adjoints, self._hodge_blocks = {}, {}, {}
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

    def _gram(self, k: int) -> np.ndarray:
        """Gram matrices G of the k-simplices' edge vectors from their first
        vertex, G_ij = (l_0i² + l_0j² - l_ij²)/2 by the law of cosines,
        stacked as ``gram[i, j]``, one entry per simplex."""
        sq = np.zeros((k + 1, k + 1, self.complex.n_simplices(k)))
        if k:
            i, j = np.triu_indices(k + 1, 1)
            sq[i, j] = sq[j, i] = self.edge_lengths[self.complex.faces(k, 1).T] ** 2
        return 0.5 * (sq[:1, 1:] + sq[1:, :1] - sq[1:, 1:])

    def _compute_volumes(self):
        cx = self.complex
        n = cx.dim
        gram = self._gram(n)
        # Positive semidefinite for a valid flat simplex; tolerate roundoff.
        w = np.linalg.eigvalsh(gram.transpose(2, 0, 1))
        floor = -FLAT_GRAM_FLOOR * np.maximum(1.0, w.max(axis=1, initial=0.0))
        bad = np.any(w < floor[:, None], axis=1)
        if bad.any():
            cell = tuple(cx.simplices[n][bad.argmax()].tolist())
            raise MeshError(f"edge lengths of {cell} do not embed in flat space")
        vols = {0: np.ones(cx.n_simplices(0))}
        if n >= 1:
            vols[1] = self.edge_lengths.copy()
        for k in range(2, n + 1):
            vols[k] = _gram_volume(gram if k == n else self._gram(k))
        duals = {}
        for k, piece in enumerate(_dual_flags(n)):
            size = _gram_volume(np.tensordot(piece, gram, 2)).sum(axis=1)
            duals[k] = np.bincount(cx.faces(n, k).T.reshape(-1), weights=size.reshape(-1),
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

    def _submesh(self, smaps, cells, orientation_sign=1, face_labels=None):
        """The hypersurface spanned by ``cells`` (oriented top cells, as rows
        of this mesh's vertices) with the inherited metric.  ``smaps`` lists
        per degree the sorted indices of the simplices the cells span: the
        vertex map is increasing, so sorted rows map to sorted rows and
        these are the new complex's simplex maps.  ``face_labels`` name this
        mesh's simplices of the cells' dimension."""
        cx = self.complex
        verts = cx.simplices[0][smaps[0], 0]
        coords = cx.coordinates[verts] if cx.coordinates is not None else None
        sub = SimplicialComplex(len(verts), np.searchsorted(verts, cells),
                                coordinates=coords)
        sub._rank_source = cx, verts
        labels = None
        if face_labels:
            back = np.full(cx.n_simplices(sub.dim), -1)
            back[smaps[sub.dim]] = np.arange(sub.n_simplices(sub.dim))
            labels = {lab: frozenset(back[sorted(facets)].tolist())
                      for lab, facets in face_labels.items()}
        return HypersurfaceMesh(
            sub,
            edge_lengths=self.edge_lengths[smaps[1]] if sub.dim >= 1 else None,
            orientation_sign=orientation_sign,
            parent=self,
            vertex_map=verts,
            simplex_maps=smaps,
            face_labels=labels,
        )

    def boundary_simplex_mask(self, k: int) -> np.ndarray:
        """Boolean mask of k-simplices contained in the boundary, computed
        once per degree and read-only."""
        if k not in self._boundary_masks:
            cx = self.complex
            mask = (np.zeros(cx.n_simplices(k), dtype=bool) if k >= cx.dim
                    else cx.facet_closure(cx.boundary_facets(), k))
            mask.flags.writeable = False
            self._boundary_masks[k] = mask
        return self._boundary_masks[k]

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
        # dynamics.solution_space keeps one space per rank tolerance here
        self._solution_spaces = {}

    # -- labels and strata -----------------------------------------------------

    def _normalize_labels(self, face_labels):
        signs = self.complex.induced_signs
        if face_labels is None:
            bfacets = np.flatnonzero(signs)
            return {"boundary": frozenset(bfacets.tolist())} if bfacets.size else {}
        out = {}
        labels = list(face_labels)
        owner = np.full(len(signs), -1)
        for i, label in enumerate(labels):
            idx = np.fromiter(face_labels[label], dtype=np.int64)
            if not (((idx >= 0) & (idx < len(signs))).all() and signs[idx].all()):
                raise MeshError(f"label {label!r} marks a non-boundary facet")
            taken = idx[owner[idx] >= 0]
            if taken.size:
                raise MeshError(f"facet {taken[0]} labeled both "
                                f"{labels[owner[taken[0]]]!r} and {label!r}")
            owner[idx] = i
            out[str(label)] = frozenset(idx.tolist())
        unlabeled = np.flatnonzero((signs != 0) & (owner < 0))
        if unlabeled.size:
            raise MeshError(f"unlabeled boundary facets: {unlabeled.tolist()}")
        return out

    def _corner_strata(self):
        cx = self.complex
        if cx.dim < 2 or not self.face_labels:
            return {}
        strata = {}
        labels = sorted(self.face_labels)
        k = cx.dim - 2
        closures = {lab: cx.facet_closure(self.face_labels[lab], k)
                    for lab in labels}
        for a, b in itertools.combinations(labels, 2):
            common = np.flatnonzero(closures[a] & closures[b])
            if common.size:
                strata[(a, b)] = frozenset(common.tolist())
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
            cells = cx.simplices[cx.dim - 1][facets]
            # A 0-dimensional boundary keeps its vertices as they are.
            if cx.dim > 1:
                flip = cx.induced_signs[facets] < 0
                cells[flip, :2] = cells[flip, 1::-1]
            smaps = [np.flatnonzero(self.boundary_simplex_mask(k)) for k in range(cx.dim)]
            self._boundary = self._submesh(smaps, cells, face_labels=self.face_labels)
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
    cx = sigma.complex
    facets = sorted(sigma.face_labels[label])
    smaps = [np.unique(cx.faces(cx.dim, k)[facets]) for k in range(cx.dim + 1)]
    return sigma._submesh(smaps, cx.oriented_cells()[facets],
                          orientation_sign=sigma.orientation_sign)


# -- gluing ---------------------------------------------------------------------


class GlueInfo:
    """Maps from a parent region into a glued quotient region, and the seam:
    each matched edge pair once, ``edge_a`` ascending on face ``labels[0]``,
    its image ``edge_b`` with the resorting sign ``edge_sign``, and
    ``interior`` where the glued edge lies inside (the perimeter of a 3D
    face stays on the boundary)."""

    def __init__(self, parent, labels, simplex_maps, simplex_signs, edge_a, edge_b,
                 edge_sign, interior):
        self.parent, self.labels = parent, labels
        self.simplex_maps = simplex_maps      # per k: parent index -> glued index
        self.simplex_signs = simplex_signs    # per k: resorting parity
        self.edge_a, self.edge_b = edge_a, edge_b
        self.edge_sign, self.interior = edge_sign, interior

    @functools.cached_property
    def pullback(self):
        """Edge pullback ``P`` (parent rows) and ``P^T``, sparse, read-only."""
        edges = self.simplex_maps[1]
        p = CSR(self.simplex_signs[1].astype(float), np.arange(edges.size), edges,
                (edges.size, edges.max(initial=-1) + 1))
        return p, p.T


def glue(mesh: RegionMesh, label_a: str, label_b: str, matching: dict,
         length_tolerance=tolerances.GLUE_LENGTH_REL) -> RegionMesh:
    """Glue a region along two disjoint, isometric labeled faces.

    ``matching`` is a vertex bijection from the vertices of face ``label_a``
    onto those of face ``label_b``; it must identify the two faces
    simplex-by-simplex, reversing the induced boundary orientation, and
    matched edges must have equal length to ``length_tolerance``.
    ``glue_info`` (:class:`GlueInfo`) records the maps and the seam."""
    if label_a == label_b:
        raise MeshError("cannot glue a face to itself")
    cx = mesh.complex
    n = cx.dim
    for label in (label_a, label_b):
        if label not in mesh.face_labels:
            raise MeshError(f"unknown face label {label!r}")
    facets_a, facets_b = (sorted(mesh.face_labels[lab]) for lab in (label_a, label_b))
    if len(facets_a) != len(facets_b):
        raise MeshError("faces are not combinatorially isomorphic (facet counts)")

    rows_a = cx.simplices[n - 1][facets_a]
    verts_a = np.unique(rows_a)
    verts_b = np.unique(cx.simplices[n - 1][facets_b])
    if np.intersect1d(verts_a, verts_b).size:
        raise MeshError("faces share vertices; gluing along intersecting faces "
                        "is not supported")
    src = np.fromiter(matching.keys(), dtype=np.int64, count=len(matching))
    dst = np.fromiter(matching.values(), dtype=np.int64, count=len(matching))
    if not (np.array_equal(np.sort(src), verts_a)
            and np.array_equal(np.unique(dst), verts_b)):
        raise MeshError("matching is not a bijection between the face vertex sets")
    image = np.arange(cx.n_vertices)
    image[src] = dst

    # The matching must map facets to facets and reverse induced orientation.
    mapped = image[rows_a]
    facets_ab = cx.simplex_indices(n - 1, mapped)
    if not np.isin(facets_ab, facets_b).all():
        raise MeshError("matching does not map facets onto facets")
    signs = cx.induced_signs
    if np.any(signs[facets_a] * _parity(mapped) * signs[facets_ab] != -1):
        raise MeshError("matching does not reverse orientation")

    # Each matched edge pair once, in ascending a-edge order; they must be
    # isometric.
    edges = rows_a[:, np.transpose(np.triu_indices(n, 1))].reshape(-1, 2)
    edge_a, first = np.unique(cx.simplex_indices(1, edges), return_index=True)
    edge_images = image[edges[first]]
    edge_b = cx.simplex_indices(1, edge_images)
    la, lb = mesh.edge_lengths[edge_a], mesh.edge_lengths[edge_b]
    if np.any(np.abs(la - lb) > length_tolerance * np.maximum(la, lb)):
        raise MeshError("matched edges differ in length; gluing must be "
                        "an isometry")

    # Quotient vertex set: b-vertices collapse onto their a-partners.  A cell
    # holding a matched pair collapses, and the complex rejects it.
    keep = np.ones(cx.n_vertices, dtype=bool)
    keep[dst] = False
    new_id = np.cumsum(keep) - 1
    new_id[dst] = new_id[src]
    coords = cx.coordinates[keep] if cx.coordinates is not None else None
    glued_cx = SimplicialComplex(int(keep.sum()), new_id[cx.oriented_cells()],
                                 coordinates=coords)

    smaps, ssigns = [], []
    for k in range(n + 1):
        images = new_id[cx.simplices[k]]
        smaps.append(glued_cx.simplex_indices(k, images))
        ssigns.append(_parity(images))
        # Only the matched face pairs may merge; any further collision means
        # the quotient is not a simplicial complex (mesh too coarse).
        merged = int(cx.facet_closure(facets_a, k).sum()) if k < n else 0
        if glued_cx.n_simplices(k) != cx.n_simplices(k) - merged:
            raise MeshError(
                f"gluing identifies {k}-simplices beyond the matched faces; "
                "refine the mesh"
            )

    # A merged edge keeps the length of its later preimage (both agree).
    last = np.zeros(glued_cx.n_simplices(1), dtype=int)
    np.maximum.at(last, smaps[1], np.arange(cx.n_simplices(1)))
    glued_labels = {lab: frozenset(smaps[n - 1][sorted(facets)].tolist())
                    for lab, facets in mesh.face_labels.items()
                    if lab not in (label_a, label_b)}

    out = RegionMesh(
        glued_cx,
        face_labels=glued_labels or None,
        edge_lengths=mesh.edge_lengths[last],
        name=f"{mesh.name}/glued[{label_a}~{label_b}]" if mesh.name else "glued",
    )
    out.glue_info = GlueInfo(
        mesh, (label_a, label_b), smaps, ssigns, edge_a, edge_b,
        _parity(edge_images), out.interior_simplex_mask(1)[smaps[1][edge_a]])
    return out


def disjoint_union(a: RegionMesh, b: RegionMesh, names=("m0", "m1")) -> RegionMesh:
    """Disjoint union of two regions of equal dimension."""
    if a.complex.dim != b.complex.dim:
        raise MeshError("regions of different dimension")
    na = a.complex.n_vertices
    cells = np.vstack([a.complex.oriented_cells(), b.complex.oriented_cells() + na])
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
    coords, cells = np.asarray(coords), np.array(cells, dtype=np.int64)
    if np.allclose(coords[:, 2], 0.0):
        coords = coords[:, :2]
        # Planar triangles are reoriented counterclockwise.
        p = coords[cells]
        area2 = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                 - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        flip = ~(area2 > 0)
        cells[flip, :2] = cells[flip, 1::-1]
    cx = SimplicialComplex(nv, cells, coordinates=coords)

    if isinstance(labels, (str, Path)):
        with open(labels) as fh:
            labels = json.load(fh)
    face_labels = None
    if labels:
        face_labels = {}
        rows = [[int(t) for t in str(key).split(",")] for key in labels]
        fit = [len(r) == cx.dim for r in rows]
        idx = np.full(len(rows), -1)
        idx[fit] = cx.simplex_indices(cx.dim - 1, [r for r, ok in zip(rows, fit) if ok])
        for (key, lab), i in zip(labels.items(), idx.tolist()):
            if i < 0:
                raise MeshError(f"label sidecar names unknown facet {key!r}")
            face_labels.setdefault(str(lab), set()).add(i)
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
