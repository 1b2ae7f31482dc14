"""Loop-and-dict construction of a simplicial complex, the reference for the
array construction in ``decgauge.mesh.SimplicialComplex``.

Faces are enumerated with ``itertools.combinations`` into one ``{tuple:
index}`` dict per degree, the boundary matrices are filled simplex by
simplex, cofaces are collected per facet and components found by a
breadth-first search over the 1-skeleton.
"""

import itertools

import numpy as np
from scipy import sparse


def sort_parity(cell) -> int:
    """Sign of the permutation that sorts ``cell`` (distinct entries)."""
    cell = list(cell)
    sign = 1
    for i in range(len(cell)):
        for j in range(i + 1, len(cell)):
            if cell[i] > cell[j]:
                sign = -sign
    return sign


class ReferenceComplex:
    def __init__(self, n_vertices, cells):
        cells = [tuple(int(v) for v in c) for c in cells]
        self.dim = len(cells[0]) - 1
        self.n_vertices = int(n_vertices)
        sorted_cells = [tuple(sorted(c)) for c in cells]
        parity = {s: sort_parity(c) for s, c in zip(sorted_cells, cells)}
        self.simplices, self.index = [], []
        for k in range(self.dim + 1):
            faces = set()
            for c in sorted_cells:
                faces.update(itertools.combinations(c, k + 1))
            ordered = sorted(faces)
            self.simplices.append(np.array(ordered, dtype=np.int64))
            self.index.append({s: i for i, s in enumerate(ordered)})
        self.orientation = np.array(
            [parity[tuple(s)] for s in self.simplices[self.dim].tolist()], dtype=np.int64)

        self.boundary_matrices = [None]
        for k in range(1, self.dim + 1):
            rows, cols, vals = [], [], []
            for j, s in enumerate(map(tuple, self.simplices[k].tolist())):
                for i in range(k + 1):
                    rows.append(self.index[k - 1][s[:i] + s[i + 1:]])
                    cols.append(j)
                    vals.append((-1) ** i)
            self.boundary_matrices.append(sparse.csr_matrix(
                (np.array(vals, dtype=np.int64), (rows, cols)),
                shape=(len(self.simplices[k - 1]), len(self.simplices[k]))))

        self.cofaces = []
        if self.dim:
            bnd = self.boundary_matrices[self.dim].tocsc()
            self.cofaces = [[] for _ in range(len(self.simplices[self.dim - 1]))]
            for j in range(bnd.shape[1]):
                start, end = bnd.indptr[j], bnd.indptr[j + 1]
                for r, v in zip(bnd.indices[start:end], bnd.data[start:end]):
                    self.cofaces[r].append((j, int(v)))

    def boundary_facets(self) -> np.ndarray:
        return np.array([f for f, hits in enumerate(self.cofaces) if len(hits) == 1],
                        dtype=int)

    def induced_facet_sign(self, facet: int) -> int:
        cell, sign = self.cofaces[facet][0]
        return int(self.orientation[cell] * sign)

    def vertex_components(self) -> np.ndarray:
        adj = [[] for _ in range(self.n_vertices)]
        if self.dim >= 1:
            for a, b in self.simplices[1].tolist():
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

    def closure(self, facets, k) -> np.ndarray:
        """Mask of the k-simplices contained in the closure of the facets."""
        mask = np.zeros(len(self.simplices[k]), dtype=bool)
        for f in facets:
            for sub in itertools.combinations(self.simplices[self.dim - 1][f].tolist(),
                                              k + 1):
                mask[self.index[k][sub]] = True
        return mask
