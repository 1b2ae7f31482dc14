"""Sparse matrices in numpy arrays, as compressed rows (Saad, *Iterative
Methods for Sparse Linear Systems*, 2nd ed., SIAM 2003, §3.4), read-only,
with only what the library does with its operators."""

from __future__ import annotations

import functools

import numpy as np


def _locked(array):
    view = np.asarray(array).view()  # the caller's array stays writable
    view.flags.writeable = False
    return view


def _runs(count):
    """Each element's run and its place in it, for runs of lengths ``count``."""
    run = np.repeat(np.arange(count.size), count)
    return run, np.arange(run.size) - np.repeat(np.cumsum(count) - count, count)


class CSR:
    """An m x n matrix: row i holds ``data[indptr[i]:indptr[i+1]]`` in the
    same slice of ``indices``, ascending; ``row`` is each entry's row.  Built
    from triplets ``(data, row, col)``, duplicates summed in their given order,
    explicit zeros and integer data kept; ``.T``, ``abs`` and layout built once."""

    def __init__(self, data, row, col, shape):
        row, col = np.asarray(row, dtype=np.int64), np.asarray(col, dtype=np.int64)
        small = np.uint16 if max(shape) <= 2**16 else np.int64  # 16 bits sort by radix
        order = np.lexsort((col.astype(small), row.astype(small)))
        row, col, data = row[order], col[order], np.asarray(data)[order]
        new = np.ones(row.size, dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not new.all():  # index gathers: a boolean mask gathers slower here
            data = np.bincount(np.cumsum(new) - 1, data).astype(data.dtype)
            row, col = (x[np.flatnonzero(new)] for x in (row, col))
        vars(self).update(vars(CSR.from_rows(data, col, None, shape, row)))

    @classmethod
    def from_rows(cls, data, indices, indptr, shape, row=None):
        """Compressed rows as above, or (``indptr`` None) sorted distinct triplets."""
        out = cls.__new__(cls)
        out.shape = (int(shape[0]), int(shape[1]))
        if indptr is None:
            indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=shape[0]))])
            out.__dict__["row"] = _locked(row)
        out.data, out.indices, out.indptr = map(_locked, (data, indices, indptr))
        return out

    @functools.cached_property
    def row(self):
        return _locked(np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)))

    @functools.cached_property
    def T(self) -> CSR:
        order = np.argsort(self.indices, kind="stable")  # each column's rows in order
        return CSR.from_rows(self.data[order], self.row[order], None, self.shape[::-1],
                             self.indices[order])

    def __abs__(self) -> CSR:
        if "_abs" not in self.__dict__:
            self._abs = CSR.from_rows(np.abs(self.data), self.indices, self.indptr, self.shape)
        return self._abs

    def __getitem__(self, key) -> CSR:
        """Rows, then columns, each by a mask, a slice or ascending indices."""
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        r, c = (np.zeros(n, dtype=bool) for n in self.shape)
        r[rows] = c[cols] = True
        keep = np.flatnonzero(r[self.row] & c[self.indices])  # in order still
        return CSR.from_rows(self.data[keep], (np.cumsum(c) - 1)[self.indices[keep]], None,
                             (r.sum(), c.sum()), (np.cumsum(r) - 1)[self.row[keep]])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.indices] = self.data
        return out

    @functools.cached_property
    def _slots(self):
        """Columns and values of the rows padded to the longest row (at most twice
        the mean) slot by slot; longer rows' pieces follow, with their rows."""
        m, count = self.shape[0], np.diff(self.indptr)
        width = max(1, min(int(count.max(initial=0)), -(-2 * self.data.size // max(m, 1))))
        extra = np.maximum(-(-count // width) - 1, 0)
        row, slot = self.row, np.arange(self.data.size) - self.indptr[self.row]
        if extra.any():
            piece, slot = np.divmod(slot, width)
            row = np.where(piece, (m + np.cumsum(extra) - extra)[row] + piece - 1, row)
        columns = np.zeros((width, m + int(extra.sum())), dtype=np.intp)
        values = np.zeros(columns.shape, dtype=self.data.dtype)
        columns[slot, row], values[slot, row] = self.indices, self.data
        return columns, values, np.repeat(np.arange(m), extra)

    def __matmul__(self, other):
        """The product with a dense vector, dense columns or a matrix."""
        other = other if isinstance(other, CSR) else np.asarray(other)
        if other.shape[0] != self.shape[1]:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not multiply")
        if isinstance(other, CSR):
            run, place = _runs(np.diff(other.indptr)[self.indices])
            at = other.indptr[self.indices[run]] + place
            return CSR(self.data[run] * other.data[at], self.row[run], other.indices[at],
                       (self.shape[0], other.shape[1]))
        kind = np.result_type(self.data, other)
        if other.ndim == 1:
            return np.bincount(self.row, self.data * np.take(other, self.indices),
                               self.shape[0]).astype(kind)
        if not self.data.size:  # nothing to gather, perhaps from no columns
            return np.zeros(self.shape[:1] + other.shape[1:], kind)
        columns, values, owner = self._slots
        step = max(1, 2**20 // columns.size)  # gather 8 MB of floats at a time
        if other.shape[1] > step:
            return np.hstack([self @ other[:, i:i + step] for i in range(0, other.shape[1], step)])
        out = np.einsum("jm,jmk->mk", values, np.take(other, columns, axis=0))
        np.add.at(out, owner, out[self.shape[0]:])
        return out[:self.shape[0]]

