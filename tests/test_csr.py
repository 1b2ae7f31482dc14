"""``decgauge.csr.CSR`` against scipy.sparse: construction from triplets,
products, transposes, absolute values and selections, and the
read-only arrays of every operator that a complex or mesh keeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from decgauge import builders, dec, dynamics, hodge, mesh
from decgauge.csr import CSR


@st.composite
def triplets(draw, shape=None, integer=None):
    """A shape of 0-6 rows and columns and up to 30 triplets on it, values
    in -2..2 (explicit zeros and duplicates are common), integer or float."""
    m, n = shape or (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    count = draw(st.integers(0, 30)) if m and n else 0
    row = draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=count, max_size=count))
    col = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=count, max_size=count))
    data = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
    integer = draw(st.booleans()) if integer is None else integer
    data = np.array(data, dtype=np.int64 if integer else float)
    return data, np.array(row, dtype=np.int64), np.array(col, dtype=np.int64), (m, n)


def pair(case):
    """The triplets as a CSR and as a scipy CSR matrix."""
    data, row, col, shape = case
    return CSR(data, row, col, shape), sparse.csr_matrix((data, (row, col)), shape=shape)


def assert_same(ours, ref):
    ref = sparse.csr_matrix(ref)
    ref.sort_indices()
    assert ours.shape == ref.shape
    assert np.array_equal(ours.indptr, ref.indptr)
    assert np.array_equal(ours.indices, ref.indices)
    assert ours.data.dtype == ref.data.dtype
    assert np.array_equal(ours.data, ref.data)
    assert np.array_equal(ours.row, np.repeat(np.arange(ref.shape[0]), np.diff(ref.indptr)))
    assert np.array_equal(ours.toarray(), ref.toarray())


@settings(max_examples=200, deadline=None)
@given(triplets())
def test_triplets_sum_duplicates_as_scipy(case):
    ours, ref = pair(case)
    assert_same(ours, ref)  # explicit zeros stay, as in scipy


@settings(max_examples=200, deadline=None)
@given(triplets(), st.sampled_from([None, 0, 1, 3]))
def test_products_with_dense_match_scipy(case, columns):
    ours, ref = pair(case)
    rng = np.random.default_rng(len(case[0]))
    x = rng.standard_normal(ours.shape[1] if columns is None else (ours.shape[1], columns))
    y, expect = ours @ x, ref @ x
    assert y.shape == expect.shape
    assert np.allclose(y, expect, rtol=1e-14, atol=1e-14)


def test_many_columns_are_gathered_in_chunks():
    # 2 slots x 3 rows: at most 2**20 gathered entries, 174762 columns, at a time
    ours = CSR(np.arange(1.0, 6.0), [0, 0, 1, 2, 2], [0, 3, 1, 2, 3], (3, 4))
    assert ours._slots[0].size == 6
    x = np.random.default_rng(0).standard_normal((4, 2 * 174762 + 5))
    y = ours @ x
    assert np.allclose(y, ours.toarray() @ x, rtol=1e-14, atol=1e-14)
    assert np.array_equal(y[:, -7:], ours @ x[:, -7:])  # the last chunk as a whole


def test_integer_products_stay_integer():
    ours = CSR(np.array([1, -1, 1]), [0, 0, 1], [0, 1, 1], (2, 2))
    y = ours @ np.array([3, 5])
    assert y.dtype.kind == "i" and y.tolist() == [-2, 5]


def test_a_wide_row_is_summed_in_pieces():
    # one row of 40 entries among rows of one: padded to twice the mean
    # width, the long row adds its further pieces back
    rng = np.random.default_rng(0)
    row = np.r_[np.zeros(40, dtype=int), np.arange(1, 30)]
    col = np.r_[np.arange(40), np.arange(29)]
    data = rng.standard_normal(row.size)
    ours = CSR(data, row, col, (30, 40))
    columns, values, owner = ours._slots
    assert columns.shape[0] < 40 and owner.size and set(owner.tolist()) == {0}
    dense = ours.toarray()
    for x in (rng.standard_normal(40), rng.standard_normal((40, 5))):
        assert np.allclose(ours @ x, dense @ x, rtol=1e-14, atol=1e-14)


def test_products_check_shapes():
    ours = CSR([1.0], [0], [1], (2, 3))
    with pytest.raises(ValueError, match="do not multiply"):
        ours @ np.ones(2)
    with pytest.raises(ValueError, match="do not multiply"):
        ours @ ours


@settings(max_examples=200, deadline=None)
@given(triplets())
def test_transpose_and_abs_match_scipy(case):
    ours, ref = pair(case)
    assert_same(ours.T, ref.T)
    assert_same(ours.T.T, ref)
    assert ours.T is ours.T
    assert_same(abs(ours), abs(ref))
    assert abs(ours) is abs(ours)
    assert_same(CSR.from_rows(ours.data, ours.indices, ours.indptr, ours.shape), ref)


@settings(max_examples=200, deadline=None)
@given(triplets(), st.data())
def test_row_and_column_selection_match_scipy(case, data):
    ours, ref = pair(case)
    m, n = ours.shape
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    cols = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    assert_same(ours[rows], ref[rows])
    assert_same(ours[:, cols], ref[:, cols])
    assert_same(ours[rows, cols], ref[rows][:, cols])
    assert_same(ours[np.flatnonzero(rows)], ref[np.flatnonzero(rows)])
    assert_same(ours[1:], ref[1:])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_sparse_products_match_scipy(m, k, n, data):
    # integer entries: the products are exact, duplicates summed to zero stay
    a, ra = pair(data.draw(triplets((m, k), integer=True)))
    b, rb = pair(data.draw(triplets((k, n), integer=True)))
    ref = (ra @ rb).tocoo()
    ours = a @ b
    assert ours.shape == ref.shape and ours.data.dtype.kind == "i"
    assert np.array_equal(ours.toarray(), ref.toarray())
    # every product term is kept, so a structural zero of scipy may be stored
    assert set(zip(*ref.nonzero())) <= set(zip(ours.row.tolist(), ours.indices.tolist()))


def test_shapes_past_16_bits_sort_stably():
    # no 16-bit radix keys: the lexsort of the 64-bit rows and columns
    data, row, col = np.array([1.0, 2.0, 4.0, 8.0]), np.array([3, 0, 3, 0]), \
        np.array([2**42, 5, 2**42, 1])
    ours = CSR(data, row, col, (2**20, 2**43))
    assert ours.indices.tolist() == [1, 5, 2**42] and ours.data.tolist() == [8.0, 2.0, 5.0]
    assert ours.indptr[:5].tolist() == [0, 2, 2, 2, 3]


def _kept_operators():
    strip = builders.strip(4)
    glued = mesh.glue(strip, "west", "east", builders.strip_end_matching(strip))
    out = [*glued.glue_info.pullback, *dynamics._curvature_adjoint(strip)]
    for m in (strip, builders.solid_torus(4)):
        out += m.complex.boundary_matrices[1:]
        out += [dec.adjoint_full(m, k) for k in range(1, m.complex.dim + 1)]
    return out + [abs(op) for op in out] + [op.T for op in out]


def test_kept_operators_are_read_only_in_every_array():
    for op in _kept_operators():
        for part in (op.data, op.indices, op.indptr, op.row):
            with pytest.raises(ValueError, match="read-only"):
                part[:1] = 0
    for part in hodge._hodge_block(builders.annulus(16), 1, False):
        with pytest.raises(ValueError, match="read-only"):
            part[:1] = 0


def test_triplets_given_stay_writable():
    # a matrix locks views of the arrays it is given, not the arrays
    data, col = np.ones(3), np.array([0, 0, 1])
    CSR.from_rows(data, col, np.array([0, 1, 3]), (2, 2))
    CSR(data, col, col, (2, 2))
    data[0] = col[0] = 0
