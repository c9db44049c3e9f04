"""Tests for the exact sparse linear algebra core."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscx.exactlinalg import (
    SparseRationalMatrix,
    SubspaceBasis,
    SubspaceEscapeError,
    kernel,
    rank,
    restrict,
    solve_in_basis,
    spans_equal,
    subspace_equal,
)
from sscx.exactlinalg import _eliminate


def mat(rows):
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = Fraction(v)
    return SparseRationalMatrix(len(rows), len(rows[0]) if rows else 0, entries)


@st.composite
def sparse_matrices(draw, max_dim=6, shape=None):
    nrows, ncols = shape or (draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim)))
    nnz = draw(st.integers(0, nrows * ncols))
    entries = {}
    for _ in range(nnz):
        r = draw(st.integers(0, nrows - 1))
        c = draw(st.integers(0, ncols - 1))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        entries[(r, c)] = Fraction(num, den)
    return SparseRationalMatrix(nrows, ncols, entries)


class TestBasics:
    def test_identity_rank(self):
        assert rank(mat([[1, 0], [0, 1]])) == 2

    def test_dependent_rows(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_no_stored_zeros(self):
        m = mat([[1, 0], [0, 0]])
        assert (0, 1) not in m.entries and (1, 0) not in m.entries

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            SparseRationalMatrix(1, 1, {(1, 0): Fraction(1)})

    def test_compose_identity(self):
        m = mat([[1, 2], [3, 4]])
        assert mat([[1, 0], [0, 1]]) @ m == m

    def test_compose_zero(self):
        m = mat([[1, 2], [3, 4]])
        z = SparseRationalMatrix(2, 2)
        assert (m @ z).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat([[1, 2]]) @ mat([[1, 2]])

    @given(sparse_matrices())
    @example(mat([[2, 1], [4, 3]]))
    @settings(max_examples=60, deadline=None)
    def test_rows_may_be_consumed(self, m):
        copy = SparseRationalMatrix(m.nrows, m.ncols, m.entries)
        _eliminate(m.rows(), reduce=True)
        assert m == copy and m.rows() == copy.rows()


def _reference_eliminate(
    rows, pivot_limit=None, reduce=False
):
    """The elimination core as it was before the column index: it rescans
    every active row on every pivot.  Kept verbatim as the oracle that the
    indexed core must match exactly."""
    active = [(idx, row) for idx, row in enumerate(rows) if row]
    done = []
    while True:
        pcol = None
        for _, row in active:
            for c in row:
                if pivot_limit is not None and c >= pivot_limit:
                    continue
                if pcol is None or c < pcol:
                    pcol = c
        if pcol is None:
            break
        best = None
        for pos, (idx, row) in enumerate(active):
            if pcol in row:
                key = (len(row), idx)
                if best is None or key < best[0]:
                    best = (key, pos)
        pos = best[1]
        _, prow = active.pop(pos)
        pv = prow[pcol]
        if pv != 1:
            for c in prow:
                prow[c] /= pv
        targets = active if not reduce else active + done
        for _, row in targets:
            f = row.get(pcol)
            if f is None:
                continue
            for c, v in prow.items():
                acc = row.get(c, 0) - f * v
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
        active = [(idx, row) for idx, row in active if row]
        if reduce:
            done = [(pc, row) for pc, row in done if row]
        done.append((pcol, prow))
    done.sort(key=lambda t: t[0])
    return done, [row for _, row in active]


def _reference_kernel_columns(m):
    """Kernel read-out as it was: every free column scans every pivot row."""
    pivots, _ = _reference_eliminate([dict(r) for r in m.rows()], reduce=True)
    pivot_cols = {pc for pc, _ in pivots}
    cols = []
    for f in range(m.ncols):
        if f in pivot_cols:
            continue
        vec = {f: Fraction(1)}
        for pc, row in pivots:
            v = row.get(f)
            if v:
                vec[pc] = -v
        cols.append(vec)
    return cols


nonzero_fractions = st.builds(
    Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)
)


@st.composite
def elimination_rows(draw, max_rows=8, max_cols=8):
    """Random sparse rows with empty, dependent and fill-heavy dense rows."""
    ncols = draw(st.integers(0, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(("sparse", "empty", "dense", "combo")))
        if kind == "empty" or ncols == 0:
            rows.append({})
        elif kind == "dense":
            rows.append({c: draw(nonzero_fractions) for c in range(ncols)})
        elif kind == "combo" and rows:
            a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
            fa, fb = draw(nonzero_fractions), draw(nonzero_fractions)
            row = {}
            for c in sorted(set(a) | set(b)):
                v = fa * a.get(c, 0) + fb * b.get(c, 0)
                if v:
                    row[c] = v
            rows.append(row)
        else:
            cols = draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=ncols))
            rows.append({c: draw(nonzero_fractions) for c in cols})
    pivot_limit = draw(st.one_of(st.none(), st.integers(0, ncols)))
    return rows, pivot_limit


def _ordered(pivots, leftover):
    """Values and key order of an elimination result."""
    return (
        [(pc, list(row.items())) for pc, row in pivots],
        [list(row.items()) for row in leftover],
    )


class TestEliminationCore:
    @given(elimination_rows(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case, reduce):
        rows, pivot_limit = case
        got = _eliminate([dict(r) for r in rows], pivot_limit, reduce)
        want = _reference_eliminate([dict(r) for r in rows], pivot_limit, reduce)
        assert _ordered(*got) == _ordered(*want)

    @given(elimination_rows(max_rows=3, max_cols=14))
    @settings(max_examples=100, deadline=None)
    def test_kernel_with_many_free_columns(self, case):
        rows, _ = case
        ncols = 1 + max((c for r in rows for c in r), default=0)
        m = SparseRationalMatrix(
            len(rows), ncols, {(i, c): v for i, r in enumerate(rows) for c, v in r.items()}
        )
        cols = kernel(m).columns()
        want = _reference_kernel_columns(m)
        assert [list(c.items()) for c in cols] == [list(c.items()) for c in want]

    def test_kernel_of_wide_row(self):
        m = mat([[1, 0, 2, 0, 0, 3, 0, 1, 0, 0, 5, 0]])
        cols = kernel(m).columns()
        assert len(cols) == 11
        assert cols == _reference_kernel_columns(m)
        assert (m @ kernel(m)).is_zero()


class TestRankProperties:
    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose(self, m):
        transpose = {(c, r): v for (r, c), v in m.entries.items()}
        assert rank(m) == rank(SparseRationalMatrix(m.ncols, m.nrows, transpose))

    @given(sparse_matrices(), st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_rank_scaling_invariant(self, m, s):
        assert rank(m) == rank(m.scale(Fraction(s, 3)))

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_kernel_property(self, m):
        k = kernel(m)
        assert (m @ k).is_zero()
        assert rank(k) == k.ncols == m.ncols - rank(m)

    @given(sparse_matrices(max_dim=4), sparse_matrices(max_dim=4))
    @settings(max_examples=40, deadline=None)
    def test_composition_rank_bound(self, a, b):
        if a.ncols != b.nrows:
            b = SparseRationalMatrix(
                a.ncols, b.ncols,
                {(r, c): v for (r, c), v in b.entries.items() if r < a.ncols},
            )
        assert rank(a @ b) <= min(rank(a), rank(b))


class TestSubspaces:
    def test_restrict_identity(self):
        b = SubspaceBasis(3, [{0: Fraction(1)}, {2: Fraction(1)}])
        m = restrict(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), b, b)
        assert m == mat([[1, 0], [0, 1]])

    def test_restrict_escape(self):
        b = SubspaceBasis(2, [{0: Fraction(1)}])
        rot = mat([[0, 1], [1, 0]])
        with pytest.raises(SubspaceEscapeError):
            restrict(rot, b, b)

    def test_solve_in_basis_roundtrip(self):
        basis = SubspaceBasis(3, [{0: Fraction(1), 1: Fraction(2)}, {2: Fraction(3)}])
        target = {0: Fraction(2), 1: Fraction(4), 2: Fraction(3)}
        coords = solve_in_basis(basis, [target])
        assert coords == [{0: Fraction(2), 1: Fraction(1)}]

    def test_subspace_equal_permuted(self):
        a = SubspaceBasis(3, [{0: Fraction(1)}, {1: Fraction(1)}])
        b = SubspaceBasis(3, [{1: Fraction(2)}, {0: Fraction(5)}])
        assert subspace_equal(a, b)

    def test_subspace_not_equal(self):
        a = SubspaceBasis(3, [{0: Fraction(1)}])
        b = SubspaceBasis(3, [{1: Fraction(1)}])
        assert not subspace_equal(a, b)

    def test_spans_equal_generating_sets(self):
        a = mat([[1, 1], [0, 0]])
        b = mat([[2], [0]])
        assert spans_equal(a, b)

    @given(sparse_matrices(max_dim=5))
    @settings(max_examples=40, deadline=None)
    def test_spans_equal_self(self, m):
        assert spans_equal(m, m)


def dense(m):
    return [[m.entries.get((i, j), 0) for j in range(m.ncols)] for i in range(m.nrows)]


def assert_clean(r):
    """r keeps the matrix invariant: the public constructor, which wraps,
    drops zeros and range-checks, leaves its entries as they are, and every
    stored value is a non-zero Fraction."""
    assert r == SparseRationalMatrix(r.nrows, r.ncols, r.entries)
    assert all(type(v) is Fraction and v for v in r.entries.values())


@st.composite
def matrix_triples(draw, max_dim=5):
    """a, b of one shape and c with as many rows as a has columns."""
    r, k, c = (draw(st.integers(1, max_dim)) for _ in range(3))
    a = draw(sparse_matrices(shape=(r, k)))
    b = draw(sparse_matrices(shape=(r, k)))
    return a, b, draw(sparse_matrices(shape=(k, c)))


class TestDerivedMatrices:
    """Results of matrix operations skip the public constructor's checks,
    so they must keep its invariant on their own."""

    @given(matrix_triples(), st.sampled_from([0, 1, -1, Fraction(2, 3), -5]))
    @settings(max_examples=80, deadline=None)
    def test_operations_keep_the_invariant(self, mats, s):
        a, b, c = mats
        scaled = a.scale(s)
        assert_clean(scaled)
        assert dense(scaled) == [[s * v for v in row] for row in dense(a)]
        assert (a.scale(1) is a) and a.scale(0).is_zero()
        for total in (a + b, b + a, a + a.scale(-1), (a + b) + b.scale(-1)):
            assert_clean(total)
        assert dense(a + b) == [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(dense(a), dense(b))
        ]
        assert (a + a.scale(-1)).is_zero() and (a + b) + b.scale(-1) == a
        prod = a @ c
        assert_clean(prod)
        cols = list(zip(*dense(c)))
        assert dense(prod) == [[sum(x * y for x, y in zip(row, col)) for col in cols]
                               for row in dense(a)]
        for j, col in enumerate(c.columns()):
            assert a.apply(col) == prod.columns()[j]
        rebuilt = SparseRationalMatrix.from_columns(a.nrows, a.columns())
        assert_clean(rebuilt)
        assert rebuilt == a
        assert_clean(kernel(a))
        full_dom, full_cod = SubspaceBasis.full(a.ncols), SubspaceBasis.full(a.nrows)
        assert_clean(restrict(a, full_dom, full_cod))
        assert restrict(a, full_dom, full_cod) == a
        ker = kernel(prod)
        on_kernel = restrict(c, SubspaceBasis(c.ncols, ker.columns()), SubspaceBasis.full(c.nrows))
        assert_clean(on_kernel)
        assert on_kernel == c @ ker
