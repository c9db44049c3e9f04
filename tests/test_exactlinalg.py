"""Tests for the exact sparse linear algebra core."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscx import exactlinalg
from sscx.exactlinalg import (
    P,
    SparseRationalMatrix,
    SubspaceBasis,
    SubspaceEscapeError,
    pivots_mod_p,
    rank,
    restrict,
    solve_in_basis,
)
from sscx.exactlinalg import _eliminate
import linalg_oracle as oracle
from linalg_oracle import (
    checked_matrix,
    kernel,
    spans_equal,
    subspace_equal,
    value_columns,
)


def mat(rows):
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = Fraction(v)
    return checked_matrix(len(rows), len(rows[0]) if rows else 0, entries)


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
    return checked_matrix(nrows, ncols, entries)


class TestBasics:
    def test_identity_rank(self):
        assert rank(mat([[1, 0], [0, 1]])) == 2

    def test_dependent_rows(self):
        assert rank(mat([[1, 2], [2, 4]])) == 1

    def test_rank_eliminates_once_per_matrix(self, monkeypatch):
        """A matrix keeps its rank; a scaled copy and a new matrix on the
        same columns are other matrices and are eliminated again."""
        eliminated = []

        def counted(rows, p=0):
            eliminated.append(rows)
            return _eliminate(rows, p)

        monkeypatch.setattr(exactlinalg, "_eliminate", counted)
        m = mat([[1, 2], [2, 4], [0, 3]])
        assert rank(m) == rank(m) == 2
        assert len(eliminated) == 1
        assert rank(m.scale(Fraction(1, 3))) == 2
        assert len(eliminated) == 2
        assert rank(SparseRationalMatrix(m.nrows, m.columns(), m.scalar)) == 2
        assert len(eliminated) == 3
        assert rank(m) == 2 and len(eliminated) == 3

    def test_no_stored_zeros(self):
        m = mat([[1, 0], [0, 0]])
        assert (0, 1) not in m.entries and (1, 0) not in m.entries

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            checked_matrix(1, 1, {(1, 0): Fraction(1)})

    def test_compose_identity(self):
        m = mat([[1, 2], [3, 4]])
        assert mat([[1, 0], [0, 1]]) @ m == m

    def test_compose_zero(self):
        m = mat([[1, 2], [3, 4]])
        z = checked_matrix(2, 2)
        assert (m @ z).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mat([[1, 2]]) @ mat([[1, 2]])

    @given(sparse_matrices())
    @example(mat([[2, 1], [4, 3]]))
    @settings(max_examples=60, deadline=None)
    def test_rows_may_be_consumed(self, m):
        copy = checked_matrix(m.nrows, m.ncols, m.entries)
        _eliminate(m.rows())
        oracle.eliminate(m.rows(), reduce=True)
        assert m == copy and m.rows() == copy.rows()


def _reference_eliminate(
    rows, pivot_limit=None, reduce=False
):
    """The elimination core as it was before the column index: it rescans
    every active row on every pivot.  Kept verbatim as the oracle that the
    indexed rank core, and with ``pivot_limit`` and ``reduce`` the reduced
    elimination of ``linalg_oracle``, must match exactly."""
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
    """Kernel read-out as it was: every free column scans every pivot row.
    The stored integers are eliminated as Fractions, as the reference
    divides by its pivots with ``/``."""
    rows = [{c: Fraction(v) for c, v in r.items()} for r in m.rows()]
    pivots, _ = _reference_eliminate(rows, reduce=True)
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


@st.composite
def private_row_bases(draw, max_dim=7, values=st.integers(-5, 5).filter(bool)):
    """Integer bases whose vectors each own a row no other vector touches,
    with ±1 there, and further entries from ``values`` on the rows that no
    vector owns."""
    ambient = draw(st.integers(1, max_dim))
    owned = draw(st.lists(st.integers(0, ambient - 1), unique=True, max_size=ambient))
    shared = [r for r in range(ambient) if r not in owned]
    vectors = []
    for r in owned:
        vec = {r: draw(st.sampled_from((1, -1)))}
        for s in draw(st.lists(st.sampled_from(shared), unique=True)) if shared else []:
            vec[s] = draw(values)
        vectors.append(vec)
    return SubspaceBasis(ambient, vectors)


def _ordered(pivots, leftover):
    """Values and key order of an elimination result."""
    return (
        [(pc, list(row.items())) for pc, row in pivots],
        [list(row.items()) for row in leftover],
    )


class TestEliminationCore:
    @given(elimination_rows())
    @settings(max_examples=300, deadline=None)
    def test_rank_core_matches_reference(self, case):
        rows, _ = case
        got = _eliminate([dict(r) for r in rows])
        want, leftover = _reference_eliminate([dict(r) for r in rows])
        assert leftover == []
        assert _ordered(got, []) == _ordered(want, [])

    @given(elimination_rows(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case, reduce):
        rows, pivot_limit = case
        got = oracle.eliminate([dict(r) for r in rows], pivot_limit, reduce)
        want = _reference_eliminate([dict(r) for r in rows], pivot_limit, reduce)
        assert _ordered(*got) == _ordered(*want)

    @given(elimination_rows(max_rows=3, max_cols=14))
    @settings(max_examples=100, deadline=None)
    def test_kernel_with_many_free_columns(self, case):
        rows, _ = case
        ncols = 1 + max((c for r in rows for c in r), default=0)
        m = checked_matrix(
            len(rows), ncols, {(i, c): v for i, r in enumerate(rows) for c, v in r.items()}
        )
        cols = value_columns(kernel(m))
        want = _reference_kernel_columns(m)
        assert [list(c.items()) for c in cols] == [list(c.items()) for c in want]

    def test_kernel_of_wide_row(self):
        m = mat([[1, 0, 2, 0, 0, 3, 0, 1, 0, 0, 5, 0]])
        cols = value_columns(kernel(m))
        assert len(cols) == 11
        assert cols == _reference_kernel_columns(m)
        assert (m @ kernel(m)).is_zero()


class TestRankProperties:
    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_transpose(self, m):
        transpose = {(c, r): v for (r, c), v in m.entries.items()}
        assert rank(m) == rank(checked_matrix(m.ncols, m.nrows, transpose))

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
            b = checked_matrix(
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

    @pytest.mark.parametrize("m, dom, cod", [
        (SparseRationalMatrix(2, []), SubspaceBasis(3, [{0: 1}]), SubspaceBasis.full(2)),
        (mat([[1, 0], [0, 1]]), SubspaceBasis(3, [{0: 1}]), SubspaceBasis.full(2)),
        (mat([[1, 0], [0, 1]]), SubspaceBasis.full(2), SubspaceBasis.full(3)),
    ], ids=["no-columns", "domain", "codomain"])
    def test_restrict_rejects_a_mismatched_shape(self, m, dom, cod):
        with pytest.raises(ValueError, match="ambient dimension does not match"):
            restrict(m, dom, cod)

    def test_solve_in_basis_roundtrip(self):
        basis = SubspaceBasis(3, [{0: 1, 1: 2}, {2: -1}])
        target = {0: 2, 1: 4, 2: 3}
        coords = solve_in_basis(basis, [target])
        assert coords == [{0: 2, 1: -3}]
        assert all(type(v) is int for v in coords[0].values())

    @pytest.mark.parametrize("entry", [2, -3, Fraction(1, 2)], ids=["2", "-3", "1/2"])
    def test_private_entry_other_than_a_unit_is_rejected(self, entry):
        # private rows 0 and 2; the second vector's entry there is not ±1.
        # The first target lies outside every span, so the basis must be
        # rejected before any target is read
        basis = SubspaceBasis(4, [{0: 1, 1: 1}, {1: 1, 2: entry}])
        assert basis.private_rows() == [0, 2]
        with pytest.raises(ValueError, match=f"basis vector 1 has the entry {entry} at"):
            solve_in_basis(basis, [{3: 1}, {0: 1, 1: 1}])
        with pytest.raises(ValueError, match=f"basis vector 1 has the entry {entry} at"):
            restrict(mat([[0, 1], [0, 1], [0, 0], [1, 0]]), SubspaceBasis.full(2), basis)

    def test_solve_in_basis_reads_private_rows(self):
        # rows 1 and 3 are shared; rows 0, 2 and 4 are private
        basis = SubspaceBasis(5, [
            {0: Fraction(-1), 1: Fraction(1)},
            {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)},
            {3: Fraction(2), 4: Fraction(1)},
        ])
        assert basis.private_rows() == [0, 2, 4]
        target = {0: Fraction(3), 1: Fraction(-1), 2: Fraction(2), 3: Fraction(4),
                  4: Fraction(1)}
        assert solve_in_basis(basis, [target]) == [{0: -3, 1: 2, 2: 1}]

    @pytest.mark.parametrize("vectors", [
        [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1)}],
        [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 2: Fraction(1)},
         {1: Fraction(1), 3: Fraction(1)}],
        [{0: Fraction(1)}, {}],
    ], ids=["repeated", "all-rows-shared", "zero"])
    def test_basis_without_private_rows_is_rejected(self, vectors):
        # the all-rows-shared basis is independent, yet its first vector has
        # no row of its own; the first target lies outside every span, so
        # the basis must be rejected before any target is read
        basis = SubspaceBasis(4, vectors)
        assert basis.private_rows() is None
        with pytest.raises(ValueError, match="private row"):
            solve_in_basis(basis, [{3: Fraction(1), 2: Fraction(1)}, {0: Fraction(1)}])
        with pytest.raises(ValueError, match="private row"):
            restrict(mat([[1, 0], [0, 1], [0, 0], [0, 0]]), SubspaceBasis.full(2), basis)

    @pytest.mark.parametrize("row, value", [
        (1, 1),  # the first vector's second private row, off by one
        (2, 5),  # a shared row
        (4, 1),  # a row no vector touches
    ])
    def test_entry_beyond_the_private_rows_escapes(self, row, value):
        # private rows 0 and 3; the target matches there in every case
        basis = SubspaceBasis(5, [
            {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
            {2: Fraction(-1), 3: Fraction(1)},
        ])
        assert basis.private_rows() == [0, 3]
        inside = {0: Fraction(2), 1: Fraction(2), 2: Fraction(1), 3: Fraction(1)}
        assert solve_in_basis(basis, [inside]) == [{0: 2, 1: 1}]
        outside = {**inside, row: inside.get(row, 0) + value}
        with pytest.raises(SubspaceEscapeError):
            solve_in_basis(basis, [inside, outside])
        m = checked_matrix(5, 2, {(r, j): v for j, vec in enumerate([inside, outside])
                                  for r, v in vec.items()})
        with pytest.raises(SubspaceEscapeError):
            restrict(m, SubspaceBasis.full(2), basis)

    @given(private_row_bases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_in_basis_matches_the_reduced_elimination(self, basis, data):
        """Combinations of the basis vectors, some with one entry changed:
        reading coordinates off the private rows must give exactly what the
        reduced elimination of the oracle gives, or escape where it does."""
        targets = []
        for _ in range(data.draw(st.integers(1, 4))):
            coefs = data.draw(st.lists(st.integers(-3, 3), min_size=basis.dim,
                                       max_size=basis.dim))
            target = {}
            for c, vec in zip(coefs, basis.vectors):
                for r, v in vec.items():
                    target[r] = target.get(r, 0) + c * v
            if data.draw(st.booleans()):
                r = data.draw(st.integers(0, basis.ambient_dim - 1))
                target[r] = target.get(r, 0) + data.draw(nonzero_fractions)
            targets.append({r: Fraction(v) for r, v in target.items() if v})
        try:
            want = oracle.solve_in_basis(basis, targets)
        except SubspaceEscapeError:
            with pytest.raises(SubspaceEscapeError):
                solve_in_basis(basis, targets)
        else:
            got = solve_in_basis(basis, targets)
            assert got == want
            assert all(type(v) is Fraction and v for col in got for v in col.values())

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
    """r keeps the matrix invariant: the checked reference constructor,
    which wraps, drops zeros, range-checks and clears denominators, leaves
    its values as they are, every stored value is a non-zero int, and the
    scalar is a non-zero Fraction, 1 for a zero matrix."""
    assert r == checked_matrix(r.nrows, r.ncols, r.entries)
    assert all(type(v) is int and v for col in r.columns() for v in col.values())
    assert type(r.scalar) is Fraction and r.scalar
    assert r.scalar == 1 or not r.is_zero()


@st.composite
def matrix_pairs(draw, max_dim=5):
    """a and c with as many rows as a has columns."""
    r, k, c = (draw(st.integers(1, max_dim)) for _ in range(3))
    a = draw(sparse_matrices(shape=(r, k)))
    return a, draw(sparse_matrices(shape=(k, c)))


class TestDerivedMatrices:
    """The constructor checks nothing, so the results of matrix operations
    must keep the invariant on their own."""

    @given(matrix_pairs(), st.sampled_from([0, 1, -1, Fraction(2, 3), -5]))
    @settings(max_examples=80, deadline=None)
    def test_operations_keep_the_invariant(self, mats, s):
        a, c = mats
        scaled = a.scale(s)
        assert_clean(scaled)
        assert dense(scaled) == [[s * v for v in row] for row in dense(a)]
        assert (a.scale(1) is a) and a.scale(0).is_zero()
        prod = a @ c
        assert_clean(prod)
        cols = list(zip(*dense(c)))
        assert dense(prod) == [[sum(x * y for x, y in zip(row, col)) for col in cols]
                               for row in dense(a)]
        for j, col in enumerate(value_columns(c)):
            assert oracle.value_image(a, col) == value_columns(prod)[j]
        rebuilt = SparseRationalMatrix(a.nrows, a.columns(), a.scalar)
        assert_clean(rebuilt)
        assert rebuilt == a
        assert_clean(kernel(a))
        full_dom, full_cod = SubspaceBasis.full(a.ncols), SubspaceBasis.full(a.nrows)
        assert_clean(restrict(a, full_dom, full_cod))
        assert restrict(a, full_dom, full_cod) == a
        # the kernel vectors with their denominators cleared: a subspace
        # basis holds integers, here the kernel's stored columns
        ker = kernel(prod)
        on_kernel = restrict(c, SubspaceBasis(c.ncols, ker.columns()), SubspaceBasis.full(c.nrows))
        assert_clean(on_kernel)
        assert on_kernel.scale(ker.scalar) == c @ ker


@st.composite
def scaled_matrices(draw, shape):
    """Integer columns with any non-zero Fraction scalar, built directly, so
    that two matrices of one test rarely share their scalar."""
    nrows, ncols = shape
    cols = []
    for _ in range(ncols):
        rows = draw(st.lists(st.integers(0, nrows - 1), unique=True, max_size=nrows))
        cols.append({r: draw(st.integers(-9, 9).filter(bool)) for r in rows})
    return SparseRationalMatrix(nrows, cols, draw(nonzero_fractions))


class TestScalars:
    """Products and scalings of matrices whose scalars differ must be plain
    Fraction arithmetic on their values."""

    @given(st.data(), st.one_of(nonzero_fractions, st.integers(-3, 3)))
    @settings(max_examples=150, deadline=None)
    def test_operations_match_fraction_arithmetic(self, data, s):
        r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = data.draw(scaled_matrices((r, k)))
        m = data.draw(scaled_matrices((k, c)))
        da, dm = dense(a), dense(m)
        prod = a @ m
        assert_clean(prod)
        cols = list(zip(*dm))
        assert dense(prod) == [[sum(x * y for x, y in zip(row, col)) for col in cols]
                               for row in da]
        scaled = a.scale(s)
        assert_clean(scaled)
        assert dense(scaled) == [[s * x for x in row] for row in da]
        if s and not a.is_zero():
            assert scaled.columns() is a.columns()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_oracle_sum_adds_values(self, data):
        """The tests add maps with ``linalg_oracle.matrix_sum``, which must
        be value-by-value addition."""
        r, k = (data.draw(st.integers(1, 4)) for _ in range(2))
        a, b = (data.draw(scaled_matrices((r, k))) for _ in range(2))
        total = oracle.matrix_sum(a, b)
        assert_clean(total)
        assert dense(total) == [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(dense(a), dense(b))
        ]
        assert oracle.matrix_sum(a, a.scale(-1)).is_zero()

    @given(scaled_matrices((3, 3)), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_equality_compares_values(self, a, f):
        """One matrix stored two ways is equal to itself; a changed value is
        not."""
        stretched = [{r: f * v for r, v in col.items()} for col in a.columns()]
        same = SparseRationalMatrix(3, stretched, a.scalar / f)
        assert same == a and a == same
        if not a.is_zero():
            assert SparseRationalMatrix(3, stretched, a.scalar) != a


class TestBlock:
    """A block of rows and columns is a slice of the values: the matrix's
    own integers under its own scalar."""

    @given(st.data(), nonzero_fractions)
    @settings(max_examples=150, deadline=None)
    def test_block_matches_the_fraction_matrix(self, data, s):
        nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        cells = data.draw(st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            nonzero_fractions,
        ))
        cols = [dict() for _ in range(ncols)]
        for (r, c), v in cells.items():
            cols[c][r] = v
        ref = oracle.FractionMatrix(nrows, cols).scale(s)
        m = oracle.rational_matrix(nrows, cols).scale(s)
        r0 = data.draw(st.integers(0, nrows))
        r1 = data.draw(st.integers(r0, nrows))
        c0 = data.draw(st.integers(0, ncols))
        c1 = data.draw(st.integers(c0, ncols))
        block = m.block(range(r0, r1), range(c0, c1))
        want = [
            {r - r0: v for r, v in ref.columns()[c].items() if r0 <= r < r1}
            for c in range(c0, c1)
        ]
        assert (block.nrows, block.ncols) == (r1 - r0, c1 - c0)
        assert value_columns(block) == want
        assert all(type(v) is int and v for col in block.columns() for v in col.values())
        assert block.scalar == (m.scalar if any(want) else 1)
        assert type(block.scalar) is Fraction


# above 2^53 a float no longer holds every integer
BIG = 2**53
big_ints = st.builds(
    lambda sign, v: sign * v, st.sampled_from((1, -1)), st.integers(BIG + 1, 2**64)
)


def _combinations(draw, vectors, count):
    """count combinations of the vectors with big integer coefficients."""
    out = []
    for _ in range(count):
        combo: dict = {}
        for vec in vectors:
            coef = draw(st.one_of(st.just(0), big_ints))
            for r, v in vec.items():
                combo[r] = combo.get(r, 0) + coef * v
        out.append({r: v for r, v in combo.items() if v})
    return out


class TestBigIntegers:
    """Integer matrices with entries above 2^53 and pivots other than ±1,
    and bases with such entries off their ±1 private rows: ranks,
    coordinates and restrictions must be the oracle's Fraction results, so
    an int / int float anywhere would show."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_the_oracle(self, data):
        ncols = data.draw(st.integers(1, 6))
        free = [
            {c: data.draw(big_ints) for c in data.draw(
                st.lists(st.integers(0, ncols - 1), unique=True, min_size=1))}
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        rows = free + _combinations(data.draw, free, data.draw(st.integers(1, 3)))
        m = checked_matrix(
            len(rows), ncols, {(i, c): v for i, row in enumerate(rows) for c, v in row.items()}
        )
        fractions = [{c: Fraction(v) for c, v in row.items()} for row in m.rows()]
        want = len(oracle.eliminate(fractions)[0])
        assert rank(m) == want <= len(free)

    @given(private_row_bases(values=big_ints), st.data())
    @settings(max_examples=80, deadline=None)
    def test_coordinates_and_restrictions_match_the_oracle(self, basis, data):
        targets = _combinations(data.draw, basis.vectors, data.draw(st.integers(1, 4)))
        want = oracle.solve_in_basis(basis, targets)
        assert solve_in_basis(basis, targets) == want
        m = SparseRationalMatrix(basis.ambient_dim, targets)
        restricted = restrict(m, SubspaceBasis.full(len(targets)), basis)
        assert_clean(restricted)
        assert value_columns(restricted) == want
        # one entry off by one outside the private rows leaves the span,
        # which a float would miss next to entries above 2^53
        rows = [r for r in range(basis.ambient_dim) if r not in basis.private_rows()]
        if rows:
            target = data.draw(st.sampled_from(targets))
            r = data.draw(st.sampled_from(rows))
            moved = {**target, r: target.get(r, 0) + 1}
            moved = {k: v for k, v in moved.items() if v}
            with pytest.raises(SubspaceEscapeError):
                oracle.solve_in_basis(basis, [moved])
            with pytest.raises(SubspaceEscapeError):
                solve_in_basis(basis, [moved])


class TestRankModP:
    """The rank over F_P of the stored integers: never above the rank over
    Q, and equal to it when no minor is divisible by P."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bound_and_agreement_with_the_oracle(self, data):
        nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        # entries in [-9, 9] keep every minor below (9 * 6**0.5)**6 < P in
        # size; the multiples P, 2P and -P are 0 mod P
        cells = data.draw(st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            st.one_of(st.integers(-9, 9).filter(bool), st.sampled_from((P, 2 * P, -P))),
        ))
        cols = [dict() for _ in range(ncols)]
        for (r, c), v in cells.items():
            cols[c][r] = v
        m = SparseRationalMatrix(nrows, cols)
        small = [{} for _ in range(nrows)]
        for (r, c), v in cells.items():
            if v % P:
                small[r][c] = Fraction(v)
        want = len(oracle.eliminate(small)[0])
        pivots = _eliminate(m.rows(), P)
        assert pivots_mod_p(m) == [pc for pc, _ in pivots]
        assert len(pivots) == want <= rank(m)
        if all(v % P for v in cells.values()):
            assert rank(m) == want
        # pivot rows hold reduced ints, each pivot normalized to 1
        assert all(
            row[pc] == 1 and all(type(v) is int and 0 < v < P for v in row.values())
            for pc, row in pivots
        )
        # skipped rows are deleted before the elimination
        skip = data.draw(st.lists(st.integers(0, nrows - 1), unique=True))
        kept = [row for r, row in enumerate(m.rows()) if r not in skip]
        assert pivots_mod_p(m, skip) == [pc for pc, _ in _eliminate(kept, P)]

    def test_multiples_of_p_are_dropped_in_place(self):
        rows = [{0: P, 1: 2}, {0: -P, 1: 2 * P}, {1: 3 + P}]
        assert _eliminate(rows, P) == [(1, {1: 1})]
        # the rows were reduced in place: the second was 0 mod P from the start
        assert rows == [{1: 1}, {}, {}]

    def test_fill_in_is_reduced(self):
        # the second row takes -3 times the first; its pivot is then 1, so
        # only the reduction of the fill-in keeps -15 in [0, P)
        rows = [{0: 1, 2: 5}, {0: 3, 1: 1}]
        assert _eliminate(rows, P) == [(0, {0: 1, 2: 5}), (1, {1: 1, 2: P - 15})]

    def test_rank_drops_at_a_multiple_of_p(self):
        m = SparseRationalMatrix(2, [{0: 1, 1: 1}, {0: 1, 1: 1 + P}])
        assert (rank(m), len(pivots_mod_p(m))) == (2, 1)
        assert pivots_mod_p(SparseRationalMatrix(1, [{0: P}])) == []

    def test_the_prime_is_read_at_each_call(self, monkeypatch):
        m = SparseRationalMatrix(2, [{0: 2, 1: 1}, {0: 1, 1: 2}])  # det 3
        assert len(pivots_mod_p(m)) == 2
        monkeypatch.setattr(exactlinalg, "P", 3)
        assert len(pivots_mod_p(m)) == 1
        monkeypatch.setattr(exactlinalg, "P", 2)
        assert len(pivots_mod_p(m)) == 2


@st.composite
def integer_complexes(draw):
    """Differentials d_0, ..., d_k of a complex of stored integer matrices,
    some entries multiples of P: the last one random, each earlier one a
    basis of the next one's kernel over Q (the oracle's ``kernel``) times a
    random integer matrix, with some columns multiplied by P."""
    dims = draw(st.lists(st.integers(1, 6), min_size=3, max_size=5))
    entries = st.one_of(st.integers(-3, 3), st.sampled_from((P, -P, 2 * P)))

    def random_matrix(nrows, ncols):
        return SparseRationalMatrix(nrows, [
            {r: v for r in range(nrows) if (v := draw(entries))} for _ in range(ncols)
        ])

    diffs = [random_matrix(dims[-1], dims[-2])]
    for src in reversed(dims[:-2]):
        ker = kernel(diffs[0])
        d = ker @ random_matrix(ker.ncols, src)
        cols = [
            {r: P * v for r, v in col.items()} if draw(st.booleans()) else col
            for col in d.columns()
        ]
        diffs.insert(0, SparseRationalMatrix(d.nrows, cols))
    return diffs


class TestClearing:
    """The clearing lemma: in a complex, deleting the rows of d_{k-1} at the
    pivot columns of d_k keeps its rank over F_P, with d_k itself cleared
    the same way by d_{k+1}."""

    @given(integer_complexes())
    @settings(max_examples=100, deadline=None)
    def test_cleared_ranks_are_the_ranks(self, diffs):
        for d, nxt in zip(diffs, diffs[1:]):
            assert (nxt @ d).is_zero()
        pivots: list[int] = []
        for d in reversed(diffs):
            cleared = pivots_mod_p(d, pivots)
            assert len(cleared) == len(pivots_mod_p(d))
            pivots = cleared

    def test_only_the_pivot_columns_can_go(self):
        # d_1 = [1 1 0] has the pivot column 0; d_0 has the columns (1, -1, 0)
        # and (0, 0, 1), a basis of ker d_1, so rank 2.  Row 0 can go; row
        # 2, at a column that is no pivot of d_1, cannot
        d1 = SparseRationalMatrix(1, [{0: 1}, {0: 1}, {}])
        d0 = SparseRationalMatrix(3, [{0: 1, 1: -1}, {2: 1}])
        assert (d1 @ d0).is_zero()
        assert pivots_mod_p(d1) == [0]
        assert pivots_mod_p(d0, [0]) == [0, 1]
        assert pivots_mod_p(d0, [2]) == [0]
