"""Reference linear algebra the tests compare the package against.

``checked_matrix`` builds a matrix from a ``{(row, col): value}`` dict and
checks and normalizes every entry, so a matrix that some operation built
from its own columns can be compared with its checked rebuild, and
``matrix_sum`` adds two matrices value by value, for the tests that sum
maps (the package itself never adds two matrices).  ``value_columns`` and
``value_image`` read a matrix's values, its stored integers times its
scalar, which the package itself never needs.
``spans_equal`` and ``subspace_equal`` decide subspace equality by three
plain ranks; the verifier decides it by containment plus dimension, and
these are the oracle it must agree with.

``eliminate``, ``kernel`` and ``solve_in_basis`` are the reduced
elimination the verifier used before its fibers got the lift basis: a
rational kernel basis with one vector per free column, and coordinates in
any independent basis by elimination.  The package now certifies the lift
basis against one rank and reads coordinates off private rows; these are
the reference it must agree with.

``structure_matrix`` is the fiber's structure matrices as the package
built them before its matrices got integer columns and one rational
scalar: every value a ``Fraction`` and d built with its weight 1/(B+1) on
d1.  It is copied verbatim but for the name of the matrix class it builds,
``FractionMatrix``, the old format, for the forms, which it reads from the
package's functions of n, and for the space, which is either a weight
block ``TwistedSpace`` or a ``FullSpace``.

``grid_maps`` expands a bicomplex's row into one map per position of the
grid, each horizontal one scaled by the grid's coefficient, and
``totalize`` assembles the total complex from those maps (``_layout``
orders its blocks).  The package no longer assembles it: its cohomology is
certified from a rank bound on the grid, and these are the reference that
bound and the grid's flags are checked against.

The full path: the package builds one torus-weight block per number m of
non-zero weight entries and sums over the Weyl orbits (``orbit_sum``).
``FullSpace`` is the whole graded piece, every weight at once, as the
package built it before; ``full_basis`` enumerates its monomials, and
``full_structure_map``, ``full_perp``, ``full_fiber_E``,
``full_row_complex`` and ``full_bicomplex`` build its structure matrices,
annihilator bases, fiber bases and complexes the way the package builds a
block's.  They are the reference the blocks are checked against.
"""

import dataclasses
import itertools
from fractions import Fraction
from functools import cache
from math import comb, lcm

from sscx import complexes
from sscx.complexes import Bicomplex, ChainComplex
from sscx.exactlinalg import (
    SparseRationalMatrix,
    SubspaceBasis,
    SubspaceEscapeError,
    Vec,
    rank,
    restrict,
)
from sscx.fiber import (
    TwistedSpace,
    _contract,
    _deriv,
    _wedge1,
    _wedge2,
    basis_of,
    plane_contractions,
    symplectic_form,
)


def rational_matrix(nrows: int, cols: list[dict]) -> SparseRationalMatrix:
    """The matrix with the given columns of rational values, zero values
    dropped: the values times their common denominator are the stored
    ints, and one over it is the scalar."""
    den = lcm(*(Fraction(v).denominator for col in cols for v in col.values()))
    return SparseRationalMatrix(
        nrows,
        [{r: int(v * den) for r, v in col.items() if v} for col in cols],
        Fraction(1, den),
    )


def checked_matrix(nrows: int, ncols: int, entries: dict | None = None) -> SparseRationalMatrix:
    """The matrix with the given {(row, col): value} entries, range-checked
    and wrapped in Fraction, its denominators cleared by ``rational_matrix``;
    zero values are dropped."""
    if nrows < 0 or ncols < 0:
        raise ValueError("negative matrix dimension")
    cols: list[dict] = [dict() for _ in range(ncols)]
    for (r, c), v in (entries or {}).items():
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r},{c}) out of range")
        cols[c][r] = Fraction(v)
    return rational_matrix(nrows, cols)


def value_columns(m: SparseRationalMatrix) -> list[dict]:
    """The columns of m's values: its stored integers times its scalar."""
    s = m.scalar
    return [{r: s * v for r, v in col.items()} for col in m.columns()]


def value_image(m: SparseRationalMatrix, vec: dict) -> dict:
    """The image of vec under m's values: its integer ``image`` times its
    scalar."""
    s = m.scalar
    return {r: s * v for r, v in m.image(vec).items()}


def matrix_sum(a: SparseRationalMatrix, b: SparseRationalMatrix) -> SparseRationalMatrix:
    """a + b, value by value: the columns of the two matrices' values
    added and rebuilt by ``rational_matrix``."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch in matrix addition")
    cols = []
    for mine, theirs in zip(value_columns(a), value_columns(b)):
        col = dict(mine)
        for r, v in theirs.items():
            col[r] = col.get(r, 0) + v
        cols.append(col)
    return rational_matrix(a.nrows, cols)


def spans_equal(a: SparseRationalMatrix, b: SparseRationalMatrix) -> bool:
    """Whether the column spans of two matrices (any generating sets) agree."""
    if a.nrows != b.nrows:
        raise ValueError("ambient dimension mismatch")
    ra = rank(a)
    if ra != rank(b):
        return False
    return rank(SparseRationalMatrix(a.nrows, a.columns() + b.columns())) == ra


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether two subspaces (given by bases) coincide."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim != b.dim:
        return False
    return spans_equal(
        SparseRationalMatrix(a.ambient_dim, a.vectors),
        SparseRationalMatrix(b.ambient_dim, b.vectors),
    )


def _subtract(
    row: Vec, idx: int, nf: Fraction, rest: list[tuple[int, Fraction]],
    index: dict[int, set[int]], limit: int,
) -> None:
    """row += nf * rest in place, keeping ``index`` (column -> ids of the rows
    with an entry there, for columns < limit) current for row ``idx``."""
    for c, v in rest:
        old = row.get(c)
        if old is None:
            row[c] = nf * v
            if c < limit:
                index[c].add(idx)
        else:
            acc = old + nf * v
            if acc:
                row[c] = acc
            else:
                del row[c]
                if c < limit:
                    index[c].discard(idx)


def eliminate(
    rows: list[Vec], pivot_limit: int | None = None, reduce: bool = False
) -> tuple[list[tuple[int, Vec]], list[Vec]]:
    """Row elimination core.

    ``rows`` is consumed (the dicts are mutated) and must store no zero
    values.  Pivots are only chosen in columns < ``pivot_limit`` (all
    columns if None).  Returns the pivot rows as (pivot_col, row) sorted by
    pivot column, plus the nonzero leftover rows in input order, whose
    support lies entirely in columns >= pivot_limit.

    With ``reduce=True`` the pivot rows form a reduced echelon basis (each
    pivot column occurs in exactly one row, with value 1).

    A column -> rows index over the columns < pivot_limit replaces any scan
    of the rows: it is built once in O(nnz) and kept current on every fill-in
    and cancellation, so each pivot touches only the rows with an entry in
    its column (with ``reduce=True`` a second index serves the finished
    pivot rows).  Pivot columns only increase, and fill-in lands only in
    columns of the pivot row, right of the pivot, so one ascending pass over
    the initially occupied columns finds every pivot.  The pivot row is the
    sparsest row in the pivot column, ties broken by lowest input index, and
    each row receives the same updates in the same order as in a plain
    row-by-row elimination, so the result does not depend on the index.
    """
    limit = pivot_limit
    if limit is None:
        limit = 1 + max((c for row in rows for c in row), default=-1)
    active: dict[int, Vec] = {}
    # column < limit -> ids of the active rows with an entry there
    index: dict[int, set[int]] = {}
    for idx, row in enumerate(rows):
        if row:
            active[idx] = row
            for c in row:
                if c < limit:
                    index.setdefault(c, set()).add(idx)
    # with reduce=True: column -> positions in done of the rows with an entry there
    finished_index: dict[int, set[int]] = {c: set() for c in index} if reduce else {}
    done: list[tuple[int, Vec]] = []
    for pcol in sorted(index):
        targets = index.pop(pcol)
        if not targets:
            continue
        pidx = min(targets, key=lambda i: (len(active[i]), i))
        targets.discard(pidx)
        prow = active.pop(pidx)
        pv = prow[pcol]
        if pv != 1:
            for c in prow:
                prow[c] = Fraction(prow[c], pv)
        rest = [(c, v) for c, v in prow.items() if c != pcol]
        for c, _ in rest:
            if c < limit:
                index[c].discard(pidx)
        for idx in targets:
            row = active[idx]
            _subtract(row, idx, -row.pop(pcol), rest, index, limit)
            if not row:
                del active[idx]
        if reduce:
            for pos in finished_index.pop(pcol):
                row = done[pos][1]
                _subtract(row, pos, -row.pop(pcol), rest, finished_index, limit)
            for c, _ in rest:
                if c < limit:
                    finished_index[c].add(len(done))
        done.append((pcol, prow))
    return done, list(active.values())


def kernel(m: SparseRationalMatrix) -> SparseRationalMatrix:
    """Basis of ker(m), one column per free variable, in column order."""
    pivots, _ = eliminate(m.rows(), reduce=True)
    pivot_cols = {pc for pc, _ in pivots}
    free: dict[int, Vec] = {
        f: {f: Fraction(1)} for f in range(m.ncols) if f not in pivot_cols
    }
    # a reduced pivot row is supported on its pivot column and free columns
    for pc, row in pivots:
        for c, v in row.items():
            if c != pc:
                free[c][pc] = -v
    return rational_matrix(m.ncols, list(free.values()))


def solve_in_basis(
    basis: SubspaceBasis, targets: list[Vec]
) -> list[Vec]:
    """Coordinates of each target vector in the given basis.

    Raises SubspaceEscapeError if some target is not in the span.  The basis
    vectors are assumed independent, so coordinates are unique.
    """
    nb = basis.dim
    nt = len(targets)
    rows = rational_matrix(basis.ambient_dim, basis.vectors + targets).rows()
    pivots, leftover = eliminate(rows, pivot_limit=nb, reduce=True)
    for row in leftover:
        if row:
            bad = sorted(c - nb for c in row)
            raise SubspaceEscapeError(
                f"image escapes codomain subspace (columns {bad})"
            )
    coords: list[Vec] = [dict() for _ in range(nt)]
    for pc, row in pivots:
        for c, v in row.items():
            if c >= nb and v:
                coords[c - nb][pc] = v
    return coords


class FractionMatrix:
    """A matrix in the format before integer columns: sparse columns of
    non-zero rational values and no scalar.  Only what ``structure_matrix``
    writes and the value-by-value ``scale`` that ``test_exactlinalg``
    checks ``SparseRationalMatrix.scale`` against."""

    def __init__(self, nrows: int, cols: list[dict]):
        self.nrows = nrows
        self.ncols = len(cols)
        self._cols = cols

    def columns(self) -> list[dict]:
        return self._cols

    def scale(self, s) -> "FractionMatrix":
        s = Fraction(s)
        if s == 1:
            return self
        if s == -1:
            cols = [{r: -v for r, v in col.items()} for col in self._cols]
        elif s:
            cols = [{r: s * v for r, v in col.items()} for col in self._cols]
        else:
            cols = [dict() for _ in range(self.ncols)]
        return FractionMatrix(self.nrows, cols)


def orbit_sum(n: int, per_m) -> int:
    """sum_m C(n-2, m) 2^m per_m(m) over the weight blocks m = 0..n-2: the
    full space's count of what per_m counts on the representative block."""
    return sum(comb(n - 2, m) * 2**m * per_m(m) for m in range(n - 1))


@dataclasses.dataclass(frozen=True)
class FullSpace:
    """The graded piece wedge^a V* (x) S^B U with every torus weight, as
    the package built it before it built one weight block per m."""

    n: int
    a: int
    B: int

    @property
    def dim(self) -> int:
        return comb(2 * self.n, self.a) * (self.B + 1)


@cache
def full_basis(space: FullSpace) -> dict[tuple[tuple[int, ...], int], int]:
    """Every monomial of the full space mapped to its index: lexicographic
    in (sorted index subset, exponent of e_0), the package's order."""
    monos = itertools.product(
        itertools.combinations(range(2 * space.n), space.a), range(space.B + 1)
    )
    return {mono: i for i, mono in enumerate(monos)}


def monomial_index(space) -> dict:
    """The monomial index of a ``FullSpace`` or of a block ``TwistedSpace``."""
    return full_basis(space) if isinstance(space, FullSpace) else basis_of(space)


def codomain(kind: str, src):
    """The space a structure map of kind ``kind`` on src lands in."""
    a, B = (src.a - 1, src.B + 1) if kind == "d0" else (src.a + 1, src.B - 1)
    if isinstance(src, FullSpace):
        return FullSpace(src.n, a, B)
    return TwistedSpace(src.n, a, B, src.m)


def weight(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    """The torus weight of a wedge monomial: [i in S] - [n+i in S] at each
    quotient pair i = 2..n-1."""
    s = set(subset)
    return tuple((i in s) - (n + i in s) for i in range(2, n))


def representative(n: int, m: int) -> tuple[int, ...]:
    """The weight of block m: (+1)^m 0^(n-2-m)."""
    return (1,) * m + (0,) * (n - 2 - m)


def structure_matrix(kind: str, src) -> FractionMatrix:
    """The matrix behind ``structure_map`` on src, a ``FullSpace`` or a
    block, whose arguments it has checked, one column per source monomial.
    d = d1/(B+1) + d2 is emitted term by term in one pass."""
    n, B = src.n, src.B
    omega, omega_u = symplectic_form(n), plane_contractions(n)
    dst = codomain(kind, src)
    if kind != "d0":
        w1 = {"d1": 1, "d2": 0, "d": Fraction(1, B + 1)}[kind]  # weight of d1
    dst_index = monomial_index(dst)

    def put(col, subset, p, coef):
        if not coef:
            return
        row = dst_index[(subset, p)]
        old = col.get(row)
        if old is None:
            col[row] = coef
        else:
            acc = old + coef
            if acc:
                col[row] = acc
            else:
                del col[row]

    cols: list[dict[int, Fraction]] = []
    for subset, p in monomial_index(src):
        col: dict[int, Fraction] = {}
        cols.append(col)
        if kind == "d0":
            ct = _contract(subset, 0)
            if ct is not None:
                sign, sub = ct
                put(col, sub, p, Fraction(sign))  # times e_1: exponent unchanged
            ct = _contract(subset, 1)
            if ct is not None:
                sign, sub = ct
                put(col, sub, p + 1, Fraction(-sign))  # times e_0
            continue
        for u in (0, 1):
            dc, dp = _deriv(p, B, u)
            if not dc:
                continue
            # d1: contract e_u, wedge the symplectic form
            ct = _contract(subset, u) if w1 else None
            if ct is not None:
                sign, sub = ct
                for sub2, v in _wedge2(sub, omega).items():
                    put(col, sub2, dp, w1 * sign * dc * v)
            if kind == "d1":
                continue
            # d2: wedge the contraction of the symplectic form with e_u
            for j, vj in omega_u[u].items():
                w = _wedge1(subset, j)
                if w is None:
                    continue
                sign, sub = w
                put(col, sub, dp, Fraction(sign * dc) * vj)

    return FractionMatrix(dst.dim, cols)


@cache
def full_structure_map(kind: str, src: FullSpace) -> tuple[SparseRationalMatrix, FullSpace]:
    """``structure_matrix`` on a full space as a package matrix, with its
    codomain; built once per test process, and not to be mutated."""
    dst = codomain(kind, src)
    return rational_matrix(dst.dim, structure_matrix(kind, src).columns()), dst


def annihilator_monomials(space) -> list:
    """The monomials of a ``FullSpace`` or a block whose subset avoids e^0
    and e^1, in basis order."""
    return [mono for mono in monomial_index(space) if not mono[0] or mono[0][0] >= 2]


def full_perp(space: FullSpace) -> SubspaceBasis:
    """wedge^a U-perp (x) S^B U inside the full space: its monomials that
    avoid e^0 and e^1, C(2n-2, a)(B+1) of them."""
    index = full_basis(space)
    basis = SubspaceBasis(space.dim, [{index[mono]: 1} for mono in annihilator_monomials(space)])
    if basis.dim != comb(2 * space.n - 2, space.a) * (space.B + 1):
        raise AssertionError(f"annihilator dimension {basis.dim} at {space}")
    return basis


@cache
def full_fiber_E(space: FullSpace) -> SubspaceBasis:
    """The fiber E^{a,b} in the full space, in the package's basis order:
    the annihilator monomials, then the lifts (mu ^ e^0)(x)(e_0 Q) +
    (mu ^ e^1)(x)(e_1 Q) of the annihilator monomials of degree
    (a-1, b-1); the full space at a = 0.  Checked to be a basis of ker d0
    of the predicted dimension."""
    n, a, b = space.n, space.a, space.B
    if a == 0:
        return SubspaceBasis.full(space.dim)
    index = full_basis(space)
    lifts = []
    for subset, p in annihilator_monomials(FullSpace(n, a - 1, b - 1)) if b else ():
        s0, sub0 = _wedge1(subset, 0)
        s1, sub1 = _wedge1(subset, 1)
        lifts.append({index[(sub0, p + 1)]: s0, index[(sub1, p)]: s1})
    basis = SubspaceBasis(space.dim, full_perp(space).vectors + lifts)
    d0, _ = full_structure_map("d0", space)
    if (
        any(map(d0.image, basis.vectors))
        or basis.private_rows() is None
        or basis.dim != space.dim - rank(d0)
        or basis.dim != comb(2 * n - 2, a) * (b + 1) + comb(2 * n - 2, a - 1) * b
    ):
        raise AssertionError(f"the lifts are no basis of ker d0 at {space}")
    return basis


def full_row_complex(n: int, t: int, subspace, kind: str) -> ChainComplex:
    """The complex of degree t of the subspaces ``subspace`` (``full_perp``
    or ``full_fiber_E``) of the full spaces and the structure map ``kind``
    restricted to them, rightmost term in degree 0."""
    spaces = [FullSpace(n, a, t - a) for a in range(t + 1)]
    bases = [subspace(space) for space in spaces]
    diffs = [
        restrict(full_structure_map(kind, src)[0], dom, cod)
        for src, dom, cod in zip(spaces, bases, bases[1:])
    ]
    return ChainComplex(-t, [basis.dim for basis in bases], diffs)


def full_bicomplex(n: int, t: int) -> Bicomplex:
    """The row of full spaces with the package's maps: d going to the next
    space and d0 to the previous one."""
    spaces = [FullSpace(n, a, t - a) for a in range(t + 1)]
    d = [full_structure_map("d", space)[0] for space in spaces[:-1]]
    d0 = [None, *(full_structure_map("d0", space)[0] for space in spaces[1:])]
    return Bicomplex(n, t, spaces, d, d0)


def grid_maps(bc: Bicomplex) -> tuple[dict, dict]:
    """The row expanded into one horizontal and one vertical map per
    position (b, c), as the grid had them before it was stored as its row:
    at (b, c), with a = t-b-c, d[a] times the package's ``_h_scalar(b, c)``
    (b >= 1) and d0[a] (a >= 1)."""
    t = bc.t
    horizontal = {
        (b, c): bc.d[t - b - c].scale(complexes._h_scalar(b, c))
        for b in range(1, t + 1)
        for c in range(t - b + 1)
    }
    vertical = {(b, c): bc.d0[t - b - c] for b in range(t + 1) for c in range(t - b)}
    return horizontal, vertical


def _layout(bc: Bicomplex) -> tuple[list[list[tuple[int, int]]], dict, list[int]]:
    """The blocks (b, c) of each total degree c - b from -t to t, by b
    within a degree; each block's row offset within its degree; and the
    dimension of each degree."""
    t = bc.t
    layout = [
        [(b, b + deg) for b in range(max(0, -deg), (t - deg) // 2 + 1)]
        for deg in range(-t, t + 1)
    ]
    offsets: dict[tuple[int, int], int] = {}
    dims = []
    for blocks in layout:
        pos = 0
        for b, c in blocks:
            offsets[(b, c)] = pos
            pos += bc.spaces[t - b - c].dim
        dims.append(pos)
    return layout, offsets, dims


def totalize(bc: Bicomplex) -> ChainComplex:
    """Direct-sum total complex, which the package never assembles: it
    certifies the total cohomology from a rank bound on the grid.

    The (b, c) entry sits in total degree c - b; both structure maps raise
    that degree by one.  The maps are the grid's, one per position
    (``grid_maps``), and the vertical map on column b enters with the sign
    (-1)^b, which makes the total differential square to zero.  Each
    degree is one integer matrix with the scalar 1/L, where L is the least
    common denominator of the scalars of the maps out of its blocks; each
    map m enters as its stored integer columns times the integer
    m.scalar L, written at the target entry's row offset.
    """
    layout, offsets, dims = _layout(bc)
    horizontal, vertical = grid_maps(bc)
    diffs = []
    for blocks, nrows in zip(layout, dims[1:]):
        # per block: the maps out of it with their row offsets; the two land
        # in different blocks of the next degree
        pieces = []
        for b, c in blocks:
            maps = []
            if (b, c) in horizontal:
                maps.append((horizontal[(b, c)], offsets[(b - 1, c)]))
            if (b, c) in vertical:
                maps.append((vertical[(b, c)].scale((-1) ** b), offsets[(b, c + 1)]))
            pieces.append(maps)
        den = lcm(*(m.scalar.denominator for maps in pieces for m, _ in maps))
        cols: list[dict[int, int]] = []
        for (b, c), maps in zip(blocks, pieces):
            ints = [((m.scalar * den).numerator, m.columns(), row0) for m, row0 in maps]
            for j in range(bc.spaces[bc.t - b - c].dim):
                cols.append(
                    {row0 + r: k * v for k, mcols, row0 in ints for r, v in mcols[j].items()}
                )
        diffs.append(SparseRationalMatrix(nrows, cols, Fraction(1, den)))
    return ChainComplex(-bc.t, dims, diffs)
