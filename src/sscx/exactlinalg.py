"""Exact sparse linear algebra over the rationals.

Everything downstream (fiber maps, chain complexes, bicomplexes) reduces to
rank, kernel and change-of-basis computations on sparse matrices with small
rational entries, so this module is deliberately minimal: one matrix type,
one elimination core, and a handful of subspace predicates.

Pivot choice is deterministic (lowest column index; among candidate rows the
sparsest one, ties broken by lowest row index), so every computation in the
package is bit-reproducible.  The elimination core finds pivot columns and
the rows to update through a column -> rows index (structured Gaussian
elimination) instead of rescanning the rows; the index only replaces the
search, so pivots and results are the ones the rule above defines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Vec = dict[int, Fraction]


class SubspaceEscapeError(Exception):
    """The image of a map is not contained in the claimed target subspace."""


class SparseRationalMatrix:
    """Immutable sparse matrix over Q, stored as {(row, col): value}."""

    __slots__ = ("nrows", "ncols", "entries", "_cols", "_rows")

    def __init__(self, nrows: int, ncols: int, entries: dict | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) out of range")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean
        self._cols: list[Vec] | None = None
        self._rows: list[Vec] | None = None

    @classmethod
    def from_columns(cls, nrows: int, cols: list[Vec]) -> "SparseRationalMatrix":
        entries = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    entries[(i, j)] = Fraction(v)
        return cls(nrows, len(cols), entries)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "SparseRationalMatrix":
        return cls(nrows, ncols)

    def columns(self) -> list[Vec]:
        if self._cols is None:
            cols: list[Vec] = [dict() for _ in range(self.ncols)]
            for (r, c), v in self.entries.items():
                cols[c][r] = v
            self._cols = cols
        return self._cols

    def rows(self) -> list[Vec]:
        if self._rows is None:
            rows: list[Vec] = [dict() for _ in range(self.nrows)]
            for (r, c), v in self.entries.items():
                rows[r][c] = v
            self._rows = rows
        return self._rows

    def transpose(self) -> "SparseRationalMatrix":
        return SparseRationalMatrix(
            self.ncols, self.nrows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def scale(self, s) -> "SparseRationalMatrix":
        s = Fraction(s)
        if not s:
            return SparseRationalMatrix.zero(self.nrows, self.ncols)
        return SparseRationalMatrix(
            self.nrows, self.ncols, {k: s * v for k, v in self.entries.items()}
        )

    def __add__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            w = entries.get(k, 0) + v
            if w:
                entries[k] = w
            else:
                entries.pop(k, None)
        return SparseRationalMatrix(self.nrows, self.ncols, entries)

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        """Composition self o other (matrix product)."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch in composition")
        mycols = self.columns()
        entries: dict[tuple[int, int], Fraction] = {}
        for (k, c), v in other.entries.items():
            for r, w in mycols[k].items():
                key = (r, c)
                acc = entries.get(key, 0) + v * w
                if acc:
                    entries[key] = acc
                else:
                    entries.pop(key, None)
        return SparseRationalMatrix(self.nrows, other.ncols, entries)

    def apply(self, vec: Vec) -> Vec:
        """Image of a sparse column vector."""
        cols = self.columns()
        out: Vec = {}
        for j, v in vec.items():
            for i, w in cols[j].items():
                acc = out.get(i, 0) + v * w
                if acc:
                    out[i] = acc
                else:
                    out.pop(i, None)
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


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


def _eliminate(
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
                prow[c] /= pv
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


def rank(m: SparseRationalMatrix) -> int:
    rows = [dict(r) for r in m.rows()]
    pivots, _ = _eliminate(rows)
    return len(pivots)


def kernel(m: SparseRationalMatrix) -> SparseRationalMatrix:
    """Basis of ker(m), one column per free variable, in column order."""
    rows = [dict(r) for r in m.rows()]
    pivots, _ = _eliminate(rows, reduce=True)
    pivot_cols = {pc for pc, _ in pivots}
    free: dict[int, Vec] = {
        f: {f: Fraction(1)} for f in range(m.ncols) if f not in pivot_cols
    }
    # a reduced pivot row is supported on its pivot column and free columns
    for pc, row in pivots:
        for c, v in row.items():
            if c != pc:
                free[c][pc] = -v
    return SparseRationalMatrix.from_columns(m.ncols, list(free.values()))


@dataclass
class SubspaceBasis:
    """Ordered basis of a subspace of Q^ambient_dim, as sparse columns."""

    ambient_dim: int
    vectors: list[Vec]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def matrix(self) -> SparseRationalMatrix:
        return SparseRationalMatrix.from_columns(self.ambient_dim, self.vectors)

    @classmethod
    def full(cls, dim: int) -> "SubspaceBasis":
        return cls(dim, [{i: Fraction(1)} for i in range(dim)])


def solve_in_basis(
    basis: SubspaceBasis, targets: list[Vec]
) -> list[Vec]:
    """Coordinates of each target vector in the given basis.

    Raises SubspaceEscapeError if some target is not in the span.  The basis
    vectors are assumed independent, so coordinates are unique.
    """
    nb = basis.dim
    nt = len(targets)
    rows: list[Vec] = [dict() for _ in range(basis.ambient_dim)]
    for j, col in enumerate(basis.vectors):
        for i, v in col.items():
            rows[i][j] = v
    for t, col in enumerate(targets):
        for i, v in col.items():
            rows[i][nb + t] = v
    pivots, leftover = _eliminate(rows, pivot_limit=nb, reduce=True)
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


def restrict(
    m: SparseRationalMatrix, dom: SubspaceBasis, cod: SubspaceBasis
) -> SparseRationalMatrix:
    """Matrix of m restricted to dom, expressed in cod coordinates.

    Raises SubspaceEscapeError if m(dom) is not contained in span(cod); that
    failure mode is itself meaningful, as it refutes a containment claim.
    """
    if m.ncols != 0 and dom.ambient_dim != m.ncols:
        raise ValueError("domain ambient dimension does not match matrix")
    if cod.ambient_dim != m.nrows:
        raise ValueError("codomain ambient dimension does not match matrix")
    images = [m.apply(v) for v in dom.vectors]
    coords = solve_in_basis(cod, images)
    return SparseRationalMatrix.from_columns(cod.dim, coords)


def spans_equal(a: SparseRationalMatrix, b: SparseRationalMatrix) -> bool:
    """Whether the column spans of two matrices (any generating sets) agree."""
    if a.nrows != b.nrows:
        raise ValueError("ambient dimension mismatch")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    joint = {}
    joint.update(a.entries)
    for (r, c), v in b.entries.items():
        joint[(r, a.ncols + c)] = v
    return rank(SparseRationalMatrix(a.nrows, a.ncols + b.ncols, joint)) == ra


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether two subspaces (given by bases) coincide."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim != b.dim:
        return False
    return spans_equal(a.matrix(), b.matrix())
