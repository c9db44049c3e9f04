"""Exact sparse linear algebra over the rationals.

Everything downstream (fiber maps, chain complexes, bicomplexes) reduces to
rank, kernel and change-of-basis computations on sparse matrices with small
rational entries, so this module is deliberately minimal: one matrix type,
one elimination core, and the restriction of a map to subspaces.

Pivot choice is deterministic (lowest column index; among candidate rows the
sparsest one, ties broken by lowest row index), so every computation in the
package is bit-reproducible.  The elimination core finds pivot columns and
the rows to update through a column -> rows index (structured Gaussian
elimination) instead of rescanning the rows; the index only replaces the
search, so pivots and results are the ones the rule above defines.

A matrix is stored one way only: as its list of sparse columns, each a
``{row: value}`` dict.  Invariant: every stored value is a non-zero
``Fraction`` at a row inside the shape.  The constructor trusts its input
and takes the column dicts over as they are, so every caller builds columns
that keep the invariant.  Accumulators store the first contribution to a key
as it is and delete a key whose sum cancels, so no zero is stored and no
``Fraction`` is added to an int 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Vec = dict[int, Fraction]


class SubspaceEscapeError(Exception):
    """The image of a map is not contained in the claimed target subspace."""


class SparseRationalMatrix:
    """Immutable sparse matrix over Q, stored as its sparse columns."""

    __slots__ = ("nrows", "ncols", "_cols")

    def __init__(self, nrows: int, cols: list[Vec]):
        """The matrix with the given sparse columns, which must keep the
        invariant (non-zero Fractions at rows < nrows).  Neither checked nor
        copied: the list and its dicts become the matrix's own."""
        self.nrows = nrows
        self.ncols = len(cols)
        self._cols = cols

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """A fresh {(row, col): value} dict of the stored values (read by
        the tests and by perfbench's tracer; nothing in the package uses it)."""
        return {(r, c): v for c, col in enumerate(self._cols) for r, v in col.items()}

    def columns(self) -> list[Vec]:
        """The stored columns themselves: shared, so callers must not modify
        them."""
        return self._cols

    def rows(self) -> list[Vec]:
        """Fresh row dicts, which the caller may consume."""
        rows: list[Vec] = [dict() for _ in range(self.nrows)]
        for c, col in enumerate(self._cols):
            for r, v in col.items():
                rows[r][c] = v
        return rows

    def scale(self, s) -> "SparseRationalMatrix":
        """s times the matrix; the matrix itself when s == 1, as it is
        immutable."""
        s = Fraction(s)
        if s == 1:
            return self
        if s == -1:
            cols = [{r: -v for r, v in col.items()} for col in self._cols]
        elif s:
            cols = [{r: s * v for r, v in col.items()} for col in self._cols]
        else:
            cols = [dict() for _ in range(self.ncols)]
        return SparseRationalMatrix(self.nrows, cols)

    def __add__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        cols = []
        for mine, theirs in zip(self._cols, other._cols):
            col = dict(mine)
            for r, v in theirs.items():
                old = col.get(r)
                if old is None:
                    col[r] = v
                else:
                    w = old + v
                    if w:
                        col[r] = w
                    else:
                        del col[r]
            cols.append(col)
        return SparseRationalMatrix(self.nrows, cols)

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        """Composition self o other (matrix product)."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch in composition")
        return SparseRationalMatrix(
            self.nrows, [self.apply(col) for col in other.columns()]
        )

    def apply(self, vec: Vec) -> Vec:
        """Image of a sparse column vector (no stored zeros)."""
        cols = self._cols
        out: Vec = {}
        for j, v in vec.items():
            for i, w in cols[j].items():
                old = out.get(i)
                if old is None:
                    out[i] = v * w
                else:
                    acc = old + v * w
                    if acc:
                        out[i] = acc
                    else:
                        del out[i]
        return out

    def is_zero(self) -> bool:
        return not any(self._cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._cols == other._cols
        )

    def __repr__(self) -> str:
        nnz = sum(map(len, self._cols))
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, nnz={nnz})"


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
    pivots, _ = _eliminate(m.rows())
    return len(pivots)


def kernel(m: SparseRationalMatrix) -> SparseRationalMatrix:
    """Basis of ker(m), one column per free variable, in column order."""
    pivots, _ = _eliminate(m.rows(), reduce=True)
    pivot_cols = {pc for pc, _ in pivots}
    free: dict[int, Vec] = {
        f: {f: Fraction(1)} for f in range(m.ncols) if f not in pivot_cols
    }
    # a reduced pivot row is supported on its pivot column and free columns
    for pc, row in pivots:
        for c, v in row.items():
            if c != pc:
                free[c][pc] = -v
    return SparseRationalMatrix(m.ncols, list(free.values()))


@dataclass
class SubspaceBasis:
    """Ordered basis of a subspace of Q^ambient_dim, as sparse columns."""

    ambient_dim: int
    vectors: list[Vec]

    @property
    def dim(self) -> int:
        return len(self.vectors)

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
    rows = SparseRationalMatrix(basis.ambient_dim, basis.vectors + targets).rows()
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
    return SparseRationalMatrix(cod.dim, coords)
