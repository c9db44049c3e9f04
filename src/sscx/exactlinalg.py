"""Exact sparse linear algebra over the rationals.

Everything downstream (fiber maps, chain complexes, bicomplexes) comes down
to ranks and changes of basis of sparse matrices with small rational
entries, so this module is deliberately minimal: one matrix type, one
elimination core for ranks, and the restriction of a map to subspaces,
whose bases own private rows where coordinates are read off.

Pivot choice is deterministic (lowest column index; among candidate rows the
sparsest one, ties broken by lowest row index), so every rank in the
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

from collections import Counter
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


def _eliminate(rows: list[Vec]) -> list[tuple[int, Vec]]:
    """Row elimination core: the pivot rows as (pivot_col, row), in pivot
    order.

    ``rows`` is consumed (the dicts are mutated) and must store no zero
    values.  A column -> rows index replaces any scan of the rows: it is
    built once in O(nnz) and kept current on every fill-in and
    cancellation, so each pivot touches only the rows with an entry in its
    column.  Pivot columns only increase, and fill-in lands only in columns
    of the pivot row, right of the pivot, so one ascending pass over the
    initially occupied columns finds every pivot.  The pivot row is the
    sparsest row in the pivot column, ties broken by lowest input index,
    and each row receives the same updates in the same order as in a plain
    row-by-row elimination, so the result does not depend on the index.
    """
    active: dict[int, Vec] = {}
    # column -> ids of the active rows with an entry there
    index: dict[int, set[int]] = {}
    for idx, row in enumerate(rows):
        if row:
            active[idx] = row
            for c in row:
                index.setdefault(c, set()).add(idx)
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
            index[c].discard(pidx)
        for idx in targets:
            # row += nf * prow, keeping the index current for row idx
            row = active[idx]
            nf = -row.pop(pcol)
            for c, v in rest:
                old = row.get(c)
                if old is None:
                    row[c] = nf * v
                    index[c].add(idx)
                else:
                    acc = old + nf * v
                    if acc:
                        row[c] = acc
                    else:
                        del row[c]
                        index[c].discard(idx)
            if not row:
                del active[idx]
        done.append((pcol, prow))
    return done


def rank(m: SparseRationalMatrix) -> int:
    return len(_eliminate(m.rows()))


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

    def private_rows(self) -> list[int] | None:
        """For each vector, its first row that no other vector touches; None
        if some vector has no such row.  Private rows make the vectors
        independent, and finding them takes O(nnz)."""
        count = Counter(r for vec in self.vectors for r in vec)
        rows = [next((r for r in vec if count[r] == 1), None) for vec in self.vectors]
        return None if None in rows else rows


def solve_in_basis(basis: SubspaceBasis, targets: list[Vec]) -> list[Vec]:
    """Coordinates of each target vector in the given basis, read off at its
    private rows (ValueError, before any target is read, if it has none):
    the target's entry there over the vector's, which is ±1 in every basis
    of the package, so integral targets get integral coordinates.  The
    target minus that combination must be exactly zero; otherwise it is not
    in the span and SubspaceEscapeError is raised.
    """
    pivots = basis.private_rows()
    if pivots is None:
        raise ValueError("basis vector without a private row")
    # private row -> (vector index, 1 / the vector's entry there, or None
    # for an entry 1, and the vector's other entries)
    owner = {}
    for i, (r, vec) in enumerate(zip(pivots, basis.vectors)):
        pv = vec[r]
        others = [(s, w) for s, w in vec.items() if s != r]
        owner[r] = (i, None if pv == 1 else 1 / pv, others)
    coords: list[Vec] = []
    for k, target in enumerate(targets):
        coord: Vec = {}
        rest = dict(target)
        for r, v in target.items():
            hit = owner.get(r)
            if hit is None:
                continue
            i, inv, others = hit
            x = v if inv is None else v * inv
            coord[i] = x
            # x times the vector cancels the target at the private row
            del rest[r]
            for row, w in others:
                old = rest.get(row)
                if old is None:
                    rest[row] = -x * w
                else:
                    acc = old - x * w
                    if acc:
                        rest[row] = acc
                    else:
                        del rest[row]
        if rest:
            raise SubspaceEscapeError(
                f"image escapes codomain subspace (target {k}, rows {sorted(rest)})"
            )
        coords.append(coord)
    return coords


def restrict(
    m: SparseRationalMatrix, dom: SubspaceBasis, cod: SubspaceBasis
) -> SparseRationalMatrix:
    """Matrix of m restricted to dom, expressed in cod coordinates, which
    ``solve_in_basis`` reads off at cod's private rows (ValueError if cod
    has none).

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
