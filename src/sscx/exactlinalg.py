"""Exact sparse linear algebra over the rationals.

Everything downstream (fiber maps, chain complexes, bicomplexes) comes down
to ranks and changes of basis of sparse matrices with small rational
entries, so this module is deliberately minimal: one matrix type, one
elimination core for ranks, and the restriction of a map to subspaces,
whose bases own private rows where coordinates are read off.

The elimination core runs over Q (``rank``) or over F_P for the fixed
prime ``P = 2**31 - 1`` (``pivots_mod_p``).  Both share its column -> rows
index, its pivot rule and its update order; over F_P the values are ints
reduced mod P and the pivot is inverted with ``pow(pv, -1, P)``.  A rank
mod P is a lower bound of the rank over Q, since a minor that is non-zero
mod P is a non-zero integer.  It enters a result only as such a lower
bound, through the package's one cohomology certificate,
``complexes._certified_cohomology``, which decides a complex's cohomology
from lower bounds on its ranks or decides nothing, and then the caller
ranks over Q.  ``complexes.cohomology_dims`` passes it the cleared mod-P
ranks of a complex whose d o d = 0 is verified exactly, and
``complexes._total_cohomology`` exact column ranks plus the mod-P ranks of
a bicomplex's horizontal map on its top kernels.

Over F_P the ranks of a complex are cleared (Chen and Kerber, "Persistent
homology computation with a twist", 2011).  Let d_k: C_k -> C_{k+1} and
d_{k-1}: C_{k-1} -> C_k with d_k d_{k-1} = 0, and let P_k be the pivot
columns of d_k.  The pivot columns of a matrix are independent, so d_k is
injective on span{e_p : p in P_k}; that span therefore meets ker d_k,
which contains im d_{k-1}, only in 0, and deleting the coordinates P_k of
C_k, the rows P_k of d_{k-1}, keeps rank d_{k-1}.  The pivot columns of
d_k with some of its own rows deleted the same way are still independent
columns of d_k.  So ``complexes.cohomology_dims`` ranks a complex from its
last differential to its first, each by ``pivots_mod_p`` with the rows at
the next one's pivot columns skipped, and every rank is the rank over F_P
of the whole differential.

Pivot choice is deterministic (lowest column index; among candidate rows the
sparsest one, ties broken by lowest row index), so every rank in the
package is bit-reproducible.  The elimination core finds pivot columns and
the rows to update through a column -> rows index (structured Gaussian
elimination) instead of rescanning the rows; the index only replaces the
search, so pivots and results are the ones the rule above defines.

A matrix is stored one way only: a ``scalar`` times its list of sparse
columns, each a ``{row: value}`` dict.  Invariant: every stored value is a
non-zero Python ``int`` at a row inside the shape, and ``scalar`` is one
non-zero ``Fraction``; a zero matrix has empty columns and the scalar 1.
The fiber's structure maps are integral but for one denominator per matrix,
so products and restrictions run on ints and touch the rationals only
through the scalars, and ``scale`` is O(1).  ``entries`` and ``==`` work
with values (the scalar applied); ``image``, ``columns`` and ``rows`` hand
out the stored integers, ``block`` slices them under the same scalar, and
``rank`` ignores the scalar.  The constructor trusts its input and takes the
column dicts over as they are, so every caller builds columns that keep the
invariant.  Accumulators store the first contribution to a key as it is and
delete a key whose sum cancels, so no zero is stored.

A matrix is immutable: nothing changes its columns or its scalar once it is
built.  So ``rank`` keeps its result on the matrix and eliminates each
matrix once, and the rank lives exactly as long as the matrix.  A ``scale``d
copy, a ``block`` or a product is a new matrix and is ranked on its own.

No ``int / int`` anywhere: in Python that is a float.  The one division,
``Fraction(v, pv)`` in the core over Q, is made only at a pivot other than
±1; the core over F_P divides by nothing, and neither does reading
coordinates off the private rows of a subspace basis, whose entries are ±1.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property

Vec = dict[int, int | Fraction]
_ONE = Fraction(1)
# the prime of ``pivots_mod_p``, the Mersenne prime 2**31 - 1: a reduced value
# fits in 31 bits and the product of two in 62
P = 2**31 - 1


class SubspaceEscapeError(Exception):
    """The image of a map is not contained in the claimed target subspace."""


class SparseRationalMatrix:
    """Immutable sparse matrix over Q: a rational scalar times sparse integer
    columns, and its rank once ``rank`` has computed it."""

    __slots__ = ("nrows", "ncols", "_cols", "scalar", "_rank")

    def __init__(self, nrows: int, cols: list[Vec], scalar: Fraction = _ONE):
        """scalar times the matrix with the given sparse columns, which must
        keep the invariant (non-zero ints at rows < nrows; scalar a non-zero
        Fraction).  Neither checked nor copied: the list and its dicts become
        the matrix's own.  A matrix with no stored value gets the scalar 1."""
        self.nrows = nrows
        self.ncols = len(cols)
        self._cols = cols
        self.scalar = scalar if any(cols) else _ONE
        self._rank = None

    @property
    def entries(self) -> dict[tuple[int, int], Fraction]:
        """A fresh {(row, col): value} dict of the matrix's values, the
        scalar applied (read by the tests and by perfbench's tracer; nothing
        in the package uses it)."""
        s = self.scalar
        if s == 1:
            return {(r, c): v for c, col in enumerate(self._cols) for r, v in col.items()}
        return {(r, c): s * v for c, col in enumerate(self._cols) for r, v in col.items()}

    def columns(self) -> list[Vec]:
        """The stored integer columns themselves, without the scalar: shared,
        so callers must not modify them."""
        return self._cols

    def rows(self, skip: list[int] | tuple = ()) -> list[Vec]:
        """Fresh row dicts of the stored integers, without the scalar, which
        the caller may consume: one per row not in ``skip``, in row order;
        only the kept rows are filled."""
        rows: list[Vec] = [dict() for _ in range(self.nrows)]
        # the skipped rows' entries land in one dict that is thrown away
        sink: Vec = {}
        for r in skip:
            rows[r] = sink
        for c, col in enumerate(self._cols):
            for r, v in col.items():
                rows[r][c] = v
        return [row for row in rows if row is not sink]

    def block(self, rows: range, cols: range) -> "SparseRationalMatrix":
        """The submatrix at the rows and columns of two step-1 ranges, its
        rows renumbered from 0, with the scalar carried over (1 for a block
        that holds no value)."""
        lo, hi = rows.start, rows.stop
        return SparseRationalMatrix(
            len(rows),
            [{r - lo: v for r, v in self._cols[c].items() if lo <= r < hi} for c in cols],
            self.scalar,
        )

    def scale(self, s) -> "SparseRationalMatrix":
        """s times the matrix, sharing its columns: O(1).  The matrix itself
        when s == 1, as it is immutable."""
        s = Fraction(s)
        if s == 1:
            return self
        if not s:
            return SparseRationalMatrix(self.nrows, [dict() for _ in range(self.ncols)])
        return SparseRationalMatrix(self.nrows, self._cols, self.scalar * s)

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        """Composition self o other (matrix product): the integer columns
        multiplied, the scalars multiplied."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch in composition")
        image = self.image
        return SparseRationalMatrix(
            self.nrows, [image(col) for col in other._cols], self.scalar * other.scalar
        )

    def image(self, vec: Vec) -> Vec:
        """Image of a sparse column vector under the stored columns, without
        the scalar (no stored zeros): empty iff the matrix kills the vector."""
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
        """Equal values: s v == t w is decided as v (s.num t.den) == w (t.num
        s.den) in integers."""
        if not isinstance(other, SparseRationalMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        s, t = self.scalar, other.scalar
        if s == t:
            return self._cols == other._cols
        p, q = s.numerator * t.denominator, t.numerator * s.denominator
        return all(
            mine.keys() == theirs.keys()
            and all(v * p == theirs[r] * q for r, v in mine.items())
            for mine, theirs in zip(self._cols, other._cols)
        )

    def __repr__(self) -> str:
        nnz = sum(map(len, self._cols))
        return f"SparseRationalMatrix({self.nrows}x{self.ncols}, nnz={nnz}, scalar={self.scalar})"


def _eliminate(rows: list[Vec], p: int = 0) -> list[tuple[int, Vec]]:
    """Row elimination core: the pivot rows as (pivot_col, row), in pivot
    order, over Q, or over F_p for a prime ``p``.

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

    Over F_p the rows must hold ints.  Each value is reduced mod p in place
    and the ones that are 0 mod p are dropped before the index is built;
    the pivot row is multiplied by ``pow(pv, -1, p)`` and every update is
    reduced mod p, so the values stay ints in [0, p).  Index, pivot rule
    and update order are the ones over Q.
    """
    active: dict[int, Vec] = {}
    # column -> ids of the active rows with an entry there
    index: dict[int, set[int]] = {}
    for idx, row in enumerate(rows):
        if p:
            for c in row:
                row[c] %= p
            for c in [c for c, v in row.items() if not v]:
                del row[c]
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
        if p:
            if pv != 1:
                inv = pow(pv, -1, p)
                for c in prow:
                    prow[c] = prow[c] * inv % p
        elif pv == -1:
            for c in prow:
                prow[c] = -prow[c]
        elif pv != 1:
            for c in prow:
                prow[c] = Fraction(prow[c], pv)
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
                    # non-zero: a product of two units of Q or of F_p
                    row[c] = nf * v % p if p else nf * v
                    index[c].add(idx)
                else:
                    acc = (old + nf * v) % p if p else old + nf * v
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
    """Rank of m: the rank of its stored integers, as the scalar is non-zero.
    Eliminated on the first call only and kept on m, which is immutable."""
    if m._rank is None:
        m._rank = len(_eliminate(m.rows()))
    return m._rank


def pivots_mod_p(m: SparseRationalMatrix, skip: list[int] | tuple = ()) -> list[int]:
    """Pivot columns over F_P of m's stored integers with the rows in
    ``skip`` deleted, P the module's prime.

    Their number is the rank over F_P of that submatrix, which is at most
    ``rank(m)``: a minor that is non-zero mod P is a non-zero integer.  It
    is not the rank over Q unless ``complexes._certified_cohomology``
    certifies it, nor
    the rank of the whole of m unless the deleted rows are ones it can
    spare (the clearing lemma in the module docstring)."""
    return [pcol for pcol, _ in _eliminate(m.rows(skip), P)]


class SubspaceBasis:
    """Ordered basis of a subspace of Q^ambient_dim: sparse integer columns,
    trusted (unchecked, uncopied) and immutable, as a matrix's are."""

    def __init__(self, ambient_dim: int, vectors: list[dict[int, int]]):
        self.ambient_dim = ambient_dim
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @classmethod
    def full(cls, dim: int) -> "SubspaceBasis":
        return cls(dim, [{i: 1} for i in range(dim)])

    def private_rows(self) -> list[int] | None:
        """For each vector, its first row that no other vector touches; None
        if some vector has no such row.  Private rows make the vectors
        independent, and finding them takes O(nnz), on the first call only."""
        return self._private_rows

    @cached_property
    def _private_rows(self) -> list[int] | None:
        count = Counter(r for vec in self.vectors for r in vec)
        rows = [next((r for r in vec if count[r] == 1), None) for vec in self.vectors]
        return None if None in rows else rows


def solve_in_basis(basis: SubspaceBasis, targets: list[Vec]) -> list[Vec]:
    """Coordinates of each target vector in the given basis, read off at its
    private rows: the target's entry there times the vector's, which must
    be ±1, so integral targets get integral coordinates.  ValueError, before
    any target is read, if a vector has no private row or another entry
    there.  The target minus that combination must be exactly zero;
    otherwise it is not in the span and SubspaceEscapeError is raised.
    """
    pivots = basis.private_rows()
    if pivots is None:
        raise ValueError("basis vector without a private row")
    # private row -> (vector index, its entry there, its other entries)
    owner = {}
    for i, (r, vec) in enumerate(zip(pivots, basis.vectors)):
        pv = vec[r]
        if pv not in (1, -1):
            raise ValueError(f"basis vector {i} has the entry {pv} at its private row {r}")
        owner[r] = (i, pv, [(s, w) for s, w in vec.items() if s != r])
    coords: list[Vec] = []
    for k, target in enumerate(targets):
        coord: Vec = {}
        rest = dict(target)
        for r, v in target.items():
            hit = owner.get(r)
            if hit is None:
                continue
            i, pv, others = hit
            x = v * pv
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
    has none, or one whose entry is not ±1).  The stored integers of m are
    applied to the integer vectors of dom, so the coordinates are integers,
    and m's scalar is kept.

    Raises SubspaceEscapeError if m(dom) is not contained in span(cod); that
    failure mode is itself meaningful, as it refutes a containment claim.
    """
    if dom.ambient_dim != m.ncols:
        raise ValueError("domain ambient dimension does not match matrix")
    if cod.ambient_dim != m.nrows:
        raise ValueError("codomain ambient dimension does not match matrix")
    coords = solve_in_basis(cod, [m.image(v) for v in dom.vectors])
    return SparseRationalMatrix(cod.dim, coords, m.scalar)
