"""Reference linear algebra the tests compare the package against.

``checked_matrix`` builds a matrix from a ``{(row, col): value}`` dict and
checks and normalizes every entry, so a matrix that some operation built
from its own columns can be compared with its checked rebuild.
``spans_equal`` and ``subspace_equal`` decide subspace equality by three
plain ranks; the verifier decides it by containment plus dimension, and
these are the oracle it must agree with.
"""

from fractions import Fraction

from sscx.exactlinalg import SparseRationalMatrix, SubspaceBasis, rank


def checked_matrix(nrows: int, ncols: int, entries: dict | None = None) -> SparseRationalMatrix:
    """The matrix with the given {(row, col): value} entries, range-checked
    and wrapped in Fraction; zero values are dropped."""
    if nrows < 0 or ncols < 0:
        raise ValueError("negative matrix dimension")
    cols: list[dict] = [dict() for _ in range(ncols)]
    for (r, c), v in (entries or {}).items():
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r},{c}) out of range")
        v = Fraction(v)
        if v:
            cols[c][r] = v
    return SparseRationalMatrix(nrows, cols)


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
