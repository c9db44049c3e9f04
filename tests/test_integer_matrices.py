"""Differential test of the integer structure matrices against the Fraction
build they replaced (``linalg_oracle.structure_matrix`` and
``linalg_oracle.totalize``): the scalar times the stored integers must be
the old matrix, value for value, for every structure matrix at n <= 5 and
every total differential at n <= 4, in every weight block."""

import pytest

from sscx import fiber
from sscx.complexes import build_bicomplex, totalize
from sscx.fiber import TwistedSpace
import linalg_oracle as oracle
from linalg_oracle import value_columns


def _structure_keys(n):
    """Every (kind, a, B) with B < 2n: the band a + B <= 2n - 2 the checks
    use and beyond."""
    keys = []
    for a in range(2 * n + 1):
        for B in range(2 * n):
            if B >= 1 and a < 2 * n:
                keys += [(kind, a, B) for kind in ("d1", "d2", "d")]
            if a >= 1:
                keys.append(("d0", a, B))
    return keys


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_structure_matrices_match_the_fraction_build(n):
    for (kind, a, B), m in ((key, m) for key in _structure_keys(n) for m in range(n - 1)):
        space = TwistedSpace(n, a, B, m)
        new = fiber._structure_matrix.__wrapped__(kind, space)
        old = oracle.structure_matrix(kind, space)
        assert new.nrows == old.nrows, (kind, a, B, m)
        assert value_columns(new) == old.columns(), (kind, a, B, m)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_total_differentials_match_the_fraction_build(n):
    for t, m in ((t, m) for t in range(2 * n - 1) for m in range(n - 1)):
        bc = build_bicomplex(n, t, m)
        new = totalize(bc)
        old = oracle.totalize(oracle.reference_bicomplex(bc))
        assert (new.degree_offset, new.dims) == (old.degree_offset, old.dims), t
        for mine, theirs in zip(new.differentials, old.differentials):
            assert mine.nrows == theirs.nrows, t
            assert value_columns(mine) == theirs.columns(), t
