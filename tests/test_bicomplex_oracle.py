"""Differential test of the bicomplex's product flags.

``verify_bicomplex`` squares the differentials of ``totalize``'s total
complex once: that verdict is ``total_d2``, and ``rows_ok`` and ``squares``
are read off the blocks of the same square.  The oracle here forms every
product on the grid instead, without ``totalize``, and decides ``total_d2``
from the blocks of the total d²: each row composition, each square, each
composition of two vertical maps in a column, and each square cut off by
the antidiagonal.  Both must agree on every degree up to n = 4 and on
bicomplexes with a planted scalar or a planted coefficient of d.  The
check conjoins the flags of the weight blocks, and so does the oracle
(``block_flags``).
"""

from fractions import Fraction

import pytest

from sscx import complexes
from sscx.complexes import build_bicomplex, verify_bicomplex
from tests.test_faults import CACHED
from linalg_oracle import matrix_sum

FLAGS = ("rows_ok", "squares", "total_d2")


@pytest.fixture
def fresh_caches():
    """Matrices built from a planted map must not outlive the test."""
    for f in CACHED:
        f.cache_clear()
    yield
    for f in CACHED:
        f.cache_clear()


def product_flags(bc) -> dict[str, int]:
    """The three flags with every product formed on the grid.  The total d²
    is zero exactly when its blocks are: d o d in the rows, d0 o d0 in the
    columns, the squares, and the squares cut off by the antidiagonal, where
    only the path through column b - 1 exists."""
    t = bc.t
    hor = bc.horizontal
    # the vertical maps with the column sign they carry in the total complex
    ver = {(b, c): m.scale((-1) ** b) for (b, c), m in bc.vertical.items()}
    rows_ok = int(all(
        (hor[(b - 1, c)] @ hor[(b, c)]).is_zero()
        for b in range(2, t + 1)
        for c in range(t - b + 1)
    ))
    squares = int(all(
        matrix_sum(ver[(b - 1, c)] @ hor[(b, c)], hor[(b, c + 1)] @ ver[(b, c)]).is_zero()
        for b in range(1, t + 1)
        for c in range(t - b)
    ))
    columns = all(
        (ver[(b, c + 1)] @ ver[(b, c)]).is_zero()
        for b in range(t + 1)
        for c in range(t - b - 1)
    )
    edges = all(
        (ver[(b - 1, t - b)] @ hor[(b, t - b)]).is_zero() for b in range(1, t + 1)
    )
    total_d2 = int(rows_ok and squares and columns and edges)
    return {"rows_ok": rows_ok, "squares": squares, "total_d2": total_d2}


def block_flags(n: int, bicomplex_of_block) -> dict[str, int]:
    """``product_flags`` of each weight block's bicomplex, conjoined."""
    per_block = [product_flags(bicomplex_of_block(m)) for m in range(n - 1)]
    return {flag: min(flags[flag] for flags in per_block) for flag in FLAGS}


def checked_flags(n: int, t: int) -> dict[str, int]:
    computed = verify_bicomplex(n, t).computed
    return {flag: computed[flag] for flag in FLAGS}


@pytest.mark.parametrize("n", (2, 3, 4))
def test_memoized_flags_match_the_products(n):
    for t in range(0, 2 * n - 1):
        assert checked_flags(n, t) == block_flags(n, lambda m: build_bicomplex(n, t, m)), (n, t)


def _replace_map(maps: dict, key, factor) -> dict:
    """A copy of ``maps`` with the map at ``key`` scaled by ``factor``."""
    return {**maps, key: maps[key].scale(factor)}


PLANTS = {
    "negated horizontal scalar": lambda bc: bc._replace(
        horizontal=_replace_map(bc.horizontal, (1, 0), -1)
    ),
    "vertical scalar 2": lambda bc: bc._replace(
        vertical=_replace_map(bc.vertical, (0, 0), 2)
    ),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_scalar_flags_match_the_products(plant, monkeypatch, fresh_caches):
    real = complexes.build_bicomplex

    def planted(n, t, m):
        return PLANTS[plant](real(n, t, m))

    monkeypatch.setattr(complexes, "build_bicomplex", planted)
    for t in range(2, 7):
        flags = checked_flags(4, t)
        assert flags == block_flags(4, lambda m: planted(4, t, m)), t
        assert flags["squares"] == 0 and flags["total_d2"] == 0, t


def test_square_with_the_matrices_of_a_passing_one(monkeypatch, fresh_caches):
    """The squares at (1, 1) and (2, 0) compose the same four matrices with
    the same scalar ratio.  With the scalar of the horizontal map at (2, 0)
    negated, only (2, 0) breaks, and the passing square (1, 1) must not
    hide it."""
    real = complexes.build_bicomplex

    def planted(n, t, m):
        bc = real(n, t, m)
        return bc._replace(horizontal=_replace_map(bc.horizontal, (2, 0), -1))

    monkeypatch.setattr(complexes, "build_bicomplex", planted)
    for t in range(3, 7):
        flags = checked_flags(4, t)
        assert flags == block_flags(4, lambda m: planted(4, t, m)), t
        assert flags == {"rows_ok": 1, "squares": 0, "total_d2": 0}, t


def test_planted_d_coefficient_flags_match_the_products(monkeypatch, fresh_caches):
    real = complexes.structure_map

    def planted(kind, src):
        """d with the weight 1/(B+2) of d1 instead of 1/(B+1)."""
        if kind != "d":
            return real(kind, src)
        m1, dst = real("d1", src)
        m2, _ = real("d2", src)
        return matrix_sum(m1.scale(Fraction(1, src.B + 2)), m2), dst

    # only the bicomplex sees the planted map: the truncation complexes it is
    # compared with are built, and cached, with the true d first
    for t, m in ((t, m) for t in range(0, 7) for m in range(3)):
        complexes.build_Et(4, t, m)
    monkeypatch.setattr(complexes, "structure_map", planted)
    broken = 0
    for t in range(0, 7):
        flags = checked_flags(4, t)
        assert flags == block_flags(4, lambda m: build_bicomplex(4, t, m)), t
        broken += flags != dict.fromkeys(FLAGS, 1)
    assert broken
