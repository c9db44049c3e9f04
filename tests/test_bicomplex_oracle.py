"""Differential test of the bicomplex's product flags.

``verify_bicomplex`` decides ``rows_ok``, ``squares`` and ``total_d2``
from products of the maps of the grid's row, once per space, and never
assembles the total complex for them.  Two oracles decide the same flags
another way, on the grid expanded into one map per position
(``linalg_oracle.grid_maps``):

- ``product_flags`` forms every product at every position of the grid,
  with the column sign (-1)^b applied to the vertical maps and each square
  read as a sum, and decides ``total_d2`` from the blocks of the total d²:
  each row composition, each square, each composition of two vertical maps
  in a column, and each square cut off by the antidiagonal;
- ``total_square_flags`` assembles the total complex
  (``linalg_oracle.totalize``; the package never assembles it), squares
  it, and reads ``rows_ok`` and ``squares`` off the blocks of that square
  (from the (b, c) block to (b-2, c) the row identity, to (b-1, c+1) the
  square), and ``total_d2`` off the whole square.

All three must agree on every degree up to n = 5, the size of the
benchmark's grid, and on bicomplexes with a planted scalar or a planted
coefficient of d.  The check conjoins the flags of the weight blocks, and
so do the oracles (``block_flags``).

One block verdict is stricter than the oracles' by design: the package
compares a square's two products once and then checks that the scalars
of the other positions of its antidiagonal stand in the same ratio, so a
wrong scalar fails ``squares`` even where both products are zero and
every position's sum vanishes.
"""

from fractions import Fraction

import pytest

from sscx import complexes
from sscx.complexes import build_bicomplex, verify_bicomplex
from tests.test_faults import CACHED
from linalg_oracle import _layout, grid_maps, matrix_sum, totalize

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
    hor, vertical = grid_maps(bc)
    # the vertical maps with the column sign they carry in the total complex
    ver = {(b, c): m.scale((-1) ** b) for (b, c), m in vertical.items()}
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


def total_square_flags(bc) -> dict[str, int]:
    """The three flags read off the square of the assembled total complex:
    its blocks from (b, c) to (b - 2, c) are the rows, to (b - 1, c + 1)
    the squares, and the whole square is ``total_d2``."""
    layout, offsets, _ = _layout(bc)
    diffs = totalize(bc).differentials

    def span(b: int, c: int) -> range:
        return range(offsets[(b, c)], offsets[(b, c)] + bc.spaces[bc.t - b - c].dim)

    rows_ok = squares = total_d2 = 1
    for k in range(len(diffs) - 1):
        d2 = diffs[k + 1] @ diffs[k]
        total_d2 &= d2.is_zero()
        for b, c in layout[k]:
            src = span(b, c)
            if b >= 2 and not d2.block(span(b - 2, c), src).is_zero():
                rows_ok = 0
            if b >= 1 and c < bc.t - b and not d2.block(span(b - 1, c + 1), src).is_zero():
                squares = 0
    return {"rows_ok": rows_ok, "squares": squares, "total_d2": int(total_d2)}


def block_flags(n: int, bicomplex_of_block, oracle=product_flags) -> dict[str, int]:
    """The ``oracle`` flags of each weight block's bicomplex, conjoined."""
    per_block = [oracle(bicomplex_of_block(m)) for m in range(n - 1)]
    return {flag: min(flags[flag] for flags in per_block) for flag in FLAGS}


def oracle_flags(n: int, bicomplex_of_block) -> dict[str, int]:
    """The flags of both oracles, which must agree."""
    products = block_flags(n, bicomplex_of_block)
    assert block_flags(n, bicomplex_of_block, total_square_flags) == products
    return products


def checked_flags(n: int, t: int) -> dict[str, int]:
    computed = verify_bicomplex(n, t).computed
    return {flag: computed[flag] for flag in FLAGS}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_memoized_flags_match_the_products(n):
    for t in range(0, 2 * n - 1):
        assert checked_flags(n, t) == oracle_flags(n, lambda m: build_bicomplex(n, t, m)), (n, t)


def _negated_h_scalar(monkeypatch, position) -> None:
    """Negate the scalar of the horizontal map at ``position`` alone: the
    checks and the oracles read every horizontal scalar from
    ``complexes._h_scalar``."""
    real = complexes._h_scalar

    def planted(b, c):
        return -real(b, c) if (b, c) == position else real(b, c)

    monkeypatch.setattr(complexes, "_h_scalar", planted)


def _scaled_top_d0(monkeypatch) -> None:
    """d0 on S_t, the vertical map at (0, 0) alone, scaled by 2."""
    real = complexes.build_bicomplex

    def planted(n, t, m):
        bc = real(n, t, m)
        if t:
            bc.d0[t] = bc.d0[t].scale(2)
        return bc

    monkeypatch.setattr(complexes, "build_bicomplex", planted)


PLANTS = {
    "negated horizontal scalar": lambda patch: _negated_h_scalar(patch, (1, 0)),
    "vertical scalar 2": _scaled_top_d0,
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_planted_scalar_flags_match_the_products(plant, monkeypatch, fresh_caches):
    PLANTS[plant](monkeypatch)
    for t in range(2, 7):
        flags = checked_flags(4, t)
        assert flags == oracle_flags(4, lambda m: complexes.build_bicomplex(4, t, m)), t
        assert flags["squares"] == 0 and flags["total_d2"] == 0, t


def test_square_with_the_matrices_of_a_passing_one(monkeypatch, fresh_caches):
    """The squares at (1, 1) and (2, 0) compose the same four matrices, d
    and d0 on the one space S_{t-2}, with the same scalar ratio.  With the
    scalar of the horizontal map at (2, 0) negated, only (2, 0) breaks, and
    the passing square (1, 1) must not hide it."""
    _negated_h_scalar(monkeypatch, (2, 0))
    for t in range(3, 7):
        flags = checked_flags(4, t)
        assert flags == oracle_flags(4, lambda m: build_bicomplex(4, t, m)), t
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
        assert flags == oracle_flags(4, lambda m: build_bicomplex(4, t, m)), t
        broken += flags != dict.fromkeys(FLAGS, 1)
    assert broken


def test_a_square_of_zero_products_still_checks_its_scalars(monkeypatch, fresh_caches):
    """At (n, t) = (4, 3) the square at a = 1, positions (1, 1) and (2, 0),
    composes x = d[0] d0[1] and y = d0[2] d[1], and in weight blocks 1 and
    2 both are zero.  With the scalar at (2, 0) negated, every position's
    sum still vanishes there, so the products pass the block; the package
    fails ``squares``, and with it ``total_d2``, because the scalars at
    (2, 1) and (2, 0) no longer stand in the ratio of those at (1, 2) and
    (1, 1).  In block 0, where x and y are not zero, the verdicts agree.
    The build that compared the square at every position passed blocks 1
    and 2."""
    _negated_h_scalar(monkeypatch, (2, 0))
    for m in range(3):
        bc = build_bicomplex(4, 3, m)
        zero = (bc.d[0] @ bc.d0[1]).is_zero() and (bc.d0[2] @ bc.d[1]).is_zero()
        assert zero == (m >= 1), m
        flags = complexes._bicomplex_flags(4, 3, m)
        assert {flag: int(flags[flag]) for flag in FLAGS} == {
            "rows_ok": 1, "squares": 0, "total_d2": 0
        }, m
        assert product_flags(bc) == (
            {"rows_ok": 1, "squares": 1, "total_d2": 1} if zero
            else {"rows_ok": 1, "squares": 0, "total_d2": 0}
        ), m
