"""The staircase check of the weight layer, which reads each staircase as a
window of one row per alpha2, against the object-based formulation of the
term-by-term walk: one frozen term object per staircase term, the
list of pushed-forward survivors, their positions, an ``all`` over
neighbouring pairs and an Euler sum signed by ``(-1) ** p``; and the rank of
a truncation bundle summed over the kept term objects.  Also the Weyl
product that skips the pairs of equal entries against the product over all
pairs."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

import pytest

from sscx import weights
from sscx.weights import (
    _dropped_terms,
    _staircase_slice,
    rank_K,
    verify_staircase_pushforward,
    weyl_dim_gl,
)


WEIGHT_MEMOS = [f for f in vars(weights).values() if hasattr(f, "cache_clear")]


@pytest.fixture(autouse=True)
def fresh_weight_memos():
    """A plant must reach every weight memo, and no row or pushforward built
    by an earlier test, planted or not, may answer for it."""
    for f in WEIGHT_MEMOS:
        f.cache_clear()
    yield
    for f in WEIGHT_MEMOS:
        f.cache_clear()


@dataclass(frozen=True)
class StaircaseTerm:
    """One term wedge^{wedge_exp} V* (x) Sigma^{weight} U* of a staircase complex."""

    position: int
    wedge_exp: int
    weight: tuple[int, ...]


def oracle_terms(alpha1, alpha2, n) -> list[StaircaseTerm]:
    start = alpha1 - 2 * n + 1
    return [
        StaircaseTerm(m - start, alpha1 + 1 - m, (alpha2 - 1, m)) if m < alpha2
        else StaircaseTerm(m - start, alpha1 - m, (m, alpha2))
        for m in range(start, alpha1 + 1)
    ]


def staircase_terms_gr2(alpha1, alpha2, n) -> list[tuple]:
    """Ordered term list of the rank-2 staircase complex on Gr(2,2n), as
    plain (position, wedge_exp, weight) tuples.

    Two rows: the second weight component climbs from alpha1-2n+1 to
    alpha2-1 while the wedge exponent falls from 2n, then the first
    component climbs from alpha2 to alpha1 while the wedge exponent falls
    to 0.  The wedge exponent drops by 2 at the corner between the rows.
    The weight layer reads staircases as windows of rows and never lists
    one whole; the tests and the fault plants do.
    """
    if not (alpha1 >= alpha2 >= alpha1 - 2 * n + 2):
        raise ValueError("weight outside the staircase validity band")
    return _staircase_slice(alpha1, alpha2, n, alpha1 - 2 * n + 1, alpha1 + 1)


def kept_terms(alpha1, alpha2, n) -> list[tuple]:
    """The staircase terms a truncation keeps, those without a negative
    weight entry.  For alpha2 >= 0 the second row is non-negative and a
    first-row term (alpha2 - 1, m) is negative exactly when m < 0."""
    return _staircase_slice(alpha1, alpha2, n, max(alpha1 - 2 * n + 1, 0), alpha1 + 1)


def all_pairs_product(lam) -> Fraction:
    """The Weyl product over every pair i < j, equal entries included."""
    num = den = 1
    for i, j in combinations(range(len(lam)), 2):
        num *= lam[i] - lam[j] + j - i
        den *= j - i
    return Fraction(num, den)


@cache  # the oracle's own memo: the benchmark-size band asks each weight ~40 times
def oracle_dim(lam) -> int:
    dim = all_pairs_product(lam)
    assert dim.denominator == 1, lam
    return int(dim)


def oracle_staircase(alpha1, alpha2, k, n) -> dict:
    survivors = []
    mismatches = 0
    for t in oracle_terms(alpha1, alpha2, n):
        try:
            push = weights.tphi_on_weight(t.weight[0], t.weight[1], k)
        except AssertionError:
            mismatches += 1
            continue
        if push is None:
            continue
        weight, shift = push
        survivors.append((t.position + shift, t.wedge_exp, weight))
    positions = [p for p, _, _ in survivors]
    increasing = all(p < q for p, q in zip(positions, positions[1:]))
    euler = sum((-1) ** p * comb(2 * n, j) * oracle_dim(w) for p, j, w in survivors)
    return {
        "positions_increasing": int(increasing),
        "euler": euler,
        "shape_ok": int(not mismatches),
    }


def oracle_rank_K(alpha1, alpha2, k, n) -> int:
    kept = [t for t in oracle_terms(alpha1, alpha2, n) if min(t.weight) >= 0]
    return sum(
        (-1) ** pos * comb(2 * n, t.wedge_exp) * oracle_dim(t.weight + (0,) * (k - 2))
        for pos, t in enumerate(kept)
    )


def band(n_max, k_min):
    """Every (alpha1, alpha2, k, n) with 2n - k >= alpha1 >= alpha2 >= 0 and
    k_min <= k <= n <= n_max."""
    return [
        (a1, a2, k, n)
        for n in range(k_min, n_max + 1)
        for k in range(k_min, n + 1)
        for a1 in range(2 * n - k + 1)
        for a2 in range(a1 + 1)
    ]


def test_terms_are_the_term_objects():
    for n in range(1, 11):
        for a1 in range(2 * n - 1):
            for a2 in range(max(0, a1 - 2 * n + 2), a1 + 1):
                objects = [(t.position, t.wedge_exp, t.weight) for t in oracle_terms(a1, a2, n)]
                assert staircase_terms_gr2(a1, a2, n) == objects
                assert kept_terms(a1, a2, n) == [t for t in objects if min(t[2]) >= 0]
                assert _dropped_terms(a1, a2, n) == [t for t in objects if min(t[2]) < 0]


def _far_shift_by_k(real):
    def planted(alpha1, alpha2, k):
        if alpha2 < 2 - k:
            return (alpha1,) + (-1,) * (k - 2) + (k - 2 + alpha2,), k
        return real(alpha1, alpha2, k)
    return planted


def _odd_shift_on_odd_alpha1(real):
    def planted(alpha1, alpha2, k):
        push = real(alpha1, alpha2, k)
        if push is None or alpha1 % 2 == 0:
            return push
        return push[0], push[1] + 1
    return planted


def _mismatch_on_alpha2_minus_2(real):
    def planted(alpha1, alpha2, k):
        if alpha2 == -2:
            raise AssertionError("planted mismatch")
        return real(alpha1, alpha2, k)
    return planted


@pytest.mark.parametrize(
    "plant", [None, _far_shift_by_k, _odd_shift_on_odd_alpha1, _mismatch_on_alpha2_minus_2]
)
def test_staircase_report_is_the_oracle(monkeypatch, plant):
    """On the real pushforward every flag passes; the plants make the walk
    see positions that fall, an Euler sum that moves and terms that fail
    their cross-check, and it must read each as the oracle does."""
    if plant is not None:
        monkeypatch.setattr(weights, "tphi_on_weight", plant(weights.tphi_on_weight))
    failing = 0
    for a1, a2, k, n in band(10, 3):
        rep = verify_staircase_pushforward(a1, a2, k, n)
        assert rep.computed == oracle_staircase(a1, a2, k, n), (a1, a2, k, n)
        failing += rep.status == "fail"
    assert bool(failing) == (plant is not None)


def test_rank_K_is_the_oracle():
    for a1, a2, k, n in band(10, 2):
        assert rank_K(a1, a2, k, n) == oracle_rank_K(a1, a2, k, n), (a1, a2, k, n)


def test_rank_K_raises_where_the_walk_raised(monkeypatch):
    """A dimension that raises on the weight (3, 1) fails exactly the
    truncations whose kept terms hold it, with its own error, as a walk of
    the kept terms would; every other truncation keeps its rank.  The term
    is the last kept one of (3, 1) and a first-row one of (alpha1, 4)."""
    real = weights.weyl_dim_gl

    def planted(lam):
        if lam[:2] == (3, 1):
            raise AssertionError(f"planted at {lam}")
        return real(lam)

    monkeypatch.setattr(weights, "weyl_dim_gl", planted)
    raised = set()
    for a1, a2, k, n in band(8, 2):
        if any(w == (3, 1) for _, _, w in kept_terms(a1, a2, n)):
            raised.add((a1, a2))
            with pytest.raises(AssertionError, match=r"planted at \(3, 1"):
                rank_K(a1, a2, k, n)
        else:
            assert rank_K(a1, a2, k, n) == oracle_rank_K(a1, a2, k, n), (a1, a2, k, n)
    assert {(3, 1), (4, 4)} <= raised


def labels(n, k):
    return [(a1, a2) for a1 in range(2 * n - k + 1) for a2 in range(a1 + 1)]


@pytest.mark.parametrize("n, k", [(40, 20), (12, 12)])
def test_staircase_windows_are_the_oracle_at_benchmark_size(n, k):
    """Every label of the benchmark's band, 1,891 at (40, 20), each a window
    of one row per alpha2, and the band where k = n."""
    for a1, a2 in labels(n, k):
        rep = verify_staircase_pushforward(a1, a2, k, n)
        assert rep.computed == oracle_staircase(a1, a2, k, n), (a1, a2, k, n)
        assert rep.status == "pass"


@pytest.mark.parametrize("n, k", [(40, 20), (12, 12), (40, 2)])
def test_rank_K_is_the_oracle_at_benchmark_size(n, k):
    for a1, a2 in labels(n, k):
        assert rank_K(a1, a2, k, n) == oracle_rank_K(a1, a2, k, n), (a1, a2, k, n)


def test_weyl_dim_is_the_all_pairs_product():
    """On the weights the staircase and truncation checks ask for: the
    padded (x, y, 0^{k-2}) and the far-shift (x, -1^{k-2}, z)."""
    for k in range(2, 21):
        for x in range(13):
            for y in range(x + 1):
                lam = (x, y) + (0,) * (k - 2)
                assert weyl_dim_gl(lam) == all_pairs_product(lam), lam
        for x in range(-1, 12):
            for z in range(-13, 0):
                lam = (x,) + (-1,) * (k - 2) + (z,)
                assert weyl_dim_gl(lam) == all_pairs_product(lam), lam
