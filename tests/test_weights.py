"""Tests for the weight-combinatorics layer, with independent oracles:
semistandard-tableau counting for the dimension formula (the pairwise Weyl
product is kept beside it as an exact-rational reference), a brute-force
inversion count for the rho-shift, and a brute-force wedge/rank
computation for the symplectic wedge ranks."""

import io
import itertools
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscx import weights
from sscx.cli import run
from sscx.exactlinalg import rank
from sscx.weights import (
    _dropped_terms,
    bbw_pushforward,
    dim_wedge_sp,
    euler_check_Kt,
    phi_cs_survivors,
    pieri_dim_check,
    rank_K,
    rho,
    tphi_on_weight,
    truncation_cohomology,
    vanishing_band_check,
    verify_staircase_pushforward,
    weyl_dim_gl,
)
from linalg_oracle import checked_matrix
from test_staircase_oracle import kept_terms, staircase_terms_gr2


def dominant(w) -> bool:
    """Weakly decreasing entries."""
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def weyl_product_pairwise(lam) -> Fraction:
    """The Weyl product over all pairs i < j of
    (lam_i - lam_j + j - i) / (j - i) as an exact rational, with no
    dominance or integrality check: the reference value of weyl_dim_gl."""
    num = den = 1
    for i, j in itertools.combinations(range(len(lam)), 2):
        num *= lam[i] - lam[j] + j - i
        den *= j - i
    return Fraction(num, den)


def inversions(beta) -> int:
    """Number of pairs i < j with beta_i < beta_j, pair by pair over
    indices: the oracle for the shift of bbw_pushforward."""
    return sum(1 for i, j in itertools.combinations(range(len(beta)), 2)
               if beta[i] < beta[j])


# dominant weights of length 0..24 with 1-4 distinct values, so with long
# runs of equal entries
few_valued_weights = st.lists(
    st.integers(-12, 12), min_size=1, max_size=4, unique=True
).flatmap(
    lambda values: st.lists(st.sampled_from(values), max_size=24).map(
        lambda xs: tuple(sorted(xs, reverse=True))
    )
)


def count_ssyt(shape: tuple[int, ...]) -> int:
    """Number of semistandard Young tableaux of the given (weakly decreasing,
    non-negative) shape with entries in 1..len(shape): an independent oracle
    for the dimension formula."""
    k = len(shape)

    def rows(prev_row, remaining):
        if not remaining:
            yield ()
            return
        width = remaining[0]
        row_min_index = k - len(remaining) + 1
        for row in itertools.product(range(row_min_index, k + 1), repeat=width):
            if any(row[i] > row[i + 1] for i in range(width - 1)):
                continue  # rows weakly increase
            if prev_row is not None and any(
                prev_row[i] >= row[i] for i in range(width)
            ):
                continue  # columns strictly increase
            for rest in rows(row, remaining[1:]):
                yield (row,) + rest

    return sum(1 for _ in rows(None, shape))


# non-negative dominant shapes of length 1..4 with entries up to 3, small
# enough for count_ssyt to enumerate
small_dominant_shapes = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestWeylDim:
    @pytest.mark.parametrize(
        "lam",
        [
            (0,), (3,), (1, 0), (2, 1), (3, 1), (2, 2),
            (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 2, 1), (2, 2, 1),
            (2, 1, 1, 0), (1, 1, 0, 0), (3, 1, 1, 0),
        ],
    )
    def test_against_tableau_count(self, lam):
        assert weyl_dim_gl(lam) == count_ssyt(lam)

    @given(small_dominant_shapes)
    @settings(max_examples=60, deadline=None)
    def test_small_shapes_against_tableau_count(self, lam):
        assert weyl_dim_gl(lam) == count_ssyt(lam)

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.integers(-4, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_twist_invariance(self, lam, c):
        assert weyl_dim_gl(lam) == weyl_dim_gl(tuple(x + c for x in lam))

    def test_negative_entries_via_twist(self):
        assert weyl_dim_gl((0, -1, -2)) == weyl_dim_gl((2, 1, 0))

    def test_non_dominant_rejected(self):
        # a rise anywhere is caught, also after a run of equal entries
        for lam in [(0, 1), (1, 1, 2), (3, 0, 0, 1), (2, 2, 1, 1, 2)]:
            with pytest.raises(ValueError):
                weyl_dim_gl(lam)

    @given(
        st.lists(st.integers(-3, 3), min_size=2, max_size=10)
        .map(tuple)
        .filter(lambda w: not dominant(w))
    )
    @settings(max_examples=120, deadline=None)
    def test_rising_anywhere_rejected(self, lam):
        with pytest.raises(ValueError):
            weyl_dim_gl(lam)

    @given(few_valued_weights)
    @settings(max_examples=300, deadline=None)
    def test_against_pairwise_product(self, lam):
        assert weyl_dim_gl(lam) == weyl_product_pairwise(lam)


class TestBBW:
    def test_dominant_is_fixed(self):
        assert bbw_pushforward((2, 1, 0)) == ((2, 1, 0), 0)

    def test_vanishing(self):
        # gamma + rho = (3, 3, 1): repeated entry
        assert bbw_pushforward((0, 1, 0)) is None

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_dominant_shift_zero(self, lam):
        assert bbw_pushforward(lam) == (lam, 0)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=24).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_shift_is_the_inversion_count(self, gamma):
        beta = [g + x for g, x in zip(gamma, rho(len(gamma)))]
        res = bbw_pushforward(gamma)
        if len(set(beta)) < len(beta):
            assert res is None
        else:
            assert res[1] == inversions(beta)

    @given(st.lists(st.integers(-8, 8), min_size=1, max_size=6).map(tuple))
    @settings(max_examples=120, deadline=None)
    def test_result_dominant_and_shift_bound(self, gamma):
        res = bbw_pushforward(gamma)
        k = len(gamma)
        r = rho(k)
        beta = [g + x for g, x in zip(gamma, r)]
        if len(set(beta)) < k:
            assert res is None
        else:
            w, shift = res
            assert dominant(w)
            assert 0 <= shift <= k * (k - 1) // 2
            # same dimension as the sorted weight (the multiset is preserved)
            assert sorted(x + y for x, y in zip(w, r)) == sorted(beta)


class TestTphi:
    def test_closed_form_is_computed_once_per_argument(self, monkeypatch):
        """One verify-weights process pushes each distinct weight forward and
        cross-checks it against the closed form once; the build that also
        rebuilt every staircase's survivors from the closed form called it
        9,540 times at (12, 6), for 466 distinct weights.  The staircases
        ask once per term of their 19 rows, 627 times, where the walk of
        each of the 190 staircases asked 4,560 times; bbw and the vanishing
        band ask 210 times each."""
        for f in vars(weights).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        real_tphi, real_closed = weights.tphi_on_weight, weights._closed_form
        args = []
        closed_calls = 0

        def recorded(*a):
            args.append(a)
            return real_tphi(*a)

        def counted(*a):
            nonlocal closed_calls
            closed_calls += 1
            return real_closed(*a)

        monkeypatch.setattr(weights, "tphi_on_weight", recorded)
        monkeypatch.setattr(weights, "_closed_form", counted)
        with redirect_stdout(io.StringIO()):
            assert run(["verify-weights", "--n", "12", "--k", "6"]) == 0
        assert closed_calls == len(set(args)) == 466
        assert len(args) == 210 + 627 + 210

    def test_dominant_case(self):
        assert tphi_on_weight(3, 1, 4) == ((3, 1, 0, 0), 0)

    def test_vanishing_band(self):
        k = 5
        for a2 in range(-1, 1 - k, -1):  # -1 >= alpha2 >= 2 - k
            assert tphi_on_weight(2, a2, k) is None

    def test_far_shift(self):
        # closed form: (alpha1, -1, ..., -1, k-2+alpha2) with shift k-2
        assert tphi_on_weight(-1, -4, 3) == ((-1, -1, -3), 1)

    def test_full_band_consistency(self):
        # the routine cross-checks the closed form internally and raises on
        # any disagreement
        for k in range(3, 7):
            for n in range(k, 7):
                for a1 in range(-1, 2 * n - k + 1):
                    for a2 in range(-1, a1 + 1):
                        tphi_on_weight(a1, a2, k)


def staircase_euler_gr2(alpha1: int, alpha2: int, n: int) -> int:
    """Alternating dimension sum of the rank-2 staircase; 0 by exactness."""
    total = 0
    for position, wedge_exp, weight in staircase_terms_gr2(alpha1, alpha2, n):
        total += (-1) ** position * comb(2 * n, wedge_exp) * weyl_dim_gl(weight)
    return total


class TestStaircase:
    def test_term_count_and_shape(self):
        terms = staircase_terms_gr2(2, 1, 3)
        assert len(terms) == 2 * 3
        assert [wedge_exp for _, wedge_exp, _ in terms] == [6, 5, 4, 3, 1, 0]
        assert terms[0] == (0, 6, (0, -3))
        assert terms[-1] == (5, 0, (2, 1))

    def test_truncation_splits_the_staircase(self):
        # every label with alpha2 >= 0 in the staircase validity band
        for n in range(1, 9):
            for a1 in range(0, 2 * n - 1):
                for a2 in range(0, a1 + 1):
                    terms = staircase_terms_gr2(a1, a2, n)
                    kept = kept_terms(a1, a2, n)
                    dropped = _dropped_terms(a1, a2, n)
                    assert sorted(kept + dropped, key=lambda t: t[0]) == terms
                    assert all(min(w) >= 0 for _, _, w in kept), (n, a1, a2)
                    assert all(min(w) < 0 for _, _, w in dropped), (n, a1, a2)

    def test_degenerate_corner(self):
        assert staircase_euler_gr2(0, 0, 3) == 0

    def test_euler_zero_grid(self):
        for n in range(2, 5):
            for a1 in range(0, 2 * n - 1):
                for a2 in range(max(0, a1 - 2 * n + 2), a1 + 1):
                    assert staircase_euler_gr2(a1, a2, n) == 0

    def test_pushforward_grid(self):
        for k in range(3, 6):
            for n in range(k, 6):
                for a1 in range(0, 2 * n - k + 1):
                    for a2 in range(0, a1 + 1):
                        rep = verify_staircase_pushforward(a1, a2, k, n)
                        assert rep.status == "pass", (a1, a2, k, n, rep.computed)


class TestRanks:
    def test_rank_K_one_row(self):
        # single-row truncation is a plain wedge power of the annihilator
        for n in range(2, 6):
            for k in range(2, n + 1):
                for a1 in range(0, 2 * n - k + 1):
                    assert rank_K(a1, 0, k, n) == comb(2 * n - k, a1)

    def brute_wedge_sp(self, r: int, m: int) -> int:
        """Cokernel dimension of wedging with a rank-r symplectic form,
        wedge^{m-2} -> wedge^m: the independent oracle for dim_wedge_sp."""
        if m < 0 or m > r:
            return 0
        form = {(i, r // 2 + i): Fraction(1) for i in range(r // 2)}
        from sscx.fiber import _wedge2

        dom = list(itertools.combinations(range(r), m - 2)) if m >= 2 else []
        cod = list(itertools.combinations(range(r), m))
        idx = {s: i for i, s in enumerate(cod)}
        entries = {}
        for col, subset in enumerate(dom):
            for sub2, v in _wedge2(subset, form).items():
                entries[(idx[sub2], col)] = v
        mat = checked_matrix(len(cod), len(dom), entries)
        return len(cod) - rank(mat)

    def test_dim_wedge_sp_against_brute_force(self):
        for r in range(0, 9, 2):
            for m in range(0, r + 1):
                assert dim_wedge_sp(r, m) == self.brute_wedge_sp(r, m), (r, m)

    def test_dim_wedge_sp_out_of_band(self):
        assert dim_wedge_sp(4, -1) == 0
        assert dim_wedge_sp(4, 3) == 0
        with pytest.raises(ValueError):
            dim_wedge_sp(3, 1)


class TestEulerAndVanishing:
    def test_euler_grid(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                for t in range(0, 2 * n - k + 1):
                    rep = euler_check_Kt(n, k, t)
                    assert rep.status == "pass", (n, k, t, rep.computed)

    def test_acyclic_value_example(self):
        rep = euler_check_Kt(3, 2, 2)
        assert rep.computed == {"chi": 0}

    def test_both_layers_predict_the_same_cohomology_at_k_2(self):
        """The fiber layer's prediction for E^t, read from
        truncation_cohomology(n, 2, t) by the cohomology and snake checks,
        and the Euler check's at k = 2 are the two closed forms they were
        written as, and the Euler check's is the signed sum of the fiber
        layer's."""
        for n in range(2, 31):
            for t in range(2 * n - 1):
                fiber_layer = {}
                if t <= n - 2 and dim_wedge_sp(2 * n - 4, t):
                    fiber_layer[0] = dim_wedge_sp(2 * n - 4, t)
                elif t >= n and dim_wedge_sp(2 * n - 4, 2 * n - 2 - t):
                    fiber_layer[-1] = dim_wedge_sp(2 * n - 4, 2 * n - 2 - t)
                if t <= n - 2:
                    chi = dim_wedge_sp(2 * n - 4, t)
                elif n <= t <= 2 * n - 2:
                    chi = -dim_wedge_sp(2 * n - 4, 2 * n - 2 - t)
                else:
                    chi = 0
                predicted = truncation_cohomology(n, 2, t)
                assert predicted == fiber_layer, (n, t)
                assert sum((-1) ** -d * dim for d, dim in predicted.items()) == chi
                assert euler_check_Kt(n, 2, t).expected == {"chi": chi}, (n, t)

    def test_vanishing_band(self):
        for k in range(3, 6):
            for n in range(k, 6):
                assert vanishing_band_check(n, k).status == "pass"


class TestPhiCsAndPieri:
    def test_unique_survivor(self):
        for k in range(3, 9):
            assert phi_cs_survivors(k) == [(k - 2, 0, 0)]

    def test_pieri_full_grid(self):
        for r in range(0, 7):
            for i in range(r + 1):
                for j in range(r + 1):
                    assert pieri_dim_check(r, i, j), (r, i, j)
