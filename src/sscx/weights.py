"""Integer weight combinatorics for GL / Sp equivariant bundle bookkeeping.

Weights are plain tuples of integers.  This module provides the Weyl
dimension formula, the Borel--Bott--Weil rho-shift pushforward along a
Grassmannian fibration, enumeration of staircase-complex terms on Gr(2,2n),
and the rank / Euler-characteristic checks used for k >= 3, where no fiber
matrices are built and everything is decided by dimensions alone.  A
truncation is the staircase without its negative-weight terms: ``rank_K``
sums the terms it keeps, ``vanishing_band_check`` walks the ones it drops.
The six weight checks of the CLI (bbw, staircase, euler, phics, pieri,
vanishing) live here and return one Report each.

The checks ask for the same few thousand weights again and again, so the
two primitives they share are memoized per process: ``weyl_dim_gl`` by
weight and ``tphi_on_weight`` by ``(alpha1, alpha2, k)``.  Each is the
textbook formula, the Weyl product over the pairs with distinct entries
(a pair of equal entries has factor 1) and the pushforward with its
closed-form cross-check, computed once per distinct argument.  A staircase
term is a plain ``(position, wedge_exp, weight)`` tuple, and each check
walks its terms in one pass.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, inf

from .report import Report

Weight = tuple[int, ...]
# a staircase term wedge^{wedge_exp} V* (x) Sigma^{weight} U*: (position, wedge_exp, weight)
Term = tuple[int, int, Weight]


def rho(k: int) -> Weight:
    """(k, k-1, ..., 1)."""
    return tuple(range(k, 0, -1))


@cache
def weyl_dim_gl(lam: Weight) -> int:
    """Dimension of the irreducible GL_k representation with highest weight lam:
    the Weyl product over pairs i < j of (lam_i - lam_j + j - i) / (j - i),
    skipping the pairs with lam_i == lam_j, whose factor is 1.

    Negative entries are allowed (the formula is invariant under adding a
    constant to all entries, i.e. under determinant twists).
    """
    num = den = 1
    for (i, x), (j, y) in combinations(enumerate(lam), 2):
        if x != y:
            if x < y:
                raise ValueError("non-dominant weight")
            num *= x - y + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"Weyl product is not integral at {lam}")
    return dim


def bbw_pushforward(gamma: Weight) -> tuple[Weight, int] | None:
    """Rho-shift pushforward of a length-k weight along a Gr(2,k) fibration.

    Returns None when gamma + rho has a repeated entry (the derived
    pushforward vanishes); otherwise (sorted(gamma + rho) - rho, shift),
    where shift is the length of the minimal sorting permutation: the
    number of pairs i < j with beta_i < beta_j for beta = gamma + rho.
    """
    k = len(gamma)
    if k < 1:
        raise ValueError("weight must be nonempty")
    r = rho(k)
    beta = [g + x for g, x in zip(gamma, r)]
    if len(set(beta)) < k:
        return None
    shift = sum(x < y for x, y in combinations(beta, 2))
    return tuple(b - x for b, x in zip(sorted(beta, reverse=True), r)), shift


def _closed_form(alpha1: int, alpha2: int, k: int) -> tuple[Weight, int] | None:
    """Pushforward of the rank-2 weight (alpha1, alpha2) padded to length k,
    by the three-case closed form: dominant case / vanishing band / far
    shift."""
    if alpha2 >= 0:
        return (alpha1, alpha2) + (0,) * (k - 2), 0
    if alpha2 >= 2 - k:
        return None
    return (alpha1,) + (-1,) * (k - 2) + (k - 2 + alpha2,), k - 2


@cache
def tphi_on_weight(alpha1: int, alpha2: int, k: int) -> tuple[Weight, int] | None:
    """Pushforward of the rank-2 weight (alpha1, alpha2) padded to length k.

    Cross-checks the generic rho-shift computation against the closed form
    and raises if they ever disagree.
    """
    if not (alpha1 >= alpha2 and alpha1 >= -1 and k >= 3):
        raise ValueError("need alpha1 >= alpha2, alpha1 >= -1, k >= 3")
    generic = bbw_pushforward((alpha1, alpha2) + (0,) * (k - 2))
    closed = _closed_form(alpha1, alpha2, k)
    if generic != closed:
        raise AssertionError(
            f"closed form disagrees with rho-shift at ({alpha1},{alpha2},k={k}): "
            f"{closed} vs {generic}"
        )
    return generic


def bbw_check(n: int, k: int) -> Report:
    """Closed-form pushforward agreement for alpha1 >= alpha2 >= -1;
    tphi_on_weight raises AssertionError on every disagreement.  The band
    never reaches the far-shift case (alpha2 <= 1 - k): only the staircase
    check covers that one."""
    checked = 0
    mismatches = 0
    for a1 in range(-1, 2 * n - k + 1):
        for a2 in range(-1, a1 + 1):
            checked += 1
            try:
                tphi_on_weight(a1, a2, k)
            except AssertionError:
                mismatches += 1
    return Report(
        "bbw",
        {"n": n, "k": k},
        {"mismatches": 0, "checked": checked},
        {"mismatches": mismatches, "checked": checked},
    )


def staircase_terms_gr2(alpha1: int, alpha2: int, n: int) -> list[Term]:
    """Ordered term list of the rank-2 staircase complex on Gr(2,2n).

    Two rows: the second weight component climbs from alpha1-2n+1 to
    alpha2-1 while the wedge exponent falls from 2n, then the first
    component climbs from alpha2 to alpha1 while the wedge exponent falls
    to 0.  The wedge exponent drops by 2 at the corner between the rows.
    """
    if not (alpha1 >= alpha2 >= alpha1 - 2 * n + 2):
        raise ValueError("weight outside the staircase validity band")
    return _staircase_slice(alpha1, alpha2, n, alpha1 - 2 * n + 1, alpha1 + 1)


def _staircase_slice(alpha1: int, alpha2: int, n: int, lo: int, hi: int) -> list[Term]:
    """The staircase terms whose climbing weight entry m runs over lo..hi-1,
    each a plain (position, wedge_exp, weight) tuple: the term of m sits at
    position m - (alpha1 - 2n + 1), in the first row when m < alpha2 and in
    the second otherwise.  Every check walks its terms through this one
    enumeration."""
    start = alpha1 - 2 * n + 1
    return [
        (m - start, alpha1 + 1 - m, (alpha2 - 1, m)) if m < alpha2
        else (m - start, alpha1 - m, (m, alpha2))
        for m in range(lo, hi)
    ]


def _kept_terms(alpha1: int, alpha2: int, n: int) -> list[Term]:
    """The staircase terms a truncation keeps, those without a negative
    weight entry.  For alpha2 >= 0 the second row is non-negative and a
    first-row term (alpha2 - 1, m) is negative exactly when m < 0."""
    return _staircase_slice(alpha1, alpha2, n, max(alpha1 - 2 * n + 1, 0), alpha1 + 1)


def _dropped_terms(alpha1: int, alpha2: int, n: int) -> list[Term]:
    """The staircase terms a truncation drops, for alpha2 >= 0: the
    first-row terms with m < 0."""
    return _staircase_slice(alpha1, alpha2, n, alpha1 - 2 * n + 1, 0)


def verify_staircase_pushforward(
    alpha1: int, alpha2: int, k: int, n: int
) -> Report:
    """Push every rank-2 staircase term to the length-k side and check that
    the surviving terms form a complex-shaped, Euler-trivial term list: their
    shifted positions strictly increase and their signed dimensions sum to 0.
    ``shape_ok`` says that no term's rho-shift pushforward disagreed with
    its closed form: tphi_on_weight raises AssertionError on each
    disagreement, and such a term is counted and left out."""
    if not (2 * n - k >= alpha1 >= alpha2 >= 0 and 3 <= k <= n):
        raise ValueError("parameters outside the verified band")
    params = {"alpha1": alpha1, "alpha2": alpha2, "k": k, "n": n}
    mismatches = euler = 0
    increasing = True
    last = -inf
    for position, wedge_exp, (a1, a2) in staircase_terms_gr2(alpha1, alpha2, n):
        try:
            push = tphi_on_weight(a1, a2, k)
        except AssertionError:
            mismatches += 1
            continue
        if push is None:
            continue
        weight, shift = push
        position += shift
        if position <= last:
            increasing = False
        last = position
        term = comb(2 * n, wedge_exp) * weyl_dim_gl(weight)
        euler += -term if position & 1 else term
    computed = {
        "positions_increasing": int(increasing),
        "euler": euler,
        "shape_ok": int(not mismatches),
    }
    expected = {"positions_increasing": 1, "euler": 0, "shape_ok": 1}
    return Report("staircase", params, expected, computed)


def rank_K(alpha1: int, alpha2: int, k: int, n: int) -> int:
    """Rank of the truncation bundle with label (alpha1, alpha2) on Gr(k,2n),
    as the alternating dimension sum along its two-row resolution: the
    staircase terms without a negative weight entry, signed from the first
    of them."""
    if not (2 * n - k >= alpha1 >= alpha2 >= 0 and 2 <= k <= n):
        raise ValueError("parameters outside the resolution band")
    pad = (0,) * (k - 2)
    total = 0
    sign = 1
    for _, wedge_exp, weight in _kept_terms(alpha1, alpha2, n):
        total += sign * comb(2 * n, wedge_exp) * weyl_dim_gl(weight + pad)
        sign = -sign
    if total < 0:
        raise AssertionError(f"negative rank {total} at {(alpha1, alpha2, k, n)}")
    return total


def dim_wedge_sp(r: int, m: int) -> int:
    """Rank of the m-th symplectic wedge power of a rank-r symplectic space:
    C(r,m) - C(r,m-2) inside the band 0 <= m <= r/2, zero outside."""
    if r < 0 or r % 2:
        raise ValueError("rank must be even and non-negative")
    if m < 0 or 2 * m > r:
        return 0
    low = comb(r, m - 2) if m >= 2 else 0
    return comb(r, m) - low


def truncation_cohomology(n: int, k: int, t: int) -> dict[int, int]:
    """Predicted cohomology {degree: dim} of the length-(t+1) complex of
    truncation bundles on Gr(k,2n): the symplectic wedge power of rank
    2n - 2k in degree 0 for t <= n - k, its mirror in degree -1 for
    t >= n - k + 2, nothing at t = n - k + 1; no zero is listed.  The Euler
    check reads its signed sum, and at k = 2 the fiber layer reads it as the
    cohomology of the truncation complex E^t."""
    r = 2 * n - 2 * k
    if t <= n - k:
        degree, dim = 0, dim_wedge_sp(r, t)
    elif t >= n - k + 2:
        degree, dim = -1, dim_wedge_sp(r, 2 * (n - k + 1) - t)
    else:
        return {}
    return {degree: dim} if dim else {}


def euler_check_Kt(n: int, k: int, t: int) -> Report:
    """Euler characteristic of the length-(t+1) complex of truncation bundles
    against the predicted signed cohomology rank."""
    if not (2 <= k <= n and 0 <= t <= 2 * n - k):
        raise ValueError("parameters outside the verified band")
    chi = sum(
        (-1) ** i * rank_K(2 * n - k - t + i, i, k, n) for i in range(t + 1)
    )
    predicted = truncation_cohomology(n, k, t)
    expect = predicted.get(0, 0) - predicted.get(-1, 0)
    return Report(
        "euler",
        {"n": n, "k": k, "t": t},
        {"chi": expect},
        {"chi": chi},
    )


def phi_cs_survivors(k: int) -> list[tuple[int, int, int]]:
    """Triples (i, j, s) of the wedge-decomposition filtration whose twisted
    pushforward is nonzero.  Exactly one survives: (k-2, 0, 0)."""
    if k < 3:
        raise ValueError("need k >= 3")
    survivors = []
    r = k - 2
    for i in range(r + 1):
        for j in range(r + 1):
            s_lo = max(0, -((-(i + j + 2 - k)) // 2))  # ceil((i+j+2-k)/2)
            for s in range(s_lo, min(i, j) + 1):
                w = (-1, -1) + (1,) * (j - s) + (0,) * (r - i - j + 2 * s) + (-1,) * (i - s)
                if bbw_pushforward(w) is not None:
                    survivors.append((i, j, s))
    return survivors


def phics_check(k: int) -> Report:
    """The filtration has exactly one survivor, (k-2, 0, 0)."""
    survivors = phi_cs_survivors(k)
    return Report(
        "phics",
        {"k": k},
        {"count": 1, "unique_expected": 1},
        {"count": len(survivors), "unique_expected": int(survivors == [(k - 2, 0, 0)])},
    )


def pieri_dim_check(r: int, i: int, j: int) -> bool:
    """Dimension identity C(r,i) C(r,j) = sum of Weyl dimensions over the
    hook-shaped summands of wedge^i (x) wedge^j-dual of a rank-r space."""
    if not (0 <= i <= r and 0 <= j <= r):
        raise ValueError("need 0 <= i, j <= r")
    if r == 0:
        return True
    # the hook summand needs i - s + j - s <= r non-|1| rows, so s >= i + j - r
    s_lo = max(0, i + j - r)
    total = 0
    for s in range(s_lo, min(i, j) + 1):
        w = (1,) * (j - s) + (0,) * (r - i - j + 2 * s) + (-1,) * (i - s)
        total += weyl_dim_gl(w)
    return total == comb(r, i) * comb(r, j)


def pieri_check(n: int, k: int) -> Report:
    """Hook-decomposition dimension identity over all ranks up to 6; n and
    k only label the report."""
    checked = 0
    failures = 0
    for r in range(0, 7):
        for i in range(r + 1):
            for j in range(r + 1):
                checked += 1
                if not pieri_dim_check(r, i, j):
                    failures += 1
    return Report(
        "pieri",
        {"n": n, "k": k},
        {"failures": 0, "checked": checked},
        {"failures": failures, "checked": checked},
    )


def vanishing_band_check(n: int, k: int) -> Report:
    """For labels just above the truncation band, every staircase term the
    truncation drops (those with a negative weight entry) must push forward
    to zero, so the whole bundle maps to zero."""
    if not (3 <= k <= n):
        raise ValueError("need 3 <= k <= n")
    failures = 0
    checked = 0
    for alpha1 in range(2 * n - k + 1, 2 * n - 1):
        for alpha2 in range(0, alpha1 + 1):
            for _, _, (a1, a2) in _dropped_terms(alpha1, alpha2, n):
                checked += 1
                if tphi_on_weight(a1, a2, k) is not None:
                    failures += 1
    return Report(
        "vanishing",
        {"n": n, "k": k},
        {"failures": 0, "checked": checked},
        {"failures": failures, "checked": checked},
    )
