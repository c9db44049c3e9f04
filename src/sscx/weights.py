"""Integer weight combinatorics for GL / Sp equivariant bundle bookkeeping.

Weights are plain tuples of integers.  This module provides the Weyl
dimension formula, the Borel--Bott--Weil rho-shift pushforward along a
Grassmannian fibration, enumeration of staircase-complex terms on Gr(2,2n),
and the rank / Euler-characteristic checks used for k >= 3, where no fiber
matrices are built and everything is decided by dimensions alone.  The six
weight checks of the CLI (bbw, staircase, euler, phics, pieri, vanishing)
live here and return one Report each.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .report import Report

Weight = tuple[int, ...]


def dominant(w: Weight) -> bool:
    """Weakly decreasing entries."""
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def rho(k: int) -> Weight:
    """(k, k-1, ..., 1)."""
    return tuple(range(k, 0, -1))


def weyl_dim_gl(lam: Weight) -> int:
    """Dimension of the irreducible GL_k representation with highest weight lam.

    Negative entries are allowed (the formula is invariant under adding a
    constant to all entries, i.e. under determinant twists).
    """
    if not dominant(lam):
        raise ValueError("non-dominant weight")
    k = len(lam)
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"Weyl product is not integral at {lam}")
    return q


def bbw_pushforward(gamma: Weight) -> tuple[Weight, int] | None:
    """Rho-shift pushforward of a length-k weight along a Gr(2,k) fibration.

    Returns None when gamma + rho has a repeated entry (the derived
    pushforward vanishes); otherwise (sorted(gamma + rho) - rho, shift),
    where shift is the length of the minimal sorting permutation.
    """
    k = len(gamma)
    if k < 1:
        raise ValueError("weight must be nonempty")
    r = rho(k)
    beta = [g + x for g, x in zip(gamma, r)]
    if len(set(beta)) < k:
        return None
    shift = sum(
        1 for i in range(k) for j in range(i + 1, k) if beta[i] < beta[j]
    )
    beta.sort(reverse=True)
    return tuple(b - x for b, x in zip(beta, r)), shift


def tphi_on_weight(alpha1: int, alpha2: int, k: int) -> tuple[Weight, int] | None:
    """Pushforward of the rank-2 weight (alpha1, alpha2) padded to length k.

    Cross-checks the generic rho-shift computation against the closed
    three-case form (dominant case / vanishing band / far shift) and raises
    if they ever disagree.
    """
    if not (alpha1 >= alpha2 and alpha1 >= -1 and k >= 3):
        raise ValueError("need alpha1 >= alpha2, alpha1 >= -1, k >= 3")
    generic = bbw_pushforward((alpha1, alpha2) + (0,) * (k - 2))
    if alpha2 >= 0:
        closed = ((alpha1, alpha2) + (0,) * (k - 2), 0)
    elif alpha2 >= 2 - k:
        closed = None
    else:
        closed = ((alpha1,) + (-1,) * (k - 2) + (k - 2 + alpha2,), k - 2)
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
    return Report.make(
        "bbw",
        {"n": n, "k": k},
        {"mismatches": 0, "checked": checked},
        {"mismatches": mismatches, "checked": checked},
    )


@dataclass(frozen=True)
class StaircaseTerm:
    """One term wedge^{wedge_exp} V* (x) Sigma^{weight} U* of a staircase complex."""

    position: int
    wedge_exp: int
    weight: Weight


def staircase_terms_gr2(alpha1: int, alpha2: int, n: int) -> list[StaircaseTerm]:
    """Ordered term list of the rank-2 staircase complex on Gr(2,2n).

    Two rows: the second weight component climbs from alpha1-2n+1 to
    alpha2-1 while the wedge exponent falls from 2n, then the first
    component climbs from alpha2 to alpha1 while the wedge exponent falls
    to 0.  The wedge exponent drops by 2 at the corner between the rows.
    """
    if not (alpha1 >= alpha2 >= alpha1 - 2 * n + 2):
        raise ValueError("weight outside the staircase validity band")
    terms = []
    pos = 0
    for m in range(alpha1 - 2 * n + 1, alpha2):
        terms.append(StaircaseTerm(pos, alpha1 + 1 - m, (alpha2 - 1, m)))
        pos += 1
    for m in range(alpha2, alpha1 + 1):
        terms.append(StaircaseTerm(pos, alpha1 - m, (m, alpha2)))
        pos += 1
    return terms


def _expected_survivors(alpha1: int, alpha2: int, k: int, n: int):
    """Survivor list of the pushed staircase, built directly from the
    three-case closed form: (shifted position, wedge exponent, weight)."""
    out = []
    for t in staircase_terms_gr2(alpha1, alpha2, n):
        w1, w2 = t.weight
        if w2 >= 0:
            out.append((t.position, t.wedge_exp, (w1, w2) + (0,) * (k - 2)))
        elif w2 <= 1 - k:
            out.append(
                (
                    t.position + k - 2,
                    t.wedge_exp,
                    (w1,) + (-1,) * (k - 2) + (k - 2 + w2,),
                )
            )
    return out


def verify_staircase_pushforward(
    alpha1: int, alpha2: int, k: int, n: int
) -> Report:
    """Push every rank-2 staircase term to the length-k side and check that
    the surviving terms form a complex-shaped, Euler-trivial term list."""
    if not (2 * n - k >= alpha1 >= alpha2 >= 0 and 3 <= k <= n):
        raise ValueError("parameters outside the verified band")
    params = {"alpha1": alpha1, "alpha2": alpha2, "k": k, "n": n}
    survivors = []
    for t in staircase_terms_gr2(alpha1, alpha2, n):
        push = tphi_on_weight(t.weight[0], t.weight[1], k)
        if push is None:
            continue
        weight, shift = push
        survivors.append((t.position + shift, t.wedge_exp, weight))
    positions = [p for p, _, _ in survivors]
    increasing = all(p < q for p, q in zip(positions, positions[1:]))
    euler = sum(
        (-1) ** p * comb(2 * n, j) * weyl_dim_gl(w) for p, j, w in survivors
    )
    shape_ok = survivors == _expected_survivors(alpha1, alpha2, k, n)
    computed = {
        "positions_increasing": int(increasing),
        "euler": euler,
        "shape_ok": int(shape_ok),
    }
    expected = {"positions_increasing": 1, "euler": 0, "shape_ok": 1}
    return Report.make("staircase", params, expected, computed)


def rank_K(alpha1: int, alpha2: int, k: int, n: int) -> int:
    """Rank of the truncation bundle with label (alpha1, alpha2) on Gr(k,2n),
    as the alternating dimension sum along its two-row resolution."""
    if not (2 * n - k >= alpha1 >= alpha2 >= 0 and 2 <= k <= n):
        raise ValueError("parameters outside the resolution band")
    total = 0
    pos = 0
    for m in range(alpha2):
        w = (alpha2 - 1, m) + (0,) * (k - 2)
        total += (-1) ** pos * comb(2 * n, alpha1 + 1 - m) * weyl_dim_gl(w)
        pos += 1
    for m in range(alpha2, alpha1 + 1):
        w = (m, alpha2) + (0,) * (k - 2)
        total += (-1) ** pos * comb(2 * n, alpha1 - m) * weyl_dim_gl(w)
        pos += 1
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


def euler_check_Kt(n: int, k: int, t: int) -> Report:
    """Euler characteristic of the length-(t+1) complex of truncation bundles
    against the predicted signed cohomology rank."""
    if not (2 <= k <= n and 0 <= t <= 2 * n - k):
        raise ValueError("parameters outside the verified band")
    chi = sum(
        (-1) ** i * rank_K(2 * n - k - t + i, i, k, n) for i in range(t + 1)
    )
    r = 2 * n - 2 * k
    if 0 <= t <= n - k:
        expect = dim_wedge_sp(r, t)
    elif n - k + 2 <= t <= 2 * (n - k + 1):
        expect = -dim_wedge_sp(r, 2 * (n - k + 1) - t)
    else:
        expect = 0
    return Report.make(
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
    return Report.make(
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
    return Report.make(
        "pieri",
        {"n": n, "k": k},
        {"failures": 0, "checked": checked},
        {"failures": failures, "checked": checked},
    )


def vanishing_band_check(n: int, k: int) -> Report:
    """For labels just above the truncation band, every leading resolution
    term must push forward to zero, so the whole bundle maps to zero."""
    if not (3 <= k <= n):
        raise ValueError("need 3 <= k <= n")
    failures = 0
    checked = 0
    for alpha1 in range(2 * n - k + 1, 2 * n - 1):
        for alpha2 in range(0, alpha1 + 1):
            for m in range(alpha1 + 1 - 2 * n, 0):
                checked += 1
                if tphi_on_weight(alpha2 - 1, m, k) is not None:
                    failures += 1
    return Report.make(
        "vanishing",
        {"n": n, "k": k},
        {"failures": 0, "checked": checked},
        {"failures": failures, "checked": checked},
    )
