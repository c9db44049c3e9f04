"""The isotropic Grassmannian of planes at a fixed point, in monomial bases.

Everything is computed at the single point U = span(e_1, e_2) of IGr(2, 2n),
with the symplectic form pairing e_i with e_{n+i}.  Every structure map
preserves the torus weight [i in S] - [n+i in S] of a wedge monomial with
index set S at the quotient pairs i = 2..n-1, and the Weyl group carries a
weight block onto all blocks with as many non-zero entries (README, "Weight
blocks").  So only the block of the representative weight (+1)^m 0^(n-2-m)
is built, for each m: its monomials hold e^i without e^{n+i} at the pairs
2..m+1 and each other pair whole or not at all.  Block m of the graded
piece wedge^a V* (x) S^B U is named by one ``TwistedSpace(n, a, B, m)``,
which keys every memo of this module.  The blocks get explicit monomial
bases, and all the structure maps between them (the two symplectic
differentials, their normalized combination and the Koszul differential)
become sparse integer matrices, with the one denominator of the normalized
combination kept as the matrix's scalar.  The determinant twists (det U*)^c
of the resolution grid change no dimension and no matrix entry, so no space
carries them.  ``complexes`` restricts the maps to the subspaces
``fiber_wedge_perp`` and ``fiber_E``; every monomial sign convention lives
in this module.

Index convention: V* has basis e^0 ... e^{2n-1} (0-based); U is spanned by
e_0, e_1, so the annihilator U-perp is spanned by e^j with j >= 2, and the
symplectic images of e_0, e_1 are e^n, e^{n+1}: the core, which carries no
weight.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from math import comb
from typing import NamedTuple

from .exactlinalg import SparseRationalMatrix, SubspaceBasis, rank

TwoForm = dict[tuple[int, int], int]
OneForm = dict[int, int]


class _Block(NamedTuple):
    n: int
    a: int
    B: int
    m: int


class TwistedSpace(_Block):
    """Weight block m of the graded piece wedge^a V* (x) S^B U at the fixed
    point of IGr(2, 2n): the monomials of the representative weight
    (+1)^m 0^(n-2-m).  The one key of every fiber-layer memo: a named
    tuple, so equal blocks are equal keys with equal hashes."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, B: int, m: int) -> TwistedSpace:
        if n < 2:
            raise ValueError("need n >= 2 so that the base plane is isotropic")
        if not (0 <= a <= 2 * n):
            raise ValueError("wedge degree out of range")
        if B < 0:
            raise ValueError("symmetric degree must be non-negative")
        if not (0 <= m <= n - 2):
            raise ValueError("weight block out of range (0..n-2)")
        return tuple.__new__(cls, (n, a, B, m))

    @property
    def dim(self) -> int:
        return _count(self.n, self.a, self.B, self.m, 4)


def _count(n: int, a: int, B: int, m: int, core: int) -> int:
    """The number of monomials of block m of wedge^a (x) S^B whose core part
    is drawn from ``core`` of the core 1-forms: 4 for the space, 2 (e^n and
    e^{n+1}) for its annihilator part.  With j whole pairs among the n-2-m
    free ones, that is sum_j C(core, a - m - 2j) C(n-2-m, j) (B + 1); 0 for
    B = -1."""
    free, k = n - 2 - m, a - m
    # math.comb raises on a negative argument, so the range stops at k // 2
    pairs = range(min(free, k // 2) + 1)
    return (B + 1) * sum(comb(core, k - 2 * j) * comb(free, j) for j in pairs)


def symplectic_form(n: int) -> TwoForm:
    """The symplectic form, pairing e^i with e^{n+i}."""
    return {(i, n + i): 1 for i in range(n)}


def plane_contractions(n: int) -> list[OneForm]:
    """The contractions of the symplectic form with the plane basis e_0,
    e_1."""
    omega = symplectic_form(n)
    return [{j: v for (j,), v in _contract_form(omega, u).items()} for u in (0, 1)]


def reduced_form(n: int) -> tuple[tuple[int, ...], TwoForm]:
    """The index set of the rank-(2n-4) quotient of the annihilator by the
    symplectic image of the plane, and the reduced form on it: the
    symplectic form plus e^u ^ omega_u, so that both evaluations against
    the plane vanish (j != u, so every wedge is non-zero)."""
    quotient = tuple(i for i in range(2, 2 * n) if i not in (n, n + 1))
    bar = symplectic_form(n)
    for u, omega_u in enumerate(plane_contractions(n)):
        for j, v in omega_u.items():
            sign, key = _wedge1((u,), j)
            bar[key] = bar.get(key, 0) + sign * v
    omega_bar = {key: v for key, v in bar.items() if v}
    for u in (0, 1):
        if _contract_form(omega_bar, u):
            raise AssertionError("reduced form fails to annihilate the plane")
    if not set().union(*omega_bar) <= set(quotient):
        raise AssertionError("reduced form escapes the quotient")
    return quotient, omega_bar


def wedge_form_matrix(n: int, t: int) -> SparseRationalMatrix:
    """Matrix of wedging with the reduced form, wedge^{t-2} -> wedge^t of
    the rank-(2n-4) quotient, in lexicographic bases."""
    idx, omega_bar = reduced_form(n)
    dom = list(itertools.combinations(idx, t - 2)) if t >= 2 else []
    cod = list(itertools.combinations(idx, t)) if t <= len(idx) else []
    cod_index = {s: i for i, s in enumerate(cod)}
    cols = [
        {cod_index[sub2]: v for sub2, v in _wedge2(subset, omega_bar).items()}
        for subset in dom
    ]
    return SparseRationalMatrix(len(cod), cols)


@cache
def basis_of(space: TwistedSpace) -> dict[tuple[tuple[int, ...], int], int]:
    """Ordered monomial basis of the block, each monomial (sorted index
    subset, exponent of e_0) mapped to its index: lexicographic in the
    pair, which is also the dict's order.  A symmetric monomial with
    exponent p means e_0^p e_1^(B-p).  The subsets are enumerated directly:
    a subset of the core e^0, e^1, e^n, e^{n+1}, the m inert e^2..e^{m+1}
    and j whole pairs of the others.  Callers must not mutate it."""
    n, a, m = space.n, space.a, space.m
    core, inert, free = (0, 1, n, n + 1), tuple(range(2, m + 2)), range(m + 2, n)
    subsets = sorted(
        tuple(sorted(head + inert + pairs + tuple(n + i for i in pairs)))
        for j in range(min(len(free), (a - m) // 2) + 1)
        for head in itertools.combinations(core, a - m - 2 * j)
        for pairs in itertools.combinations(free, j)
    )
    monos = itertools.product(subsets, range(space.B + 1))
    return {mono: i for i, mono in enumerate(monos)}


def _contract(subset: tuple[int, ...], i: int):
    """Last-slot insertion of e_i into a wedge monomial; None if i absent.

    Every structure map and form in this module uses last-slot insertion:
    under it the maps below satisfy all the composition and anticommutation
    identities, and the reduced form lands in the annihilator of the plane.
    """
    try:
        pos = subset.index(i)
    except ValueError:
        return None
    sign = (-1) ** (len(subset) - 1 - pos)
    return sign, subset[:pos] + subset[pos + 1 :]


def _wedge1(subset: tuple[int, ...], j: int):
    """Monomial wedge e^j from the right; None if j already occurs."""
    pos = bisect_left(subset, j)
    if pos < len(subset) and subset[pos] == j:
        return None
    sign = (-1) ** (len(subset) - pos)
    return sign, subset[:pos] + (j,) + subset[pos:]


def _contract_form(form: TwoForm, i: int) -> dict[tuple[int, ...], int]:
    """Last-slot insertion of e_i into a form, one monomial at a time: the
    monomials containing i leave distinct rests, so nothing adds up."""
    out = {}
    for subset, v in form.items():
        ct = _contract(subset, i)
        if ct is not None:
            sign, rest = ct
            out[rest] = sign * v
    return out


def _wedge2(subset: tuple[int, ...], form: TwoForm) -> dict[tuple[int, ...], int]:
    """Monomial wedge a 2-form: lambda ^ (e^i ^ e^j) summed over the form."""
    out: dict[tuple[int, ...], int] = {}
    for (i, j), v in form.items():
        r1 = _wedge1(subset, i)
        if r1 is None:
            continue
        s1, sub1 = r1
        r2 = _wedge1(sub1, j)
        if r2 is None:
            continue
        s2, sub2 = r2
        # distinct pairs (i, j) give distinct monomials: nothing to add up
        out[sub2] = v if s1 == s2 else -v
    return out


def _deriv(p: int, B: int, u: int):
    """Derivative of e_0^p e_1^(B-p) along e_u: (coefficient, new exponent)."""
    if u == 0:
        return p, p - 1
    return B - p, p


def structure_map(kind: str, src: TwistedSpace) -> tuple[SparseRationalMatrix, TwistedSpace]:
    """Matrix of one of the structure maps on src, with its codomain, the
    same weight block of the target degree.

    d1, d2, d : (a, B) -> (a+1, B-1)      [need B >= 1]
    d0        : (a, B) -> (a-1, B+1)      [need a >= 1]

    The matrix is built once per (kind, src) and shared: callers must not
    mutate it.  d2 is the exception: its only reader, the Koszul complex
    ``complexes.build_koszul_S``, keeps the restriction for the process, so
    d2 is built afresh on each call and dropped once restricted.
    """
    n, a, B, m = src.n, src.a, src.B, src.m
    if kind in ("d1", "d2", "d"):
        if B < 1:
            raise ValueError(f"{kind} needs symmetric degree >= 1")
        if a + 1 > 2 * n:
            raise ValueError(f"{kind} needs wedge degree < 2n")
        dst = TwistedSpace(n, a + 1, B - 1, m)
    elif kind == "d0":
        if a < 1:
            raise ValueError("d0 needs wedge degree >= 1")
        dst = TwistedSpace(n, a - 1, B + 1, m)
    else:
        raise ValueError(f"unknown structure map kind: {kind}")
    if kind == "d2":
        return _structure_matrix.__wrapped__(kind, src), dst
    return _structure_matrix(kind, src), dst


@cache
def _structure_matrix(kind: str, src: TwistedSpace) -> SparseRationalMatrix:
    """The matrix behind ``structure_map`` on src, whose arguments it has
    checked, one column per source monomial.  Every map is integral but d =
    d1/(B+1) + d2: it is stored as the integer matrix (B+1) d = d1 +
    (B+1) d2, emitted term by term in one pass, with the scalar 1/(B+1).
    Every map preserves the torus weight, so a term outside the target's
    weight block refutes the sign and index conventions of this module:
    AssertionError."""
    n, a, B, m = src.n, src.a, src.B, src.m
    if kind == "d0":
        dst = TwistedSpace(n, a - 1, B + 1, m)
    else:
        dst = TwistedSpace(n, a + 1, B - 1, m)
        # the integer weights of d1 and d2 in the stored matrix
        w1, w2 = {"d1": (1, 0), "d2": (0, 1), "d": (1, B + 1)}[kind]
        omega, omega_u = symplectic_form(n), plane_contractions(n)
    dst_index = basis_of(dst)

    def put(col, subset, p, coef):
        if not coef:
            return
        row = dst_index.get((subset, p))
        if row is None:
            raise AssertionError(f"{kind} leaves weight block {m} at {(subset, p)}")
        old = col.get(row)
        if old is None:
            col[row] = coef
        else:
            acc = old + coef
            if acc:
                col[row] = acc
            else:
                del col[row]

    cols: list[dict[int, int]] = []
    for subset, p in basis_of(src):
        col: dict[int, int] = {}
        cols.append(col)
        if kind == "d0":
            ct = _contract(subset, 0)
            if ct is not None:
                sign, sub = ct
                put(col, sub, p, sign)  # times e_1: exponent unchanged
            ct = _contract(subset, 1)
            if ct is not None:
                sign, sub = ct
                put(col, sub, p + 1, -sign)  # times e_0
            continue
        for u in (0, 1):
            dc, dp = _deriv(p, B, u)
            if not dc:
                continue
            # d1: contract e_u, wedge the symplectic form
            ct = _contract(subset, u) if w1 else None
            if ct is not None:
                sign, sub = ct
                for sub2, v in _wedge2(sub, omega).items():
                    put(col, sub2, dp, w1 * sign * dc * v)
            if not w2:
                continue
            # d2: wedge the contraction of the symplectic form with e_u
            for j, vj in omega_u[u].items():
                w = _wedge1(subset, j)
                if w is None:
                    continue
                sign, sub = w
                put(col, sub, dp, w2 * sign * dc * vj)

    return SparseRationalMatrix(
        dst.dim, cols, Fraction(1, B + 1) if kind == "d" else Fraction(1)
    )


def perp_monomials(space: TwistedSpace):
    """Monomials of space whose wedge subset avoids the two plane-dual
    indices, i.e. lies in the annihilator of the plane, in basis order."""
    return (mono for mono in basis_of(space) if not mono[0] or mono[0][0] >= 2)


def fiber_wedge_perp(space: TwistedSpace) -> SubspaceBasis:
    """Subspace wedge^a U-perp (x) S^B U inside space, built on each call:
    its readers, ``build_koszul_S`` and ``fiber_E``'s lifts, are cached.
    Its dimension is checked against the block's count of monomials whose
    core part avoids e^0 and e^1."""
    n, a, B = space.n, space.a, space.B
    if a > 2 * n - 2:
        raise ValueError("wedge degree out of range for the annihilator")
    index = basis_of(space)
    vectors = [{index[mono]: 1} for mono in perp_monomials(space)]
    basis = SubspaceBasis(space.dim, vectors)
    expected = _count(n, a, B, space.m, 2)
    if basis.dim != expected:
        raise AssertionError(
            f"annihilator dimension {basis.dim} != expected {expected} at {space}"
        )
    return basis


def _xi_lift(space: TwistedSpace, mono) -> dict[int, int]:
    """Lift of an annihilator monomial mu (x) Q from degree (a-1, b-1) to
    space, of degree (a, b): (mu ^ e^0)(x)(e_0 Q) + (mu ^ e^1)(x)(e_1 Q).
    mu avoids e^0 and e^1, so the two terms are distinct monomials."""
    subset, p = mono
    index = basis_of(space)
    s0, sub0 = _wedge1(subset, 0)
    s1, sub1 = _wedge1(subset, 1)
    return {index[(sub0, p + 1)]: s0, index[(sub1, p)]: s1}


def _lift_vectors(space: TwistedSpace) -> list[dict[int, int]]:
    """The basis of the fiber in space, of degree (a, b), a >= 1: the
    annihilator monomials, then the lifts (mu ^ e^0)(x)(e_0 Q) + (mu ^
    e^1)(x)(e_1 Q) of the annihilator monomials of degree (a-1, b-1), none
    for b = 0."""
    n, a, b = space.n, space.a, space.B
    monos = perp_monomials(TwistedSpace(n, a - 1, b - 1, space.m)) if b else ()
    return fiber_wedge_perp(space).vectors + [_xi_lift(space, mono) for mono in monos]


@cache
def fiber_E(space: TwistedSpace) -> SubspaceBasis:
    """Fiber of the truncation subbundle in space, of degree (a, b): the
    kernel of the Koszul-type differential d0, or the full space for a = 0.

    Its basis is the two-step filtration (``_lift_vectors``): the annihilator
    monomials of ``fiber_wedge_perp`` first, in their order, then the lifts
    of the annihilator monomials of degree (a-1, b-1), in theirs.  That
    order is a contract: the snake check reads the blocks of the
    differentials of ``complexes.build_Et`` by it.  The entries are ±1, at
    most two per vector, and the basis is certified as a basis of ker d0 in
    three steps: d0 kills every vector (its integer ``image`` is empty);
    every vector owns a private row, kept for every restriction into the
    basis, so they are independent; and there are dim - rank(d0) of them,
    which must also be the dimension the filtration predicts, the block's
    annihilator counts of degrees (a, b) and (a-1, b-1).
    rank(d0) is kept on the cached d0, which the bicomplex and ces checks
    rank too.  Any mismatch is a hard failure, since it refutes the sign
    conventions of this module.
    """
    n, a, b, m = space.n, space.a, space.B, space.m
    if a + b > 2 * n - 2:
        raise ValueError("degrees outside the admissible range")
    if a == 0:
        return SubspaceBasis.full(space.dim)
    mat, _ = structure_map("d0", space)
    dim = space.dim - rank(mat)
    expected = _count(n, a, b, m, 2) + _count(n, a - 1, b - 1, m, 2)
    if dim != expected:
        raise AssertionError(
            f"kernel dimension {dim} != expected {expected} at {space}"
        )
    basis = SubspaceBasis(space.dim, _lift_vectors(space))
    if (
        basis.dim != dim
        or basis.private_rows() is None
        or any(map(mat.image, basis.vectors))
    ):
        raise AssertionError(
            f"lift construction disagrees with the kernel at {space}"
        )
    return basis

