"""Fiber model of the isotropic Grassmannian of planes at a fixed point.

Everything is computed at the single point U = span(e_1, e_2) of IGr(2, 2n),
with the symplectic form pairing e_i with e_{n+i}.  The graded pieces
wedge^a V* (x) S^B U (x) (det U*)^c get explicit monomial bases, and all the
structure maps between them (the two symplectic differentials, their
normalized combination and the Koszul differential) become sparse rational
matrices.

Index convention: V* has basis e^0 ... e^{2n-1} (0-based); U is spanned by
e_0, e_1, so the annihilator U-perp is spanned by e^j with j >= 2, and the
symplectic images of e_0, e_1 are e^n, e^{n+1}.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .exactlinalg import (
    SparseRationalMatrix,
    SubspaceBasis,
    kernel,
    subspace_equal,
)

TwoForm = dict[tuple[int, int], Fraction]
OneForm = dict[int, Fraction]


def _contract2(form: TwoForm, i: int) -> OneForm:
    """Evaluation of a 2-form (keys (a,b) with a<b) on e_i in its last slot.

    Last-slot insertion is used consistently for every structure map in this
    module; it is the convention under which the printed coefficients of the
    maps below satisfy all the composition and anticommutation identities,
    and under which the reduced form lands in the annihilator of the plane.
    """
    out: OneForm = {}
    for (a, b), v in form.items():
        if a == i:
            out[b] = out.get(b, 0) - v
        elif b == i:
            out[a] = out.get(a, 0) + v
    return {k: v for k, v in out.items() if v}


def _one_wedge_one(f: OneForm, g: OneForm) -> TwoForm:
    out: TwoForm = {}
    for i, vi in f.items():
        for j, vj in g.items():
            if i == j:
                continue
            key, sign = ((i, j), 1) if i < j else ((j, i), -1)
            acc = out.get(key, 0) + sign * vi * vj
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


class FiberModel:
    """Fixed fiber data: dimension, symplectic form, base plane, lifts."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2 so that the base plane is isotropic")
        self.n = n
        self.dim = 2 * n
        self.omega: TwoForm = {(i, n + i): Fraction(1) for i in range(n)}
        # contractions of omega with the plane basis e_0, e_1
        self.omega_u: list[OneForm] = [
            _contract2(self.omega, 0),
            _contract2(self.omega, 1),
        ]
        self.perp_indices = tuple(range(2, 2 * n))
        # reduced form: add the lift corrections so that both evaluations
        # against the plane vanish
        bar = dict(self.omega)
        for u in (0, 1):
            for (i, j), v in _one_wedge_one({u: Fraction(1)}, self.omega_u[u]).items():
                acc = bar.get((i, j), 0) + v
                if acc:
                    bar[(i, j)] = acc
                else:
                    bar.pop((i, j), None)
        self.omega_bar: TwoForm = bar
        for u in (0, 1):
            if _contract2(self.omega_bar, u):
                raise AssertionError("reduced form fails to annihilate the plane")
        for (i, j) in self.omega_bar:
            if i < 2 or j < 2:
                raise AssertionError("reduced form escapes the annihilator")

    def __hash__(self):
        return hash(("FiberModel", self.n))

    def __eq__(self, other):
        return isinstance(other, FiberModel) and other.n == self.n

    def __repr__(self):
        return f"FiberModel(n={self.n})"


@dataclass(frozen=True)
class TwistedSpace:
    """The graded piece wedge^a V* (x) S^B U (x) (det U*)^c.

    The determinant grade c is pure bookkeeping: it never enters dimensions
    or matrix entries, but domain/codomain grades must match when maps are
    composed, which catches wiring bugs.
    """

    n: int
    a: int
    B: int
    c: int = 0

    def __post_init__(self):
        if not (0 <= self.a <= 2 * self.n):
            raise ValueError("wedge degree out of range")
        if self.B < 0:
            raise ValueError("symmetric degree must be non-negative")

    @property
    def dim(self) -> int:
        return comb(2 * self.n, self.a) * (self.B + 1)


@cache
def basis_of(space: TwistedSpace) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Ordered monomial basis: (sorted index subset, exponent of e_0),
    lexicographic in the pair.  A symmetric monomial with exponent p means
    e_0^p e_1^(B-p)."""
    out = []
    for subset in itertools.combinations(range(2 * space.n), space.a):
        for p in range(space.B + 1):
            out.append((subset, p))
    return tuple(out)


@cache
def _basis_index(space: TwistedSpace) -> dict:
    return {mono: i for i, mono in enumerate(basis_of(space))}


def _contract(subset: tuple[int, ...], i: int):
    """Last-slot insertion of e_i into a wedge monomial; None if i absent."""
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


def _wedge2(subset: tuple[int, ...], form: TwoForm) -> dict[tuple[int, ...], Fraction]:
    """Monomial wedge a 2-form: lambda ^ (e^i ^ e^j) summed over the form."""
    out: dict[tuple[int, ...], Fraction] = {}
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


def structure_map(
    model: FiberModel, kind: str, src: TwistedSpace
) -> tuple[SparseRationalMatrix, TwistedSpace]:
    """Matrix of one of the structure maps on src, with its declared codomain.

    d1, d2, d : (a, B, c) -> (a+1, B-1, c)      [need B >= 1]
    d0        : (a, B, c) -> (a-1, B+1, c+1)    [need a >= 1]

    The matrix does not depend on c, so it is built once per (kind, a, B)
    and shared: callers must not mutate it.
    """
    if src.n != model.n:
        raise ValueError("space does not belong to this fiber model")
    a, B, c = src.a, src.B, src.c
    if kind in ("d1", "d2", "d"):
        if B < 1:
            raise ValueError(f"{kind} needs symmetric degree >= 1")
        if a + 1 > 2 * model.n:
            raise ValueError(f"{kind} needs wedge degree < 2n")
        dst = TwistedSpace(model.n, a + 1, B - 1, c)
    elif kind == "d0":
        if a < 1:
            raise ValueError("d0 needs wedge degree >= 1")
        dst = TwistedSpace(model.n, a - 1, B + 1, c + 1)
    else:
        raise ValueError(f"unknown structure map kind: {kind}")
    return _structure_matrix(model, kind, a, B), dst


@cache
def _structure_matrix(
    model: FiberModel, kind: str, a: int, B: int
) -> SparseRationalMatrix:
    """The matrix behind ``structure_map`` on (a, B), whose arguments it has
    checked, one column per source monomial.  d = d1/(B+1) + d2 is emitted
    term by term in one pass."""
    src = TwistedSpace(model.n, a, B)
    if kind == "d0":
        dst = TwistedSpace(model.n, a - 1, B + 1)
    else:
        dst = TwistedSpace(model.n, a + 1, B - 1)
        w1 = {"d1": 1, "d2": 0, "d": Fraction(1, B + 1)}[kind]  # weight of d1
    dst_index = _basis_index(dst)

    def put(col, subset, p, coef):
        if not coef:
            return
        row = dst_index[(subset, p)]
        old = col.get(row)
        if old is None:
            col[row] = coef
        else:
            acc = old + coef
            if acc:
                col[row] = acc
            else:
                del col[row]

    cols: list[dict[int, Fraction]] = []
    for subset, p in basis_of(src):
        col: dict[int, Fraction] = {}
        cols.append(col)
        if kind == "d0":
            ct = _contract(subset, 0)
            if ct is not None:
                sign, sub = ct
                put(col, sub, p, Fraction(sign))  # times e_1: exponent unchanged
            ct = _contract(subset, 1)
            if ct is not None:
                sign, sub = ct
                put(col, sub, p + 1, Fraction(-sign))  # times e_0
            continue
        for u in (0, 1):
            dc, dp = _deriv(p, B, u)
            if not dc:
                continue
            # d1: contract e_u, wedge the symplectic form
            ct = _contract(subset, u) if w1 else None
            if ct is not None:
                sign, sub = ct
                for sub2, v in _wedge2(sub, model.omega).items():
                    put(col, sub2, dp, w1 * sign * dc * v)
            if kind == "d1":
                continue
            # d2: wedge the contraction of the symplectic form with e_u
            for j, vj in model.omega_u[u].items():
                w = _wedge1(subset, j)
                if w is None:
                    continue
                sign, sub = w
                put(col, sub, dp, Fraction(sign * dc) * vj)

    return SparseRationalMatrix.from_columns(dst.dim, cols)


@cache
def perp_monomials(model: FiberModel, a: int, B: int):
    """Monomials of TwistedSpace(a, B) whose wedge subset avoids the two
    plane-dual indices, i.e. lies in the annihilator of the plane."""
    space = TwistedSpace(model.n, a, B)
    return tuple(
        (subset, p) for subset, p in basis_of(space) if not subset or subset[0] >= 2
    )


@cache
def fiber_wedge_perp(model: FiberModel, a: int, B: int) -> SubspaceBasis:
    """Subspace wedge^a U-perp (x) S^B U inside TwistedSpace(a, B)."""
    if not (0 <= a <= 2 * model.n - 2):
        raise ValueError("wedge degree out of range for the annihilator")
    space = TwistedSpace(model.n, a, B)
    index = _basis_index(space)
    vectors = [{index[mono]: Fraction(1)} for mono in perp_monomials(model, a, B)]
    basis = SubspaceBasis(space.dim, vectors)
    expected = comb(2 * model.n - 2, a) * (B + 1)
    if basis.dim != expected:
        raise AssertionError(
            f"annihilator dimension {basis.dim} != expected {expected} at (a={a}, B={B})"
        )
    return basis


def _xi_lift(model: FiberModel, a: int, b: int, mono) -> dict[int, Fraction]:
    """Lift of an annihilator monomial mu (x) Q from degree (a-1, b-1) to the
    ambient space of degree (a, b): (mu ^ e^0)(x)(e_0 Q) + (mu ^ e^1)(x)(e_1 Q)."""
    subset, p = mono
    space = TwistedSpace(model.n, a, b)
    index = _basis_index(space)
    out: dict[int, Fraction] = {}
    s0, sub0 = _wedge1(subset, 0)
    out[index[(sub0, p + 1)]] = Fraction(s0)  # times e_0
    s1, sub1 = _wedge1(subset, 1)
    acc = out.get(index[(sub1, p)], 0) + s1  # times e_1
    out[index[(sub1, p)]] = Fraction(acc)
    return {k: v for k, v in out.items() if v}


@cache
def fiber_E(model: FiberModel, a: int, b: int) -> SubspaceBasis:
    """Fiber of the truncation subbundle of degree (a, b).

    Canonically the kernel of the Koszul-type differential d0 (the full
    space for a = 0); cross-checked against the second construction, the
    span of the annihilator monomials together with the lifted vectors, and
    against the rank predicted by the two-step filtration.  Any mismatch is
    a hard failure, since it refutes the sign conventions of this module.
    """
    tn = 2 * model.n
    if not (0 <= a and 0 <= b and a + b <= tn - 2):
        raise ValueError("degrees outside the admissible range")
    space = TwistedSpace(model.n, a, b)
    if a == 0:
        return SubspaceBasis.full(space.dim)
    mat, _ = structure_map(model, "d0", space)
    basis = SubspaceBasis(space.dim, kernel(mat).columns())
    expected = comb(tn - 2, a) * (b + 1) + comb(tn - 2, a - 1) * b
    if basis.dim != expected:
        raise AssertionError(
            f"kernel dimension {basis.dim} != expected {expected} at (a={a}, b={b})"
        )
    alt_vectors = list(fiber_wedge_perp(model, a, b).vectors)
    if b >= 1:
        for mono in perp_monomials(model, a - 1, b - 1):
            alt_vectors.append(_xi_lift(model, a, b, mono))
    alt = SubspaceBasis(space.dim, alt_vectors)
    if alt.dim != expected or not subspace_equal(basis, alt):
        raise AssertionError(
            f"lift construction disagrees with the kernel at (a={a}, b={b})"
        )
    return basis


@cache
def restricted_d(model: FiberModel, a: int, b: int) -> SparseRationalMatrix:
    """The differential restricted to the truncation fibers,
    (a, b) -> (a+1, b-1), in the cached fiber bases.

    Raises SubspaceEscapeError if the image leaves the target fiber; that
    would refute the containment claim the construction rests on.
    """
    if b < 1:
        raise ValueError("need symmetric degree >= 1 to lower it")
    from .exactlinalg import restrict

    space = TwistedSpace(model.n, a, b)
    mat, _ = structure_map(model, "d", space)
    return restrict(mat, fiber_E(model, a, b), fiber_E(model, a + 1, b - 1))
