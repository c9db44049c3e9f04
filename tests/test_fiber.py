"""Tests for the fiber model: bases, structure maps, truncation subspaces,
and the composition / anticommutation identities of the resolution grid."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest

from sscx import fiber
from sscx.cli import run
from sscx.exactlinalg import SubspaceEscapeError, rank
from sscx.fiber import (
    FiberModel,
    TwistedSpace,
    basis_of,
    fiber_E,
    fiber_wedge_perp,
    restricted_d,
    structure_map,
)
from linalg_oracle import matrix_sum, subspace_equal


def dimension_split_identity(n: int, a: int, b: int) -> bool:
    """C(2n,a)(b+1) equals the sum of the four graded pieces cut out by the
    annihilator filtration (negative-degree pieces contribute zero)."""
    def piece(aa, bb):
        if aa < 0 or bb < 0:
            return 0
        return comb(2 * n - 2, aa) * (bb + 1)

    return comb(2 * n, a) * (b + 1) == (
        piece(a, b) + piece(a - 1, b - 1) + piece(a - 1, b + 1) + piece(a - 2, b)
    )


@pytest.fixture(scope="module")
def m3():
    return FiberModel(3)


class TestFiberModel:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_reduced_form_annihilates_plane(self, n):
        model = FiberModel(n)  # the constructor asserts both contractions
        for (i, j) in model.omega_bar:
            assert i >= 2 and j >= 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_forms_and_quotient(self, n):
        model = FiberModel(n)
        assert model.omega_u == [{n: -1}, {n + 1: -1}]
        assert model.omega_bar == {(i, n + i): 1 for i in range(2, n)}
        assert model.quotient_indices == tuple(range(2, n)) + tuple(range(n + 2, 2 * n))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            FiberModel(1)

    def test_perp_indices(self, m3):
        assert m3.perp_indices == (2, 3, 4, 5)


class TestBases:
    def test_scalar_symmetric(self, m3):
        space = TwistedSpace(3, 0, 1)
        assert space.dim == 2
        assert tuple(basis_of(space)) == (((), 0), ((), 1))

    def test_pairs(self):
        space = TwistedSpace(3, 2, 0)
        assert space.dim == 15
        assert len(basis_of(space)) == 15

    def test_mixed(self):
        assert TwistedSpace(3, 1, 1).dim == 12

    def test_dimension_split(self):
        for n in (2, 3, 4):
            for a in range(0, 2 * n + 1):
                for b in range(0, 4):
                    assert dimension_split_identity(n, a, b)


class TestStructureMaps:
    def test_degree_preconditions(self, m3):
        with pytest.raises(ValueError):
            structure_map(m3, "d1", TwistedSpace(3, 1, 0))
        with pytest.raises(ValueError):
            structure_map(m3, "d0", TwistedSpace(3, 0, 1))
        with pytest.raises(ValueError):
            structure_map(m3, "nope", TwistedSpace(3, 1, 1))

    def test_codomain_grades(self, m3):
        src = TwistedSpace(3, 2, 2, 5)
        _, dst = structure_map(m3, "d", src)
        assert (dst.a, dst.B, dst.c) == (3, 1, 5)
        _, dst = structure_map(m3, "d0", src)
        assert (dst.a, dst.B, dst.c) == (1, 3, 6)

    def test_d_on_scalars_is_form_contraction(self, m3):
        # on wedge-degree 0 the first differential cannot act, so d sends a
        # plane vector to the contraction of the symplectic form with it
        mat, dst = structure_map(m3, "d", TwistedSpace(3, 0, 1))
        idx = {mono: i for i, mono in enumerate(basis_of(dst))}
        col = mat.apply({1: 1})  # image of e_0 (basis exponent p = 1)
        assert col == {idx[((3,), 0)]: Fraction(-1)}
        col = mat.apply({0: 1})  # image of e_1
        assert col == {idx[((4,), 0)]: Fraction(-1)}

    def test_d0_example_rank(self, m3):
        mat, _ = structure_map(m3, "d0", TwistedSpace(3, 1, 1))
        assert mat.ncols == 12
        assert rank(mat) == 3

    @pytest.mark.parametrize("kind, a, B", [("d1", 1, 2), ("d2", 2, 1), ("d", 0, 3),
                                            ("d", 3, 2), ("d0", 2, 2), ("d0", 4, 0)])
    def test_matrix_does_not_depend_on_c(self, m3, kind, a, B):
        fresh = fiber._structure_matrix.__wrapped__(m3, kind, a, B)
        first, _ = structure_map(m3, kind, TwistedSpace(3, a, B))
        assert first == fresh
        for c in range(-2, 4):
            mat, dst = structure_map(m3, kind, TwistedSpace(3, a, B, c))
            # d2 is built afresh on each call, every other kind is shared
            if kind == "d2":
                assert mat == first and mat is not first
            else:
                assert mat is first
            if kind == "d0":
                assert dst == TwistedSpace(3, a - 1, B + 1, c + 1)
            else:
                assert dst == TwistedSpace(3, a + 1, B - 1, c)


def _compare_with_fresh_builds(cache, keys) -> tuple[int, int]:
    """Compare each matrix that ``cache`` holds under one of ``keys`` (and
    its column and row views) with an uncached build; return how many it
    held and their total column count."""
    held = columns = 0
    for key in keys:
        hits = cache.cache_info().hits
        mat = cache(*key)
        if cache.cache_info().hits == hits:
            continue  # not built by the run
        held += 1
        columns += mat.ncols
        new = cache.__wrapped__(*key)
        assert mat == new
        assert mat.columns() == new.columns() and mat.rows() == new.rows()
    return held, columns


def test_shared_structure_matrices_stay_unmutated(monkeypatch):
    """Every check shares the cached structure matrices and fiber bases, so
    after a full run each must still equal a fresh build: no caller mutated
    one.  Each lift vector is built once, for the one fiber that holds it."""
    for f in vars(fiber).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    real_lift, lifts = fiber._xi_lift, []

    def counted(*args):
        lifts.append(args)
        return real_lift(*args)

    monkeypatch.setattr(fiber, "_xi_lift", counted)
    with redirect_stdout(io.StringIO()):
        assert run(["verify-fiber", "--n", "4", "--t", "all"]) == 0
    built = len(lifts)
    model = FiberModel(4)
    cache = fiber._structure_matrix
    cached = cache.cache_info().currsize
    keys = [
        (model, kind, a, B)
        for kind in ("d1", "d2", "d", "d0")
        for a in (range(1, 9) if kind == "d0" else range(8))
        for B in (range(8) if kind == "d0" else range(1, 8))
    ]
    assert _compare_with_fresh_builds(cache, keys)[0] == cached > 0
    # the lifts sit in fiber_E's cached bases, after the annihilator monomials
    cache = fiber.fiber_E
    cached = cache.cache_info().currsize
    held = lifts_held = 0
    for a in range(7):
        for b in range(7 - a):
            hits = cache.cache_info().hits
            basis = cache(model, a, b)
            if cache.cache_info().hits == hits:
                continue  # not built by the run
            held += 1
            assert basis == cache.__wrapped__(model, a, b)
            if a:
                lifts_held += basis.dim - fiber.fiber_wedge_perp(model, a, b).dim
    assert (held, lifts_held) == (cached, built)
    assert cached > 0 and built > 0


class TestFiberE:
    @pytest.mark.parametrize(
        "a,b,dim", [(0, 2, 3), (1, 1, 9), (2, 0, 6), (0, 4, 5), (1, 3, 19)]
    )
    def test_dims(self, m3, a, b, dim):
        assert fiber_E(m3, a, b).dim == dim

    def test_wedge_degree_zero_is_full(self, m3):
        assert fiber_E(m3, 0, 3).dim == TwistedSpace(3, 0, 3).dim

    def test_symmetric_degree_zero_is_perp(self, m3):
        assert subspace_equal(fiber_E(m3, 2, 0), fiber_wedge_perp(m3, 2, 0))

    def test_out_of_band(self, m3):
        with pytest.raises(ValueError):
            fiber_E(m3, 3, 2)

    def test_cross_construction_full_grid(self):
        # fiber_E itself raises if its lift basis fails the kernel certificate
        for n in (3, 4):
            model = FiberModel(n)
            for a in range(0, 2 * n - 1):
                for b in range(0, 2 * n - 1 - a):
                    fiber_E(model, a, b)


class TestRestrictedD:
    def test_example_rank(self, m3):
        mat = restricted_d(m3, 0, 1)
        assert mat.ncols == 2 and mat.nrows == 4
        assert rank(mat) == 2

    def test_compositions_zero(self, m3):
        for t in range(2, 5):
            for a in range(0, t - 1):
                comp = restricted_d(m3, a + 1, t - a - 1) @ restricted_d(m3, a, t - a)
                assert comp.is_zero()

    def test_containment_never_escapes(self):
        for n in (3, 4):
            model = FiberModel(n)
            for a in range(0, 2 * n - 2):
                for b in range(1, 2 * n - 1 - a):
                    restricted_d(model, a, b)  # raises SubspaceEscapeError on failure


def _lemma_holds(model, a, b):
    """(d1 + b d2) o (d1 + (b+1) d2) = 0 on wedge degree a, symmetric b."""
    src = TwistedSpace(model.n, a, b)
    m1, mid = structure_map(model, "d1", src)
    m2, _ = structure_map(model, "d2", src)
    n1, _ = structure_map(model, "d1", mid)
    n2, _ = structure_map(model, "d2", mid)
    return (matrix_sum(n1, n2.scale(b)) @ matrix_sum(m1, m2.scale(b + 1))).is_zero()


def _anticommute_holds(model, a, b):
    """d0 o (b+2)(d1 + (b+1) d2) + b (d1 + (b+2) d2) o d0 = 0 for a, b >= 1."""
    src = TwistedSpace(model.n, a, b)
    m1, mid = structure_map(model, "d1", src)
    m2, _ = structure_map(model, "d2", src)
    top = matrix_sum(m1, m2.scale(b + 1)).scale(b + 2)
    d0_right, _ = structure_map(model, "d0", mid)
    d0_left, left = structure_map(model, "d0", src)
    n1, _ = structure_map(model, "d1", left)
    n2, _ = structure_map(model, "d2", left)
    bottom = matrix_sum(n1, n2.scale(b + 2)).scale(b)
    return matrix_sum(d0_right @ top, bottom @ d0_left).is_zero()


class TestGridIdentities:
    @pytest.mark.parametrize("n", (3, 4))
    def test_composition_zero_lemma(self, n):
        model = FiberModel(n)
        for a in range(0, 2 * n - 1):
            for b in range(2, 2 * n - 1 - a):
                assert _lemma_holds(model, a, b), (n, a, b)

    @pytest.mark.parametrize("n", (3, 4))
    def test_anticommutativity(self, n):
        model = FiberModel(n)
        for a in range(1, 2 * n - 2):
            for b in range(1, 2 * n - 1 - a):
                assert _anticommute_holds(model, a, b), (n, a, b)
