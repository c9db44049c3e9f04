"""Tests for the fiber layer: the forms, bases, structure maps, truncation
subspaces, and the composition / anticommutation identities of the
resolution grid.  Every space is one weight block; a dimension or rank of
the full space is the orbit sum of its blocks' (``linalg_oracle.orbit_sum``),
and an identity is checked on every block."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest

from sscx import fiber
from sscx.cli import run
from sscx.complexes import build_bicomplex, build_Et, build_koszul_S
from sscx.exactlinalg import SubspaceEscapeError, rank
from sscx.fiber import (
    TwistedSpace,
    basis_of,
    fiber_E,
    fiber_wedge_perp,
    perp_monomials,
    plane_contractions,
    reduced_form,
    structure_map,
    symplectic_form,
)
from linalg_oracle import (
    FullSpace,
    annihilator_monomials,
    full_basis,
    matrix_sum,
    orbit_sum,
    representative,
    subspace_equal,
    value_image,
    weight,
)


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


def space3(a, B, m=0):
    return TwistedSpace(3, a, B, m)


def blocks(n, a, B):
    """The weight blocks m = 0..n-2 of the space (a, B)."""
    return [TwistedSpace(n, a, B, m) for m in range(n - 1)]


class TestFiberModel:
    """The forms at the fixed point, functions of n alone."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_reduced_form_annihilates_plane(self, n):
        _, omega_bar = reduced_form(n)  # which asserts both contractions
        for (i, j) in omega_bar:
            assert i >= 2 and j >= 2

    @pytest.mark.parametrize("n", range(2, 7))
    def test_forms_and_quotient(self, n):
        assert symplectic_form(n) == {(i, n + i): 1 for i in range(n)}
        assert plane_contractions(n) == [{n: -1}, {n + 1: -1}]
        quotient, omega_bar = reduced_form(n)
        assert omega_bar == {(i, n + i): 1 for i in range(2, n)}
        assert quotient == tuple(range(2, n)) + tuple(range(n + 2, 2 * n))

    def test_small_n_rejected(self):
        # every complex of the fiber layer starts from its spaces
        for build in (build_Et, build_koszul_S, build_bicomplex):
            with pytest.raises(ValueError, match="need n >= 2"):
                build(1, 0, 0)

    def test_perp_indices(self):
        # the annihilator of the plane is spanned by e^2 ... e^5
        assert [subset for subset, _ in annihilator_monomials(FullSpace(3, 1, 0))] == [
            (2,), (3,), (4,), (5,)
        ]
        # e^3 and e^4 = e^{n+1} carry no weight, e^2 has the weight of
        # block 1, and e^5 = e^{n+2} the weight -1, in no representative
        assert [subset for subset, _ in perp_monomials(space3(1, 0))] == [(3,), (4,)]
        assert [subset for subset, _ in perp_monomials(space3(1, 0, 1))] == [(2,)]


class TestBases:
    def test_space_needs_n_at_least_two(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            TwistedSpace(1, 0, 0, 0)

    @pytest.mark.parametrize("m", (-1, 2))
    def test_block_out_of_range(self, m):
        with pytest.raises(ValueError, match="weight block out of range"):
            TwistedSpace(3, 1, 0, m)

    def test_replace_checks_the_ranges(self):
        space = TwistedSpace(3, 1, 0, 0)
        assert space._replace(m=1) == TwistedSpace(3, 1, 0, 1)
        assert type(space._replace(m=1)) is TwistedSpace
        with pytest.raises(ValueError, match="weight block out of range"):
            space._replace(m=7)

    def test_make_checks_the_ranges(self):
        assert TwistedSpace._make((3, 1, 0, 1)) == TwistedSpace(3, 1, 0, 1)
        with pytest.raises(ValueError, match="need n >= 2"):
            TwistedSpace._make((1, 9, -1, 5))
        with pytest.raises(ValueError, match="symmetric degree must be non-negative"):
            TwistedSpace._make((3, 1, -1, 0))

    def test_scalar_symmetric(self):
        assert orbit_sum(3, lambda m: space3(0, 1, m).dim) == 2
        assert tuple(full_basis(FullSpace(3, 0, 1))) == (((), 0), ((), 1))
        assert tuple(basis_of(space3(0, 1))) == (((), 0), ((), 1))
        assert tuple(basis_of(space3(0, 1, 1))) == ()

    def test_pairs(self):
        assert orbit_sum(3, lambda m: space3(2, 0, m).dim) == 15
        assert orbit_sum(3, lambda m: len(basis_of(space3(2, 0, m)))) == 15

    def test_mixed(self):
        assert orbit_sum(3, lambda m: space3(1, 1, m).dim) == 12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_bases_are_the_full_basis_of_their_weight(self, n):
        """Each block's monomials are the full space's monomials of the
        representative weight, in the full space's order, and the block's
        closed-form dimension counts them."""
        for a in range(2 * n + 1):
            for B in range(2):
                full = list(full_basis(FullSpace(n, a, B)))
                for space in blocks(n, a, B):
                    rep = representative(n, space.m)
                    mine = [mono for mono in full if weight(n, mono[0]) == rep]
                    assert list(basis_of(space)) == mine, space
                    assert space.dim == len(mine), space

    def test_dimension_split(self):
        for n in (2, 3, 4):
            for a in range(0, 2 * n + 1):
                for b in range(0, 4):
                    assert dimension_split_identity(n, a, b)


class TestStructureMaps:
    def test_degree_preconditions(self):
        with pytest.raises(ValueError):
            structure_map("d1", space3(1, 0))
        with pytest.raises(ValueError):
            structure_map("d0", space3(0, 1))
        with pytest.raises(ValueError):
            structure_map("nope", space3(1, 1))

    def test_codomain_grades(self):
        for m in (0, 1):
            src = space3(2, 2, m)
            _, dst = structure_map("d", src)
            assert (dst.a, dst.B, dst.m) == (3, 1, m)
            _, dst = structure_map("d0", src)
            assert (dst.a, dst.B, dst.m) == (1, 3, m)

    def test_d_on_scalars_is_form_contraction(self):
        # on wedge-degree 0 the first differential cannot act, so d sends a
        # plane vector to the contraction of the symplectic form with it
        mat, dst = structure_map("d", space3(0, 1))
        idx = {mono: i for i, mono in enumerate(basis_of(dst))}
        col = value_image(mat, {1: 1})  # image of e_0 (basis exponent p = 1)
        assert col == {idx[((3,), 0)]: Fraction(-1)}
        col = value_image(mat, {0: 1})  # image of e_1
        assert col == {idx[((4,), 0)]: Fraction(-1)}

    def test_d0_example_rank(self):
        assert orbit_sum(3, lambda m: structure_map("d0", space3(1, 1, m))[0].ncols) == 12
        assert orbit_sum(3, lambda m: rank(structure_map("d0", space3(1, 1, m))[0])) == 3

    @pytest.mark.parametrize("kind, a, B", [("d1", 1, 2), ("d2", 2, 1), ("d", 0, 3),
                                            ("d", 3, 2), ("d0", 2, 2), ("d0", 4, 0)])
    def test_matrix_does_not_depend_on_c(self, kind, a, B):
        """One matrix per (kind, space): the grid's determinant twist, which
        no space carries, cannot key a second one; in each weight block."""
        for m in (0, 1):
            self._one_matrix_per_space(kind, a, B, m)

    @staticmethod
    def _one_matrix_per_space(kind, a, B, m):
        fresh = fiber._structure_matrix.__wrapped__(kind, space3(a, B, m))
        first, _ = structure_map(kind, space3(a, B, m))
        assert first == fresh
        for _ in range(6):
            mat, dst = structure_map(kind, space3(a, B, m))
            # d2 is built afresh on each call, every other kind is shared
            if kind == "d2":
                assert mat == first and mat is not first
            else:
                assert mat is first
            if kind == "d0":
                assert dst == space3(a - 1, B + 1, m)
            else:
                assert dst == space3(a + 1, B - 1, m)


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
    cache = fiber._structure_matrix
    cached = cache.cache_info().currsize
    keys = [
        (kind, TwistedSpace(4, a, B, m))
        for kind in ("d1", "d2", "d", "d0")
        for a in (range(1, 9) if kind == "d0" else range(8))
        for B in (range(8) if kind == "d0" else range(1, 8))
        for m in range(3)
    ]
    assert _compare_with_fresh_builds(cache, keys)[0] == cached > 0
    # the lifts sit in fiber_E's cached bases, after the annihilator monomials
    cache = fiber.fiber_E
    cached = cache.cache_info().currsize
    held = lifts_held = 0
    for space in (s for a in range(7) for b in range(7 - a) for s in blocks(4, a, b)):
        hits = cache.cache_info().hits
        basis = cache(space)
        if cache.cache_info().hits == hits:
            continue  # not built by the run
        held += 1
        fresh = cache.__wrapped__(space)
        assert (basis.ambient_dim, basis.vectors) == (fresh.ambient_dim, fresh.vectors)
        if space.a:
            lifts_held += basis.dim - fiber.fiber_wedge_perp(space).dim
    assert (held, lifts_held) == (cached, built)
    assert cached > 0 and built > 0


class TestFiberE:
    @pytest.mark.parametrize(
        "a,b,dim", [(0, 2, 3), (1, 1, 9), (2, 0, 6), (0, 4, 5), (1, 3, 19)]
    )
    def test_dims(self, a, b, dim):
        assert orbit_sum(3, lambda m: fiber_E(space3(a, b, m)).dim) == dim

    def test_wedge_degree_zero_is_full(self):
        for m in (0, 1):
            assert fiber_E(space3(0, 3, m)).dim == space3(0, 3, m).dim

    def test_symmetric_degree_zero_is_perp(self):
        for m in (0, 1):
            assert subspace_equal(fiber_E(space3(2, 0, m)), fiber_wedge_perp(space3(2, 0, m)))

    def test_out_of_band(self):
        with pytest.raises(ValueError):
            fiber_E(space3(3, 2))

    def test_cross_construction_full_grid(self):
        # fiber_E itself raises if its lift basis fails the kernel certificate
        for n in (3, 4):
            for a in range(0, 2 * n - 1):
                for b in range(0, 2 * n - 1 - a):
                    for space in blocks(n, a, b):
                        fiber_E(space)


class TestRestrictedD:
    """The differential restricted to the truncation fibers: the
    differential out of (a, b) is ``build_Et(n, a + b).differentials[a]``."""

    def test_example_rank(self):
        def first(m):
            return build_Et(3, 1, m).differentials[0]

        assert orbit_sum(3, lambda m: first(m).ncols) == 2
        assert orbit_sum(3, lambda m: first(m).nrows) == 4
        assert orbit_sum(3, lambda m: rank(first(m))) == 2

    def test_compositions_zero(self):
        for t, m in ((t, m) for t in range(2, 5) for m in (0, 1)):
            d = build_Et(3, t, m).differentials
            for a in range(0, t - 1):
                assert (d[a + 1] @ d[a]).is_zero()

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_differentials_store_ints_under_the_structure_map_scalar(self, n):
        """``restrict`` reads integer coordinates off the ±1 private rows and
        keeps the map's scalar, with no scan of its result: every restricted
        d and d2 holds only ints, under the scalar of its structure map (1
        for a zero matrix)."""
        for t, block in ((t, m) for t in range(2 * n - 1) for m in range(n - 1)):
            for build, kind in ((build_Et, "d"), (build_koszul_S, "d2")):
                for a, m in enumerate(build(n, t, block).differentials):
                    structure, _ = structure_map(kind, TwistedSpace(n, a, t - a, block))
                    assert m.scalar == (1 if m.is_zero() else structure.scalar), (t, a)
                    assert all(type(v) is int for col in m.columns() for v in col.values())

    def test_containment_never_escapes(self):
        # built afresh, so that every (a, b) with b >= 1 is restricted here;
        # raises SubspaceEscapeError on failure
        for n in (3, 4):
            for t in range(1, 2 * n - 1):
                build_Et.cache_clear()
                for m in range(n - 1):
                    assert len(build_Et(n, t, m).differentials) == t


def _lemma_holds(src):
    """(d1 + b d2) o (d1 + (b+1) d2) = 0 on src, of wedge degree a and
    symmetric degree b."""
    b = src.B
    m1, mid = structure_map("d1", src)
    m2, _ = structure_map("d2", src)
    n1, _ = structure_map("d1", mid)
    n2, _ = structure_map("d2", mid)
    return (matrix_sum(n1, n2.scale(b)) @ matrix_sum(m1, m2.scale(b + 1))).is_zero()


def _anticommute_holds(src):
    """d0 o (b+2)(d1 + (b+1) d2) + b (d1 + (b+2) d2) o d0 = 0 on src, of
    degree (a, b) with a, b >= 1."""
    b = src.B
    m1, mid = structure_map("d1", src)
    m2, _ = structure_map("d2", src)
    top = matrix_sum(m1, m2.scale(b + 1)).scale(b + 2)
    d0_right, _ = structure_map("d0", mid)
    d0_left, left = structure_map("d0", src)
    n1, _ = structure_map("d1", left)
    n2, _ = structure_map("d2", left)
    bottom = matrix_sum(n1, n2.scale(b + 2)).scale(b)
    return matrix_sum(d0_right @ top, bottom @ d0_left).is_zero()


class TestGridIdentities:
    @pytest.mark.parametrize("n", (3, 4))
    def test_composition_zero_lemma(self, n):
        for a in range(0, 2 * n - 1):
            for b in range(2, 2 * n - 1 - a):
                for space in blocks(n, a, b):
                    assert _lemma_holds(space), space

    @pytest.mark.parametrize("n", (3, 4))
    def test_anticommutativity(self, n):
        for a in range(1, 2 * n - 2):
            for b in range(1, 2 * n - 1 - a):
                for space in blocks(n, a, b):
                    assert _anticommute_holds(space), space
