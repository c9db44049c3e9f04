"""Tests for the chain-complex and bicomplex layer.  Every complex is one
weight block; a dimension or cohomology of the full complex is the orbit
sum of its blocks' (``linalg_oracle.orbit_sum``), and a property of every
complex is checked on every block."""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscx import complexes
from sscx.cli import CHECKS, FIBER, run
from sscx.complexes import (
    ChainComplex,
    build_bicomplex,
    build_Et,
    build_koszul_S,
    cohomology_dims,
    totalize,
    verify_bicomplex,
    verify_ces,
    verify_complex,
    verify_Et_cohomology,
    verify_Et_complex,
    verify_koszul_S,
    verify_snake,
)
from sscx.exactlinalg import P, SparseRationalMatrix, pivots_mod_p, rank
from sscx.fiber import TwistedSpace, fiber_E, fiber_wedge_perp, structure_map, wedge_form_matrix
from sscx.weights import truncation_cohomology
from linalg_oracle import checked_matrix, orbit_sum
from test_exactlinalg import integer_complexes

GOLDEN = Path(__file__).resolve().parent / "golden"


def orbit_dims(n: int, complex_of_block) -> list[int]:
    """The dims of the full complex: the orbit sums of the blocks' dims."""
    length = len(complex_of_block(0).dims)
    return [orbit_sum(n, lambda m: complex_of_block(m).dims[i]) for i in range(length)]


def orbit_cohomology(n: int, complex_of_block) -> dict[int, int]:
    """The cohomology of the full complex: the orbit sums of the blocks'
    cohomology, degree by degree (nonzero entries only)."""
    out: dict[int, int] = {}
    for m in range(n - 1):
        for d, h in cohomology_dims(complex_of_block(m)).items():
            out[d] = out.get(d, 0) + comb(n - 2, m) * 2**m * h
    return out


@pytest.fixture
def cohomology_calls(monkeypatch):
    """The ids of the complexes ``cohomology_dims`` runs on, in call order."""
    real, calls = complexes.cohomology_dims, []

    def counted(c):
        calls.append(id(c))
        return real(c)

    monkeypatch.setattr(complexes, "cohomology_dims", counted)
    return calls


class TestChainComplex:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex(0, [2, 3], [])
        with pytest.raises(ValueError):
            ChainComplex(0, [2, 3], [checked_matrix(2, 2)])

    def test_degrees(self):
        # position i sits in degree degree_offset + i
        c = ChainComplex(-2, [1, 1, 1], [checked_matrix(1, 1)] * 2)
        assert cohomology_dims(c) == {-2: 1, -1: 1, 0: 1}

    def test_cohomology_of_zero_complex(self):
        c = ChainComplex(0, [2, 3], [checked_matrix(3, 2)])
        assert cohomology_dims(c) == {0: 2, 1: 3}

    def test_cohomology_is_computed_once_per_object(self, cohomology_calls):
        """``c.cohomology`` is ``cohomology_dims(c)``, computed on first
        use and kept on the object; an equal object computes its own."""
        c = ChainComplex(-1, [1, 2], [checked_matrix(2, 1, {(0, 0): 1})])
        assert c.cohomology == cohomology_dims(c) == {0: 1}
        assert c.cohomology is c.cohomology
        same = ChainComplex(-1, [1, 2], c.differentials)
        assert same.cohomology == c.cohomology
        assert cohomology_calls == [id(c), id(same)]

    @pytest.mark.parametrize("t", (2, 3, 4))
    def test_truncation_cohomology_is_shared(self, cohomology_calls, t):
        """The cohomology and the bicomplex check read the one cohomology
        of the cached E^t."""
        build_Et.cache_clear()
        for check in (verify_Et_cohomology, verify_bicomplex, verify_Et_cohomology):
            assert check(4, t).status == "pass"
        for m in range(3):
            assert cohomology_calls.count(id(build_Et(4, t, m))) == 1


@pytest.fixture
def exact_ranks(monkeypatch):
    """The matrices that ``cohomology_dims`` ranks exactly, in call order."""
    ranked = []

    def counted(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(complexes, "rank", counted)
    return ranked


class TestCertifiedCohomology:
    """``cohomology_dims`` keeps the mod-p ranks only when the complex's own
    verdict ``is_complex`` holds and the mod-p cohomology sits in at most
    one degree; otherwise it ranks over Q.  The certificate itself,
    ``_certified_cohomology``, returns None or the exact cohomology for any
    lower bounds on the ranks."""

    @given(integer_complexes(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lower_bounds_certify_only_the_exact_cohomology(self, diffs, data):
        dims = [diffs[0].ncols] + [d.nrows for d in diffs]
        ranks = [rank(d) for d in diffs]
        padded = [0, *ranks, 0]
        exact = {
            i - 2: h for i, dim in enumerate(dims) if (h := dim - padded[i + 1] - padded[i])
        }
        lower = [data.draw(st.integers(0, r)) for r in ranks]
        assert complexes._certified_cohomology(dims, -2, lower) in (None, exact)
        tight = complexes._certified_cohomology(dims, -2, ranks)
        assert tight == (exact if len(exact) <= 1 else None)

    def test_an_acyclic_complex_is_certified_empty(self):
        assert complexes._certified_cohomology([1, 2, 1], 0, [1, 1]) == {}
        assert complexes._certified_cohomology([1, 2, 1], 0, [1, 0]) is None

    def test_concentrated_cohomology_takes_no_exact_rank(self, exact_ranks):
        c = ChainComplex(-1, [1, 2], [SparseRationalMatrix(2, [{0: 1, 1: 3}])])
        assert cohomology_dims(c) == {0: 1}
        assert exact_ranks == []

    def test_spread_mod_p_cohomology_falls_back(self, exact_ranks):
        # rank 1 over Q, 0 mod P: the mod-p cohomology {0: 1, 1: 1} is spread
        d = SparseRationalMatrix(1, [{0: P}])
        c = ChainComplex(0, [1, 1], [d])
        assert cohomology_dims(c) == {}
        assert exact_ranks == [d]

    def test_non_complex_is_ranked_over_Q(self, exact_ranks):
        # the two maps compose to 1, not 0; ranked over Q, which finds the
        # negative dimension
        one = SparseRationalMatrix(1, [{0: 1}])
        c = ChainComplex(0, [1, 1, 1], [one, one])
        assert not c.is_complex
        with pytest.raises(AssertionError, match="not a complex"):
            cohomology_dims(c)
        assert exact_ranks == [one, one]

    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    def test_mod_p_ranks_agree_on_every_complex(self, n, monkeypatch):
        """The mod-p ranks, whole and as ``cohomology_dims`` clears them,
        are the exact ranks of every differential."""
        cleared = []

        def recorded(m, skip):
            pivots = pivots_mod_p(m, skip)
            cleared.append((m, len(pivots)))
            return pivots

        monkeypatch.setattr(complexes, "pivots_mod_p", recorded)
        for t, m in ((t, m) for t in range(0, 2 * n - 1) for m in range(n - 1)):
            for c in (build_Et(n, t, m), build_koszul_S(n, t, m),
                      totalize(build_bicomplex(n, t, m))):
                assert c.is_complex
                ranks = [rank(m) for m in c.differentials]
                assert [len(pivots_mod_p(m)) for m in c.differentials] == ranks, (n, t)
                cleared.clear()
                coh = cohomology_dims(c)
                # one call per differential, from the last to the first
                assert [m for m, _ in cleared] == c.differentials[::-1]
                assert [r for _, r in reversed(cleared)] == ranks, (n, t)
                assert coh == complexes._cohomology(c.dims, c.degree_offset, ranks), (n, t)


class TestEt:
    def test_dims_examples(self):
        assert orbit_dims(3, lambda m: build_Et(3, 2, m)) == [3, 9, 6]
        assert orbit_dims(3, lambda m: build_Et(3, 0, m)) == [1]
        assert orbit_dims(3, lambda m: build_Et(3, 4, m)) == [5, 19, 26, 14, 1]

    def test_cohomology_examples(self):
        assert orbit_cohomology(3, lambda m: build_Et(3, 2, m)) == {}
        assert orbit_cohomology(3, lambda m: build_Et(3, 1, m)) == {0: 2}
        assert orbit_cohomology(3, lambda m: build_Et(3, 4, m)) == {-1: 1}

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_cohomology_full_grid(self, n):
        for t in range(0, 2 * n - 1):
            assert verify_Et_cohomology(n, t).status == "pass", (n, t)

    @pytest.mark.parametrize("n", (3, 4))
    def test_complex_condition(self, n):
        for t in range(0, 2 * n - 1):
            assert verify_Et_complex(n, t).status == "pass", (n, t)

    @pytest.mark.parametrize("n", (3, 4))
    def test_euler_consistency(self, n):
        # alternating sum of term dims equals alternating sum of cohomology
        for t, m in ((t, m) for t in range(0, 2 * n - 1) for m in range(n - 1)):
            c = build_Et(n, t, m)
            chi_terms = sum(
                (-1) ** d * dim for d, dim in enumerate(c.dims, c.degree_offset)
            )
            chi_coh = sum((-1) ** d * h for d, h in cohomology_dims(c).items())
            assert chi_terms == chi_coh

    def test_out_of_band(self):
        with pytest.raises(ValueError):
            build_Et(3, 5, 0)


class TestKoszul:
    def test_examples(self):
        assert orbit_dims(3, lambda m: build_koszul_S(3, 1, m)) == [2, 4]
        assert orbit_dims(3, lambda m: build_koszul_S(3, 2, m)) == [3, 8, 6]
        assert orbit_dims(3, lambda m: build_koszul_S(3, 0, m)) == [1]
        assert verify_koszul_S(3, 1).computed["cokernel"] == 2
        assert verify_koszul_S(3, 2).computed["cokernel"] == 1

    @pytest.mark.parametrize("n", (3, 4))
    def test_resolution_grid(self, n):
        for t in range(0, 2 * n - 1):
            rep = verify_koszul_S(n, t)
            assert rep.status == "pass", (n, t, rep.computed)


class TestSnake:
    def test_examples(self):
        r1 = verify_snake(3, 1)
        assert r1.status == "pass" and r1.computed["cokernel"] == 2
        r2 = verify_snake(3, 2)
        assert r2.status == "pass" and r2.computed["kernel"] == 0
        assert r2.computed["cokernel"] == 0  # bijective in the acyclic band
        r3 = verify_snake(3, 3)
        assert r3.status == "pass" and r3.computed["kernel"] == 2

    @pytest.mark.parametrize("n", (3, 4))
    def test_full_grid(self, n):
        for t in range(0, 2 * n - 1):
            rep = verify_snake(n, t)
            assert rep.status == "pass", (n, t, rep.computed)

    @pytest.mark.parametrize(
        "row, col, flags",
        [
            # an annihilator column reaching a lift row, or changing its
            # Koszul block, breaks the filtration
            (-1, 0, (0, 1)),
            (0, 0, (0, 1)),
            # a lift column changing its lift block breaks the quotient map
            (-1, -1, (1, 0)),
            # the quotient map does not see a lift column's annihilator rows
            (0, -1, (1, 1)),
        ],
    )
    def test_each_block_of_the_differential_is_read(self, monkeypatch, row, col, flags):
        """One more entry in weight block 0 of the differential (1, 2) ->
        (2, 1) at n = 3, whose bases hold 6 annihilator monomials, then 2
        lifts in the domain, and 4, then 2 in the target (block 1 has no
        lift in the domain).  The snake reads the differentials of the
        cached E^3, so the planted one is built into a fresh E^3 and
        dropped with it."""
        real = complexes._row_complex

        def planted(n, t, m, subspace, kind):
            et = real(n, t, m, subspace, kind)
            if (kind, t, m) != ("d", 3, 0):
                return et
            diffs = list(et.differentials)
            m = diffs[1]  # out of (a, B) = (1, 2)
            cols = [dict(c) for c in m.columns()]
            r = row % m.nrows
            cols[col][r] = cols[col].get(r, 0) + 1
            cols[col] = {k: v for k, v in cols[col].items() if v}
            diffs[1] = SparseRationalMatrix(m.nrows, cols, m.scalar)
            return complexes.ChainComplex(et.degree_offset, et.dims, diffs)

        monkeypatch.setattr(complexes, "_row_complex", planted)
        build_Et.cache_clear()
        try:
            rep = verify_snake(3, 3)
        finally:
            build_Et.cache_clear()
        assert (rep.computed["filtration_ok"], rep.computed["quotient_ok"]) == flags

    @pytest.mark.parametrize("t", range(3, 7))
    def test_reads_the_cached_complexes(self, t):
        """From cleared caches, the snake at t fills the 3 weight blocks of
        E^t and of the Koszul complexes of degrees t and t - 2, and reads
        nothing else of theirs."""
        build_Et.cache_clear()
        build_koszul_S.cache_clear()
        verify_snake(4, t)
        assert build_Et.cache_info().currsize == 3
        assert build_koszul_S.cache_info().currsize == 6
        misses = build_Et.cache_info().misses + build_koszul_S.cache_info().misses
        for m in range(3):
            build_Et(4, t, m)
            build_koszul_S(4, t, m)
            build_koszul_S(4, t - 2, m)
        assert build_Et.cache_info().misses + build_koszul_S.cache_info().misses == misses


class TestBicomplex:
    def test_grid_shape(self):
        bc = build_bicomplex(3, 2, 0)
        assert bc.spaces == [TwistedSpace(3, a, 2 - a, 0) for a in range(3)]
        # d out of S_0 and S_1, d0 out of S_1 and S_2
        assert len(bc.d) == 2 and bc.d0[0] is None and len(bc.d0) == 3
        assert complexes._h_scalar(1, 0) == 1 and complexes._h_scalar(2, 0) == 1

    def test_horizontal_at_depth_zero_is_d(self):
        # with no determinant twist the printed coefficients reduce to the
        # differential of the truncation complex
        for m in (0, 1):
            bc = build_bicomplex(3, 2, m)
            d, _ = structure_map("d", TwistedSpace(3, 1, 1, m))
            assert bc.d[1] is d and bc.d[1].scale(complexes._h_scalar(1, 0)) is d

    @pytest.mark.parametrize("t", range(1, 7))
    def test_grid_maps_are_the_cached_matrices(self, t):
        """The row holds the cached d and d0 of each space, and the
        horizontal map at (b, c) scales d by (-1)^c b/(b+c), in every
        weight block."""
        for m in range(3):
            self._grid_maps_are_the_cached_matrices(build_bicomplex(4, t, m))

    @staticmethod
    def _grid_maps_are_the_cached_matrices(bc):
        for a, space in enumerate(bc.spaces):
            if a < bc.t:
                assert bc.d[a] is structure_map("d", space)[0], a
            if a:
                assert bc.d0[a] is structure_map("d0", space)[0], a
        for b, c in ((b, c) for b in range(1, bc.t + 1) for c in range(bc.t - b + 1)):
            assert complexes._h_scalar(b, c) == Fraction((-1) ** c * b, b + c), (b, c)

    def test_totalize_examples(self):
        def total(t):
            return lambda m: totalize(build_bicomplex(3, t, m))

        assert orbit_cohomology(3, total(2)) == {}  # acyclic
        assert orbit_cohomology(3, total(1)) == {0: 2}
        assert orbit_dims(3, total(0)) == [1] and orbit_cohomology(3, total(0)) == {0: 1}

    def test_totalization_is_complex(self):
        for t, m in ((t, m) for t in range(0, 5) for m in (0, 1)):
            assert verify_complex(totalize(build_bicomplex(3, t, m)))

    @pytest.mark.parametrize("n", (3, 4))
    def test_full_verification(self, n):
        for t in range(0, 2 * n - 1):
            rep = verify_bicomplex(n, t)
            assert rep.status == "pass", (n, t, rep.computed)

    def test_a_passing_call_forms_only_the_grid_products(self, monkeypatch):
        """A passing call never assembles a total complex, and forms, in each
        of the 3 weight blocks, every block of the total d o d once per space
        of the row as products of the grid's maps, the structure maps d and
        d0 of the spaces of degree t: t - 1 row compositions, 2(t - 1)
        products for the squares, t - 1 compositions of two d0 and one
        d0 o d from the bottom of the columns, 4t - 3 in all for t >= 1, and
        none at t = 0.  Once the truncation complexes are cached (the second
        call), they are its only products."""
        real_build, real_totalize = complexes.build_bicomplex, complexes.totalize
        real_matmul = SparseRationalMatrix.__matmul__
        # the columns of the current block's d and d0, which the cache of
        # structure matrices keeps alive, so that no id is reused while it
        # is counted
        held = {}
        products = []

        def build(n, t, m):
            spaces = complexes._spaces(n, t, m)
            maps = [structure_map("d", space)[0] for space in spaces[:-1]]
            maps += [structure_map("d0", space)[0] for space in spaces[1:]]
            held["ids"] = {id(mat.columns()) for mat in maps}
            return real_build(n, t, m)

        def totalize(bc):
            products[-1]["totalize"] += 1
            return real_totalize(bc)

        def matmul(x, y):
            ids = held.get("ids", ())
            grid = id(x.columns()) in ids and id(y.columns()) in ids
            products[-1]["grid" if grid else "other"] += 1
            return real_matmul(x, y)

        monkeypatch.setattr(complexes, "build_bicomplex", build)
        monkeypatch.setattr(complexes, "totalize", totalize)
        monkeypatch.setattr(SparseRationalMatrix, "__matmul__", matmul)
        for t in range(0, 7):
            for _ in range(2):
                products.append({"grid": 0, "other": 0, "totalize": 0})
                assert verify_bicomplex(4, t).status == "pass"
            first, second = products[-2:]
            grid = 3 * (4 * t - 3) if t else 0
            assert (first["grid"], first["totalize"]) == (grid, 0), t
            assert second == {"grid": grid, "other": 0, "totalize": 0}, t


def d0_ranks(bc) -> list[int]:
    """The exact rank of the vertical map out of each space of the row, 0
    on S_0, which has none."""
    return [0, *map(rank, bc.d0[1:])]


@pytest.fixture
def fallbacks(monkeypatch):
    """Whether each bicomplex block the checks build, in call order, fell
    back: the rank bound fell back where the block's total complex was
    assembled (``totalize``)."""
    real_build, real_totalize = complexes.build_bicomplex, complexes.totalize
    fell = []

    def build(n, t, m):
        fell.append(False)
        return real_build(n, t, m)

    def totalize(bc):
        fell[-1] = True
        return real_totalize(bc)

    monkeypatch.setattr(complexes, "build_bicomplex", build)
    monkeypatch.setattr(complexes, "totalize", totalize)
    return lambda: fell


def bicomplex_reports(n: int) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["verify-fiber", "--n", str(n), "--t", "all", "--checks", "bicomplex"]) == 0
    return buf.getvalue()


def golden_bicomplex_lines(n: int) -> str:
    lines = (GOLDEN / f"fiber-n{n}.ndjson").read_text(encoding="ascii").splitlines(keepends=True)
    return "".join(line for line in lines if '"suite":"bicomplex"' in line)


class TestTotalCohomologyBound:
    """``_total_cohomology`` certifies the total complex's cohomology from
    the exact column ranks and the mod-p ranks of the horizontal map on the
    top kernels, without assembling it; where the bound does not pin the
    cohomology down, the total complex is assembled and ranked whole."""

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_equals_the_ranked_total_complex(self, n):
        for t, m in ((t, m) for t in range(2 * n - 1) for m in range(n - 1)):
            bc = build_bicomplex(n, t, m)
            total = totalize(bc)
            assert total.is_complex
            got = complexes._total_cohomology(bc, d0_ranks(bc))
            assert got == cohomology_dims(total), (n, t, m)

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
    def test_never_falls_back(self, n, fallbacks):
        for t in range(2 * n - 1):
            assert verify_bicomplex(n, t).status == "pass"
        assert len(fallbacks()) == (2 * n - 1) * (n - 1)
        assert not any(fallbacks())

    def test_one_raised_column_rank_falls_back(self, monkeypatch, fallbacks):
        """One vertical rank raised by one lowers u in two adjacent degrees,
        one of which was 0: u turns negative, and the total complex is
        assembled and ranked whole, with the same reports."""
        real = complexes._total_cohomology

        def raised(bc, ranks):
            # the rank of d0 on S_t, the vertical map at (0, 0) alone
            if bc.t:
                ranks = [*ranks[:-1], ranks[-1] + 1]
            return real(bc, ranks)

        monkeypatch.setattr(complexes, "_total_cohomology", raised)
        assert bicomplex_reports(4) == golden_bicomplex_lines(4)
        # every block of degree t >= 1 falls back, and none of degree 0
        assert fallbacks() == [False] * 3 + [True] * 18

    def test_one_dropped_top_pivot_spreads_the_bound_and_falls_back(self, monkeypatch, fallbacks):
        """One pivot of H.E dropped per block, where it has one: u rises by
        one in two adjacent degrees and spreads, and the total complex is
        assembled and ranked whole, with the same reports.  ``cohomology_dims`` passes the
        rows it skips; the bound asks for none."""
        real = complexes.pivots_mod_p
        dropped = []

        def pivots(m, skip=None):
            if skip is not None:
                return real(m, skip)
            found = real(m)
            if found and not dropped[-1]:
                dropped[-1] = True
                return found[:-1]
            return found

        real_bound = complexes._total_cohomology

        def bound(bc, ranks):
            dropped.append(False)
            return real_bound(bc, ranks)

        monkeypatch.setattr(complexes, "pivots_mod_p", pivots)
        monkeypatch.setattr(complexes, "_total_cohomology", bound)
        assert bicomplex_reports(4) == golden_bicomplex_lines(4)
        assert fallbacks() == dropped
        # all but the blocks whose H.E are all zero: the 3 of degree 0 and
        # (t, m) = (1, 1), (1, 2) and (2, 2)
        assert dropped.count(True) == 21 - 6


class TestCes:
    @pytest.mark.parametrize("n", (3, 4))
    def test_full_grid(self, n):
        for t in range(0, 2 * n - 1):
            rep = verify_ces(n, t)
            assert rep.status == "pass", (n, t, rep.computed)


@pytest.mark.parametrize("name", [name for name, c in CHECKS.items() if c.command == FIBER])
def test_every_fiber_check_rejects_n_1(name):
    """Every fiber check lists the spaces of its degree, whose constructor
    refuses n < 2, where the base plane is not isotropic; so does ces,
    which reads no space at t = 0."""
    with pytest.raises(ValueError, match="need n >= 2"):
        CHECKS[name].run(n=1, t=0)


class TestExpectedCohomology:
    def test_band_structure(self):
        for n in (3, 4, 5):
            assert truncation_cohomology(n, 2, n - 1) == {}
            assert truncation_cohomology(n, 2, 0) == {0: 1}
            assert truncation_cohomology(n, 2, 2 * n - 2) == {-1: 1}


def test_matrices_built_from_columns_keep_the_invariant():
    """Structure maps, the wedge map and the total differentials are built
    from their columns by the constructor, which checks nothing, and so are
    the lift vectors of the fibers: each must equal its checked rebuild from
    its values, store only non-zero ints and carry a non-zero Fraction
    scalar, 1 for a zero matrix."""
    mats = [
        structure_map(kind, TwistedSpace(3, a, B, m))[0]
        for kind in ("d1", "d2", "d")
        for a in range(6)
        for B in range(1, 4)
        for m in range(2)
    ]
    mats += [structure_map("d0", TwistedSpace(3, a, B, m))[0]
             for a in range(1, 7) for B in range(4) for m in range(2)]
    for a, b, m in ((a, b, m) for a in range(1, 5) for b in range(5 - a) for m in range(2)):
        # the lifts in fiber_E's cached basis follow the annihilator monomials
        basis = fiber_E(TwistedSpace(3, a, b, m))
        lifts = basis.vectors[fiber_wedge_perp(TwistedSpace(3, a, b, m)).dim:]
        mats.append(SparseRationalMatrix(basis.ambient_dim, lifts))
    mats += [wedge_form_matrix(4, t) for t in range(7)]
    mats += [d for t in range(5) for m in range(2)
             for d in totalize(build_bicomplex(3, t, m)).differentials]
    for m in mats:
        assert m == checked_matrix(m.nrows, m.ncols, m.entries)
        assert all(type(v) is int and v for col in m.columns() for v in col.values())
        assert type(m.scalar) is Fraction and m.scalar
        assert m.scalar == 1 or not m.is_zero()
