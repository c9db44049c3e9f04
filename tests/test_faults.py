"""Planted defects must make the responsible suite fail: the verifier is run
end to end through the CLI, at n = 4 for the structure maps and at
(n, k) = (6, 4) for the weight closed forms, the dimension formula, the
inversion count and the truncation."""

import gc
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, groupby
from math import comb, perm
from pathlib import Path

import pytest

from sscx import complexes, exactlinalg, fiber, weights
from sscx.cli import run
from sscx.exactlinalg import SparseRationalMatrix, SubspaceBasis
import linalg_oracle
from linalg_oracle import matrix_sum
from test_staircase_oracle import staircase_terms_gr2

# every functools.cache of the fiber, complexes and weights layers: the
# structure matrices, which keep their ranks, the truncation and Koszul
# complexes, which keep their cohomology, and the weight memos and the
# staircase and truncation rows included
CACHED = [
    f for module in (fiber, complexes, weights) for f in vars(module).values()
    if hasattr(f, "cache_clear")
]
FIBER_N4 = ("verify-fiber", "--n", "4", "--t", "all", "--checks")
GOLDEN = Path(__file__).resolve().parent / "golden"


def _ranked_matrices() -> set[int]:
    """The ids of the live matrices that keep a rank."""
    return {
        id(obj) for obj in gc.get_objects()
        if type(obj) is SparseRationalMatrix and obj._rank is not None
    }


@pytest.fixture(autouse=True)
def fresh_caches():
    """Matrices, fibers and weights built from a planted map must not
    outlive the test, and ones cached by earlier tests must not hide the
    planted map.  A rank lives on its matrix, so once the caches are
    cleared no matrix the test ranked, and no rank, may survive it."""
    assert fiber._structure_matrix in CACHED
    assert weights.tphi_on_weight in CACHED
    assert weights.weyl_dim_gl in CACHED
    assert weights._staircase_row in CACHED
    assert weights._truncation_row in CACHED
    for f in CACHED:
        f.cache_clear()
    ranked = _ranked_matrices()
    yield
    for f in CACHED:
        f.cache_clear()
    assert _ranked_matrices() <= ranked


def test_the_memos_are_the_ten():
    """Each fiber-layer fact has one cache: a complex holds its
    differentials and its cohomology, and ``basis_of`` is the one index of
    a space's monomials.  A memo that re-keys what another holds would be
    one more that ``fresh_caches`` must clear.  The annihilator bases are
    built on each call: their two readers, the Koszul complexes and the
    fibers' lifts, are cached.  The weight layer keeps its two primitives,
    one row of pushed-forward staircase terms and one row of padded
    truncation-term dimensions per alpha2, and the signed binomials the
    windows of both read."""
    assert {f"{f.__module__}.{f.__qualname__}" for f in CACHED} == {
        "sscx.fiber.basis_of",
        "sscx.fiber._structure_matrix",
        "sscx.fiber.fiber_E",
        "sscx.complexes.build_Et",
        "sscx.complexes.build_koszul_S",
        "sscx.weights.weyl_dim_gl",
        "sscx.weights.tphi_on_weight",
        "sscx.weights._staircase_row",
        "sscx.weights._truncation_row",
        "sscx.weights._signed_binomials",
    }


def test_each_basis_finds_its_private_rows_once(monkeypatch):
    """A basis is immutable, so the fiber certificate and every restriction
    into it read one set of private rows.  At n = 5 these are, in each of
    the 4 weight blocks, the 36 fibers E^{a,b} and the 36 annihilator bases
    with a >= 1 that the truncation and Koszul complexes restrict into:
    288 bases, each counted once, though they are asked for 432 times (the
    full spaces had 72 and 108)."""
    # the bases asked, kept alive so that no two share an id
    counts, asked = [], []
    real_counter, real_rows = exactlinalg.Counter, exactlinalg.SubspaceBasis.private_rows

    def counter(rows):
        counts.append(1)
        return real_counter(rows)

    def private_rows(basis):
        asked.append(basis)
        return real_rows(basis)

    monkeypatch.setattr(exactlinalg, "Counter", counter)
    monkeypatch.setattr(exactlinalg.SubspaceBasis, "private_rows", private_rows)
    code, reps = reports("verify-fiber", "--n", "5", "--t", "all")
    assert code == 0 and len(reps) == 6 * 9
    assert len(asked) == 4 * 108
    assert len(counts) == len({id(basis) for basis in asked}) == 4 * 72


def reports(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, [json.loads(line) for line in buf.getvalue().splitlines()]


def d0_ranks(n: int) -> int:
    """The d0 on the ambient spaces (a, b), a >= 1, a + b <= 2n - 2, in each
    of the n - 1 weight blocks: each is eliminated once, for its fiber, its
    column of a bicomplex and ces, also where its block is empty."""
    return (n - 1) * comb(2 * n - 1, 2)


@pytest.fixture
def rank_calls(monkeypatch):
    """Runs of the elimination core: over Q (``rank``, once per matrix, as
    the matrix keeps its rank) and over F_P (``pivots_mod_p``, once per
    differential ``cohomology_dims`` ranks and once per product H.E, the
    horizontal map on a top kernel, that the bicomplex's rank bound
    ranks).  The exact ones are the d0 of
    every fiber (63 at n = 4: 21 in each of 3 weight blocks), the snake's
    wedge maps, one per degree t (7 at n = 4), the cohomology's fallback
    and the H.E of the rank bound's exact retry."""
    calls = {"rank": 0, "pivots_mod_p": 0}
    real = exactlinalg._eliminate

    def counted(rows, p=0):
        calls["pivots_mod_p" if p else "rank"] += 1
        return real(rows, p)

    monkeypatch.setattr(exactlinalg, "_eliminate", counted)
    return calls


def _failing(reps):
    """(suite, t) -> the flags that differ from the expected ones, for every
    failing report."""
    return {
        (rep["suite"], rep["params"]["t"]): {
            k for k in rep["expected"].keys() | rep["computed"].keys()
            if rep["computed"].get(k) != rep["expected"].get(k)
        }
        for rep in reps if rep["status"] == "fail"
    }


@pytest.mark.parametrize("prime", (2, 3))
@pytest.mark.parametrize("n", (3, 4))
def test_unlucky_prime_falls_back_to_the_exact_ranks(monkeypatch, rank_calls, prime, n):
    """Mod 2 and mod 3 some ranks drop and spread the cohomology: those
    complexes are ranked over Q again, and every report is unchanged."""
    argv = ["verify-fiber", "--n", str(n), "--t", "all"]
    golden = (GOLDEN / f"fiber-n{n}.ndjson").read_text(encoding="ascii")
    snake_ranks = 2 * n - 1
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv) == 0
    assert buf.getvalue() == golden
    # the real prime certifies every cohomology: only the d0 and the snake
    # rank over Q
    assert rank_calls["rank"] == d0_ranks(n) + snake_ranks
    for f in CACHED:
        f.cache_clear()
    rank_calls.update(rank=0, pivots_mod_p=0)
    monkeypatch.setattr(exactlinalg, "P", prime)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv) == 0
    assert buf.getvalue() == golden
    assert rank_calls["rank"] > d0_ranks(n) + snake_ranks


def test_zero_differential_spreads_the_cohomology_and_is_ranked_exactly(
    monkeypatch, rank_calls
):
    """The first map of each truncation complex replaced by zero: still a
    complex, but its cohomology spreads over two degrees, so each E^t with
    t >= 1 is ranked over Q, and the snake, which reads the same map, finds
    it no longer agrees with the Koszul differential.  The failing set was
    derived by planting the same map in the build that ranked every complex
    over Q only; the snake's flags, by planting it in the build whose snake
    rebuilt the differential from d and the lifts, where they passed.  The
    same set was derived on the build that planted the zero map in the
    one-map restriction ``restricted_d``, and again on the full spaces,
    before the complexes were built one weight block at a time: there each
    full E^t was one complex, ranked exactly with its t differentials."""
    real = complexes._row_complex

    def planted(n, t, m, subspace, kind):
        c = real(n, t, m, subspace, kind)
        if kind != "d" or not c.differentials:
            return c
        d, *rest = c.differentials
        zero = SparseRationalMatrix(d.nrows, [dict() for _ in range(d.ncols)])
        return complexes.ChainComplex(c.degree_offset, c.dims, [zero, *rest])

    monkeypatch.setattr(complexes, "_row_complex", planted)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    assert _failing(reps) == {
        ("cohomology", 1): {"h-1", "h0"},
        **{("cohomology", t): {f"h{-t}", f"h{1 - t}"} for t in range(2, 7)},
        **{("bicomplex", t): {"cohomology_match"} for t in (1, 2, 4, 5, 6)},
        ("bicomplex", 3): {"cohomology_match", "acyclic_band"},
        **{("snake", t): {"filtration_ok"} for t in range(1, 7)},
    }
    # the 63 d0, the snake's 7 wedge maps and the t differentials of block
    # 0 of each E^t, t >= 1: blocks m >= 1 are empty in degree a = 0, so
    # their first map has no column and the zero map changes nothing there
    # (on the full spaces: 21 + 7 + the same 21)
    assert rank_calls["rank"] == 63 + 7 + sum(range(7))


def test_Et_composition_broken_inside_the_fibers_is_ranked_exactly(
    monkeypatch, rank_calls
):
    """One more entry in the first map of each truncation complex with t >= 2,
    where the next map does not kill it: every map still lands in its fiber,
    but d o d != 0, so the cohomology of each such E^t is ranked over Q.  The
    ranks do not move, so of the suites that rank or square E^t only d2zero
    fails; the failing set and the report bytes were checked against the
    build that ranked every complex over Q only.  The snake reads the same
    map, whose annihilator column now differs from the Koszul differential
    (it passed where the snake rebuilt the differential from d and the
    lifts).  The same set was derived on the build that planted the entry
    in the one-map restriction ``restricted_d``, and on the full spaces.
    On the weight blocks the entry is planted where the first map has a
    column and the next map a non-zero one: in block 0, as blocks m >= 1
    are empty in degree a = 0."""
    real = complexes._row_complex

    def planted(n, t, m, subspace, kind):
        c = real(n, t, m, subspace, kind)
        if kind != "d" or t < 2:
            return c
        d, nxt, *rest = c.differentials
        r = next((j for j, col in enumerate(nxt.columns()) if col), None)
        if r is None or not d.ncols:
            return c  # a block whose first map has no column, or whose next map is 0
        cols = [dict(col) for col in d.columns()]
        cols[0][r] = cols[0].get(r, 0) + 1
        cols[0] = {k: v for k, v in cols[0].items() if v}
        first = SparseRationalMatrix(d.nrows, cols, d.scalar)
        return complexes.ChainComplex(c.degree_offset, c.dims, [first, nxt, *rest])

    monkeypatch.setattr(complexes, "_row_complex", planted)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    assert _failing(reps) == {
        **{("d2zero", t): {"compositions_zero"} for t in range(2, 7)},
        **{("snake", t): {"filtration_ok"} for t in range(2, 7)},
    }
    # the 63 d0, the snake's 7 wedge maps and the t differentials of block 0
    # of each E^t, t >= 2 (on the full spaces: 21 + 7 + the same 20)
    assert rank_calls["rank"] == 63 + 7 + sum(range(2, 7))


def test_unsigned_odd_depths_break_the_squares(monkeypatch):
    """The horizontal scalar without its sign (-1)^c, at every position: at
    even depths nothing changes, and at odd ones the map is negated."""
    real = complexes._h_scalar
    monkeypatch.setattr(complexes, "_h_scalar", lambda b, c: abs(real(b, c)))
    code, reps = reports(*FIBER_N4, "bicomplex,snake")
    assert code == 1
    for rep in reps:
        t = rep["params"]["t"]
        if rep["suite"] == "snake" or t < 2:
            assert rep["status"] == "pass", rep
        else:
            assert rep["status"] == "fail", rep
            assert rep["computed"]["squares"] == 0


def _plant_d0(monkeypatch, space, change) -> None:
    """d0 on S_a, a = space(t), replaced in the row by change(d0), and so at
    every position of its antidiagonal, in each degree t with a >= 1."""
    real = complexes.build_bicomplex

    def planted(n, t, m):
        bc = real(n, t, m)
        a = space(t)
        if a >= 1:
            bc.d0[a] = change(bc.d0[a])
        return bc

    monkeypatch.setattr(complexes, "build_bicomplex", planted)


def test_zero_vertical_map_breaks_its_column(monkeypatch):
    """d0 on S_{t-1} scaled by 0, an empty matrix of rank 0, at (1, 0) and
    (0, 1): column 1 is no longer exact below its top, whose kernel is now
    the whole entry, column 0 is not exact at depth 1, and the squares and
    the total complex they enter break.  The same set was derived on the
    build that kept one map per position, with the map planted at both
    positions, and, with the map planted at (1, 0) alone, on that build
    and on the one that kept each map as a (scalar, matrix) pair."""
    _plant_d0(monkeypatch, lambda t: t - 1, lambda d0: d0.scale(0))
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    assert _failing(reps) == {
        ("bicomplex", t): {
            "cols_exact", "top_kernels", "squares", "total_d2", "cohomology_match"
        }
        for t in range(2, 7)
    }


def test_negated_vertical_map_breaks_the_squares_and_the_total(monkeypatch):
    """d0 on S_{t-1} negated in the row, at (1, 0) and (0, 1): the squares
    it starts and ends no longer anticommute under the column sign, and the
    total d o d is no longer zero.  The same set was derived on the build
    that kept one map per position, with the map negated at both positions
    and at (1, 0) alone, on the build that decided ``squares`` and
    ``total_d2`` on the assembled total complex, with the map at (1, 0)
    planted in the grid, and it is the set of that build's plant of the
    unsigned map in ``totalize``."""
    _plant_d0(monkeypatch, lambda t: t - 1, lambda d0: d0.scale(-1))
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    assert _failing(reps) == {
        ("bicomplex", t): {"squares", "total_d2", "cohomology_match"} for t in range(2, 7)
    }


def test_zero_bottom_map_breaks_every_column(monkeypatch):
    """d0 on S_1 scaled by 0, the last vertical map of every column: no
    column is onto at its bottom.  At t = 1 that bottom is the only exact
    place of the grid, so ``cols_exact`` fails there on it alone.  The
    same set was derived on the build that kept one map per position, with
    the map planted at every position (b, t-1-b)."""
    _plant_d0(monkeypatch, lambda t: min(t, 1), lambda d0: d0.scale(0))
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    assert _failing(reps) == {
        ("bicomplex", 1): {"cols_exact", "top_kernels", "cohomology_match"},
        **{
            ("bicomplex", t): {
                "cols_exact", "top_kernels", "squares", "total_d2", "cohomology_match"
            }
            for t in range(2, 7)
        },
    }


def test_top_map_with_permuted_columns_breaks_its_top_kernel(monkeypatch):
    """d0 on S_t, the vertical map at (0, 0) alone, with its columns in
    reverse order: its rank is unchanged, so only its image of the fiber
    E^{t,0} shows that the fiber is no longer its kernel, and the squares
    and the total complex it enters break.  The same set was derived on the
    build that kept one map per position."""
    def reverse(d0):
        return SparseRationalMatrix(d0.nrows, d0.columns()[::-1], d0.scalar)

    _plant_d0(monkeypatch, lambda t: t, reverse)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    assert _failing(reps) == {
        ("bicomplex", 1): {"top_kernels", "total_d2", "cohomology_match"},
        **{
            ("bicomplex", t): {"top_kernels", "squares", "total_d2", "cohomology_match"}
            for t in range(2, 7)
        },
    }


def test_top_fiber_with_a_repeated_vector_fails_its_top_kernel(monkeypatch):
    """Each top fiber the bicomplex check reads with its first vector
    repeated: the basis is no longer independent, so ``top_kernels`` fails
    on its dimension, while H.E has the same rank and the rank bound would
    still certify the right cohomology.  The bound rests on
    ``top_kernels``, so ``cohomology_match`` fails too.  The truncation
    complexes are built with the true fibers first, so only the bicomplex
    sees the plant.  The build that assembled the total complex where the
    bound could not be used failed {top_kernels} alone at every t, since
    that total complex was a complex with the right cohomology."""
    for t, m in ((t, m) for t in range(7) for m in range(3)):
        assert complexes.build_Et(4, t, m).cohomology is not None
    real = complexes.fiber_E

    def planted(space):
        basis = real(space)
        if not basis.vectors:
            return basis
        return SubspaceBasis(basis.ambient_dim, [*basis.vectors, basis.vectors[0]])

    monkeypatch.setattr(complexes, "fiber_E", planted)
    code, reps = reports(*FIBER_N4, "bicomplex")
    assert code == 1
    assert _failing(reps) == {
        ("bicomplex", t): {"top_kernels", "cohomology_match"} for t in range(7)
    }


def _force_the_fallback(monkeypatch):
    """Every product H.E, the horizontal map on a top kernel, ranked mod p
    as 0, as a prime dividing all its entries would rank it: the mod-p
    bound is still a lower bound, but in every block with a non-zero H.E
    it spreads, and ``_total_cohomology`` ranks each H.E over Q and tries
    the certificate once more.  At n = 4 that is every block but the 3 of
    degree 0 and (t, m) = (1, 1), (1, 2) and (2, 2), whose H.E are all
    zero.  ``cohomology_dims`` passes the rows it skips; the bound asks
    for none."""
    real = complexes.pivots_mod_p

    def pivots(m, skip=None):
        return [] if skip is None else real(m, skip)

    monkeypatch.setattr(complexes, "pivots_mod_p", pivots)


def _plant_in_the_bound(monkeypatch, name, plant) -> None:
    """While ``_total_cohomology`` runs on a block of degree t >= 2, the
    function ``name`` it reads from ``complexes`` is plant(bc, real)."""
    real_bound, real = complexes._total_cohomology, getattr(complexes, name)

    def bound(bc, ranks):
        if bc.t < 2:
            return real_bound(bc, ranks)
        with monkeypatch.context() as patch:
            patch.setattr(complexes, name, plant(bc, real))
            return real_bound(bc, ranks)

    monkeypatch.setattr(complexes, "_total_cohomology", bound)


def _fails_only_the_cohomology_match(reps):
    """Every report below t = 2 passes; from t = 2 on each fails exactly
    ``cohomology_match``: the grid passes, and the rank bound certifies
    nothing.  The build that assembled the total complex where the bound
    fell back failed the same set with the matching defect planted in the
    total complex (a wrongly signed or dropped d0 on S_{t-1}, or the
    (0, 0) block one row lower), the same fallback forced: its total
    complex was not a complex, so its ranks were never read.  On the build
    that decided ``squares`` and ``total_d2`` on the assembled total
    complex, those plants failed ``squares``, ``total_d2`` and
    ``cohomology_match`` from t = 2 on."""
    for rep in reps:
        if rep["params"]["t"] < 2:
            assert rep["status"] == "pass", rep
        else:
            assert rep["status"] == "fail", rep
            failing = {k for k, v in rep["computed"].items() if v != rep["expected"][k]}
            assert failing == {"cohomology_match"}, rep


def test_exact_retry_with_one_rank_off_fails(monkeypatch, rank_calls):
    def off_by(k):
        def plant(bc, real):
            """The exact rank of the first H.E ranked, on S_0, off by k."""
            ranked = []

            def rank(m):
                ranked.append(m)
                return real(m) + (k if len(ranked) == 1 else 0)

            return rank

        return plant

    _force_the_fallback(monkeypatch)
    # forced alone, the retry certifies every block
    golden = (GOLDEN / "fiber-n4.ndjson").read_text(encoding="ascii").splitlines()
    code, reps = reports(*FIBER_N4, "bicomplex")
    assert code == 0
    assert reps == [json.loads(line) for line in golden if '"suite":"bicomplex"' in line]
    # one rank raised, which turns u negative, and one lowered, which
    # spreads it, on the exact retry of every block of degree t >= 2 that
    # retries.  The exact ranks are the 63 d0 and the H.E of every block
    # that retries, 63 - 4 = 59: the t of each block of degree t, less the
    # 4 of the blocks (1, 1), (1, 2) and (2, 2), which do not.  The mod-p
    # ranks are the t differentials of each block of each E^t (63); the
    # forced H.E ranks eliminate nothing.  On the build that assembled the
    # total complex, its plants ranked {"rank": 63, "pivots_mod_p": 146}
    # (d0 on S_{t-1} negated) and {"rank": 0, "pivots_mod_p": 83} (dropped),
    # with the d0 ranks cached by the first of the two runs.
    for k in (1, -1):
        for f in CACHED:
            f.cache_clear()
        rank_calls.update(rank=0, pivots_mod_p=0)
        with monkeypatch.context() as patch:
            _plant_in_the_bound(patch, "rank", off_by(k))
            code, reps = reports(*FIBER_N4, "bicomplex")
        assert code == 1
        _fails_only_the_cohomology_match(reps)
        assert rank_calls == {"rank": 63 + 59, "pivots_mod_p": 63}, k


def test_degree_dims_with_one_space_shifted_fail(monkeypatch):
    def shifted(bc, real):
        """S_t, the (0, 0) entry, counted in total degree 1 instead of 0."""

        def certified(dims, offset, lower):
            dims = list(dims)
            dims[bc.t] -= bc.spaces[bc.t].dim
            dims[bc.t + 1] += bc.spaces[bc.t].dim
            return real(dims, offset, lower)

        return certified

    _force_the_fallback(monkeypatch)
    _plant_in_the_bound(monkeypatch, "_certified_cohomology", shifted)
    code, reps = reports(*FIBER_N4, "bicomplex")
    assert code == 1
    _fails_only_the_cohomology_match(reps)


def test_wrong_d_coefficient_breaks_containment(monkeypatch):
    real = fiber.structure_map

    def planted(kind, src):
        if kind != "d":
            return real(kind, src)
        m1, dst = real("d1", src)
        m2, _ = real("d2", src)
        return matrix_sum(m1.scale(Fraction(1, src.B + 2)), m2), dst

    # complexes imported the name, so both bindings carry the planted map
    monkeypatch.setattr(fiber, "structure_map", planted)
    monkeypatch.setattr(complexes, "structure_map", planted)
    code, reps = reports(*FIBER_N4, "d2zero,bicomplex")
    assert code == 1
    for rep in reps:
        t = rep["params"]["t"]
        if t < 2:
            assert rep["status"] == "pass", rep
        elif rep["suite"] == "d2zero":
            assert rep["computed"] == {"compositions_zero": 0, "containment": 0}
        else:
            assert rep["status"] == "fail"
            assert rep["computed"]["error"] == "SubspaceEscapeError"


def test_d_without_its_scalar_breaks_the_squares_and_the_snake(monkeypatch):
    real = fiber.structure_map

    def planted(kind, src):
        """d as its stored integers (B+1) d, the scalar 1/(B+1) dropped.
        The failing set below is the one of the Fraction matrix (B+1) d
        planted in the build that stored every value as a Fraction."""
        mat, dst = real(kind, src)
        if kind != "d":
            return mat, dst
        return SparseRationalMatrix(mat.nrows, mat.columns()), dst

    # complexes imported the name, so both bindings carry the planted map
    monkeypatch.setattr(fiber, "structure_map", planted)
    monkeypatch.setattr(complexes, "structure_map", planted)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    failing = {}
    for rep in reps:
        if rep["status"] == "fail":
            failing[(rep["suite"], rep["params"]["t"])] = {
                k for k, v in rep["computed"].items() if v != rep["expected"][k]
            }
    # each d_B is off by the factor B+1: d o d stays zero, so the truncation
    # complexes pass, but the squares and the snake's comparisons with d2 do not
    assert failing == {
        **{("bicomplex", t): {"squares", "total_d2", "cohomology_match"}
           for t in range(2, 7)},
        **{("snake", t): {"filtration_ok"} for t in (1, 2)},
        **{("snake", t): {"filtration_ok", "quotient_ok"} for t in range(3, 7)},
    }


def test_scaled_koszul_column_breaks_koszul_and_snake(monkeypatch, rank_calls):
    real = fiber.structure_map

    def planted(kind, src):
        """d2 with its last column scaled by 2: the image of the last
        monomial, which lies in the annihilator."""
        mat, dst = real(kind, src)
        if kind != "d2" or not mat.ncols:
            return mat, dst
        *cols, last = mat.columns()
        cols.append({r: 2 * v for r, v in last.items()})
        return SparseRationalMatrix(mat.nrows, cols), dst

    # complexes imported the name, so both bindings carry the planted map
    monkeypatch.setattr(fiber, "structure_map", planted)
    monkeypatch.setattr(complexes, "structure_map", planted)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    failing = set()
    for rep in reps:
        if rep["status"] == "pass":
            continue
        failing.add((rep["suite"], rep["params"]["t"]))
        if rep["suite"] == "koszul":
            assert rep["computed"]["complex"] == 0, rep
        else:
            assert rep["computed"]["filtration_ok"] == 0, rep
    # the last column of each weight block's d2 is scaled, not only the
    # last of the full space's: the Koszul complexes at t = 2 and 3 fail
    # too (on the full spaces the set was koszul at t = 4..6 and the snake
    # at t = 1..6)
    assert failing == {("koszul", t) for t in range(2, 7)} | {
        ("snake", t) for t in range(1, 7)
    }
    # the Koszul complexes that fail d o d = 0 are ranked over Q, t
    # differentials each, beside the 63 d0 and the snake's 7 wedge maps:
    # block 0 from t = 2, block 1 from t = 3 and block 2 from t = 4 (on the
    # full spaces: 21 + 7 + 4 + 5 + 6)
    assert rank_calls["rank"] == 63 + 7 + 2 * 1 + 3 * 2 + (4 + 5 + 6) * 3


def test_contraction_sign_flip_breaks_the_truncation_complexes(monkeypatch, rank_calls):
    real = fiber._contract

    def planted(subset, i):
        out = real(subset, i)
        if out is not None and len(subset) == 3:
            sign, rest = out
            return -sign, rest
        return out

    # the structure matrices are built from _contract; a genuine one left in
    # the cache would hide the planted sign
    assert fiber._structure_matrix.cache_info().currsize == 0
    monkeypatch.setattr(fiber, "_contract", planted)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    failing = {(rep["suite"], rep["params"]["t"]) for rep in reps
               if rep["status"] == "fail"}
    assert failing == {("bicomplex", 3)} | {
        (suite, t)
        for suite in ("d2zero", "cohomology", "snake", "bicomplex")
        for t in range(4, 7)
    }
    # the snake at t >= 4 reads the broken E^t's differential, which leaves
    # its fiber
    for rep in reps:
        if rep["suite"] == "snake" and rep["status"] == "fail":
            assert rep["computed"]["error"] == "SubspaceEscapeError", rep
    # the broken E^t (t >= 4) and totals (t >= 3) fail before any rank of
    # theirs: the only exact ranks are the 63 d0 and the snake's wedge maps
    # at t = 0..3, and no failing report rests on a mod-p rank (on the full
    # spaces: 21 + 4)
    assert rank_calls["rank"] == 63 + 4


def test_sign_flip_off_every_representative_passes_the_reports_and_fails_the_oracle(
    monkeypatch,
):
    """The contraction's sign flipped on the monomials that hold e^{n+3}
    without e^3 at n = 5 (e^8 without e^3): weight -1 at pair 3, which no
    representative weight (+1)^m 0^(3-m) has.  The package builds only the
    representative blocks, so every report passes, byte-identical to the
    golden copy: the Weyl-group argument is proved, not checked at run
    time, and this is its price.  The weight-block oracle, whose full path
    reads the same sign convention, catches it: the blocks of one orbit of
    a total differential no longer share their rank."""
    real = fiber._contract

    def planted(subset, i):
        out = real(subset, i)
        if out is not None and 8 in subset and 3 not in subset:
            sign, rest = out
            return -sign, rest
        return out

    monkeypatch.setattr(fiber, "_contract", planted)
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "fiber-n5.ndjson"
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(["verify-fiber", "--n", "5", "--t", "all"]) == 0
    assert buf.getvalue() == golden.read_text(encoding="ascii")
    # the oracle's full path, with the same convention and none of its
    # genuine matrices cached
    from tests import test_weight_blocks

    oracle_cached = (linalg_oracle.full_structure_map, linalg_oracle.full_fiber_E)
    monkeypatch.setattr(linalg_oracle, "_contract", planted)
    for f in oracle_cached:
        f.cache_clear()
    try:
        with pytest.raises(AssertionError):
            test_weight_blocks.test_total_differentials_split_into_weight_blocks(5)
    finally:
        for f in oracle_cached:
            f.cache_clear()


def _lift_plant_failures(monkeypatch, planted):
    """Run every fiber check at n = 4 with ``_xi_lift`` replaced by
    ``planted`` and return the failing (suite, t) pairs, checking on the way
    that each failure, the snake's included, is the lift certificate of
    ``fiber_E``."""
    # fiber._lift_vectors, which builds the bases of fiber_E, is the only
    # caller of _xi_lift
    monkeypatch.setattr(fiber, "_xi_lift", planted)
    code, reps = reports(*FIBER_N4, "d2zero,cohomology,snake,bicomplex,koszul,ces")
    assert code == 1
    failing = set()
    for rep in reps:
        if rep["status"] == "pass":
            continue
        failing.add((rep["suite"], rep["params"]["t"]))
        assert rep["computed"]["error"] == "AssertionError", rep
        assert rep["computed"]["detail"].startswith("lift construction disagrees"), rep
    return failing


def _lift_failures(first_t):
    return {
        (suite, t)
        for suite in ("d2zero", "cohomology", "snake", "bicomplex", "ces")
        for t in range(first_t, 7)
    }


def test_lift_leaving_the_kernel_fails(monkeypatch):
    real = fiber._xi_lift

    def planted(space, mono):
        """The lift with its lowest entry negated: its two terms no longer
        cancel under d0, so it leaves ker d0."""
        lift = real(space, mono)
        low = min(lift)
        return {**lift, low: -lift[low]}

    assert _lift_plant_failures(monkeypatch, planted) == _lift_failures(2)


def test_lift_repeating_a_vector_fails(monkeypatch):
    real = fiber._xi_lift

    def planted(space, mono):
        """The lift of (subset, 1) in place of that of (subset, 0): every
        lift stays in ker d0, but one is repeated, so the rank drops."""
        subset, p = mono
        if p == 0 and space.B >= 2:
            mono = (subset, 1)
        return real(space, mono)

    assert _lift_plant_failures(monkeypatch, planted) == _lift_failures(3)


def test_far_shift_off_by_one_breaks_only_the_staircase(monkeypatch):
    def planted(alpha1, alpha2, k):
        """tphi_on_weight with k - 1 + alpha2 for k - 2 + alpha2 in the last
        entry of the far-shift closed form."""
        if not (alpha1 >= alpha2 and alpha1 >= -1 and k >= 3):
            raise ValueError("need alpha1 >= alpha2, alpha1 >= -1, k >= 3")
        generic = weights.bbw_pushforward((alpha1, alpha2) + (0,) * (k - 2))
        if alpha2 >= 0:
            closed = ((alpha1, alpha2) + (0,) * (k - 2), 0)
        elif alpha2 >= 2 - k:
            closed = None
        else:
            closed = ((alpha1,) + (-1,) * (k - 2) + (k - 1 + alpha2,), k - 2)
        if generic != closed:
            raise AssertionError(f"closed form disagrees at ({alpha1},{alpha2},k={k})")
        return generic

    monkeypatch.setattr(weights, "tphi_on_weight", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    failing = [rep for rep in reps if rep["status"] == "fail"]
    assert len(failing) == 45
    assert all(rep["suite"] == "staircase" for rep in failing)
    assert {rep["suite"] for rep in reps if rep["status"] == "pass"} == {
        "bbw", "euler", "phics", "pieri", "vanishing"
    }


def test_far_shift_by_k_breaks_only_the_staircase_positions(monkeypatch):
    real = weights.tphi_on_weight

    def planted(alpha1, alpha2, k):
        """tphi_on_weight with shift k for k - 2 on the far-shift weights
        (alpha2 < 2 - k), past the closed-form cross-check."""
        if not (alpha1 >= alpha2 and alpha1 >= -1 and k >= 3):
            raise ValueError("need alpha1 >= alpha2, alpha1 >= -1, k >= 3")
        if alpha2 < 2 - k:
            return (alpha1,) + (-1,) * (k - 2) + (k - 2 + alpha2,), k
        return real(alpha1, alpha2, k)

    monkeypatch.setattr(weights, "tphi_on_weight", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    # every staircase has far-shift survivors before its dominant ones; they
    # now land two places late, so the last of them passes the first
    # dominant survivor.  The shift keeps its parity, so the Euler sum stays
    # 0, and no cross-check runs, so shape_ok stays 1.  bbw never reaches
    # the far shift and the vanishing band reads only None.  The same set
    # fails on the build that listed the survivors' positions.
    assert _weight_failures(reps) == {
        _staircase(a1, a2): {"positions_increasing"}
        for a1 in range(9) for a2 in range(a1 + 1)
    }
    assert {rep["suite"] for rep in reps if rep["status"] == "pass"} == {
        "bbw", "euler", "phics", "pieri", "vanishing"
    }


def test_truncation_dropping_its_last_term_breaks_only_euler(monkeypatch):
    def planted(alpha1, alpha2, k, n):
        """rank_K over the kept staircase terms but the last."""
        kept = [
            (wedge_exp, weight)
            for _, wedge_exp, weight in staircase_terms_gr2(alpha1, alpha2, n)
            if min(weight) >= 0
        ]
        return sum(
            (-1) ** pos * comb(2 * n, wedge_exp)
            * weights.weyl_dim_gl(weight + (0,) * (k - 2))
            for pos, (wedge_exp, weight) in enumerate(kept[:-1])
        )

    monkeypatch.setattr(weights, "rank_K", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    failing = {(rep["suite"], rep["params"].get("t")) for rep in reps
               if rep["status"] == "fail"}
    assert failing == {("euler", t) for t in range(9)}
    assert {rep["suite"] for rep in reps if rep["status"] == "pass"} == {
        "bbw", "staircase", "phics", "pieri", "vanishing"
    }


def test_weyl_run_pair_one_term_short_breaks_the_dimension_suites(monkeypatch):
    def planted(lam):
        """weyl_dim_gl over runs of equal entries, each run-pair factor one
        term short: the falling factorials over the longer run stop one
        entry early."""
        runs = []
        start = 0
        for value, group in groupby(lam):
            if runs and value > runs[-1][0]:
                raise ValueError("non-dominant weight")
            length = len(list(group))
            runs.append((value, start, length))
            start += length
        num = den = 1
        for (x, p, a), (y, q, b) in combinations(runs, 2):
            if a <= b:
                for i in range(p, p + a):
                    num *= perm(x - y + q + b - 1 - i, b - 1)
                    den *= perm(q + b - 1 - i, b - 1)
            else:
                for j in range(q, q + b):
                    num *= perm(x - y + j - p, a - 1)
                    den *= perm(j - p, a - 1)
        quo, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"Weyl product is not integral at {lam}")
        return quo

    monkeypatch.setattr(weights, "weyl_dim_gl", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    failing = {(rep["suite"], tuple(rep["params"].items())) for rep in reps
               if rep["status"] == "fail"}
    # every report of the three suites that sum Weyl dimensions
    assert failing == {
        (rep["suite"], tuple(rep["params"].items())) for rep in reps
        if rep["suite"] in ("staircase", "euler", "pieri")
    }
    assert len(failing) == 45 + 9 + 1
    assert {rep["suite"] for rep in reps if rep["status"] == "pass"} == {
        "bbw", "phics", "vanishing"
    }


def _weight_failures(reps):
    """(suite, params) -> the flags that differ from the expected ones, for
    every failing report of a verify-weights run."""
    return {
        (rep["suite"], tuple(rep["params"].items())): {
            k for k in rep["expected"].keys() | rep["computed"].keys()
            if rep["computed"].get(k) != rep["expected"].get(k)
        }
        for rep in reps if rep["status"] == "fail"
    }


def _staircase(alpha1, alpha2):
    return ("staircase", (("alpha1", alpha1), ("alpha2", alpha2), ("k", 4), ("n", 6)))


ERROR_FLAGS = {"ok", "error", "detail"}


def test_weyl_pair_factor_off_by_one_breaks_the_dimension_suites(monkeypatch):
    def planted(lam):
        """The pairwise Weyl product with the factor of the pair (0, 1) one
        too large: lam_0 - lam_1 + 2."""
        num = den = 1
        for (i, x), (j, y) in combinations(enumerate(lam), 2):
            if x < y:
                raise ValueError("non-dominant weight")
            num *= x - y + j - i + ((i, j) == (0, 1))
            den *= j - i
        quo, rem = divmod(num, den)
        if rem:
            raise AssertionError(f"Weyl product is not integral at {lam}")
        return quo

    monkeypatch.setattr(weights, "weyl_dim_gl", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    # the same set on the build that multiplied over runs of equal entries:
    # every euler and pieri report and every staircase report but (0, 0);
    # most products are no longer integral and end in an error report, the
    # rest are integers that break the staircase's Euler sum
    off_sum = {(1, 0), (4, 4), (5, 4), (6, 4), (7, 4), (8, 1), (8, 4), (8, 7)}
    expected = {
        (rep["suite"], tuple(rep["params"].items())): (
            {"euler"} if rep["suite"] == "staircase"
            and (rep["params"]["alpha1"], rep["params"]["alpha2"]) in off_sum
            else ERROR_FLAGS
        )
        for rep in reps
        if rep["suite"] in ("euler", "pieri", "staircase") and rep["params"] != {
            "alpha1": 0, "alpha2": 0, "k": 4, "n": 6
        }
    }
    assert _weight_failures(reps) == expected
    assert len(expected) == 44 + 9 + 1
    for rep in reps:
        if "error" in rep["computed"]:
            assert rep["computed"]["detail"].startswith("Weyl product is not integral")


def test_inversion_count_off_by_one_breaks_bbw_and_the_staircase(monkeypatch):
    def planted(gamma):
        """bbw_pushforward with its pair count of the inversions starting
        at 1."""
        k = len(gamma)
        r = weights.rho(k)
        beta = [g + x for g, x in zip(gamma, r)]
        if len(set(beta)) < k:
            return None
        shift = 1 + sum(x < y for x, y in combinations(beta, 2))
        return tuple(b - x for b, x in zip(sorted(beta, reverse=True), r)), shift

    monkeypatch.setattr(weights, "bbw_pushforward", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    # every non-vanishing pushforward now disagrees with its closed form:
    # bbw counts 45 of its 55 weights (the other 10 vanish), and every
    # staircase report counts its terms out of shape_ok; phics reads only
    # whether a pushforward vanishes, and the vanishing band only vanishing
    # ones, so both pass
    assert _weight_failures(reps) == {
        ("bbw", (("k", 4), ("n", 6))): {"mismatches"},
        **{_staircase(a1, a2): {"shape_ok"} for a1 in range(9) for a2 in range(a1 + 1)},
    }
    bbw = next(rep for rep in reps if rep["suite"] == "bbw")
    assert bbw["computed"] == {"mismatches": 45, "checked": 55}


def test_closed_form_wrong_on_one_far_shift_weight_fails_its_staircases(monkeypatch):
    real = weights._closed_form

    def planted(alpha1, alpha2, k):
        """The closed form with the last entry of the far-shift weight
        (0, -5) at k = 4 one too large."""
        push = real(alpha1, alpha2, k)
        if (alpha1, alpha2, k) != (0, -5, 4):
            return push
        weight, shift = push
        return weight[:-1] + (weight[-1] + 1,), shift

    monkeypatch.setattr(weights, "_closed_form", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    # the staircases of (alpha1, 1) with alpha1 - 11 <= -5 hold the term
    # (0, -5); the term is left out of their survivors, so their Euler sum
    # moves too.  No report is an error: the build that computed the
    # survivors' closed form a second time failed the same six with
    # AssertionError.
    holding = {
        (a1, a2) for a1 in range(9) for a2 in range(a1 + 1)
        if any(w == (0, -5) for _, _, w in staircase_terms_gr2(a1, a2, 6))
    }
    assert holding == {(a1, 1) for a1 in range(1, 7)}
    assert _weight_failures(reps) == {_staircase(*a): {"shape_ok", "euler"} for a in holding}


def test_weyl_error_on_one_weight_fails_only_the_windows_holding_it(monkeypatch):
    real = weights.weyl_dim_gl

    def planted(lam):
        """weyl_dim_gl raising on the one weight (3, 1, 0, 0)."""
        if lam == (3, 1, 0, 0):
            raise AssertionError("planted at (3, 1, 0, 0)")
        return real(lam)

    monkeypatch.setattr(weights, "weyl_dim_gl", planted)
    code, reps = reports("verify-weights", "--n", "6", "--k", "4")
    assert code == 1
    # (3, 1, 0, 0) is the pushforward and the padding of the term (3, 1),
    # which is m = 3 in the row of alpha2 = 1 and m = 1 in the row of
    # alpha2 = 4.  The staircases whose window holds it are (alpha1, 1) with
    # alpha1 >= 3 and (alpha1, 4), and the truncations that keep it are
    # those of the same labels, which the Euler checks at t = 1..8 read.
    # Each fails as an error report, the same set the term-by-term walk
    # failed; no other window of those two rows may fail.
    expected = {
        **{_staircase(a1, 1): ERROR_FLAGS for a1 in range(3, 9)},
        **{_staircase(a1, 4): ERROR_FLAGS for a1 in range(4, 9)},
        **{("euler", (("k", 4), ("n", 6), ("t", t))): ERROR_FLAGS for t in range(1, 9)},
    }
    assert _weight_failures(reps) == expected
    for rep in reps:
        if rep["status"] == "fail":
            assert rep["computed"] == {
                "detail": "planted at (3, 1, 0, 0)", "error": "AssertionError", "ok": 0
            }
