"""Tests for the chain-complex and bicomplex layer."""

from fractions import Fraction

import pytest

from sscx.exactlinalg import SparseRationalMatrix
from sscx.complexes import (
    ChainComplex,
    _wedge_form_matrix,
    _xi_matrix,
    build_bicomplex,
    build_Et,
    build_koszul_S,
    cohomology_dims,
    expected_Et_cohomology,
    totalize,
    verify_bicomplex,
    verify_ces,
    verify_complex,
    verify_Et_cohomology,
    verify_Et_complex,
    verify_koszul_S,
    verify_snake,
)
from sscx.fiber import FiberModel, TwistedSpace, structure_map


class TestChainComplex:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainComplex(0, [2, 3], [])
        with pytest.raises(ValueError):
            ChainComplex(0, [2, 3], [SparseRationalMatrix(2, 2)])

    def test_degrees(self):
        # position i sits in degree degree_offset + i
        c = ChainComplex(-2, [1, 1, 1], [SparseRationalMatrix(1, 1)] * 2)
        assert cohomology_dims(c) == {-2: 1, -1: 1, 0: 1}

    def test_cohomology_of_zero_complex(self):
        c = ChainComplex(0, [2, 3], [SparseRationalMatrix(3, 2)])
        assert cohomology_dims(c) == {0: 2, 1: 3}


class TestEt:
    def test_dims_examples(self):
        assert build_Et(3, 2).dims == [3, 9, 6]
        assert build_Et(3, 0).dims == [1]
        assert build_Et(3, 4).dims == [5, 19, 26, 14, 1]

    def test_cohomology_examples(self):
        assert cohomology_dims(build_Et(3, 2)) == {}
        assert cohomology_dims(build_Et(3, 1)) == {0: 2}
        assert cohomology_dims(build_Et(3, 4)) == {-1: 1}

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
        for t in range(0, 2 * n - 1):
            c = build_Et(n, t)
            chi_terms = sum(
                (-1) ** d * dim for d, dim in enumerate(c.dims, c.degree_offset)
            )
            chi_coh = sum((-1) ** d * h for d, h in cohomology_dims(c).items())
            assert chi_terms == chi_coh

    def test_out_of_band(self):
        with pytest.raises(ValueError):
            build_Et(3, 5)


class TestKoszul:
    def test_examples(self):
        assert build_koszul_S(3, 1).dims == [2, 4]
        assert build_koszul_S(3, 2).dims == [3, 8, 6]
        assert build_koszul_S(3, 0).dims == [1]
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


class TestBicomplex:
    def test_grid_shape(self):
        bc = build_bicomplex(3, 2)
        assert [len(col) for col in bc.grid] == [3, 2, 1]
        assert (1, 0) in bc.horizontal and (2, 0) in bc.horizontal
        assert (0, 0) in bc.vertical and (0, 1) in bc.vertical

    def test_horizontal_at_depth_zero_is_d(self):
        # with no determinant twist the printed coefficients reduce to the
        # differential of the truncation complex
        bc = build_bicomplex(3, 2)
        model = FiberModel(3)
        d, _ = structure_map(model, "d", TwistedSpace(3, 1, 1))
        assert bc.horizontal[(1, 0)] == d

    def test_totalize_examples(self):
        assert cohomology_dims(totalize(build_bicomplex(3, 2))) == {}  # acyclic
        assert cohomology_dims(totalize(build_bicomplex(3, 1))) == {0: 2}
        total0 = totalize(build_bicomplex(3, 0))
        assert total0.dims == [1] and cohomology_dims(total0) == {0: 1}

    def test_totalization_is_complex(self):
        for t in range(0, 5):
            assert verify_complex(totalize(build_bicomplex(3, t)))

    @pytest.mark.parametrize("n", (3, 4))
    def test_full_verification(self, n):
        for t in range(0, 2 * n - 1):
            rep = verify_bicomplex(n, t)
            assert rep.status == "pass", (n, t, rep.computed)


class TestCes:
    @pytest.mark.parametrize("n", (3, 4))
    def test_full_grid(self, n):
        for t in range(0, 2 * n - 1):
            rep = verify_ces(n, t)
            assert rep.status == "pass", (n, t, rep.computed)


class TestExpectedCohomology:
    def test_band_structure(self):
        for n in (3, 4, 5):
            assert expected_Et_cohomology(n, n - 1) == {}
            assert expected_Et_cohomology(n, 0) == {0: 1}
            assert expected_Et_cohomology(n, 2 * n - 2) == {-1: 1}


def test_matrices_built_from_columns_keep_the_invariant():
    """Structure maps, lifts, the wedge map and the total differentials are
    built through from_columns, which checks nothing: each must equal its
    checked rebuild and store only non-zero Fractions."""
    m3, m4 = FiberModel(3), FiberModel(4)
    mats = [
        structure_map(m3, kind, TwistedSpace(3, a, B))[0]
        for kind in ("d1", "d2", "d")
        for a in range(6)
        for B in range(1, 4)
    ]
    mats += [structure_map(m3, "d0", TwistedSpace(3, a, B))[0]
             for a in range(1, 7) for B in range(4)]
    mats += [_xi_matrix(m3, a, b) for a in range(5) for b in range(4)]
    mats += [_wedge_form_matrix(m4, t) for t in range(7)]
    mats += [d for t in range(5) for d in totalize(build_bicomplex(3, t)).differentials]
    for m in mats:
        assert m == SparseRationalMatrix(m.nrows, m.ncols, m.entries)
        assert all(type(v) is Fraction and v for col in m.columns() for v in col.values())
