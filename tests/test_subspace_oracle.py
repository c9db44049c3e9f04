"""The subspace equalities the verifier decides by containment plus
dimension must agree with the oracle ``linalg_oracle``: the certificate of
``fiber_E``'s lift basis and the image flag of the ``ces`` check, for every
degree at n <= 4, on the genuine maps and on perturbed ones.  And the lift
basis must span the kernel the reduced elimination computes, with the same
ranks and cohomology over both bases, at n <= 5.  Every space is one weight
block, and every block is checked."""

import pytest

from sscx import complexes, fiber
from sscx.complexes import ChainComplex, build_Et, cohomology_dims
from sscx.exactlinalg import SparseRationalMatrix, SubspaceBasis, rank
from sscx.fiber import TwistedSpace, fiber_E, structure_map
import linalg_oracle as oracle
from linalg_oracle import kernel, spans_equal, subspace_equal

NS = (2, 3, 4)


def _degrees(n):
    """Every (a, b, m) with a >= 1 of the band a + b <= 2n - 2, m a weight
    block."""
    return [
        (a, t - a, m) for t in range(2 * n - 1) for a in range(1, t + 1) for m in range(n - 1)
    ]


def _negate_lowest(vec):
    low = min(vec)
    return {**vec, low: -vec[low]}


def _variants(vectors):
    """The vectors as they are, with the last one's lowest entry negated,
    with the last one replaced by the first, and without the last one."""
    return [
        vectors,
        vectors[:-1] + [_negate_lowest(vectors[-1])],
        vectors[:-1] + [vectors[0]],
        vectors[:-1],
    ]


def _certified(space):
    """Whether an uncached ``fiber_E`` certifies its lift vectors as a basis
    of ker d0; False when it reports that the constructions disagree."""
    try:
        fiber.fiber_E.__wrapped__(space)
    except AssertionError as err:
        if not str(err).startswith("lift construction disagrees"):
            raise
        return False
    return True


@pytest.mark.parametrize("n", NS)
def test_lift_predicate_matches_the_oracle(n, monkeypatch):
    real = fiber._lift_vectors
    verdicts = set()
    for a, b, m in _degrees(n):
        space = TwistedSpace(n, a, b, m)
        d0, _ = structure_map("d0", space)
        ker = SubspaceBasis(d0.ncols, kernel(d0).columns())
        vectors = real(space)
        for vectors in _variants(vectors) if vectors else [vectors]:
            monkeypatch.setattr(fiber, "_lift_vectors", lambda *args, v=vectors: v)
            new = _certified(space)
            assert new == subspace_equal(ker, SubspaceBasis(d0.ncols, vectors)), (a, b, m)
            verdicts.add(new)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_lift_basis_matches_the_reduced_kernel(n):
    for m in range(n - 1):
        _lift_basis_matches_the_reduced_kernel(n, m)


def _lift_basis_matches_the_reduced_kernel(n, m):
    """Every fiber spans the kernel of d0 that the reduced elimination
    computes (the full space at a = 0), and each restricted differential
    and each truncation complex has the same ranks and cohomology in the
    reduced kernel bases, with coordinates by elimination, as in the lift
    bases."""
    old = {}
    for t in range(2 * n - 1):
        for a in range(t + 1):
            space = TwistedSpace(n, a, t - a, m)
            basis = fiber_E(space)
            if a == 0:
                old[(a, t - a)] = basis
                continue
            d0, _ = structure_map("d0", space)
            ker = kernel(d0)
            assert spans_equal(SparseRationalMatrix(basis.ambient_dim, basis.vectors), ker)
            old[(a, t - a)] = SubspaceBasis(ker.nrows, ker.columns())
    for t in range(2 * n - 1):
        diffs = []
        for a in range(t):
            b = t - a
            d, _ = structure_map("d", TwistedSpace(n, a, b, m))
            cod = old[(a + 1, b - 1)]
            images = [oracle.value_image(d, v) for v in old[(a, b)].vectors]
            coords = oracle.solve_in_basis(cod, images)
            diffs.append(oracle.rational_matrix(cod.dim, coords))
            assert rank(diffs[-1]) == rank(build_Et(n, t, m).differentials[a]), (t, a)
        dims = [old[(a, t - a)].dim for a in range(t + 1)]
        assert cohomology_dims(ChainComplex(-t, dims, diffs)) == build_Et(n, t, m).cohomology, t


def _column_variants(m):
    """The matrix as it is, with its first non-zero column dropped, and with
    that column's lowest entry negated."""
    j = next(j for j, col in enumerate(m.columns()) if col)
    dropped = list(m.columns())
    dropped[j] = {}
    negated = list(m.columns())
    negated[j] = _negate_lowest(negated[j])
    return [m, SparseRationalMatrix(m.nrows, dropped), SparseRationalMatrix(m.nrows, negated)]


@pytest.mark.parametrize("n", NS)
def test_image_flag_matches_the_oracle(n, monkeypatch):
    real = complexes.structure_map
    verdicts = set()
    for a, b, block in _degrees(n):
        space = TwistedSpace(n, a, b, block)
        d0, dst = real("d0", space)
        if d0.is_zero():
            continue  # no column to perturb
        target = fiber_E(TwistedSpace(n, a - 1, b + 1, block))
        target_span = SparseRationalMatrix(target.ambient_dim, target.vectors)
        for m in _column_variants(d0):
            # _image_is_fiber reads the map on (a, b) through structure_map
            monkeypatch.setattr(
                complexes, "structure_map",
                lambda kind, src, m=m: (m, dst) if (kind, src) == ("d0", space)
                else real(kind, src),
            )
            new = complexes._image_is_fiber(space)
            assert new == spans_equal(m, target_span), (a, b, block)
            verdicts.add(new)
    assert verdicts == {True, False}
