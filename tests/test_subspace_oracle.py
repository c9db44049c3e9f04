"""The two subspace equalities the verifier decides by containment plus
dimension must agree with the rank oracle ``linalg_oracle``: the lift
cross-check of ``fiber_E`` and the image flag of the ``ces`` check, for
every degree at n <= 4, on the genuine maps and on perturbed ones."""

import pytest

from sscx import complexes
from sscx.exactlinalg import SparseRationalMatrix, SubspaceBasis
from sscx.fiber import (
    FiberModel,
    TwistedSpace,
    _lift_vectors,
    _spans_kernel,
    fiber_E,
    structure_map,
)
from linalg_oracle import spans_equal, subspace_equal

NS = (2, 3, 4)


def _degrees(n):
    """Every (a, b) with a >= 1 of the band a + b <= 2n - 2."""
    return [(a, t - a) for t in range(2 * n - 1) for a in range(1, t + 1)]


def _negate_lowest(vec):
    low = min(vec)
    return {**vec, low: -vec[low]}


def _variants(vectors):
    """The vectors as they are, with the last one's lowest entry negated,
    and with the last one replaced by the first."""
    return [
        vectors,
        vectors[:-1] + [_negate_lowest(vectors[-1])],
        vectors[:-1] + [vectors[0]],
    ]


@pytest.mark.parametrize("n", NS)
def test_lift_predicate_matches_the_oracle(n):
    model = FiberModel(n)
    verdicts = set()
    for a, b in _degrees(n):
        d0, _ = structure_map(model, "d0", TwistedSpace(n, a, b))
        basis = fiber_E(model, a, b)
        for vectors in _variants(_lift_vectors(model, a, b)):
            new = _spans_kernel(d0, vectors, basis.dim)
            assert new == subspace_equal(basis, SubspaceBasis(basis.ambient_dim, vectors)), (a, b)
            verdicts.add(new)
    assert verdicts == {True, False}


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
    model = FiberModel(n)
    real = complexes.structure_map
    verdicts = set()
    for a, b in _degrees(n):
        space = TwistedSpace(n, a, b)
        d0, dst = real(model, "d0", space)
        target = fiber_E(model, a - 1, b + 1)
        target_span = SparseRationalMatrix(target.ambient_dim, target.vectors)
        for m in _column_variants(d0):
            # _image_is_fiber reads the map on (a, b) through structure_map
            monkeypatch.setattr(
                complexes, "structure_map",
                lambda mod, kind, src, m=m: (m, dst) if (kind, src) == ("d0", space)
                else real(mod, kind, src),
            )
            new = complexes._image_is_fiber(model, a, b)
            assert new == spans_equal(m, target_span), (a, b)
            verdicts.add(new)
    assert verdicts == {True, False}
