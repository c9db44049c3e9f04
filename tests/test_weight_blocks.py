"""Weight-block oracle for every complex and map the fiber checks rank.

The torus of Sp(2n - 4) acts on the quotient pairs (e^i, e^{n+i}),
i = 2..n-1, and a wedge monomial with index set S has the weight
w_i = [i in S] - [n+i in S].  Every structure map preserves it: d1 wedges
whole pairs e^i ^ e^{n+i}, and d2 and d0 touch only e^0, e^1, e^n, e^{n+1}.
So each total differential is a direct sum of weight blocks.  A block whose
weight has m non-zero entries carries m inert 1-forms, and the Weyl group
(signed permutations of the N = n - 2 pairs) permutes the C(N, m) 2^m
blocks with the same m.  Two things are checked here, on the full path
only, for the total differentials, the differentials of every truncation
complex and every Koszul complex, every d0 and the snake's wedge map with
the reduced form:

- no map has an entry joining two different weights;
- the dims and exact ranks of a block depend only on m, so the map's dims
  and rank are sum_m C(N, m) 2^m times those of one representative per m.

A basis vector of a fiber or an annihilator subspace has the weight of the
monomials it is supported on, which must all agree.
"""

from itertools import combinations, product
from math import comb

import pytest

from sscx.complexes import (
    _layout,
    build_bicomplex,
    build_Et,
    build_koszul_S,
    totalize,
)
from sscx.exactlinalg import SparseRationalMatrix, rank
from sscx.fiber import (
    TwistedSpace,
    basis_of,
    fiber_E,
    fiber_wedge_perp,
    reduced_form,
    structure_map,
    wedge_form_matrix,
)


# every degree t at n = 4 and 5; at n = 6 only the middle degrees t = 5 and
# 6, which take about 0.6 s, where every t at n = 6 takes about 13 s
DEGREES = {4: range(7), 5: range(9), 6: (5, 6)}


def _weight(n: int, subset: tuple[int, ...]) -> tuple[int, ...]:
    s = set(subset)
    return tuple((i in s) - (n + i in s) for i in range(2, n))


def _degree_weights(bc) -> list[list[tuple[int, ...]]]:
    """For each total degree, the weight of each basis vector, in the order
    of the total complex's rows and columns."""
    layout, _, _ = _layout(bc)
    return [
        [_weight(bc.n, subset) for b, c in blocks for subset, _ in basis_of(bc.grid[b][c])]
        for blocks in layout
    ]


def _blocks(d, src: list, dst: list) -> dict[tuple[int, ...], SparseRationalMatrix]:
    """weight -> the block of d's stored integers between the basis vectors
    of that weight, rows renumbered; AssertionError at an entry that joins
    two weights."""
    rows: dict[tuple[int, ...], list[int]] = {}
    for r, w in enumerate(dst):
        rows.setdefault(w, []).append(r)
    local = {r: i for rs in rows.values() for i, r in enumerate(rs)}
    cols: dict[tuple[int, ...], list[dict]] = {}
    for j, col in enumerate(d.columns()):
        w = src[j]
        joined = [r for r in col if dst[r] != w]
        assert not joined, f"column {j} of weight {w} reaches weights {[dst[r] for r in joined]}"
        cols.setdefault(w, []).append({local[r]: v for r, v in col.items()})
    return {
        w: SparseRationalMatrix(len(rows.get(w, ())), cols.get(w, []))
        for w in rows.keys() | cols.keys()
    }


def _orbit_sum(n: int, per_m: dict[int, int]) -> int:
    """sum_m C(N, m) 2^m per_m[m], N = n - 2."""
    N = n - 2
    return sum(comb(N, m) * 2**m * v for m, v in per_m.items())


def _assert_orbit_sums(n: int, d, src: list, dst: list, where) -> None:
    """d splits into weight blocks, and its dims and rank are the orbit sums
    of one block per number m of non-zero weight entries."""
    blocks = _blocks(d, src, dst)
    empty = SparseRationalMatrix(0, [])
    # m -> the (columns, rows, rank) of every block with m non-zero weight
    # entries, the empty ones included
    per_m: dict[int, set[tuple[int, int, int]]] = {}
    for w in product((-1, 0, 1), repeat=n - 2):
        b = blocks.get(w, empty)
        per_m.setdefault(sum(map(bool, w)), set()).add((b.ncols, b.nrows, rank(b)))
    assert all(len(shapes) == 1 for shapes in per_m.values()), (where, per_m)
    rep = {m: shapes.pop() for m, shapes in per_m.items()}
    orbit_sums = tuple(_orbit_sum(n, {m: r[i] for m, r in rep.items()}) for i in range(3))
    assert orbit_sums == (d.ncols, d.nrows, rank(d)), where


def _vector_weights(space: TwistedSpace, vectors) -> list[tuple[int, ...]]:
    """The weight of each basis vector of a subspace of space: the one
    weight of the monomials it is supported on."""
    monos = list(basis_of(space))
    out = []
    for vec in vectors:
        weights = {_weight(space.n, monos[r][0]) for r in vec}
        assert len(weights) == 1, (space, vec, weights)
        out.append(weights.pop())
    return out


@pytest.mark.parametrize("n", DEGREES)
def test_total_differentials_split_into_weight_blocks(n):
    for t in DEGREES[n]:
        bc = build_bicomplex(n, t)
        total = totalize(bc)
        weights = _degree_weights(bc)
        assert list(map(len, weights)) == total.dims, t
        for k, d in enumerate(total.differentials):
            _assert_orbit_sums(n, d, weights[k], weights[k + 1], (t, k))


@pytest.mark.parametrize("build, subspace", [(build_Et, fiber_E), (build_koszul_S, fiber_wedge_perp)],
                         ids=["truncation", "koszul"])
@pytest.mark.parametrize("n", DEGREES)
def test_row_differentials_split_into_weight_blocks(n, build, subspace):
    """The differentials of E^t in the fiber bases, and of the Koszul
    complex in the annihilator bases."""
    for t in DEGREES[n]:
        c = build(n, t)
        weights = [
            _vector_weights(space, subspace(space).vectors)
            for space in (TwistedSpace(n, a, t - a) for a in range(t + 1))
        ]
        assert list(map(len, weights)) == c.dims, t
        for a, d in enumerate(c.differentials):
            _assert_orbit_sums(n, d, weights[a], weights[a + 1], (t, a))


@pytest.mark.parametrize("n", DEGREES)
def test_d0_splits_into_weight_blocks(n):
    for t in DEGREES[n]:
        for a in range(1, t + 1):
            d0, dst = structure_map("d0", TwistedSpace(n, a, t - a))
            src_weights, dst_weights = (
                [_weight(n, subset) for subset, _ in basis_of(space)]
                for space in (TwistedSpace(n, a, t - a), dst)
            )
            _assert_orbit_sums(n, d0, src_weights, dst_weights, (a, t - a))


@pytest.mark.parametrize("n", DEGREES)
def test_wedge_form_matrix_splits_into_weight_blocks(n):
    """The snake's wedge with the reduced form, wedge^{t-2} -> wedge^t of
    the quotient, in lexicographic bases."""
    quotient, _ = reduced_form(n)
    for t in DEGREES[n]:
        dom, cod = (
            [_weight(n, subset) for subset in combinations(quotient, k)] if k >= 0 else []
            for k in (t - 2, t)
        )
        _assert_orbit_sums(n, wedge_form_matrix(n, t), dom, cod, t)
