"""Weight-block oracle for every complex and map the fiber checks rank.

The torus of Sp(2n - 4) acts on the quotient pairs (e^i, e^{n+i}),
i = 2..n-1, and a wedge monomial with index set S has the weight
w_i = [i in S] - [n+i in S].  Every structure map preserves it: d1 wedges
whole pairs e^i ^ e^{n+i}, and d2 and d0 touch only e^0, e^1, e^n, e^{n+1}.
So each total differential is a direct sum of weight blocks.  A block whose
weight has m non-zero entries carries m inert 1-forms, and the Weyl group
(signed permutations of the N = n - 2 pairs) permutes the C(N, m) 2^m
blocks with the same m.  The package builds only the block of the
representative weight (+1)^m 0^(N-m) for each m and sums over the orbits;
the full path of ``linalg_oracle`` builds every weight at once.  Checked
here, for the total differentials (assembled by ``linalg_oracle.totalize``
from the package's grid and from the full one), the differentials of every
truncation complex and every Koszul complex, every d0 and the snake's
wedge map with the reduced form:

- no full map has an entry joining two different weights;
- the dims and exact ranks of a full map's blocks depend only on m, so the
  map's dims and rank are sum_m C(N, m) 2^m times those of one
  representative per m;
- the package's block m is the full map's rows and columns of the
  representative weight, column for column (the wedge map has no package
  block: the snake reads it whole).

A basis vector of a fiber or an annihilator subspace has the weight of the
monomials it is supported on, which must all agree.  And at n <= 5 every
structure map d, d1, d2, d0 of a block, and its fiber and annihilator
bases, are the full objects' rows and columns of the representative weight.

The dimension half of the orbit identity is also checked against closed
forms and across layers: the orbit sums of the blocks' closed-form
dimensions are the full spaces' binomials, and the orbit sum of the
certified fiber dimensions is the weight layer's rank of the truncation
bundle, ``weights.rank_K``, computed by an independent route.
"""

from itertools import combinations, product
from math import comb

import pytest

from sscx import fiber
from sscx.complexes import build_bicomplex, build_Et, build_koszul_S
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
from sscx.weights import rank_K
from linalg_oracle import (
    FullSpace,
    _layout,
    full_basis,
    full_bicomplex,
    full_fiber_E,
    full_perp,
    full_row_complex,
    full_structure_map,
    orbit_sum,
    representative,
    totalize,
    weight,
)


# every degree t at n = 4 and 5; at n = 6 only the middle degrees t = 5 and
# 6, whose full path takes a few seconds, where every t at n = 6 takes
# about a minute
DEGREES = {4: range(7), 5: range(9), 6: (5, 6)}


def _degree_weights(bc) -> list[list[tuple[int, ...]]]:
    """For each total degree of a full bicomplex, the weight of each basis
    vector, in the order of the total complex's rows and columns."""
    layout, _, _ = _layout(bc)
    return [
        [weight(bc.n, subset)
         for b, c in blocks for subset, _ in full_basis(bc.spaces[bc.t - b - c])]
        for blocks in layout
    ]


def _blocks(d, src: list, dst: list) -> dict[tuple[int, ...], SparseRationalMatrix]:
    """weight -> the block of d between the basis vectors of that weight,
    rows renumbered, d's scalar kept; AssertionError at an entry that joins
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
        w: SparseRationalMatrix(len(rows.get(w, ())), cols.get(w, []), d.scalar)
        for w in rows.keys() | cols.keys()
    }


def _assert_orbit_sums(n: int, d, src: list, dst: list, where, package=None) -> None:
    """d splits into weight blocks, and its dims and rank are the orbit sums
    of one block per number m of non-zero weight entries.  ``package(m)``,
    if given, is the package's block m, which must be d's block of the
    representative weight."""
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
    orbit_sums = tuple(orbit_sum(n, lambda m: rep[m][i]) for i in range(3))
    assert orbit_sums == (d.ncols, d.nrows, rank(d)), where
    if package is not None:
        for m in range(n - 1):
            assert package(m) == blocks.get(representative(n, m), empty), (where, m)


def _vector_weights(n: int, index: dict, vectors) -> list[tuple[int, ...]]:
    """The weight of each basis vector of a subspace: the one weight of the
    monomials it is supported on."""
    monos = list(index)
    out = []
    for vec in vectors:
        weights = {weight(n, monos[r][0]) for r in vec}
        assert len(weights) == 1, (vec, weights)
        out.append(weights.pop())
    return out


@pytest.mark.parametrize("n", DEGREES)
def test_total_differentials_split_into_weight_blocks(n):
    for t in DEGREES[n]:
        bc = full_bicomplex(n, t)
        total = totalize(bc)
        weights = _degree_weights(bc)
        assert list(map(len, weights)) == total.dims, t
        for k, d in enumerate(total.differentials):
            _assert_orbit_sums(
                n, d, weights[k], weights[k + 1], (t, k),
                lambda m: totalize(build_bicomplex(n, t, m)).differentials[k],
            )


@pytest.mark.parametrize(
    "build, full, kind",
    [(build_Et, full_fiber_E, "d"), (build_koszul_S, full_perp, "d2")],
    ids=["truncation", "koszul"],
)
@pytest.mark.parametrize("n", DEGREES)
def test_row_differentials_split_into_weight_blocks(n, build, full, kind):
    """The differentials of E^t in the fiber bases, and of the Koszul
    complex in the annihilator bases."""
    for t in DEGREES[n]:
        c = full_row_complex(n, t, full, kind)
        weights = [
            _vector_weights(n, full_basis(space), full(space).vectors)
            for space in (FullSpace(n, a, t - a) for a in range(t + 1))
        ]
        assert list(map(len, weights)) == c.dims, t
        for a, d in enumerate(c.differentials):
            _assert_orbit_sums(
                n, d, weights[a], weights[a + 1], (t, a),
                lambda m: build(n, t, m).differentials[a],
            )


@pytest.mark.parametrize("n", DEGREES)
def test_d0_splits_into_weight_blocks(n):
    for t in DEGREES[n]:
        for a in range(1, t + 1):
            d0, dst = full_structure_map("d0", FullSpace(n, a, t - a))
            src_weights, dst_weights = (
                [weight(n, subset) for subset, _ in full_basis(space)]
                for space in (FullSpace(n, a, t - a), dst)
            )
            _assert_orbit_sums(
                n, d0, src_weights, dst_weights, (a, t - a),
                lambda m: structure_map("d0", TwistedSpace(n, a, t - a, m))[0],
            )


@pytest.mark.parametrize("n", DEGREES)
def test_wedge_form_matrix_splits_into_weight_blocks(n):
    """The snake's wedge with the reduced form, wedge^{t-2} -> wedge^t of
    the quotient, in lexicographic bases."""
    quotient, _ = reduced_form(n)
    for t in DEGREES[n]:
        dom, cod = (
            [weight(n, subset) for subset in combinations(quotient, k)] if k >= 0 else []
            for k in (t - 2, t)
        )
        _assert_orbit_sums(n, wedge_form_matrix(n, t), dom, cod, t)


def _restricted_basis(n: int, m: int, space: FullSpace, vectors) -> list[dict]:
    """The vectors of a full-space subspace basis that have the
    representative weight of block m, in their order, with their rows
    renumbered as the block's monomials."""
    full, block = list(full_basis(space)), basis_of(TwistedSpace(n, space.a, space.B, m))
    rep = representative(n, m)
    return [
        {block[full[r]]: v for r, v in vec.items()}
        for vec in vectors
        if weight(n, full[min(vec)][0]) == rep
    ]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_blocks_are_the_full_rows_and_columns_of_their_weight(n):
    """Each block's d, d1, d2 and d0, and its fiber and annihilator bases,
    equal the full object's rows and columns of the representative weight,
    column for column, over the band a + B <= 2n - 2 the checks use."""
    compared = 0
    for a, B in ((a, t - a) for t in range(2 * n - 1) for a in range(t + 1)):
        space = FullSpace(n, a, B)
        kinds = (("d1", "d2", "d") if B >= 1 else ()) + (("d0",) if a >= 1 else ())
        for kind in kinds:
            full, dst = full_structure_map(kind, space)
            src_w = [weight(n, subset) for subset, _ in full_basis(space)]
            dst_w = [weight(n, subset) for subset, _ in full_basis(dst)]
            blocks = _blocks(full, src_w, dst_w)
            for m in range(n - 1):
                mine, _ = structure_map(kind, TwistedSpace(n, a, B, m))
                theirs = blocks.get(representative(n, m), SparseRationalMatrix(0, []))
                assert mine == theirs, (kind, a, B, m)
                compared += 1
        for m in range(n - 1):
            block = TwistedSpace(n, a, B, m)
            assert fiber_E(block).vectors == _restricted_basis(
                n, m, space, full_fiber_E(space).vectors
            ), (a, B, m)
            assert fiber_wedge_perp(block).vectors == _restricted_basis(
                n, m, space, full_perp(space).vectors
            ), (a, B, m)
    assert compared > 0


@pytest.mark.parametrize("n", range(2, 31))
def test_block_counts_sum_to_the_full_binomials(n):
    """The orbit sums of the blocks' closed-form counts: the space's
    C(2n, a)(B+1) and the annihilator's C(2n-2, a)(B+1), over the band."""
    for a, B in ((a, t - a) for t in range(2 * n - 1) for a in range(t + 1)):
        assert orbit_sum(n, lambda m: TwistedSpace(n, a, B, m).dim) == comb(2 * n, a) * (B + 1)
        assert orbit_sum(n, lambda m: fiber._count(n, a, B, m, 2)) == comb(2 * n - 2, a) * (B + 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_fiber_dimensions_sum_to_the_weight_layer_rank(n):
    """The orbit sum of the certified fiber dimensions of degree (a, b) is
    rank_K(2n - 2 - a, b, 2, n), the weight layer's alternating sum over
    the staircase terms at k = 2: the window m = 0 .. 2n - 2 - a of the
    truncation row of alpha2 = b, whose pad is empty.  So each of the
    weight layer's k = 2 windows has an oracle in the fiber layer, through
    every (a, b) of the band up to the size of the largest fiber golden."""
    for a, b in ((a, t - a) for t in range(2 * n - 1) for a in range(t + 1)):
        fibers = orbit_sum(n, lambda m: fiber_E(TwistedSpace(n, a, b, m)).dim)
        assert fibers == rank_K(2 * n - 2 - a, b, 2, n), (a, b)
