"""Chain complexes and the bicomplex assembled from the fiber spaces.

Builds, at the fixed fiber, the complex of truncation subspaces E^{0,t} ->
E^{1,t-1} -> ... -> E^{t,0}, its Koszul companion on the annihilator
subspaces, and the two-dimensional grid whose columns resolve the truncation
fibers; verifies complex conditions, column exactness, square
anticommutativity, and the predicted cohomology dimensions, all in exact
arithmetic: integer matrices, each with one rational scalar.
Every complex is built on one weight block m of the fiber spaces
(``fiber.TwistedSpace``), and each check combines the blocks by their
orbit sums (``_orbit_sum``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import comb, lcm
from typing import NamedTuple

from .exactlinalg import SparseRationalMatrix, SubspaceEscapeError, pivots_mod_p, rank, restrict
from .fiber import TwistedSpace, fiber_E, fiber_wedge_perp, structure_map, wedge_form_matrix
from .report import Report
from .weights import truncation_cohomology


class ChainComplex:
    """Bounded sequence of finite-dimensional spaces and maps.

    The space at list position i sits in degree degree_offset + i, and
    differentials[i] maps position i to position i + 1 (raising degree).
    ``is_complex`` is the exact verdict that d o d = 0 and ``cohomology``
    the cohomology dimensions (``cohomology_dims``), each computed on first
    use and kept: every check reads that one verdict and that one
    cohomology of the object, so neither the object, nor its lists, nor the
    cohomology may be modified.
    """

    def __init__(
        self, degree_offset: int, dims: list[int], differentials: list[SparseRationalMatrix]
    ):
        if len(differentials) != max(len(dims) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair")
        for i, m in enumerate(differentials):
            if m.ncols != dims[i] or m.nrows != dims[i + 1]:
                raise ValueError(f"differential {i} has inconsistent shape")
        self.degree_offset = degree_offset
        self.dims = dims
        self.differentials = differentials

    @cached_property
    def is_complex(self) -> bool:
        return verify_complex(self)

    @cached_property
    def cohomology(self) -> dict[int, int]:
        return cohomology_dims(self)


def verify_complex(c: ChainComplex) -> bool:
    """Every consecutive composition is the zero matrix."""
    return all(
        (c.differentials[i + 1] @ c.differentials[i]).is_zero()
        for i in range(len(c.differentials) - 1)
    )


def _cohomology(c: ChainComplex, ranks: list[int]) -> dict[int, int]:
    """Degree -> dim - rank out - rank in, from the ranks of the
    differentials (nonzero entries only)."""
    out: dict[int, int] = {}
    for i, dim in enumerate(c.dims):
        r_out = ranks[i] if i < len(ranks) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        h = dim - r_out - r_in
        if h < 0:
            raise AssertionError("negative cohomology dimension: not a complex")
        if h:
            out[c.degree_offset + i] = h
    return out


def cohomology_dims(c: ChainComplex) -> dict[int, int]:
    """Degree -> cohomology dimension (nonzero entries only).

    When the complex's own exact verdict ``c.is_complex`` holds (every
    composition of two differentials is zero), the ranks mod the prime
    ``exactlinalg.P`` are tried first and kept when the cohomology they
    give sits in at most one degree.  They are then the ranks over Q:

    - each differential is its stored integer matrix times a non-zero
      scalar, and for an integer matrix rank_p <= rank_Q, since a minor
      that is non-zero mod p is a non-zero integer;
    - d o d = 0 over Q, so every h_i(Q) = dim_i - r_i(Q) - r_{i-1}(Q) is
      >= 0 (and d o d = 0 mod p, so every h_i(p) is >= 0 too);
    - h_i(p) - h_i(Q) = delta_i + delta_{i-1}, with delta_k = r_k(Q) -
      r_k(p) >= 0;
    - if h(p) vanishes outside one degree j, each differential k has an
      end, k or k+1, other than j; there 0 = h(p) = h(Q) + delta_k + the
      other delta, a sum of terms >= 0, so delta_k = 0.  A dropped rank
      would raise h(p) at both its ends, two adjacent degrees.

    The mod-p ranks are cleared: the differentials are ranked from the last
    to the first, each without the rows at the pivot columns of the next
    one (``pivots_mod_p``).  Let P_k be the pivot columns of d_k.  d_k is
    injective on span{e_p : p in P_k}, so that span meets ker d_k, which
    contains im d_{k-1}, only in 0, and deleting those coordinates keeps
    rank d_{k-1}.  This needs d_k d_{k-1} = 0 mod p, which the exact
    verdict gives: the stored integer matrices times non-zero scalars
    compose to 0 over Q, so the integer matrices compose to 0.  The
    cleared ranks are therefore the ranks over F_p of the whole
    differentials, and the certificate above holds for them unchanged.

    In every other case (a failed verdict, or a mod-p cohomology in two or
    more degrees: a spread complex or an unlucky prime) the exact
    ranks over Q of the whole differentials are computed as they would be
    without the mod-p attempt, so a report never rests on an uncertified
    mod-p rank.
    """
    if c.is_complex:
        ranks = []
        pivots: list[int] = []
        for m in reversed(c.differentials):
            pivots = pivots_mod_p(m, pivots)
            ranks.append(len(pivots))
        out = _cohomology(c, ranks[::-1])
        if len(out) <= 1:
            return out
    return _cohomology(c, [rank(m) for m in c.differentials])


def _orbit_sum(n: int, per_block) -> dict:
    """One check's computed values, combined over the weight blocks.

    ``per_block(m)`` returns the values of block m = 0..n-2.  An int is a
    dimension (a rank, a cohomology dimension), summed with the multiplicity
    C(n-2, m) 2^m of block m, its Weyl orbit; a key that a block leaves out
    counts as 0 there.  A bool is a flag, conjoined over the blocks and
    reported as 0 or 1: a flag decided per block is stronger than one
    decided on the sums.  At n = 1 block 0 still runs, so that its spaces
    refuse n < 2."""
    out: dict = {}
    for m in range(max(n - 1, 1)):
        values = per_block(m)
        mult = comb(n - 2, m) * 2**m
        for key, v in values.items():
            if type(v) is bool:
                out[key] = out.get(key, 1) & v
            else:
                out[key] = out.get(key, 0) + mult * v
    return out


def _spaces(n: int, t: int, m: int) -> list[TwistedSpace]:
    """The spaces S_a = TwistedSpace(n, a, t - a, m), a = 0..t, of degree t
    in weight block m."""
    if not (0 <= t <= 2 * n - 2):
        raise ValueError("t outside the admissible band")
    return [TwistedSpace(n, a, t - a, m) for a in range(t + 1)]


def _row_complex(n: int, t: int, m: int, subspace, kind: str) -> ChainComplex:
    """The complex of the subspaces subspace(S_a) of the spaces S_a of degree
    t in block m (``_spaces``) and the structure map ``kind`` restricted to
    them, rightmost term in degree 0.  SubspaceEscapeError propagates: a map
    that leaves its target subspace refutes the containment the complex
    rests on."""
    spaces = _spaces(n, t, m)
    bases = [subspace(space) for space in spaces]
    diffs = [
        restrict(structure_map(kind, src)[0], dom, cod)
        for src, dom, cod in zip(spaces, bases, bases[1:])
    ]
    return ChainComplex(-t, [basis.dim for basis in bases], diffs)


@cache
def build_Et(n: int, t: int, m: int) -> ChainComplex:
    """Weight block m of the complex E^{0,t} -> E^{1,t-1} -> ... -> E^{t,0}
    of truncation fibers ``fiber_E`` and the restricted d, rightmost term in
    degree 0, built once per process, so that the d2zero, cohomology,
    bicomplex and snake checks share its differentials, its d o d verdict
    and its cohomology.  SubspaceEscapeError propagates and is not cached."""
    return _row_complex(n, t, m, fiber_E, "d")


@cache
def build_koszul_S(n: int, t: int, m: int) -> ChainComplex:
    """Weight block m of the Koszul complex on the annihilator subspaces
    (``fiber_wedge_perp``), resolving the t-th wedge power of the
    rank-(2n-4) quotient: spaces wedge^i U-perp (x) S^{t-i} U for i = 0..t
    with the Koszul differential d2 restricted to them, rightmost term in
    degree 0.  Built once per process, for the koszul check and the snake
    checks at t and t + 2."""
    return _row_complex(n, t, m, fiber_wedge_perp, "d2")


def verify_koszul_S(n: int, t: int) -> Report:
    """The Koszul complex must be exact except at the right end, where the
    cokernel dimension is the binomial rank of the t-th quotient wedge."""

    def block(m: int) -> dict:
        c = build_koszul_S(n, t, m)
        coh = c.cohomology
        return {
            "complex": c.is_complex,
            "cokernel": coh.get(0, 0),
            "other_cohomology": sum(v for d, v in coh.items() if d != 0),
        }

    computed = _orbit_sum(n, block)
    expected = {"complex": 1, "cokernel": comb(2 * n - 4, t), "other_cohomology": 0}
    return Report("koszul", {"n": n, "t": t}, expected, computed)


def verify_snake(n: int, t: int) -> Report:
    """Three-part structural check of the truncation complex:

    (a) the differential preserves the annihilator sub-filtration and
        agrees there with the Koszul differential;
    (b) the induced map on the quotients by that filtration is minus the
        Koszul differential, under the lift identification;
    (c) wedging with the reduced form on the rank-(2n-4) quotient has
        kernel / cokernel dimensions equal to the predicted cohomology of
        the truncation complex in degrees -1 / 0.

    (a) and (b) read the blocks of the differentials of the cached truncation
    complexes ``build_Et(n, t, m)``, whose bases (``fiber_E``'s) hold the
    annihilator monomials first and then the lifts, in the domain and in the
    target, and compare them with the differentials of the cached Koszul
    complexes ``build_koszul_S`` of degrees t and t - 2, block by block.
    (c) reads the wedge map whole: it is small.
    """

    def block(m: int) -> dict:
        filtration_ok = quotient_ok = True
        pairs = zip(build_Et(n, t, m).differentials, build_koszul_S(n, t, m).differentials)
        for a, (d, koszul) in enumerate(pairs):
            b = t - a
            # the Koszul differential's shape is the number of annihilator
            # monomials in the domain and in the target
            perp_cols, perp_rows = range(koszul.ncols), range(koszul.nrows)
            lift_cols, lift_rows = range(koszul.ncols, d.ncols), range(koszul.nrows, d.nrows)
            # (a) no annihilator column reaches a lift row, and the
            # annihilator block is the Koszul differential
            if (
                not d.block(lift_rows, perp_cols).is_zero()
                or d.block(perp_rows, perp_cols) != koszul
            ):
                filtration_ok = False
            # (b) the lift block is minus the Koszul differential one degree
            # lower; it is empty for a = 0 (no lift column) or b = 1 (no
            # lift row)
            if a and b >= 2:
                lower = build_koszul_S(n, t - 2, m).differentials[a - 1]
                if d.block(lift_rows, lift_cols) != lower.scale(-1):
                    quotient_ok = False
        return {"filtration_ok": filtration_ok, "quotient_ok": quotient_ok}

    flags = _orbit_sum(n, block)
    wmat = wedge_form_matrix(n, t)
    r = rank(wmat)
    ker = wmat.ncols - r
    coker = wmat.nrows - r
    expect = truncation_cohomology(n, 2, t)
    expected = {
        "filtration_ok": 1,
        "quotient_ok": 1,
        "kernel": expect.get(-1, 0),
        "cokernel": expect.get(0, 0),
    }
    computed = {**flags, "kernel": ker, "cokernel": coker}
    return Report("snake", {"n": n, "t": t}, expected, computed)


class Bicomplex(NamedTuple):
    """Grid of twisted spaces of one weight block: column b (0..t) resolves
    the truncation fiber of degree (t-b, b); the entry at depth c is the
    space (t-b-c, b+c), twisted by (det U*)^c, which its position records.
    Horizontal maps point from column b to column b-1, vertical maps go
    down each column."""

    n: int
    t: int
    grid: list[list[TwistedSpace]]
    horizontal: dict[tuple[int, int], SparseRationalMatrix]
    vertical: dict[tuple[int, int], SparseRationalMatrix]


def build_bicomplex(n: int, t: int, m: int) -> Bicomplex:
    """Assemble the grid of weight block m together with its structure maps.

    The horizontal map on the (b, c) entry (b >= 1) is
    (-1)^c (b/(B(B+1)) d1 + (b/B) d2) with B = b+c, which equals
    (-1)^c (b/B) d since d = d1/(B+1) + d2 there: the cached d scaled, its
    columns shared.  The vertical maps are the cached d0 themselves, so a
    column's ranks are the ones ``fiber_E`` keeps on them.  Each map's
    codomain is checked against the grid entry it must land on; the
    position fixes the twist, so matching (a, B) matches it too.
    """
    spaces = _spaces(n, t, m)
    grid = [[spaces[t - b - c] for c in range(t - b + 1)] for b in range(t + 1)]
    horizontal: dict[tuple[int, int], SparseRationalMatrix] = {}
    vertical: dict[tuple[int, int], SparseRationalMatrix] = {}
    for b in range(t + 1):
        for c in range(t - b + 1):
            src = grid[b][c]
            if b >= 1:
                d, dst = structure_map("d", src)
                if dst != grid[b - 1][c]:
                    raise AssertionError(f"horizontal map at {(b, c)} leaves the grid")
                horizontal[(b, c)] = d.scale(Fraction((-1) ** c * b, b + c))
            if c < t - b:
                v, dst = structure_map("d0", src)
                if dst != grid[b][c + 1]:
                    raise AssertionError(f"vertical map at {(b, c)} leaves the grid")
                vertical[(b, c)] = v
    return Bicomplex(n, t, grid, horizontal, vertical)


def _layout(bc: Bicomplex) -> tuple[list[list[tuple[int, int]]], dict, list[int]]:
    """The blocks (b, c) of each total degree c - b from -t to t, by b
    within a degree; each block's row offset within its degree; and the
    dimension of each degree."""
    t = bc.t
    layout = [
        [(b, b + deg) for b in range(max(0, -deg), (t - deg) // 2 + 1)]
        for deg in range(-t, t + 1)
    ]
    offsets: dict[tuple[int, int], int] = {}
    dims = []
    for blocks in layout:
        pos = 0
        for b, c in blocks:
            offsets[(b, c)] = pos
            pos += bc.grid[b][c].dim
        dims.append(pos)
    return layout, offsets, dims


def totalize(bc: Bicomplex) -> ChainComplex:
    """Direct-sum total complex.

    The (b, c) entry sits in total degree c - b; both structure maps raise
    that degree by one.  The vertical map on column b enters with the sign
    (-1)^b, which makes the total differential square to zero.  Each degree
    is one integer matrix with the scalar 1/L, where L is the least common
    denominator of the scalars of the maps out of its blocks; each map m
    enters as its stored integer columns times the integer m.scalar L,
    written at the target entry's row offset.  A non-zero scalar leaves the
    rank as it is.
    """
    layout, offsets, dims = _layout(bc)
    diffs = []
    for blocks, nrows in zip(layout, dims[1:]):
        # per block: the maps out of it as (scalar, columns, row offset);
        # the two land in different blocks of the next degree
        pieces = []
        for b, c in blocks:
            maps = []
            if (b, c) in bc.horizontal:
                m = bc.horizontal[(b, c)]
                maps.append((m.scalar, m.columns(), offsets[(b - 1, c)]))
            if (b, c) in bc.vertical:
                m = bc.vertical[(b, c)]
                maps.append(((-1) ** b * m.scalar, m.columns(), offsets[(b, c + 1)]))
            pieces.append(maps)
        den = lcm(*(f.denominator for maps in pieces for f, _, _ in maps))
        cols: list[dict[int, int]] = []
        for (b, c), maps in zip(blocks, pieces):
            ints = [((f * den).numerator, mcols, row0) for f, mcols, row0 in maps]
            for j in range(bc.grid[b][c].dim):
                cols.append(
                    {row0 + r: k * v for k, mcols, row0 in ints for r, v in mcols[j].items()}
                )
        diffs.append(SparseRationalMatrix(nrows, cols, Fraction(1, den)))
    return ChainComplex(-bc.t, dims, diffs)


def verify_bicomplex(n: int, t: int) -> Report:
    """Full structural verification of the grid, on each weight block:

    rows are complexes; each column is exact with the truncation fiber as
    the kernel at the top and surjective at the bottom; every square
    anticommutes once the vertical maps carry the column sign; the total
    complex squares to zero and reproduces the cohomology of the truncation
    complex's block (acyclic at t = n - 1).

    Every composition the rows and squares ask for is a block of the total
    complex's square: from the (b, c) block to (b-2, c) the row identity,
    to (b-1, c+1) the square.  So the total complex is squared once
    (``is_complex``, the verdict ``total_d2`` and the premise of the mod-p
    ranks that ``cohomology_match`` reads); only when it fails is each
    composition formed again and its row and square blocks read.  The
    column ranks are the ones kept on the cached d0 (``rank``), and d0
    kills the fiber at the top when each vector's integer ``image`` is empty.
    """
    flags = ("rows_ok", "cols_exact", "top_kernels", "squares", "total_d2",
             "cohomology_match", "acyclic_band")
    expected = dict.fromkeys(flags, 1)
    computed = _orbit_sum(n, lambda m: _bicomplex_flags(n, t, m))
    return Report("bicomplex", {"n": n, "t": t}, expected, computed)


def _bicomplex_flags(n: int, t: int, m: int) -> dict[str, bool]:
    """The flags of ``verify_bicomplex`` on weight block m."""
    bc = build_bicomplex(n, t, m)
    total = totalize(bc)
    total_d2 = total.is_complex
    rows_ok = squares = True
    if not total_d2:
        layout, offsets, _ = _layout(bc)

        def span(b: int, c: int) -> range:
            return range(offsets[(b, c)], offsets[(b, c)] + bc.grid[b][c].dim)

        diffs = total.differentials
        for k in range(len(diffs) - 1):
            d2 = diffs[k + 1] @ diffs[k]
            for b, c in layout[k]:
                src = span(b, c)
                if b >= 2 and not d2.block(span(b - 2, c), src).is_zero():
                    rows_ok = False
                if b >= 1 and c < t - b and not d2.block(span(b - 1, c + 1), src).is_zero():
                    squares = False
    cols_exact = top_kernels = True
    for b in range(t + 1):
        height = t - b + 1
        top = fiber_E(bc.grid[b][0])
        if height == 1:
            if top.dim != bc.grid[b][0].dim:
                top_kernels = False
            continue
        maps = [bc.vertical[(b, c)] for c in range(height - 1)]
        ranks = list(map(rank, maps))
        # the independent basis of the fiber lies in ker d0 and has its dimension
        if bc.grid[b][0].dim - ranks[0] != top.dim or any(map(maps[0].image, top.vectors)):
            top_kernels = False
        for c in range(1, height - 1):
            if bc.grid[b][c].dim - ranks[c] != ranks[c - 1]:
                cols_exact = False
        if ranks[height - 2] != bc.grid[b][height - 1].dim:
            cols_exact = False
    et_coh = build_Et(n, t, m).cohomology
    # only a complex has cohomology (cohomology_dims may raise otherwise);
    # computed once for both flags
    total_coh = total.cohomology if total_d2 else {}
    return {
        "rows_ok": rows_ok,
        "cols_exact": cols_exact,
        "top_kernels": top_kernels,
        "squares": squares,
        "total_d2": total_d2,
        "cohomology_match": total_d2 and total_coh == et_coh,
        "acyclic_band": not (t == n - 1 and (et_coh or total_coh)),
    }


def verify_Et_cohomology(n: int, t: int) -> Report:
    """Cohomology of the truncation complex against the closed-form
    prediction: the orbit sum of its blocks' cohomology."""
    expect = truncation_cohomology(n, 2, t)
    return Report(
        "cohomology",
        {"n": n, "t": t},
        {f"h{d}": v for d, v in sorted(expect.items())},
        _orbit_sum(n, lambda m: {f"h{d}": v for d, v in build_Et(n, t, m).cohomology.items()}),
    )


def verify_Et_complex(n: int, t: int) -> Report:
    """Complex condition for the truncation complex: all restrictions land
    in the claimed fibers (containment) and consecutive compositions are
    zero, on every weight block."""

    def block(m: int) -> dict[str, bool]:
        try:
            d2 = build_Et(n, t, m).is_complex
        except SubspaceEscapeError:
            return {"containment": False, "compositions_zero": False}
        return {"containment": True, "compositions_zero": d2}

    expected = {"containment": 1, "compositions_zero": 1}
    return Report("d2zero", {"n": n, "t": t}, expected, _orbit_sum(n, block))


def _image_is_fiber(space: TwistedSpace) -> bool:
    """Whether d0 maps space, of degree (a, b), onto the truncation fiber of
    degree (a-1, b+1): its rank is that fiber's dimension and, for a >= 2,
    where the fiber is the kernel of the next d0, the composition of the two
    d0 vanishes.  The rank is the one kept on the cached d0, which the
    bicomplex check ranks too; each composition is asked once per process,
    by the one degree t = a + b, so it is formed directly."""
    mat, dst = structure_map("d0", space)
    target = fiber_E(dst)
    if rank(mat) != target.dim:
        return False
    if space.a == 1:
        return True
    nxt, _ = structure_map("d0", dst)
    return (nxt @ mat).is_zero()


def verify_ces(n: int, t: int) -> Report:
    """Kernel/image exact-sequence check for the Koszul-type differential on
    each ambient space of total degree t, block by block: the kernel is the
    truncation fiber of degree (a, b) and the image is the one of degree
    (a-1, b+1), so the two dimensions add up to the ambient dimension.

    The kernel flag is the containment of the fiber in the kernel; with the
    other two flags, rank-nullity makes the fiber the whole kernel.  The
    image flag is decided the same way, by dimension and containment: the
    rank of d0 is the target fiber's dimension, and the image lies in the
    kernel of the next d0 (``_image_is_fiber``)."""

    def block(m: int) -> dict[str, bool]:
        ok_kernel = ok_image = ok_dims = True
        for space in _spaces(n, t, m)[1:]:
            mat, dst = structure_map("d0", space)
            ker = fiber_E(space)
            if any(map(mat.image, ker.vectors)):
                ok_kernel = False
            if not _image_is_fiber(space):
                ok_image = False
            if ker.dim + fiber_E(dst).dim != space.dim:
                ok_dims = False
        return {"kernel": ok_kernel, "image": ok_image, "dims_add": ok_dims}

    expected = {"kernel": 1, "image": 1, "dims_add": 1}
    return Report("ces", {"n": n, "t": t}, expected, _orbit_sum(n, block))
