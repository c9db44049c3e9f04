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


def _cohomology(dims: list[int], offset: int, ranks: list[int]) -> dict[int, int]:
    """Degree -> dim - rank out - rank in (nonzero entries only), position i
    in degree offset + i, from one rank per differential: the cohomology
    when the ranks are the exact ones of a complex."""
    r = [0, *ranks, 0]
    return {offset + i: h for i, dim in enumerate(dims) if (h := dim - r[i] - r[i + 1])}


def _certified_cohomology(dims: list[int], offset: int, lower: list[int]) -> dict | None:
    """The cohomology of a complex, certified by lower bounds on its ranks,
    or None.  The complex has the dims ``dims``, position i in degree
    offset + i, and d o d = 0 over Q; lower[k] <= rank d_k, where d_k maps
    position k to k + 1 (one bound per differential).

    Let u_k = dim_k - l_k - l_{k-1}.  Each h_k = dim_k - rank d_k -
    rank d_{k-1} lies in [0, u_k].  If every u_k is >= 0 and u vanishes
    outside one degree j, every other h_k is 0, and the Euler
    characteristic, the same alternating sum for h and for u (the l terms
    telescope), gives h_j = u_j: u is the cohomology.  Otherwise the bounds
    decide nothing and the result is None; an acyclic complex gives {}, so
    a caller tests for None.  This is the package's one cohomology
    certificate: ``cohomology_dims`` passes it cleared mod-p ranks and
    ``_total_cohomology`` the bicomplex's column and H.E ranks."""
    u = _cohomology(dims, offset, lower)
    return u if len(u) <= 1 and min(u.values(), default=0) >= 0 else None


def cohomology_dims(c: ChainComplex) -> dict[int, int]:
    """Degree -> cohomology dimension (nonzero entries only).

    When the complex's own exact verdict ``c.is_complex`` holds (every
    composition of two differentials is zero), the ranks mod the prime
    ``exactlinalg.P`` are tried first, as lower bounds on the ranks over Q
    (each differential is its stored integer matrix times a non-zero
    scalar, and a minor that is non-zero mod p is a non-zero integer), and
    kept where ``_certified_cohomology`` certifies them: where the
    cohomology they give sits in at most one degree.  A dropped rank would
    raise that cohomology at both its ends, two adjacent degrees.

    The mod-p ranks are cleared: the differentials are ranked from the last
    to the first, each without the rows at the pivot columns of the next
    one (``pivots_mod_p``).  Let P_k be the pivot columns of d_k.  d_k is
    injective on span{e_p : p in P_k}, so that span meets ker d_k, which
    contains im d_{k-1}, only in 0, and deleting those coordinates keeps
    rank d_{k-1}.  This needs d_k d_{k-1} = 0 mod p, which the exact
    verdict gives: the stored integer matrices times non-zero scalars
    compose to 0 over Q, so the integer matrices compose to 0.  The
    cleared ranks are therefore the ranks over F_p of the whole
    differentials, lower bounds as above.

    In every other case (a failed verdict, or a mod-p cohomology in two or
    more degrees: a spread complex or an unlucky prime) the exact
    ranks over Q of the whole differentials are computed as they would be
    without the mod-p attempt, so a report never rests on an uncertified
    mod-p rank.

    The bicomplex's total complexes come here only where the rank bound of
    ``_total_cohomology`` does not pin their cohomology down.
    """
    if c.is_complex:
        ranks = []
        pivots: list[int] = []
        for m in reversed(c.differentials):
            pivots = pivots_mod_p(m, pivots)
            ranks.append(len(pivots))
        out = _certified_cohomology(c.dims, c.degree_offset, ranks[::-1])
        if out is not None:
            return out
    out = _cohomology(c.dims, c.degree_offset, [rank(m) for m in c.differentials])
    if min(out.values(), default=0) < 0:
        raise AssertionError("negative cohomology dimension: not a complex")
    return out


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
    (c) builds and ranks the wedge map whole, over every weight: the one
    full-size matrix left, about 5x larger per step in n.
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
    """The resolution grid of one weight block, stored as its row of spaces.

    Column b (0..t) resolves the truncation fiber of degree (t-b, b); its
    entry at depth c is S_a = spaces[a], a = t-b-c, twisted by (det U*)^c.
    At the fixed fiber the twist changes no matrix, so every position of
    the antidiagonal b + c = t - a holds the same space with the same maps:
    the horizontal map at (b, c), to column b-1, is d[a] times
    ``_h_scalar(b, c)`` (a < t), and the vertical map, down the column, is
    d0[a] (a >= 1; d0[0] is None).  No position holds a map of its own."""

    n: int
    t: int
    spaces: list[TwistedSpace]
    d: list[SparseRationalMatrix]
    d0: list[SparseRationalMatrix | None]


def _h_scalar(b: int, c: int) -> Fraction:
    """The scalar (-1)^c b/(b+c) of the horizontal map at (b, c), b >= 1."""
    return Fraction((-1) ** c * b, b + c)


def build_bicomplex(n: int, t: int, m: int) -> Bicomplex:
    """The row of weight block m's grid: the spaces S_a of degree t
    (``_spaces``) with their cached structure maps d and d0.

    The horizontal map on the (b, c) entry (b >= 1) is
    (-1)^c (b/(B(B+1)) d1 + (b/B) d2) with B = b+c, which equals
    (-1)^c (b/B) d since d = d1/(B+1) + d2 there: the cached d on S_a times
    ``_h_scalar(b, c)``, its columns shared.  The vertical maps are the
    cached d0 themselves, so a column's ranks are the ones ``fiber_E`` keeps
    on them.  Each map's codomain is checked once, against the space of the
    row it must land on; the position fixes the twist, so matching (a, B)
    matches it at every position of the antidiagonal.
    """
    spaces = _spaces(n, t, m)
    d: list[SparseRationalMatrix] = []
    d0: list[SparseRationalMatrix | None] = [None]
    for a, src in enumerate(spaces):
        if a < t:
            mat, dst = structure_map("d", src)
            if dst != spaces[a + 1]:
                raise AssertionError(f"d on S_{a} leaves the row")
            d.append(mat)
        if a:
            mat, dst = structure_map("d0", src)
            if dst != spaces[a - 1]:
                raise AssertionError(f"d0 on S_{a} leaves the row")
            d0.append(mat)
    return Bicomplex(n, t, spaces, d, d0)


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
            pos += bc.spaces[t - b - c].dim
        dims.append(pos)
    return layout, offsets, dims


def totalize(bc: Bicomplex) -> ChainComplex:
    """Direct-sum total complex.

    The (b, c) entry sits in total degree c - b; both structure maps raise
    that degree by one.  The maps are read from the row: out of (b, c), with
    a = t-b-c, the horizontal d[a] times ``_h_scalar(b, c)`` and the
    vertical d0[a], which enters with the column sign (-1)^b that makes the
    total differential square to zero.  Each degree is one integer matrix
    with the scalar 1/L, where L is the least common denominator of the
    scalars of the maps out of its blocks; each map m enters as its stored
    integer columns times the integer m.scalar L, written at the target
    entry's row offset.  A non-zero scalar leaves the rank as it is.
    ``verify_bicomplex`` assembles it only where its rank bound falls back.
    """
    t = bc.t
    layout, offsets, dims = _layout(bc)
    diffs = []
    for blocks, nrows in zip(layout, dims[1:]):
        # per block: the maps out of it as (scalar, columns, row offset);
        # the two land in different blocks of the next degree
        pieces = []
        for b, c in blocks:
            a = t - b - c
            maps = []
            if b:
                m = bc.d[a].scale(_h_scalar(b, c))
                maps.append((m.scalar, m.columns(), offsets[(b - 1, c)]))
            if a:
                m = bc.d0[a]
                maps.append(((-1) ** b * m.scalar, m.columns(), offsets[(b, c + 1)]))
            pieces.append(maps)
        den = lcm(*(f.denominator for maps in pieces for f, _, _ in maps))
        cols: list[dict[int, int]] = []
        for (b, c), maps in zip(blocks, pieces):
            ints = [((f * den).numerator, mcols, row0) for f, mcols, row0 in maps]
            for j in range(bc.spaces[t - b - c].dim):
                cols.append(
                    {row0 + r: k * v for k, mcols, row0 in ints for r, v in mcols[j].items()}
                )
        diffs.append(SparseRationalMatrix(nrows, cols, Fraction(1, den)))
    return ChainComplex(-t, dims, diffs)


def verify_bicomplex(n: int, t: int) -> Report:
    """Full structural verification of the grid, on each weight block:

    rows are complexes; each column is exact with the truncation fiber as
    the kernel at the top and surjective at the bottom; every square
    anticommutes once the vertical maps carry the column sign; the total
    complex squares to zero and reproduces the cohomology of the truncation
    complex's block (acyclic at t = n - 1).

    Every flag is decided on the grid's own maps, once per space of its row
    (``_bicomplex_flags``): the blocks of the total complex's square are the
    row identities, the squares, the compositions of two vertical maps and
    the squares cut off by the antidiagonal, so ``total_d2`` is those
    products, and the total complex is not assembled to be squared.  The
    column ranks are the ones kept on the cached d0 (``rank``), and d0
    kills the fiber at the top when each vector's integer ``image`` is
    empty.

    ``cohomology_match`` compares the cohomology of E^t's block with the
    total complex's, which rests on ``total_d2``: where ``top_kernels``
    holds too, the column ranks and the horizontal map on the top kernels
    bound the total ranks, and ``_certified_cohomology`` certifies the
    cohomology from them (``_total_cohomology``).  Only where that
    certificate, or ``top_kernels``, fails is the total complex assembled
    (``totalize``), and its cohomology is read (``cohomology_dims``) only
    when it squares to zero itself; otherwise ``cohomology_match`` fails.
    """
    flags = ("rows_ok", "cols_exact", "top_kernels", "squares", "total_d2",
             "cohomology_match", "acyclic_band")
    expected = dict.fromkeys(flags, 1)
    computed = _orbit_sum(n, lambda m: _bicomplex_flags(n, t, m))
    return Report("bicomplex", {"n": n, "t": t}, expected, computed)


def _bicomplex_flags(n: int, t: int, m: int) -> dict[str, bool]:
    """The flags of ``verify_bicomplex`` on weight block m, each identity
    decided once per space S_a of the row.  H is the horizontal and V the
    vertical map; V enters the total differential with the column sign
    (-1)^b, so that a square anticommutes there when
    H(b, c+1) V(b, c) = V(b-1, c) H(b, c).

    Every position of an antidiagonal holds the same space, and its maps
    are that space's d (times ``_h_scalar``) and d0, as ``build_bicomplex``
    makes them.  So a row identity and a column identity hold at every
    position of S_a when they hold on d and d0 once; a square at (b, c),
    with a = t-b-c, is x = d[a-1] d0[a] against y = d0[a+1] d[a], each
    formed once per space and compared at every position under that
    position's two scalars, so that a wrong scalar at any one position
    fails.  A passing block forms 4t - 3 products (t >= 1): t - 1 row
    compositions, 2(t - 1) for the squares, t - 1 compositions of two d0
    and d0[1] d[0], from the bottom of each column, where only the path
    through column b - 1 exists."""
    bc = build_bicomplex(n, t, m)
    spaces, d, d0 = bc.spaces, bc.d, bc.d0
    rows_ok = all((d[a + 1] @ d[a]).is_zero() for a in range(t - 1))

    def square(a: int) -> bool:
        # the square at (b, c), c = t-a-b: x times H's scalar at (b, c+1)
        # against y times H's scalar at (b, c)
        x, y = d[a - 1] @ d0[a], d0[a + 1] @ d[a]
        return all(
            x.scale(_h_scalar(b, t - a - b + 1)) == y.scale(_h_scalar(b, t - a - b))
            for b in range(1, t - a + 1)
        )

    squares = all(map(square, range(1, t)))
    # the other blocks of the total d o d: down each column, and from the
    # bottom of each column
    total_d2 = rows_ok and squares and all(
        (d0[a - 1] @ d0[a]).is_zero() for a in range(2, t + 1)
    ) and (t == 0 or (d0[1] @ d[0]).is_zero())
    # ranks[a] = rank of d0 on S_a; S_0 has no vertical map
    ranks = [0, *map(rank, d0[1:])]
    # S_a tops column t-a: its independent fiber basis lies in ker d0 and
    # has its dimension
    top_kernels = all(
        space.dim - r == top.dim and not (a and any(map(d0[a].image, top.vectors)))
        for a, (space, r, top) in enumerate(zip(spaces, ranks, map(fiber_E, spaces)))
    )
    # below the tops, S_a sits in the columns b < t-a, exact there, and S_0
    # at their bottoms, where d0 on S_1 is onto
    cols_exact = all(spaces[a].dim - ranks[a] == ranks[a + 1] for a in range(t))
    et_coh = build_Et(n, t, m).cohomology
    # only a complex has cohomology: the certificate rests on total_d2 and
    # top_kernels, and the assembled total complex on its own d o d
    total_coh = _total_cohomology(bc, ranks) if total_d2 and top_kernels else None
    if total_d2 and total_coh is None:
        total = totalize(bc)
        total_coh = total.cohomology if total.is_complex else None
    return {
        "rows_ok": rows_ok,
        "cols_exact": cols_exact,
        "top_kernels": top_kernels,
        "squares": squares,
        "total_d2": total_d2,
        "cohomology_match": total_coh == et_coh,
        "acyclic_band": not (t == n - 1 and (et_coh or total_coh)),
    }


def _total_cohomology(bc: Bicomplex, ranks: list[int]) -> dict[int, int] | None:
    """The cohomology of the total complex of ``bc``, certified from a
    lower bound on the rank of each total differential
    (``_certified_cohomology``), or None.  ranks[a] is the exact rank of
    d0 on S_a, the vertical map at every position of its antidiagonal (0 at
    a = 0).  The caller has verified d o d = 0 on the grid (``total_d2``)
    and that d0 kills the top kernels ``fiber_E`` (``top_kernels``).

    Order the blocks (b, c) of total degree k by b.  The total differential
    D_k is block upper-bidiagonal: the vertical map keeps b, the horizontal
    one lowers it by one.  Restrict D_k to the top kernel E of the one
    depth-0 block, b = -k, which the vertical map kills, and to each block
    that has a vertical map; pair E with the depth-0 block of degree k + 1
    and each block with the one below it.  The restriction is then block
    upper-triangular with the diagonal blocks H.E (the horizontal map out
    of (-k, 0) on E) and the vertical maps V, so, by a non-singular minor
    of each diagonal block,

        rank D_k >= l_k = rank_p(H.E) + sum of rank_Q(V) over degree k,

    H.E ranked mod P as its stored integers (a lower bound, as in
    ``pivots_mod_p``).  By the acyclic assembly lemma the bound is tight on
    exact columns.  Nothing here reads ``build_Et``: the flag
    ``cohomology_match`` compares two independent computations.
    """
    t = bc.t
    # lower[i] bounds the rank of the total differential out of position i,
    # degree i - t; d0 on S_a is the vertical map at each (b, t-a-b)
    lower = [0] * (2 * t)
    for a in range(1, t + 1):
        for b in range(t - a + 1):
            c = t - a - b
            lower[c - b + t] += ranks[a]
    # the horizontal map out of (t-a, 0) is d[a], its scalar 1
    for a in range(t):
        h, top = bc.d[a], fiber_E(bc.spaces[a]).vectors
        lower[a] += len(pivots_mod_p(SparseRationalMatrix(h.nrows, list(map(h.image, top)))))
    return _certified_cohomology(_layout(bc)[2], -t, lower)


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
    bicomplex check ranks too.  Each composition belongs to the one degree
    t = a + b, so it is formed directly and kept nowhere; the bicomplex
    check forms it once more, as a column block of its total d o d."""
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
