"""Chain complexes and the bicomplex assembled from the fiber model.

Builds, at the fixed fiber, the complex of truncation subspaces E^{0,t} ->
E^{1,t-1} -> ... -> E^{t,0}, its Koszul companion on the annihilator
subspaces, and the two-dimensional grid whose columns resolve the truncation
fibers; verifies complex conditions, column exactness, square
anticommutativity, and the predicted cohomology dimensions, all in exact
rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactlinalg import (
    SparseRationalMatrix,
    SubspaceEscapeError,
    rank,
    restrict,
    solve_in_basis,
    spans_equal,
)
from .fiber import (
    FiberModel,
    TwistedSpace,
    _wedge2,
    _xi_lift,
    fiber_E,
    fiber_wedge_perp,
    perp_monomials,
    restricted_d,
    structure_map,
)
from .report import Report
from .weights import dim_wedge_sp


@dataclass
class ChainComplex:
    """Bounded complex of finite-dimensional spaces.

    The space at list position i sits in degree degree_offset + i, and
    differentials[i] maps position i to position i + 1 (raising degree).
    """

    degree_offset: int
    dims: list[int]
    differentials: list[SparseRationalMatrix]

    def __post_init__(self):
        if len(self.differentials) != max(len(self.dims) - 1, 0):
            raise ValueError("need exactly one differential per adjacent pair")
        for i, m in enumerate(self.differentials):
            if m.ncols != self.dims[i] or m.nrows != self.dims[i + 1]:
                raise ValueError(f"differential {i} has inconsistent shape")

    def degrees(self) -> list[int]:
        return [self.degree_offset + i for i in range(len(self.dims))]


def verify_complex(c: ChainComplex) -> bool:
    """Every consecutive composition is the zero matrix."""
    return all(
        (c.differentials[i + 1] @ c.differentials[i]).is_zero()
        for i in range(len(c.differentials) - 1)
    )


def cohomology_dims(c: ChainComplex) -> dict[int, int]:
    """Degree -> cohomology dimension (nonzero entries only)."""
    out: dict[int, int] = {}
    ranks = [rank(m) for m in c.differentials]
    for i, dim in enumerate(c.dims):
        r_out = ranks[i] if i < len(c.differentials) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        h = dim - r_out - r_in
        if h < 0:
            raise AssertionError("negative cohomology dimension: not a complex")
        if h:
            out[c.degree_offset + i] = h
    return out


def expected_Et_cohomology(n: int, t: int) -> dict[int, int]:
    """Predicted cohomology of the truncation complex: the symplectic wedge
    power in degree 0 for small t, its mirror in degree -1 for large t,
    nothing at t = n - 1."""
    out: dict[int, int] = {}
    if t <= n - 2:
        h = dim_wedge_sp(2 * n - 4, t)
        if h:
            out[0] = h
    elif t >= n:
        h = dim_wedge_sp(2 * n - 4, 2 * n - 2 - t)
        if h:
            out[-1] = h
    return out


def build_Et(n: int, t: int) -> ChainComplex:
    """The complex E^{0,t} -> E^{1,t-1} -> ... -> E^{t,0} of truncation
    fibers, rightmost term in degree 0."""
    if not (0 <= t <= 2 * n - 2):
        raise ValueError("t outside the admissible band")
    model = FiberModel(n)
    dims = [fiber_E(model, i, t - i).dim for i in range(t + 1)]
    diffs = [restricted_d(model, i, t - i) for i in range(t)]
    return ChainComplex(-t, dims, diffs)


def _perp_d2(model: FiberModel, a: int, B: int) -> SparseRationalMatrix:
    """Koszul differential restricted to the annihilator subspaces,
    (a, B) -> (a+1, B-1)."""
    mat, _ = structure_map(model, "d2", TwistedSpace(model.n, a, B))
    return restrict(
        mat, fiber_wedge_perp(model, a, B), fiber_wedge_perp(model, a + 1, B - 1)
    )


def build_koszul_S(n: int, t: int) -> ChainComplex:
    """Koszul complex on the annihilator subspaces, resolving the t-th wedge
    power of the rank-(2n-4) quotient: spaces wedge^i U-perp (x) S^{t-i} U
    for i = 0..t with the Koszul differential, rightmost term in degree 0."""
    if not (0 <= t <= 2 * n - 2):
        raise ValueError("t outside the admissible band")
    model = FiberModel(n)
    dims = [fiber_wedge_perp(model, i, t - i).dim for i in range(t + 1)]
    diffs = [_perp_d2(model, i, t - i) for i in range(t)]
    return ChainComplex(-t, dims, diffs)


def verify_koszul_S(n: int, t: int) -> Report:
    """The Koszul complex must be exact except at the right end, where the
    cokernel dimension is the binomial rank of the t-th quotient wedge."""
    c = build_koszul_S(n, t)
    coh = cohomology_dims(c)
    expected_coker = comb(2 * n - 4, t)
    expected = {"complex": 1, "cokernel": expected_coker, "other_cohomology": 0}
    computed = {
        "complex": int(verify_complex(c)),
        "cokernel": coh.get(0, 0),
        "other_cohomology": sum(v for d, v in coh.items() if d != 0),
    }
    return Report.make("koszul", {"n": n, "t": t}, expected, computed)


def _xi_matrix(model: FiberModel, a: int, b: int) -> SparseRationalMatrix:
    """Lift map from the annihilator subspace in degree (a-1, b-1) into the
    ambient space of degree (a, b), one column per lifted monomial."""
    space = TwistedSpace(model.n, a, b)
    if a < 1 or b < 1:
        return SparseRationalMatrix.zero(space.dim, 0)
    cols = [_xi_lift(model, a, b, mono) for mono in perp_monomials(model, a - 1, b - 1)]
    return SparseRationalMatrix.from_columns(space.dim, cols)


def _quotient_indices(model: FiberModel) -> tuple[int, ...]:
    """Functional indices spanning the rank-(2n-4) quotient of the
    annihilator by the image of the plane under the symplectic form."""
    n = model.n
    return tuple(i for i in model.perp_indices if i not in (n, n + 1))


def _omega_bar_quotient(model: FiberModel) -> dict[tuple[int, int], Fraction]:
    """Image of the reduced form in the second wedge of the quotient: drop
    the components touching the symplectic image of the plane."""
    drop = {model.n, model.n + 1}
    return {
        (i, j): v
        for (i, j), v in model.omega_bar.items()
        if i not in drop and j not in drop
    }


def _wedge_form_matrix(model: FiberModel, t: int) -> SparseRationalMatrix:
    """Matrix of wedging with the reduced form on the quotient,
    wedge^{t-2} -> wedge^t of the rank-(2n-4) quotient space."""
    idx = _quotient_indices(model)
    form = _omega_bar_quotient(model)
    dom = list(itertools.combinations(idx, t - 2)) if t >= 2 else []
    cod = list(itertools.combinations(idx, t)) if t <= len(idx) else []
    cod_index = {s: i for i, s in enumerate(cod)}
    entries: dict[tuple[int, int], Fraction] = {}
    for col, subset in enumerate(dom):
        for sub2, v in _wedge2(subset, form).items():
            entries[(cod_index[sub2], col)] = v
    return SparseRationalMatrix(len(cod), len(dom), entries)


def verify_snake(n: int, t: int) -> Report:
    """Three-part structural check of the truncation complex:

    (a) the differential preserves the annihilator sub-filtration and
        agrees there with the Koszul differential;
    (b) the induced map on the quotients by that filtration is minus the
        Koszul differential, under the lift identification;
    (c) wedging with the reduced form on the rank-(2n-4) quotient has
        kernel / cokernel dimensions equal to the predicted cohomology of
        the truncation complex in degrees -1 / 0.
    """
    if not (0 <= t <= 2 * n - 2):
        raise ValueError("t outside the admissible band")
    model = FiberModel(n)
    filtration_ok = 1
    quotient_ok = 1
    for i in range(t):
        a, b = i, t - i
        space = TwistedSpace(n, a, b)
        dmat, _ = structure_map(model, "d", space)
        # (a) containment plus agreement with the Koszul differential
        sub = restrict(
            dmat,
            fiber_wedge_perp(model, a, b),
            fiber_wedge_perp(model, a + 1, b - 1),
        )
        if sub != _perp_d2(model, a, b):
            filtration_ok = 0
        # (b) induced quotient map is minus the Koszul differential
        xi_src = _xi_matrix(model, a, b)
        if xi_src.ncols:
            m = dmat @ xi_src
            if b >= 2:
                m = m + _xi_matrix(model, a + 1, b - 1) @ _perp_d2(model, a - 1, b - 1)
            try:
                solve_in_basis(
                    fiber_wedge_perp(model, a + 1, b - 1), m.columns()
                )
            except SubspaceEscapeError:
                quotient_ok = 0
    wmat = _wedge_form_matrix(model, t)
    r = rank(wmat)
    ker = wmat.ncols - r
    coker = wmat.nrows - r
    expect = expected_Et_cohomology(n, t)
    expected = {
        "filtration_ok": 1,
        "quotient_ok": 1,
        "kernel": expect.get(-1, 0),
        "cokernel": expect.get(0, 0),
    }
    computed = {
        "filtration_ok": filtration_ok,
        "quotient_ok": quotient_ok,
        "kernel": ker,
        "cokernel": coker,
    }
    return Report.make("snake", {"n": n, "t": t}, expected, computed)


@dataclass
class Bicomplex:
    """Grid of twisted spaces: column b (0..t) resolves the truncation fiber
    of degree (t-b, b); the entry at depth c is the twisted space
    (t-b-c, b+c, c).  Horizontal maps point from column b to column b-1,
    vertical maps go down each column."""

    n: int
    t: int
    grid: list[list[TwistedSpace]]
    horizontal: dict[tuple[int, int], SparseRationalMatrix]
    vertical: dict[tuple[int, int], SparseRationalMatrix]


def build_bicomplex(n: int, t: int) -> Bicomplex:
    """Assemble the grid together with its structure maps.

    The horizontal map on the (b, c) entry (b >= 1) is
    (-1)^c (b/(B(B+1)) d1 + (b/B) d2) with B = b+c, which equals
    (-1)^c (b/B) d since d = d1/(B+1) + d2 there; vertical maps are d0.
    """
    if not (0 <= t <= 2 * n - 2):
        raise ValueError("t outside the admissible band")
    model = FiberModel(n)
    grid = [
        [TwistedSpace(n, t - b - c, b + c, c) for c in range(t - b + 1)]
        for b in range(t + 1)
    ]
    horizontal: dict[tuple[int, int], SparseRationalMatrix] = {}
    vertical: dict[tuple[int, int], SparseRationalMatrix] = {}
    for b in range(t + 1):
        for c in range(t - b + 1):
            src = grid[b][c]
            if b >= 1:
                d, dst = structure_map(model, "d", src)
                h = d.scale(Fraction((-1) ** c * b, b + c))
                if dst != grid[b - 1][c]:
                    raise AssertionError(f"horizontal map at {(b, c)} leaves the grid")
                horizontal[(b, c)] = h
            if c < t - b:
                v, dst = structure_map(model, "d0", src)
                if dst != grid[b][c + 1]:
                    raise AssertionError(f"vertical map at {(b, c)} leaves the grid")
                vertical[(b, c)] = v
    return Bicomplex(n, t, grid, horizontal, vertical)


def totalize(bc: Bicomplex) -> ChainComplex:
    """Direct-sum total complex.

    The (b, c) entry sits in total degree c - b; both structure maps raise
    that degree by one.  The vertical map on column b enters with the sign
    (-1)^b, which makes the total differential square to zero.
    """
    t = bc.t
    blocks: dict[int, list[tuple[int, int]]] = {}
    for b in range(t + 1):
        for c in range(t - b + 1):
            blocks.setdefault(c - b, []).append((b, c))
    degrees = sorted(blocks)
    for d in degrees:
        blocks[d].sort()
    offsets: dict[tuple[int, int], int] = {}
    dims = []
    for d in degrees:
        pos = 0
        for key in blocks[d]:
            offsets[key] = pos
            pos += bc.grid[key[0]][key[1]].dim
        dims.append(pos)
    diffs = []
    for di, d in enumerate(degrees[:-1]):
        entries: dict[tuple[int, int], Fraction] = {}
        for (b, c) in blocks[d]:
            col0 = offsets[(b, c)]
            pieces = []
            if (b, c) in bc.horizontal:
                pieces.append((bc.horizontal[(b, c)], offsets[(b - 1, c)], 1))
            if (b, c) in bc.vertical:
                pieces.append((bc.vertical[(b, c)], offsets[(b, c + 1)], (-1) ** b))
            for m, row0, sign in pieces:
                for (r, cc), v in m.entries.items():
                    entries[(row0 + r, col0 + cc)] = sign * v
        diffs.append(SparseRationalMatrix(dims[di + 1], dims[di], entries))
    return ChainComplex(degrees[0], dims, diffs)


def verify_bicomplex(n: int, t: int) -> Report:
    """Full structural verification of the grid:

    rows are complexes; each column is exact with the truncation fiber as
    the kernel at the top and surjective at the bottom; every square
    anticommutes once the vertical maps carry the column sign; the total
    complex squares to zero and reproduces the cohomology of the truncation
    complex (acyclic at t = n - 1).
    """
    bc = build_bicomplex(n, t)
    model = FiberModel(n)
    rows_ok = 1
    for b in range(2, t + 1):
        for c in range(t - b + 1):
            if not (bc.horizontal[(b - 1, c)] @ bc.horizontal[(b, c)]).is_zero():
                rows_ok = 0
    cols_exact = 1
    top_kernels = 1
    for b in range(t + 1):
        height = t - b + 1
        top = fiber_E(model, t - b, b)
        if height == 1:
            if top.dim != bc.grid[b][0].dim:
                top_kernels = 0
            continue
        ranks = [rank(bc.vertical[(b, c)]) for c in range(height - 1)]
        # the independent basis of the fiber lies in ker d0 and has its dimension
        if bc.grid[b][0].dim - ranks[0] != top.dim or any(
            map(bc.vertical[(b, 0)].apply, top.vectors)
        ):
            top_kernels = 0
        for c in range(1, height - 1):
            if bc.grid[b][c].dim - ranks[c] != ranks[c - 1]:
                cols_exact = 0
        if ranks[height - 2] != bc.grid[b][height - 1].dim:
            cols_exact = 0
    squares = 1
    for b in range(1, t + 1):
        for c in range(t - b):
            anti = bc.vertical[(b - 1, c)].scale((-1) ** (b - 1)) @ bc.horizontal[
                (b, c)
            ] + bc.horizontal[(b, c + 1)] @ bc.vertical[(b, c)].scale((-1) ** b)
            if not anti.is_zero():
                squares = 0
    total = totalize(bc)
    total_d2 = int(verify_complex(total))
    et_coh = cohomology_dims(build_Et(n, t))
    match = int(cohomology_dims(total) == et_coh) if total_d2 else 0
    acyclic_ok = 1
    if t == n - 1 and (et_coh or (total_d2 and cohomology_dims(total))):
        acyclic_ok = 0
    expected = {
        "rows_ok": 1,
        "cols_exact": 1,
        "top_kernels": 1,
        "squares": 1,
        "total_d2": 1,
        "cohomology_match": 1,
        "acyclic_band": 1,
    }
    computed = {
        "rows_ok": rows_ok,
        "cols_exact": cols_exact,
        "top_kernels": top_kernels,
        "squares": squares,
        "total_d2": total_d2,
        "cohomology_match": match,
        "acyclic_band": acyclic_ok,
    }
    return Report.make("bicomplex", {"n": n, "t": t}, expected, computed)


def verify_Et_cohomology(n: int, t: int) -> Report:
    """Cohomology of the truncation complex against the closed-form
    prediction."""
    coh = cohomology_dims(build_Et(n, t))
    expect = expected_Et_cohomology(n, t)
    return Report.make(
        "cohomology",
        {"n": n, "t": t},
        {f"h{d}": v for d, v in sorted(expect.items())},
        {f"h{d}": v for d, v in sorted(coh.items())},
    )


def verify_Et_complex(n: int, t: int) -> Report:
    """Complex condition for the truncation complex: all restrictions land
    in the claimed fibers (containment) and consecutive compositions are
    zero."""
    try:
        c = build_Et(n, t)
    except SubspaceEscapeError:
        computed = {"containment": 0, "compositions_zero": 0}
    else:
        computed = {"containment": 1, "compositions_zero": int(verify_complex(c))}
    expected = {"containment": 1, "compositions_zero": 1}
    return Report.make("d2zero", {"n": n, "t": t}, expected, computed)


def verify_ces(n: int, t: int) -> Report:
    """Kernel/image exact-sequence check for the Koszul-type differential on
    each ambient space of total degree t: the kernel is the truncation fiber
    of degree (a, b) and the image is the one of degree (a-1, b+1), so the
    two dimensions add up to the ambient dimension.

    The kernel flag is the containment of the fiber in the kernel; with the
    other two flags, rank-nullity makes the fiber the whole kernel."""
    if not (0 <= t <= 2 * n - 2):
        raise ValueError("t outside the admissible band")
    model = FiberModel(n)
    ok_kernel = 1
    ok_image = 1
    ok_dims = 1
    for a in range(1, t + 1):
        b = t - a
        space = TwistedSpace(n, a, b)
        mat, _ = structure_map(model, "d0", space)
        ker = fiber_E(model, a, b)
        if any(map(mat.apply, ker.vectors)):
            ok_kernel = 0
        img_target = fiber_E(model, a - 1, b + 1)
        if not spans_equal(mat, img_target.matrix()):
            ok_image = 0
        if ker.dim + img_target.dim != space.dim:
            ok_dims = 0
    expected = {"kernel": 1, "image": 1, "dims_add": 1}
    computed = {"kernel": ok_kernel, "image": ok_image, "dims_add": ok_dims}
    return Report.make("ces", {"n": n, "t": t}, expected, computed)
