"""Acceptance gate: the ten headline checks, each printing one pass/fail
line.  Everything is exact arithmetic with zero tolerance."""

import io
import time
from contextlib import redirect_stdout
from math import comb

from sscx.cli import run
from sscx.complexes import (
    build_Et,
    verify_bicomplex,
    verify_Et_complex,
    verify_snake,
)
from sscx.fiber import fiber_E
from sscx.weights import (
    euler_check_Kt,
    phi_cs_survivors,
    pieri_dim_check,
    tphi_on_weight,
    verify_staircase_pushforward,
)
from tests.test_complexes import orbit_cohomology
from tests.test_fiber import _anticommute_holds, _lemma_holds, blocks


def _report(number: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{label}]: {status} ({elapsed:.1f}s)")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def _expected_cohomology_closed_form(n: int, t: int) -> dict[int, int]:
    out = {}
    if t <= n - 2:
        h = comb(2 * n - 4, t) - (comb(2 * n - 4, t - 2) if t >= 2 else 0)
        if h:
            out[0] = h
    elif t >= n:
        j = 2 * n - 2 - t
        h = comb(2 * n - 4, j) - (comb(2 * n - 4, j - 2) if j >= 2 else 0)
        if h:
            out[-1] = h
    return out


def test_criterion_01_cohomology_ranks():
    start = time.monotonic()
    ok = True
    for n in (3, 4, 5):
        for t in range(0, 2 * n - 1):
            # the orbit sum of the weight blocks' cohomology
            coh = orbit_cohomology(n, lambda m: build_Et(n, t, m))
            if coh != _expected_cohomology_closed_form(n, t):
                ok = False
    elapsed = time.monotonic() - start
    _report(1, "cohomology ranks", ok and elapsed <= 300, elapsed)


def test_criterion_02_complex_condition():
    start = time.monotonic()
    ok = all(
        verify_Et_complex(n, t).status == "pass"
        for n in (3, 4, 5)
        for t in range(0, 2 * n - 1)
    )
    _report(2, "complex condition", ok, time.monotonic() - start)


def test_criterion_03_grid_identities():
    start = time.monotonic()
    ok = True
    for n in (3, 4):
        for a in range(0, 2 * n - 1):
            for b in range(0, 2 * n - 1 - a):
                for space in blocks(n, a, b):
                    if b >= 2 and not _lemma_holds(space):
                        ok = False
                    if a >= 1 and b >= 1 and not _anticommute_holds(space):
                        ok = False
    _report(3, "composition-zero and anticommutativity", ok, time.monotonic() - start)


def test_criterion_04_bicomplex():
    start = time.monotonic()
    ok = all(
        verify_bicomplex(n, t).status == "pass"
        for n in (3, 4, 5)
        for t in range(0, 2 * n - 1)
    )
    _report(4, "bicomplex and totalization", ok, time.monotonic() - start)


def test_criterion_05_snake():
    start = time.monotonic()
    ok = all(
        verify_snake(n, t).status == "pass"
        for n in (3, 4, 5)
        for t in range(0, 2 * n - 1)
    )
    _report(5, "snake structure", ok, time.monotonic() - start)


def test_criterion_06_pushforward_layer():
    start = time.monotonic()
    ok = True
    # closed form over the full band (the routine raises on disagreement)
    try:
        for k in range(3, 7):
            for n in range(k, 7):
                for a1 in range(-1, 2 * n - k + 1):
                    for a2 in range(-1, a1 + 1):
                        tphi_on_weight(a1, a2, k)
    except AssertionError:
        ok = False
    for k in range(3, 6):
        for n in range(k, 6):
            for a1 in range(0, 2 * n - k + 1):
                for a2 in range(0, a1 + 1):
                    if verify_staircase_pushforward(a1, a2, k, n).status != "pass":
                        ok = False
    # vanishing band: every leading resolution term pushes to zero
    for k in range(3, 7):
        for n in range(k, 7):
            for a1 in range(2 * n - k + 1, 2 * n - 1):
                for a2 in range(0, a1 + 1):
                    for m in range(a1 + 1 - 2 * n, 0):
                        if tphi_on_weight(a2 - 1, m, k) is not None:
                            ok = False
    elapsed = time.monotonic() - start
    _report(6, "pushforward layer", ok and elapsed <= 60, elapsed)


def test_criterion_07_euler_characteristics():
    start = time.monotonic()
    ok = all(
        euler_check_Kt(n, k, t).status == "pass"
        for k in range(2, 7)
        for n in range(k, 7)
        for t in range(0, 2 * n - k + 1)
    )
    elapsed = time.monotonic() - start
    _report(7, "higher-rank Euler characteristics", ok and elapsed <= 60, elapsed)


def test_criterion_08_survivors_and_pieri():
    start = time.monotonic()
    ok = all(phi_cs_survivors(k) == [(k - 2, 0, 0)] for k in range(3, 9))
    ok = ok and all(
        pieri_dim_check(r, i, j)
        for r in range(0, 7)
        for i in range(r + 1)
        for j in range(r + 1)
    )
    _report(8, "filtration survivors and dimension identity", ok,
            time.monotonic() - start)


def test_criterion_09_cross_construction():
    start = time.monotonic()
    ok = True
    for n in (3, 4):
        for a in range(0, 2 * n - 1):
            for b in range(0, 2 * n - 1 - a):
                try:
                    for space in blocks(n, a, b):
                        fiber_E(space)  # raises when constructions disagree
                except AssertionError:
                    ok = False
    _report(9, "lift basis certified against rank(d0)", ok, time.monotonic() - start)


def test_criterion_10_determinism():
    start = time.monotonic()

    def full_suite() -> str:
        chunks = []
        for argv in (
            ["verify-fiber", "--n", "3", "--t", "all"],
            ["verify-weights", "--n", "4", "--k", "3"],
        ):
            buf = io.StringIO()
            with redirect_stdout(buf):
                run(argv)
            chunks.append(buf.getvalue())
        return "".join(chunks)

    ok = full_suite() == full_suite()
    _report(10, "byte determinism", ok, time.monotonic() - start)
