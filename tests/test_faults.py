"""Planted defects must make the responsible suite fail: the verifier is run
end to end through the CLI, at n = 4 for the structure maps and at
(n, k) = (6, 4) for the weight closed forms."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from sscx import complexes, fiber, weights
from sscx.cli import run

# every functools.cache of the fiber and complexes layers, the structure
# matrices and the truncation complexes' cohomology included
CACHED = [
    f for module in (fiber, complexes) for f in vars(module).values()
    if hasattr(f, "cache_clear")
]
FIBER_N4 = ("verify-fiber", "--n", "4", "--t", "all", "--checks")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Matrices and fibers built from a planted map must not outlive the
    test, and ones cached by earlier tests must not hide the planted map."""
    for f in CACHED:
        f.cache_clear()
    yield
    for f in CACHED:
        f.cache_clear()


def reports(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, [json.loads(line) for line in buf.getvalue().splitlines()]


def test_unsigned_odd_depths_break_the_squares(monkeypatch):
    real = complexes.build_bicomplex

    def planted(n, t):
        bc = real(n, t)
        for (b, c), h in bc.horizontal.items():
            if c % 2:
                bc.horizontal[(b, c)] = h.scale(-1)
        return bc

    monkeypatch.setattr(complexes, "build_bicomplex", planted)
    code, reps = reports(*FIBER_N4, "bicomplex,snake")
    assert code == 1
    for rep in reps:
        t = rep["params"]["t"]
        if rep["suite"] == "snake" or t < 2:
            assert rep["status"] == "pass", rep
        else:
            assert rep["status"] == "fail", rep
            assert rep["computed"]["squares"] == 0


def test_wrong_d_coefficient_breaks_containment(monkeypatch):
    real = fiber.structure_map

    def planted(model, kind, src):
        if kind != "d":
            return real(model, kind, src)
        m1, dst = real(model, "d1", src)
        m2, _ = real(model, "d2", src)
        return m1.scale(Fraction(1, src.B + 2)) + m2, dst

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


def test_contraction_sign_flip_breaks_the_truncation_complexes(monkeypatch):
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
