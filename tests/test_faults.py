"""Planted defects in the structure maps must make the responsible suite
fail: the verifier is run end to end through the CLI at n = 4."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from sscx import complexes, fiber
from sscx.cli import run

CACHED = ("fiber_E", "restricted_d", "fiber_wedge_perp", "perp_monomials")


@pytest.fixture(autouse=True)
def fresh_caches():
    """Cached fibers built from a planted map must not outlive the test, and
    fibers cached by earlier tests must not hide the planted map."""
    for name in CACHED:
        getattr(fiber, name).cache_clear()
    yield
    for name in CACHED:
        getattr(fiber, name).cache_clear()


def reports(checks):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["verify-fiber", "--n", "4", "--t", "all", "--checks", checks])
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
    code, reps = reports("bicomplex,snake")
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
    code, reps = reports("d2zero,bicomplex")
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
