"""Verification that cannot be switched off: refutations are caught
narrowly, other errors surface, and no check relies on `assert`."""

import ast
from pathlib import Path

import pytest

import sscx
from sscx import complexes
from sscx.exactlinalg import SubspaceEscapeError


@pytest.fixture(autouse=True)
def uncached_Et_verdict():
    """Each E^t, and with it its d o d verdict, is cached per process; the
    checks here must build theirs afresh, not read one that an earlier test
    left behind."""
    complexes.build_Et.cache_clear()


def _raiser(exc_type, calls):
    def planted(*args, **kwargs):
        calls.append(args)
        raise exc_type("planted")
    return planted


def test_escape_refutes_containment(monkeypatch):
    monkeypatch.setattr(complexes, "build_Et", _raiser(SubspaceEscapeError, []))
    rep = complexes.verify_Et_complex(3, 2)
    assert rep.computed == {"containment": 0, "compositions_zero": 0}


@pytest.mark.parametrize(
    "name, check",
    [
        ("restrict", lambda: complexes.verify_snake(3, 2)),
        ("build_Et", lambda: complexes.verify_Et_complex(3, 2)),
    ],
)
def test_other_errors_propagate(monkeypatch, name, check):
    monkeypatch.setattr(complexes, name, _raiser(TypeError, []))
    with pytest.raises(TypeError, match="planted"):
        check()


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(sscx.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_complexes_imports_no_private_fiber_name():
    """The monomial conventions stay inside ``fiber``: ``complexes`` reaches
    the fiber layer through its public names only."""
    tree = ast.parse(Path(complexes.__file__).read_text(encoding="utf-8"))
    found = [f"{alias.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module in ("fiber", "sscx.fiber")
             for alias in node.names if alias.name.startswith("_")]
    assert found == []
