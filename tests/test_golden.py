"""Byte-level safety net: the CLI's stdout for a fixed set of commands must
equal the NDJSON files in tests/golden/, which were generated once from a
known-good tree and are never regenerated by a refactor."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import sscx.cli as cli
from sscx import complexes, fiber
from sscx.cli import CHECKS, FIBER, run
from sscx.weights import truncation_cohomology

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"

COMMANDS = {
    "fiber-n3": ["verify-fiber", "--n", "3", "--t", "all"],
    "fiber-n4": ["verify-fiber", "--n", "4", "--t", "all"],
    "weights-n4-k3": ["verify-weights", "--n", "4", "--k", "3"],
    "weights-n6-k4": ["verify-weights", "--n", "6", "--k", "4"],
    # staircase and euler weights of length 6, with runs of 4 to 6 equal
    # entries; at (6, 4) they have length 4
    "weights-n12-k6": ["verify-weights", "--n", "12", "--k", "6"],
    # k = 2 admits only the checks without a k >= 3 floor
    "weights-n4-k2-euler-pieri": [
        "verify-weights", "--n", "4", "--k", "2", "--checks", "euler,pieri",
    ],
    # the truncation windows with an empty pad, end to end
    "weights-n40-k2-euler-pieri": [
        "verify-weights", "--n", "40", "--k", "2", "--checks", "euler,pieri",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(COMMANDS[name])
    assert code == 0
    assert buf.getvalue() == (GOLDEN / f"{name}.ndjson").read_text(encoding="ascii")


def test_benchmark_weight_workload_matches_its_golden():
    """The benchmark's weight workload, byte for byte against its golden
    copy, which lives with the benchmark and is only read here."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["verify-weights", "--n", "40", "--k", "20"])
    assert code == 0
    assert buf.getvalue() == (BENCH_GOLDEN / "weights-n40-k20.ndjson").read_text(encoding="ascii")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("check", ["cohomology", "bicomplex", "snake", "koszul", "ces", "d2zero"])
def test_each_fiber_check_alone_prints_its_golden_lines(monkeypatch, check, jobs):
    """A fiber check run alone from empty caches, serially and on the pool,
    prints exactly its suite's lines of the full n = 4 run: no verdict
    depends on a cache that another check filled."""
    for module in (fiber, complexes):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    # two workers even on a one-CPU host
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["verify-fiber", "--n", "4", "--t", "all", "--checks", check, "--jobs", jobs])
    assert code == 0
    golden = (GOLDEN / "fiber-n4.ndjson").read_text(encoding="ascii").splitlines(keepends=True)
    assert buf.getvalue() == "".join(line for line in golden if json.loads(line)["suite"] == check)


def test_fiber_n8_golden_holds_every_passing_report():
    """tests/golden/fiber-n8.ndjson, written by ``verify-fiber --n 8 --t all
    --jobs 1`` (about 290 s and 3.3 GB), is too costly to regenerate here;
    check that it is whole: one passing report per check and degree, with
    the predicted cohomology."""
    reps = [
        json.loads(line)
        for line in (GOLDEN / "fiber-n8.ndjson").read_text(encoding="ascii").splitlines()
    ]
    checks = [name for name, check in CHECKS.items() if check.command == FIBER]
    assert len(reps) == 90
    assert sorted((rep["suite"], rep["params"]["t"]) for rep in reps) == sorted(
        (check, t) for check in checks for t in range(15)
    )
    assert all(rep["params"]["n"] == 8 and rep["status"] == "pass" for rep in reps)
    for rep in reps:
        if rep["suite"] == "cohomology":
            expected = truncation_cohomology(8, 2, rep["params"]["t"])
            assert rep["expected"] == {f"h{deg}": dim for deg, dim in expected.items()}
