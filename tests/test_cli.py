"""Tests for the command-line interface: exit codes, report schema,
parameter-grid coverage, and byte determinism."""

import concurrent.futures.process
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import sscx.cli as cli
from sscx.cli import run

EXPECTED_KEYS = ["suite", "params", "expected", "computed", "status", "elapsed_ms"]


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def plant(monkeypatch, check, fn):
    """Make the registry run ``fn`` for ``check`` during this test."""
    monkeypatch.setitem(cli.CHECKS, check, cli.CHECKS[check]._replace(run=fn))


def test_fiber_suite_passes():
    code, out = invoke(
        ["verify-fiber", "--n", "3", "--t", "all",
         "--checks", "cohomology,bicomplex,snake,koszul,ces,d2zero"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6 * 5  # six checks over t = 0..4
    for line in lines:
        rep = json.loads(line)
        assert list(rep) == EXPECTED_KEYS
        assert rep["status"] == "pass"
        assert rep["elapsed_ms"] == 0


def test_weights_suite_passes():
    code, out = invoke(
        ["verify-weights", "--n", "4", "--k", "3",
         "--checks", "bbw,staircase,euler,phics,pieri,vanishing"]
    )
    assert code == 0
    suites = [json.loads(line)["suite"] for line in out.splitlines()]
    assert suites == sorted(suites)
    assert set(suites) == {"bbw", "staircase", "euler", "phics", "pieri", "vanishing"}


def test_t_all_coverage():
    code, out = invoke(["verify-fiber", "--n", "3", "--checks", "cohomology"])
    assert code == 0
    ts = [json.loads(line)["params"]["t"] for line in out.splitlines()]
    assert ts == [0, 1, 2, 3, 4]  # exactly 0..2n-2
    code, out = invoke(["verify-weights", "--n", "3", "--k", "3",
                        "--checks", "euler"])
    ts = [json.loads(line)["params"]["t"] for line in out.splitlines()]
    assert ts == [0, 1, 2, 3]  # exactly 0..2n-k


def test_out_of_band_t_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-fiber", "--n", "3", "--t", "99"])
    assert exc.value.code == 2


def test_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["verify-fiber", "--n", "3", "--checks", "nope"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_k_band_validation():
    with pytest.raises(SystemExit) as exc:
        run(["verify-weights", "--n", "3", "--k", "7"])
    assert exc.value.code == 2


def test_single_t_selection():
    code, out = invoke(["verify-fiber", "--n", "3", "--t", "2",
                        "--checks", "cohomology,d2zero"])
    assert code == 0
    assert len(out.splitlines()) == 2


def test_integers_only_no_floats():
    _, out = invoke(["verify-fiber", "--n", "3", "--t", "all"])
    for line in out.splitlines():
        rep = json.loads(line)
        for section in ("params", "expected", "computed"):
            for v in rep[section].values():
                assert isinstance(v, int)


def test_determinism_bytes():
    _, out1 = invoke(["verify-fiber", "--n", "3", "--t", "all"])
    _, out2 = invoke(["verify-fiber", "--n", "3", "--t", "all"])
    assert out1 == out2


def test_jobs_does_not_change_bytes():
    _, serial = invoke(["verify-fiber", "--n", "3", "--t", "all"])
    _, parallel = invoke(["verify-fiber", "--n", "3", "--t", "all", "--jobs", "3"])
    assert serial == parallel


def test_out_file(tmp_path):
    path = tmp_path / "reports.ndjson"
    code, out = invoke(["verify-fiber", "--n", "3", "--t", "0", "--out", str(path)])
    assert code == 0
    assert out == ""
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        json.loads(line)


def test_unwritable_out_is_usage_error_before_any_check(monkeypatch, tmp_path, capsys):
    calls = []

    def counted(real):
        def run_counted(**params):
            calls.append(params)
            return real(**params)
        return run_counted

    for check in cli._names(cli.FIBER):
        plant(monkeypatch, check, counted(cli.CHECKS[check].run))
    with pytest.raises(SystemExit) as exc:
        run(["--out", str(tmp_path / "missing" / "reports.ndjson"),
             "verify-fiber", "--n", "2"])
    assert exc.value.code == 2
    assert calls == []
    assert "cannot write --out" in capsys.readouterr().err


def test_failing_check_exits_one(monkeypatch):
    from sscx.report import Report

    def broken(n, t):
        return Report("cohomology", {"n": n, "t": t}, {"h0": 1}, {"h0": 0})

    plant(monkeypatch, "cohomology", broken)
    code, out = invoke(["verify-fiber", "--n", "3", "--t", "0",
                        "--checks", "cohomology"])
    assert code == 1
    assert json.loads(out.splitlines()[0])["status"] == "fail"


def test_failing_reports_carry_their_params(monkeypatch):
    real = cli.CHECKS["staircase"].run

    def planted(alpha1, alpha2, k, n):
        if (alpha1, alpha2) in ((2, 1), (3, 0)):
            raise ZeroDivisionError(f"planted at {alpha1},{alpha2}")
        return real(alpha1, alpha2, k, n)

    plant(monkeypatch, "staircase", planted)
    code, out = invoke(["verify-weights", "--n", "4", "--k", "3",
                        "--checks", "staircase"])
    assert code == 1
    failing = [line for line in out.splitlines() if '"status":"fail"' in line]
    assert failing == [
        '{"suite":"staircase","params":{"alpha1":2,"alpha2":1,"k":3,"n":4},'
        '"expected":{"ok":1},"computed":{"detail":"planted at 2,1",'
        '"error":"ZeroDivisionError","ok":0},"status":"fail","elapsed_ms":0}',
        '{"suite":"staircase","params":{"alpha1":3,"alpha2":0,"k":3,"n":4},'
        '"expected":{"ok":1},"computed":{"detail":"planted at 3,0",'
        '"error":"ZeroDivisionError","ok":0},"status":"fail","elapsed_ms":0}',
    ]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    submitted pool tasks and runs them in this process, so no worker is
    ever started."""

    created: list = []
    submitted: list = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        self.submitted.append(task)
        future = Future()
        future.set_result(fn(task))
        return future


def use_pool(monkeypatch, pool):
    """Make ``cli._pooled`` start ``pool``, with empty records, instead of a
    ProcessPoolExecutor; the class is looked up in concurrent.futures.process
    when a pool starts."""
    monkeypatch.setattr(pool, "created", [])
    monkeypatch.setattr(pool, "submitted", [])
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", pool)


@pytest.mark.parametrize(
    "argv, cpus, workers",
    [
        (["verify-weights", "--n", "4", "--k", "3"], 3, [3]),
        # one degree is one pool task, so no pool starts
        (["verify-fiber", "--n", "2", "--t", "0", "--checks", "cohomology,ces"], 8, []),
        (["verify-weights", "--n", "4", "--k", "3"], None, []),
    ],
)
def test_jobs_is_clamped(monkeypatch, argv, cpus, workers):
    monkeypatch.setattr(_RecordingPool, "created", [])
    use_pool(monkeypatch, _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out = invoke(argv + ["--jobs", "10000"])
    assert _RecordingPool.created == workers
    assert (code, out) == invoke(argv)


class _BreakingPool(_RecordingPool):
    """Stands in for a ProcessPoolExecutor that breaks while the tasks are
    being submitted: the first two futures complete (a report, then
    BrokenProcessPool), and every later one stays pending for ever, like a
    future whose submit raced the break."""

    def __init__(self, max_workers):
        self.futures = []

    def submit(self, fn, task):
        future = Future()
        submitted = len(self.futures)
        if submitted == 0:
            future.set_result(fn(task))
        elif submitted == 1:
            future.set_exception(BrokenProcessPool("planted break"))
        self.futures.append(future)
        return future


def test_futures_left_pending_by_a_broken_pool_fail(monkeypatch):
    use_pool(monkeypatch, _BreakingPool)
    tasks = [("cohomology", {"n": 3, "t": t}) for t in range(4)]
    # the broken pool task holds two tasks, and each fails with its params
    groups = [tasks[:1], tasks[1:3], tasks[3:]]
    results = []
    # a daemon thread, so that a regression hangs only this test's thread
    worker = threading.Thread(
        target=lambda: results.extend(cli._pooled(groups, 2)), daemon=True
    )
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert [rep["params"]["t"] for rep in results] == [0, 1, 2, 3]
    assert results[0]["status"] == "pass"
    for rep in results[1:]:
        assert rep["status"] == "fail"
        assert rep["computed"]["error"] == "BrokenProcessPool"
        assert rep["computed"]["detail"] == "planted break"


@pytest.mark.parametrize(
    "argv, submitted",
    [
        # one pool task per degree, highest first, each with every selected
        # check at that degree in the order given
        (
            ["verify-fiber", "--n", "3", "--checks", "ces,bicomplex,d2zero"],
            [
                [(check, {"n": 3, "t": t}) for check in ("ces", "bicomplex", "d2zero")]
                for t in (4, 3, 2, 1, 0)
            ],
        ),
        # one pool task per report
        (
            ["verify-weights", "--n", "4", "--k", "3", "--checks", "euler,pieri"],
            [[("euler", {"n": 4, "k": 3, "t": t})] for t in range(6)]
            + [[("pieri", {"n": 4, "k": 3})]],
        ),
    ],
)
def test_pool_tasks(monkeypatch, argv, submitted):
    use_pool(monkeypatch, _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(argv + ["--jobs", "2"])
    assert _RecordingPool.created == [2]
    assert _RecordingPool.submitted == submitted
    assert (code, out) == invoke(argv)
    assert len(out.splitlines()) == sum(map(len, submitted))


def test_raising_check_fails_alone_in_its_pool_task(monkeypatch):
    real = cli.CHECKS["cohomology"].run

    def planted(n, t):
        if t == 2:
            raise ZeroDivisionError("planted at t=2")
        return real(n, t)

    plant(monkeypatch, "cohomology", planted)
    use_pool(monkeypatch, _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(["verify-fiber", "--n", "3", "--checks", "cohomology,d2zero",
                        "--jobs", "2"])
    assert code == 1
    # the d2zero check of the same pool task still passes
    failing = [line for line in out.splitlines() if '"status":"fail"' in line]
    assert failing == [
        '{"suite":"cohomology","params":{"n":3,"t":2},"expected":{"ok":1},'
        '"computed":{"detail":"planted at t=2","error":"ZeroDivisionError","ok":0},'
        '"status":"fail","elapsed_ms":0}'
    ]
    assert len(out.splitlines()) == 10


def test_import_loads_no_pool_machinery():
    """A command without a pool pays for neither concurrent.futures nor
    multiprocessing: they are imported when a pool starts."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, sscx.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the planted check reaches the workers by fork")
@pytest.mark.parametrize(
    "argv, check, dies, tasks",
    [
        # one task kills its worker after others have been handed out
        (["verify-fiber", "--n", "3"], "cohomology", lambda t, **_: t == 2, 5),
        # every task kills its worker, so the pool breaks while most tasks
        # are still to be submitted
        (["verify-weights", "--n", "30", "--k", "3"], "staircase", lambda **_: True, 1711),
    ],
)
def test_dead_worker_fails_its_unfinished_tasks(monkeypatch, argv, check, dies, tasks):
    parent = os.getpid()
    real = cli.CHECKS[check].run

    def planted(**params):
        if dies(**params) and os.getpid() != parent:
            os._exit(1)  # the worker dies, as if killed
        return real(**params)

    plant(monkeypatch, check, planted)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(argv + ["--checks", check, "--jobs", "2"])
    assert code == 1
    reps = [json.loads(line) for line in out.splitlines()]
    # one report per task, each with its own params
    assert len({json.dumps(rep["params"]) for rep in reps}) == len(reps) == tasks
    broken = [rep for rep in reps if rep["status"] == "fail"]
    assert all(rep in broken for rep in reps if dies(**rep["params"]))
    for rep in broken:
        assert rep["expected"] == {"ok": 1}
        assert list(rep["computed"]) == ["detail", "error", "ok"]
        assert rep["computed"]["error"] == "BrokenProcessPool"
        assert rep["computed"]["ok"] == 0 and rep["computed"]["detail"]


@pytest.mark.parametrize(
    "argv, check, lines",
    [
        (["verify-fiber", "--n", "3"], "cohomology", 5),
        (["verify-weights", "--n", "4", "--k", "3"], "pieri", 1),
    ],
)
def test_repeated_check_runs_once(monkeypatch, argv, check, lines):
    calls = []
    real = cli.CHECKS[check].run

    def counted(**params):
        calls.append(params)
        return real(**params)

    plant(monkeypatch, check, counted)
    code, out = invoke(argv + ["--checks", f"{check},{check}"])
    assert code == 0
    assert len(out.splitlines()) == len(calls) == lines
    assert (code, out) == invoke(argv + ["--checks", check])


@pytest.mark.parametrize("argv", [["verify-fiber", "--n", "3"],
                                  ["verify-weights", "--n", "4", "--k", "3"]])
@pytest.mark.parametrize("checks", [",", ""])
def test_empty_selection_is_usage_error(argv, checks):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--checks", checks])
    assert exc.value.code == 2


def test_default_checks_at_k2_name_the_ones_needing_k3(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify-weights", "--n", "4", "--k", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "checks bbw,staircase,phics,vanishing require --k >= 3" in err
