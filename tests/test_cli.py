"""Tests for the command-line interface: exit codes, report schema,
parameter-grid coverage, and byte determinism."""

import io
import json
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import sscx.cli as cli
import sscx.pool as pool
from sscx.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
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


def assert_no_child():
    """Every process a pool started has exited and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_pool(monkeypatch):
    """Record the groups and the worker count of every ``pool.pooled`` call
    in the returned list, run the real pool, and check that it leaves no
    child behind."""
    calls = []
    real = pool.pooled

    def recorded(groups, workers, *runners):
        calls.append((groups, workers))
        results = real(groups, workers, *runners)
        assert_no_child()
        return results

    monkeypatch.setattr(pool, "pooled", recorded)
    return calls


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
    calls = use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out = invoke(argv + ["--jobs", "10000"])
    assert [n for _, n in calls] == workers
    assert (code, out) == invoke(argv)


def test_no_fork_runs_serially(monkeypatch):
    calls = use_pool(monkeypatch)
    monkeypatch.delattr(cli.os, "fork", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["verify-weights", "--n", "4", "--k", "3"]
    assert invoke(argv + ["--jobs", "2"]) == invoke(argv)
    assert calls == []


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
    calls = use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(argv + ["--jobs", "2"])
    assert calls == [(submitted, 2)]
    assert (code, out) == invoke(argv)
    assert len(out.splitlines()) == sum(map(len, submitted))


def test_raising_check_fails_alone_in_its_pool_task(monkeypatch):
    real = cli.CHECKS["cohomology"].run

    def planted(n, t):
        if t == 2:
            raise ZeroDivisionError("planted at t=2")
        return real(n, t)

    plant(monkeypatch, "cohomology", planted)
    calls = use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(["verify-fiber", "--n", "3", "--checks", "cohomology,d2zero",
                        "--jobs", "2"])
    assert [n for _, n in calls] == [2]
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
    """The CLI never loads concurrent.futures or multiprocessing: not on
    import, and not when a pool runs, since the pool is built on os.fork.
    Its own pool module is loaded only by a command that runs a pool."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import os, sys, sscx.cli\n"
        "def loaded(): return sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('concurrent', 'multiprocessing') or m == 'sscx.pool')\n"
        "print(loaded())\n"
        "os.cpu_count = lambda: 2\n"
        "sscx.cli.run(['--out', os.devnull, 'verify-weights', '--n', '4', '--k', '3'])\n"
        "print(loaded())\n"
        "sscx.cli.run(['--out', os.devnull, 'verify-fiber', '--n', '3', '--jobs', '2'])\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    pooled = ["sscx.pool"] if hasattr(os, "fork") else []
    assert out == f"[]\n[]\n{pooled}\n"


def test_serial_commands_load_no_dataclasses_or_inspect():
    """No sscx module imports dataclasses, which loads inspect (several
    milliseconds of every command's start-up): not on import, and not in a
    serial fiber or weight run.  ``python -S`` keeps site's .pth files out
    of the count."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import os, sys, sscx.cli\n"
        "def loaded(): return sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)\n"
        "print(loaded())\n"
        "sscx.cli.run(['--out', os.devnull, 'verify-fiber', '--n', '3'])\n"
        "sscx.cli.run(['--out', os.devnull, 'verify-weights', '--n', '4', '--k', '3'])\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n[]\n"


def test_pool_under_python_m_loads_the_cli_once():
    """Run as ``python -m sscx.cli``, the CLI is ``__main__``; the pool gets
    its task runners from it and does not import ``sscx.cli`` again."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import os, runpy, sys\n"
        "os.cpu_count = lambda: 2\n"
        "sys.argv = ['sscx', '--out', os.devnull, 'verify-fiber', '--n', '3', '--jobs', '2']\n"
        "try:\n"
        "    runpy.run_module('sscx.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'sscx.cli' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0 False\n"


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the planted check reaches the workers by fork"
)


def die_in_worker(monkeypatch, check, dies, die):
    """Plant ``check`` so that a worker running it with params for which
    ``dies`` holds calls ``die()``."""
    parent = os.getpid()
    real = cli.CHECKS[check].run

    def planted(**params):
        if dies(**params) and os.getpid() != parent:
            die()
        return real(**params)

    plant(monkeypatch, check, planted)


def assert_dead_worker_reports(out, dies, tasks, detail):
    reps = [json.loads(line) for line in out.splitlines()]
    # one report per task, each with its own params
    keys = {(rep["suite"], json.dumps(rep["params"])) for rep in reps}
    assert len(keys) == len(reps) == tasks
    broken = [rep for rep in reps if rep["status"] == "fail"]
    assert all(rep in broken for rep in reps if dies(**rep["params"]))
    for rep in broken:
        assert rep["expected"] == {"ok": 1}
        assert rep["computed"] == {
            "detail": detail, "error": "ChildProcessError", "ok": 0
        }


@needs_fork
@pytest.mark.parametrize(
    "argv, check, dies, tasks",
    [
        # one task kills its worker after others have been handed out
        (["verify-fiber", "--n", "3"], "cohomology", lambda t, **_: t == 2, 5),
        # every task kills its worker, so both workers die while most tasks
        # are still to be taken
        (["verify-weights", "--n", "30", "--k", "3"], "staircase", lambda **_: True, 1711),
    ],
)
def test_dead_worker_fails_its_unfinished_tasks(monkeypatch, argv, check, dies, tasks):
    die_in_worker(monkeypatch, check, dies, lambda: os._exit(1))
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(argv + ["--checks", check, "--jobs", "2"])
    assert code == 1
    assert_dead_worker_reports(out, dies, tasks, "a worker died: exit status 1")


@needs_fork
def test_killed_worker_fails_its_group_alone(monkeypatch):
    def dies(t, **_):
        return t == 3

    die_in_worker(monkeypatch, "cohomology", dies,
                  lambda: os.kill(os.getpid(), signal.SIGKILL))
    use_pool(monkeypatch)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(["verify-fiber", "--n", "4", "--checks", "cohomology,d2zero",
                        "--jobs", "2"])
    assert code == 1
    assert_dead_worker_reports(out, dies, 14, f"a worker died: signal {signal.SIGKILL.value}")
    # the other worker takes every group the dead one did not
    failing = [json.loads(line) for line in out.splitlines() if '"status":"fail"' in line]
    assert [(rep["suite"], rep["params"]["t"]) for rep in failing] == [
        ("cohomology", 3), ("d2zero", 3)
    ]


@needs_fork
def test_task_pipe_carries_more_than_its_buffer(monkeypatch):
    """20,000 groups make 80,000 bytes of task records, more than a 64 KB
    pipe holds, while the workers' answers fill their own pipes."""
    from sscx.report import Report

    plant(monkeypatch, "pieri", lambda n, k: Report("pieri", {"n": n, "k": k}, {}, {}))
    groups = [[("pieri", {"n": i, "k": 3})] for i in range(20_000)]

    def expire(signum, frame):
        raise TimeoutError("the pool is stuck")

    # a pool that deadlocks on a full pipe fails here instead of hanging
    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        results = pool.pooled(groups, 2, cli._run_task, cli._error_report)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert_no_child()
    assert [rep["params"]["n"] for rep in results] == list(range(20_000))
    assert all(rep["status"] == "pass" for rep in results)


def fails_to_fork(monkeypatch, from_call: int) -> None:
    """Make every call of ``os.fork`` from the ``from_call``-th on raise
    ``BlockingIOError``, as a fork under a process limit does (EAGAIN)."""
    real_fork, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) >= from_call:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(cli.os, "fork", fork)


@needs_fork
def test_failed_second_fork_runs_on_the_first_worker(monkeypatch):
    """A fork that fails stops the forking, and the one worker forked
    takes every group."""
    calls = use_pool(monkeypatch)
    fails_to_fork(monkeypatch, 2)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(["verify-fiber", "--n", "3", "--t", "all", "--jobs", "2"])
    assert [n for _, n in calls] == [2]
    assert (code, out) == (0, (GOLDEN / "fiber-n3.ndjson").read_text(encoding="ascii"))


@needs_fork
def test_failed_first_fork_fails_every_report(monkeypatch):
    """With no worker forked, each task becomes a failing report with its
    own params and the fork's error, and no child is left."""
    calls = use_pool(monkeypatch)
    fails_to_fork(monkeypatch, 1)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, out = invoke(["verify-fiber", "--n", "3", "--t", "all", "--jobs", "2"])
    assert [n for _, n in calls] == [2]
    assert code == 1
    reps = [json.loads(line) for line in out.splitlines()]
    assert len(reps) == 6 * 5
    for rep in reps:
        assert rep["status"] == "fail", rep
        assert rep["computed"] == {
            "detail": "[Errno 11] Resource temporarily unavailable",
            "error": "BlockingIOError", "ok": 0,
        }
    assert_no_child()


@needs_fork
def test_interrupted_parent_kills_and_reaps_its_workers(monkeypatch):
    """An interrupt in the parent reaches the caller at once: the workers,
    busy with checks that would run for a minute, are killed and reaped."""
    forked, selects = [], []
    real_fork, real_select = os.fork, select.select

    def counted_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def interrupted(*args):
        selects.append(args)
        if len(selects) > 1:
            raise KeyboardInterrupt
        return real_select(*args)  # the first call hands out the tasks

    plant(monkeypatch, "cohomology", lambda n, t: time.sleep(60))
    monkeypatch.setattr(cli.os, "fork", counted_fork)
    # the pool reads select.select when it runs, so it finds this attribute
    monkeypatch.setattr(select, "select", interrupted)
    groups = [[("cohomology", {"n": 3, "t": t})] for t in range(5)]
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pool.pooled(groups, 2, cli._run_task, cli._error_report)
    assert time.monotonic() - start < 30
    monkeypatch.undo()
    assert len(forked) == 2
    assert_no_child()
    for pid in forked:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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
