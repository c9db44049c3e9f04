"""Command-line entry point.

Two subcommands select verification suites over parameter grids:

  sscx verify-fiber   --n N [--t T|all] [--checks csv]
  sscx verify-weights --n N --k K [--t T] [--checks csv]

Each check emits one newline-delimited JSON report object with a fixed key
order; reports are sorted by (suite, params) before emission, so output is
byte-identical across runs (and independent of --jobs).  A check that
raises, or whose worker process dies under --jobs, becomes a failing report
with its own params and the error's class and message.  Exit code 0 when
every report passes, 1 when any fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, NamedTuple

from . import complexes, weights
from .report import Report


class Check(NamedTuple):
    """One registry entry.  ``grid(n, k, ts)`` lists the keyword arguments of
    ``run``, which are also the params of its report; ``ts`` are the selected
    degrees and ``k`` is None for verify-fiber."""

    command: str
    run: Callable[..., Report]
    grid: Callable[[int, int | None, list[int]], list[dict]]
    min_k: int = 2


def _per_t(n, k, ts):
    return [{"n": n, "t": t} for t in ts]


def _per_nkt(n, k, ts):
    return [{"n": n, "k": k, "t": t} for t in ts]


def _per_nk(n, k, ts):
    return [{"n": n, "k": k}]


def _per_alpha(n, k, ts):
    return [
        {"alpha1": a1, "alpha2": a2, "k": k, "n": n}
        for a1 in range(2 * n - k + 1)
        for a2 in range(a1 + 1)
    ]


FIBER, WEIGHTS = "verify-fiber", "verify-weights"

# The functions are read through their modules when this table is built, so
# wrappers installed on those modules beforehand are the ones that run.
CHECKS = {
    "cohomology": Check(FIBER, complexes.verify_Et_cohomology, _per_t),
    "bicomplex": Check(FIBER, complexes.verify_bicomplex, _per_t),
    "snake": Check(FIBER, complexes.verify_snake, _per_t),
    "koszul": Check(FIBER, complexes.verify_koszul_S, _per_t),
    "ces": Check(FIBER, complexes.verify_ces, _per_t),
    "d2zero": Check(FIBER, complexes.verify_Et_complex, _per_t),
    "bbw": Check(WEIGHTS, weights.bbw_check, _per_nk, 3),
    "staircase": Check(WEIGHTS, weights.verify_staircase_pushforward, _per_alpha, 3),
    "euler": Check(WEIGHTS, weights.euler_check_Kt, _per_nkt),
    # the survivor count depends on k alone
    "phics": Check(WEIGHTS, weights.phics_check, lambda n, k, ts: [{"k": k}], 3),
    # the identity depends on neither n nor k; they only label the report
    "pieri": Check(WEIGHTS, weights.pieri_check, _per_nk),
    "vanishing": Check(WEIGHTS, weights.vanishing_band_check, _per_nk, 3),
}


def _names(command: str) -> list[str]:
    return [name for name, check in CHECKS.items() if check.command == command]


def _run_task(task) -> dict:
    """Execute one (check, params) task; ``params`` are the keyword arguments
    of the check and the params of its report.  Any exception becomes a
    failing report with those params and the error's class and message,
    instead of crashing the run."""
    check, params = task
    try:
        rep = CHECKS[check].run(**params)
    except Exception as exc:
        return _error_report(task, exc)
    return rep.to_ordered_dict()


def _error_report(task, exc: BaseException) -> dict:
    check, params = task
    return Report.make(
        check, params, {"ok": 1},
        {"ok": 0, "error": type(exc).__name__, "detail": str(exc)},
    ).to_ordered_dict()


def _pooled(tasks, workers: int) -> list[dict]:
    """Run the tasks on a process pool.  A worker that dies (killed, out of
    memory) breaks the pool; every task left unfinished then becomes a
    failing report with its own params instead of a traceback."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [_submit(pool, task) for task in tasks]
        results = []
        for task, future in zip(tasks, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(_error_report(task, exc))
    return results


def _submit(pool, task) -> Future:
    """pool.submit, or a future holding the error if the pool is broken."""
    try:
        return pool.submit(_run_task, task)
    except BrokenProcessPool as exc:
        future = Future()
        future.set_exception(exc)
        return future


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscx",
        description="Exact-arithmetic verification suites for staircase-type "
        "complexes of equivariant bundles.",
    )
    parser.add_argument("--out", help="write reports to this path instead of stdout")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel worker processes (default 1; at most one per task and per CPU)",
    )
    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    pf = sub.add_parser(
        FIBER,
        parents=[common],
        help="matrix-level checks at the fixed fiber",
    )
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--t", default="all", help="single degree or 'all' (0..2n-2)")

    pw = sub.add_parser(
        WEIGHTS,
        parents=[common],
        help="weight-combinatorics checks for general rank",
    )
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--k", type=int, required=True)
    pw.add_argument("--t", type=int, default=None, help="single degree (default: all)")
    for p, command in ((pf, FIBER), (pw, WEIGHTS)):
        names = ",".join(_names(command))
        p.add_argument(
            "--checks", default=names, help=f"comma-separated subset of: {names}"
        )
    return parser


def _degrees(value, tmax: int, parser) -> list[int]:
    """The --t selection: every degree 0..tmax, or the single one given."""
    if value in (None, "all"):
        return list(range(tmax + 1))
    try:
        t = int(value)
    except ValueError:
        parser.error("--t must be an integer or 'all'")
    if not (0 <= t <= tmax):
        parser.error(f"--t out of band (0..{tmax})")
    return [t]


def _select(value: str, command: str, parser) -> list[str]:
    """The --checks selection, in the order given, each name once."""
    allowed = _names(command)
    names = list(dict.fromkeys(c.strip() for c in value.split(",") if c.strip()))
    if not names:
        parser.error(f"--checks selects no check (choose from {', '.join(allowed)})")
    for c in names:
        if c not in allowed:
            parser.error(f"unknown check '{c}' (choose from {', '.join(allowed)})")
    return names


def _tasks(args, parser) -> list:
    n = args.n
    if args.command == FIBER:
        if n < 2:
            parser.error("need --n >= 2")
        k, tmax = None, 2 * n - 2
    else:
        k, tmax = args.k, 2 * n - args.k
        if not (2 <= k <= n):
            parser.error("need 2 <= --k <= --n")
    ts = _degrees(args.t, tmax, parser)
    checks = _select(args.checks, args.command, parser)
    if k is not None:
        low = [c for c in checks if k < CHECKS[c].min_k]
        if low:
            floor = max(CHECKS[c].min_k for c in low)
            parser.error(f"checks {','.join(low)} require --k >= {floor}")
    return [(c, params) for c in checks for params in CHECKS[c].grid(n, k, ts)]


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    tasks = _tasks(args, parser)
    # fork starts every worker at once, so never ask for more than can run
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        results = _pooled(tasks, workers)
    else:
        results = [_run_task(t) for t in tasks]
    results.sort(key=lambda r: (r["suite"], sorted(r["params"].items())))
    lines = [json.dumps(r, separators=(",", ":")) for r in results]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r["status"] == "pass" for r in results) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
