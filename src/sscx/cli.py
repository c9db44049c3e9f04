"""Command-line entry point.

Two subcommands select verification suites over parameter grids:

  sscx verify-fiber   --n N [--t T|all] [--checks csv]
  sscx verify-weights --n N --k K [--t T] [--checks csv]

Each check emits one newline-delimited JSON report object with a fixed key
order; reports are sorted by (suite, params) before emission, so output is
byte-identical across runs (and independent of --jobs).  A check that
raises becomes a failing report with its own params and the error's class
and message.  Exit code 0 when every report passes, 1 when any fails, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import complexes, weights
from .report import Report

FIBER_CHECKS = ("cohomology", "bicomplex", "snake", "koszul", "ces", "d2zero")
WEIGHT_CHECKS = ("bbw", "staircase", "euler", "phics", "pieri", "vanishing")

_FIBER_DISPATCH = {
    "cohomology": complexes.verify_Et_cohomology,
    "bicomplex": complexes.verify_bicomplex,
    "snake": complexes.verify_snake,
    "koszul": complexes.verify_koszul_S,
    "ces": complexes.verify_ces,
    "d2zero": complexes.verify_Et_complex,
}


def _bbw_report(n: int, k: int) -> Report:
    """Closed-form pushforward agreement over the full weight band; the
    underlying routine raises on any disagreement."""
    checked = 0
    mismatches = 0
    for a1 in range(-1, 2 * n - k + 1):
        for a2 in range(-1, a1 + 1):
            checked += 1
            try:
                weights.tphi_on_weight(a1, a2, k)
            except AssertionError:
                mismatches += 1
    return Report.make(
        "bbw",
        {"n": n, "k": k},
        {"mismatches": 0, "checked": checked},
        {"mismatches": mismatches, "checked": checked},
    )


def _phics_report(k: int) -> Report:
    survivors = weights.phi_cs_survivors(k)
    return Report.make(
        "phics",
        {"k": k},
        {"count": 1, "unique_expected": 1},
        {
            "count": len(survivors),
            "unique_expected": int(survivors == [(k - 2, 0, 0)]),
        },
    )


def _pieri_report(n: int, k: int) -> Report:
    """Hook-decomposition dimension identity over all ranks up to 6."""
    checked = 0
    failures = 0
    for r in range(0, 7):
        for i in range(r + 1):
            for j in range(r + 1):
                checked += 1
                if not weights.pieri_dim_check(r, i, j):
                    failures += 1
    return Report.make(
        "pieri",
        {"n": n, "k": k},
        {"failures": 0, "checked": checked},
        {"failures": failures, "checked": checked},
    )


_WEIGHT_DISPATCH = {
    "bbw": _bbw_report,
    "staircase": weights.verify_staircase_pushforward,
    "euler": weights.euler_check_Kt,
    "phics": _phics_report,
    "pieri": _pieri_report,
    "vanishing": weights.vanishing_band_check,
}


def _run_task(task) -> dict:
    """Execute one (layer, check, params) task; ``params`` are the keyword
    arguments of the check and the params of its report.  Any exception
    becomes a failing report with those params and the error's class and
    message, instead of crashing the run."""
    kind, check, params = task
    dispatch = _FIBER_DISPATCH if kind == "fiber" else _WEIGHT_DISPATCH
    try:
        rep = dispatch[check](**params)
    except Exception as exc:
        rep = Report.make(
            check, params, {"ok": 1},
            {"ok": 0, "error": type(exc).__name__, "detail": str(exc)},
        )
    return rep.to_ordered_dict()


def _parse_checks(value: str, allowed: tuple[str, ...], parser) -> list[str]:
    names = [c.strip() for c in value.split(",") if c.strip()]
    for c in names:
        if c not in allowed:
            parser.error(f"unknown check '{c}' (choose from {', '.join(allowed)})")
    return names or list(allowed)


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
        "verify-fiber",
        parents=[common],
        help="matrix-level checks at the fixed fiber",
    )
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--t", default="all", help="single degree or 'all' (0..2n-2)")
    pf.add_argument(
        "--checks",
        default=",".join(FIBER_CHECKS),
        help=f"comma-separated subset of: {','.join(FIBER_CHECKS)}",
    )

    pw = sub.add_parser(
        "verify-weights",
        parents=[common],
        help="weight-combinatorics checks for general rank",
    )
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--k", type=int, required=True)
    pw.add_argument("--t", type=int, default=None, help="single degree (default: all)")
    pw.add_argument(
        "--checks",
        default=",".join(WEIGHT_CHECKS),
        help=f"comma-separated subset of: {','.join(WEIGHT_CHECKS)}",
    )
    return parser


def _fiber_tasks(args, parser) -> list:
    n = args.n
    if n < 2:
        parser.error("need --n >= 2")
    tmax = 2 * n - 2
    if args.t == "all":
        ts = list(range(tmax + 1))
    else:
        try:
            t = int(args.t)
        except ValueError:
            parser.error("--t must be an integer or 'all'")
        if not (0 <= t <= tmax):
            parser.error(f"--t out of band (0..{tmax})")
        ts = [t]
    checks = _parse_checks(args.checks, FIBER_CHECKS, parser)
    return [("fiber", c, {"n": n, "t": t}) for c in checks for t in ts]


def _weight_tasks(args, parser) -> list:
    n, k = args.n, args.k
    if not (2 <= k <= n):
        parser.error("need 2 <= --k <= --n")
    checks = _parse_checks(args.checks, WEIGHT_CHECKS, parser)
    if k == 2:
        needs3 = [c for c in checks if c in ("bbw", "staircase", "phics", "vanishing")]
        if needs3:
            parser.error(f"checks {','.join(needs3)} require --k >= 3")
    tmax = 2 * n - k
    if args.t is not None and not (0 <= args.t <= tmax):
        parser.error(f"--t out of band (0..{tmax})")
    tasks = []
    for c in checks:
        if c == "staircase":
            for a1 in range(0, tmax + 1):
                for a2 in range(0, a1 + 1):
                    params = {"alpha1": a1, "alpha2": a2, "k": k, "n": n}
                    tasks.append(("weights", c, params))
        elif c == "euler":
            ts = [args.t] if args.t is not None else list(range(tmax + 1))
            for t in ts:
                tasks.append(("weights", c, {"n": n, "k": k, "t": t}))
        elif c == "phics":
            tasks.append(("weights", c, {"k": k}))
        else:
            tasks.append(("weights", c, {"n": n, "k": k}))
    return tasks


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.command == "verify-fiber":
        tasks = _fiber_tasks(args, parser)
    else:
        tasks = _weight_tasks(args, parser)
    # fork starts every worker at once, so never ask for more than can run
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_task, tasks))
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
