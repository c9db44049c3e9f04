"""Benchmark of the sscx CLI: cold-process time to a verified verdict.

    python3 perfbench/run.py --workload fiber-n5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes
    python3 perfbench/run.py --write-golden               # regenerate perfbench/golden/

Users wait for ``sscx verify-*`` to exit, and every invocation pays the cold
``functools.cache`` fills of the fiber layer, so each workload is one sscx
command run as a fresh process, again and again for ``--seconds`` (a closed
loop with one client: the next command starts when the previous one exits).
The seed only permutes the order of the ``--checks`` list.  The CLI sorts its
reports, so every run's stdout is diffed against one golden NDJSON file per
workload, whatever the seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced commands (see ``tracer.py``) and prints the per-layer
metrics.  The second-to-last stdout line gives the samples, ``fail_ratio`` and
the host; the last is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any report fails.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"

FIBER_CHECKS = ("cohomology", "bicomplex", "snake", "koszul", "ces", "d2zero")
WEIGHT_CHECKS = ("bbw", "staircase", "euler", "phics", "pieri", "vanishing")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    checks: tuple[str, ...]
    jobs: int


# Why each workload is here is in README.md; BENCHMARK.json repeats it.
WORKLOADS = {
    "fiber-n5": Workload(("verify-fiber", "--n", "5", "--t", "all"), FIBER_CHECKS, 1),
    "fiber-n5-jobs2": Workload(
        ("verify-fiber", "--n", "5", "--t", "all"), FIBER_CHECKS, 2
    ),
    # long enough that one command spans several of the host's speed changes
    "weights-n40-k20": Workload(
        ("verify-weights", "--n", "40", "--k", "20"), WEIGHT_CHECKS, 1
    ),
}

END_TO_END = {"verify_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# A per-layer metric is "<prefix>.<field>".  Unless handled in layer_metrics,
# it sums the field over every span named <prefix> or <prefix>.*, so
# "exactlinalg.self_s" is the whole layer's self time.
FIELDS = {  # field: (unit, better)
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "s": ("s", "lower"),
    "nnz_in": ("count", "lower"),
    "nnz_out": ("count", "lower"),
    "nnz_per_s": ("1/s", "higher"),
    "misses": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "tasks": ("count", "higher"),
    "busy_ratio": ("ratio", "higher"),
    "overhead_ratio": ("ratio", "lower"),
    "calib_s": ("s", "lower"),
}
PER_LAYER = (
    "exactlinalg.self_s",
    "fiber.self_s",
    "complexes.self_s",
    "weights.self_s",
    "exactlinalg.rank.calls",
    "exactlinalg.rank.self_s",
    "exactlinalg.rank.nnz_in",
    "exactlinalg.kernel.calls",
    "exactlinalg.kernel.self_s",
    "exactlinalg.kernel.nnz_in",
    "exactlinalg.solve_in_basis.calls",
    "exactlinalg.solve_in_basis.self_s",
    "exactlinalg.restrict.self_s",
    "exactlinalg.spans_equal.calls",
    "exactlinalg.spans_equal.self_s",
    "exactlinalg.subspace_equal.self_s",
    "exactlinalg.matmul.calls",
    "exactlinalg.matmul.self_s",
    "exactlinalg.elim.nnz_per_s",
    "fiber.structure_map.calls",
    "fiber.structure_map.self_s",
    "fiber.structure_map.nnz_out",
    "fiber.fiber_E.self_s",
    "fiber.fiber_E.misses",
    "fiber.fiber_E.hit_ratio",
    "fiber.restricted_d.hit_ratio",
    "complexes.verify_cohomology.s",
    "complexes.verify_bicomplex.s",
    "complexes.verify_snake.s",
    "complexes.verify_koszul.s",
    "complexes.verify_ces.s",
    "complexes.verify_d2zero.s",
    "complexes.build_bicomplex.self_s",
    "complexes.totalize.self_s",
    "complexes.verify_complex.self_s",
    "complexes.cohomology_dims.self_s",
    "weights.verify_staircase_pushforward.s",
    "weights.euler_check_Kt.s",
    "weights.weyl_dim_gl.calls",
    "weights.weyl_dim_gl.self_s",
    "weights.bbw_pushforward.calls",
    "weights.bbw_pushforward.self_s",
    "cli.tasks",
    "cli.self_s",
    "cli.pool.busy_ratio",
    "trace.overhead_ratio",
    "host.calib_s",
)
# suites named by their check, as on the command line
ALIASES = {
    "complexes.verify_cohomology": "complexes.verify_Et_cohomology",
    "complexes.verify_koszul": "complexes.verify_koszul_S",
    "complexes.verify_d2zero": "complexes.verify_Et_complex",
}
# measured by the run rather than read from spans
RUN_LEVEL = ("cli.tasks", "cli.pool.busy_ratio", "trace.overhead_ratio", "host.calib_s")
ELIMINATION = ("exactlinalg.rank", "exactlinalg.kernel", "exactlinalg.solve_in_basis")

SETUP_RUNS = 5  # before the loop, and again after it, to span the run
CALIB_TERMS = 30000


def unit_of(metric: str) -> tuple[str, str]:
    if metric in END_TO_END:
        return END_TO_END[metric], "lower"
    return FIELDS[metric.rpartition(".")[2]]


def sscx_env() -> dict:
    """The environment of every command: sscx from this checkout's sources."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def checks_order(workload: Workload, seed: int) -> list[str]:
    order = list(workload.checks)
    random.Random(seed).shuffle(order)
    return order


def command(workload: Workload, seed: int) -> list[str]:
    """The sscx arguments of one workload run."""
    checks = ",".join(checks_order(workload, seed))
    return [*workload.args, "--checks", checks, "--jobs", str(workload.jobs)]


def failed_reports(golden: bytes, out: bytes, code: int) -> int:
    """Reports that fail, are missing or differ from the golden copy; a
    non-zero exit fails them all."""
    want = golden.splitlines()
    if code != 0:
        return len(want)
    if out == golden:
        return 0
    got = out.splitlines()
    bad = sum(1 for i, line in enumerate(want) if i >= len(got) or got[i] != line)
    bad += max(0, len(got) - len(want))
    return min(len(want), max(1, bad))


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: bytes
    code: int


def invoke(argv: list[str], env: dict) -> Sample:
    """Run one command to its exit; CPU and peak RSS cover the process and
    every worker it reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Sample(wall, cpu, usage.ru_maxrss / 1024, out, proc.returncode)


def time_setup(env: dict) -> float:
    """Seconds from spawning an interpreter to the end of ``import sscx.cli``.

    Both ends read CLOCK_MONOTONIC, which every process on the host shares.
    """
    code = "import time, sscx.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, check=True
    ).stdout
    return float(out) - start


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's speed, not
    sscx's, to tell host drift from a program change."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(CALIB_TERMS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - start


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": sys.version.split()[0]}


def layer_metrics(data: dict) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced command."""
    summary = tracer.summarize(data["spans"])
    out = {}
    for metric in PER_LAYER:
        if metric in RUN_LEVEL:
            continue
        prefix, _, field = metric.rpartition(".")
        prefix = ALIASES.get(prefix, prefix)
        if field == "nnz_per_s":
            rows = [summary[n] for n in ELIMINATION if n in summary]
            busy = sum(r["self_s"] for r in rows)
            out[metric] = sum(r["count"] for r in rows) / busy if busy else 0.0
        elif field in ("misses", "hit_ratio"):
            info = data["caches"].get(prefix, {"hits": 0, "misses": 0})
            total = info["hits"] + info["misses"]
            if field == "misses":
                out[metric] = info["misses"]
            else:
                out[metric] = info["hits"] / total if total else 0.0
        else:
            key = "count" if field.startswith("nnz") else field
            out[metric] = sum(
                row[key] for name, row in summary.items()
                if name == prefix or name.startswith(prefix + ".")
            )
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and the detail record."""
    workload = WORKLOADS[name]
    golden = (GOLDEN / f"{name}.ndjson").read_bytes()
    env = sscx_env()
    args = command(workload, seed)
    plain_argv = [sys.executable, "-m", "sscx.cli", *args]
    time_setup(env)  # the first import writes the bytecode caches
    setup_runs = 0 if trace else SETUP_RUNS
    setup = [time_setup(env) for _ in range(setup_runs)]
    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    calib: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".spans-", dir=BENCH) as tmp:
        spans_path = os.path.join(tmp, "spans")
        traced_argv = [sys.executable, str(BENCH / "tracer.py"), spans_path, *args]
        start = time.perf_counter()
        while True:
            calib.append(calibrate())
            plain.append(invoke(plain_argv, env))
            if trace:
                sample = invoke(traced_argv, env)
                traced.append(sample)
                if sample.code == 0:
                    layers.append(layer_metrics(tracer.load(spans_path)))
            spent = time.perf_counter() - start
            if spent + spent / len(plain) > seconds:
                break
    setup += [time_setup(env) for _ in range(setup_runs)]
    calib.append(calibrate())
    runs = plain + traced
    failed = sum(failed_reports(golden, s.out, s.code) for s in runs)
    reports = len(golden.splitlines())
    attempted = reports * len(runs)
    med = statistics.median
    if trace:
        metrics = {m: med(layer[m] for layer in layers) for m in layers[0]} if layers else {}
        metrics["cli.tasks"] = reports
        metrics["cli.pool.busy_ratio"] = med(s.cpu_s / (workload.jobs * s.wall_s) for s in plain)
        metrics["trace.overhead_ratio"] = (
            med(s.wall_s for s in traced) / med(s.wall_s for s in plain) - 1
        )
        metrics["host.calib_s"] = med(calib)
        names = PER_LAYER
    else:
        metrics = {
            "verify_s": med(s.wall_s for s in plain),
            "setup_s": med(setup),
            "cpu_s": med(s.cpu_s for s in plain),
            "peak_rss_mb": med(s.rss_mb for s in plain),
        }
        names = tuple(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics.get(m, 0), "unit": unit_of(m)[0]} for m in names},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "checks": checks_order(workload, seed),
        "fail_ratio": failed / attempted,
        "samples": {
            "verify_s": [s.wall_s for s in plain],
            "traced_verify_s": [s.wall_s for s in traced],
            "cpu_s": [s.cpu_s for s in plain],
            "peak_rss_mb": [s.rss_mb for s in plain],
            "setup_s": setup,
            "calib_s": calib,
        },
        "host": host_info(),
    }
    return result, detail


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        sample = invoke([sys.executable, "-m", "sscx.cli", *command(workload, 0)], sscx_env())
        if sample.code != 0:
            sys.exit(f"{name}: sscx exited with {sample.code}; golden not written")
        (GOLDEN / f"{name}.ndjson").write_bytes(sample.out)
        print(f"{name}: {len(sample.out.splitlines())} reports")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer (default: both)")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "sscx" / "cli.py").is_file():
        print(f"no sscx sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    for name in names:
        for trace in modes:
            result, detail = run_workload(name, args.seed, args.seconds, trace)
            print(json.dumps(detail), flush=True)
            results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        for name, result in results:
            print(json.dumps({"workload": name, **result}), flush=True)
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{m}": v for name, r in results
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
