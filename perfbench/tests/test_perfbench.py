"""Self-tests of the benchmark: span arithmetic, the golden diff, the seed and
tracing's byte-for-byte transparency.  The sscx runs use n = 3, which takes
well under a second."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = run.Workload(("verify-fiber", "--n", "3", "--t", "all"), run.FIBER_CHECKS, 1)
ENV = run.sscx_env()


def _seeds_with_distinct_orders(workload):
    first = run.checks_order(workload, 0)
    other = next(s for s in range(1, 100) if run.checks_order(workload, s) != first)
    return 0, other


def test_self_time_of_toy_span_tree():
    spans = [
        ("cli.run", 0.0, 10.0, -1, 0),
        ("fiber.structure_map", 1.0, 5.0, 0, 7),
        ("fiber.structure_map", 1.5, 2.5, 1, 3),  # recursive, like kind "d"
        ("exactlinalg.rank", 3.0, 4.0, 1, 11),
        ("exactlinalg.rank", 6.0, 8.0, 0, 2),
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 1.0, 1.0, 2.0]
    summary = tracer.summarize(spans)
    assert summary["fiber.structure_map"] == {"calls": 2, "s": 4.0, "self_s": 3.0, "count": 10}
    assert summary["exactlinalg.rank"] == {"calls": 2, "s": 3.0, "self_s": 3.0, "count": 13}
    data = {"spans": spans, "caches": {"fiber.fiber_E": {"hits": 3, "misses": 1}}}
    metrics = run.layer_metrics(data)
    assert metrics["exactlinalg.self_s"] == 3.0
    assert metrics["cli.self_s"] == 4.0
    assert metrics["exactlinalg.elim.nnz_per_s"] == 13 / 3.0
    assert metrics["fiber.fiber_E.hit_ratio"] == 0.75
    assert metrics["fiber.restricted_d.hit_ratio"] == 0.0


def test_planted_wrong_line_counts_as_failed():
    golden = (run.GOLDEN / "fiber-n5.ndjson").read_bytes()
    lines = golden.splitlines(keepends=True)
    assert run.failed_reports(golden, golden, 0) == 0
    planted = lines[:]
    planted[7] = planted[7].replace(b'"status":"pass"', b'"status":"fail"')
    assert run.failed_reports(golden, b"".join(planted), 0) == 1
    assert run.failed_reports(golden, b"".join(lines[:-2]), 0) == 2
    assert run.failed_reports(golden, golden.rstrip(b"\n"), 0) == 1
    assert run.failed_reports(golden, golden, 1) == len(lines)


def test_same_seed_same_checks_order():
    for workload in run.WORKLOADS.values():
        orders = {tuple(run.checks_order(workload, s)) for s in range(20)}
        assert run.checks_order(workload, 5) == run.checks_order(workload, 5)
        assert len(orders) > 1
        assert all(sorted(o) == sorted(workload.checks) for o in orders)


@pytest.mark.parametrize(
    "workload",
    [SMALL, run.Workload(("verify-weights", "--n", "6", "--k", "4"), run.WEIGHT_CHECKS, 1)],
)
def test_seeds_give_identical_ndjson(workload):
    a, b = (
        run.invoke([sys.executable, "-m", "sscx.cli", *run.command(workload, s)], ENV)
        for s in _seeds_with_distinct_orders(workload)
    )
    assert a.code == b.code == 0
    assert a.out and a.out == b.out


@pytest.mark.parametrize("jobs", [1, 2])
def test_tracing_changes_no_byte(tmp_path, jobs):
    args = run.command(run.Workload(SMALL.args, SMALL.checks, jobs), 0)
    plain = run.invoke([sys.executable, "-m", "sscx.cli", *args], ENV)
    spans = str(tmp_path / "spans")
    traced = run.invoke([sys.executable, str(run.BENCH / "tracer.py"), spans, *args], ENV)
    assert plain.code == traced.code == 0
    assert traced.out == plain.out
    data = tracer.load(spans)
    names = {span[0] for span in data["spans"]}
    if jobs == 1:
        assert {"cli.run", "exactlinalg.rank", "fiber.fiber_E", "exactlinalg.matmul"} <= names
        assert data["caches"]["fiber.fiber_E"]["misses"] > 0
    else:  # the checks run in forked workers, which record nothing
        assert names == {"cli.run"}
    metrics = run.layer_metrics(data)
    assert set(metrics) == set(run.PER_LAYER) - set(run.RUN_LEVEL)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, *run.unit_of(name)) for name in run.PER_LAYER
    ]
