"""Self-test of the benchmark: tiny runs of every workload and the tracer.

Run from the root of a source checkout::

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402
from quenchclock import rates, scan  # noqa: E402
from quenchclock.config import RunConfig, apply_overrides  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_results():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.01", "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_run_reports_the_declared_metrics(tiny_results):
    spec = _bench_json()
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            res = tiny_results[f"{name}/trace{trace}"]
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True
            assert res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == declared[trace], (name, trace)
            assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    for name in run.WORKLOADS:
        e2e = tiny_results[f"{name}/trace0"]["metrics"]
        assert all(v["value"] > 0 for v in e2e.values()), name


def test_flag_counts_sum_to_rows(tiny_results):
    for name in ("scan_grid", "clock_mc"):
        m = {k: v["value"] for k, v in tiny_results[f"{name}/trace1"]["metrics"].items()}
        flags = [m[f"scan.flag.{f}.rows"] for f in (*scan.FLAG_PRIORITY, "none")]
        assert m["scan.rows"] > 0
        assert sum(flags) == m["scan.rows"]


def test_each_operation_counts_once_per_run(tiny_results):
    # A traced run makes at least two passes over the same operations.
    for trace in (0, 1):
        res = tiny_results[f"point_pipeline/trace{trace}"]
        assert res["attempted"] == wl.TINY_POINTS
        assert 0 <= res["failed"] <= res["attempted"]
    scan_rows = tiny_results["scan_grid/trace1"]["metrics"]["scan.rows"]["value"]
    assert tiny_results["scan_grid/trace1"]["attempted"] == scan_rows


def test_calls_per_row_times_rows_is_calls(tiny_results):
    ops = {"scan_grid": None, "clock_mc": None, "point_pipeline": wl.TINY_POINTS}
    for name, points in ops.items():
        m = {k: v["value"] for k, v in tiny_results[f"{name}/trace1"]["metrics"].items()}
        rows = points if points is not None else m["scan.rows"]
        for layer in ("rates.transition_rates", "clock.solve_first_passage"):
            per_row = m[f"{layer}.calls_per_row"]
            assert per_row * rows == pytest.approx(m[f"{layer}.calls"], rel=1e-12)


def test_self_times_fit_in_traced_wall_time(tmp_path):
    for name in run.WORKLOADS:
        workload = wl.make(name, 3, True, tmp_path)
        tracer = tracer_mod.Tracer()
        with tracer.installed():
            start = time.perf_counter()
            workload.run_pass(tracer)
            wall = time.perf_counter() - start
        stats = tracer.layer_stats(tracer.take())
        assert sum(s.calls for s in stats.values()) > 0
        assert 0.0 < sum(s.self_s for s in stats.values()) <= wall
        assert all(s.self_s <= s.total_s + 1e-12 for s in stats.values())


def test_tracer_wraps_every_import_site_and_restores_them():
    original = rates.transition_rates
    assert scan.transition_rates is original
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        assert rates.transition_rates is not original
        assert scan.transition_rates is rates.transition_rates
        config = apply_overrides(RunConfig(), [
            "scan.axes=[{name: epsilon0, min: 2.2, max: 3.0, steps: 3}]"])
        scan.run_scan(config, "scan")
    assert rates.transition_rates is original
    assert scan.transition_rates is original
    stats = tracer.layer_stats(tracer.take())
    # scan rows reach the rates through scan, bias_condition and lifetime.
    assert stats["rates.transition_rates"].calls > stats["rates.bias_condition"].calls
    run_scan = stats["scan.run_scan"]
    assert run_scan.calls == 1 and run_scan.self_s < run_scan.total_s


def test_self_time_excludes_child_spans():
    tracer = tracer_mod.Tracer()
    outer = tracer.start_span("bench.outer")
    inner = tracer.start_span("bench.inner")
    tracer.end_span(inner)
    tracer.end_span(outer)
    stats = tracer.layer_stats(tracer.take())
    o, i = stats["bench.outer"], stats["bench.inner"]
    assert o.calls == i.calls == 1
    assert o.self_s == pytest.approx(o.total_s - i.total_s, abs=1e-12)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
