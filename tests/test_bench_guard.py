"""What the benchmark under ``bench/`` uses of the package still works.

The benchmark's self-test (``python -m pytest bench/tests``) is outside
the tier-1 test paths, so a library change that breaks ``bench/run.py
--trace 1`` or a workload would pass the tier-1 suite unseen.  These
tests load ``bench/tracer.py`` and ``bench/workloads.py`` as the
benchmark does and check the names, calls and flags they rely on.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from quenchclock import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(name, _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    for mod, names in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{mod}.{name}"


def test_tracer_wraps_a_cli_run(monkeypatch, tmp_path):
    tracer = _load(monkeypatch, "tracer").Tracer()
    main = cli.main
    with tracer.installed():
        assert cli.main(["rates", "--threads", "1", "--out", str(tmp_path / "r.csv")]) == 0
    assert cli.main is main
    stats = tracer.layer_stats(tracer.take())
    for name in ("cli.main", "scan.run_scan", "scan.render_table"):
        assert stats[name].calls == 1, name


def test_point_pipeline_runs(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    points = workloads.draw_points(1, 4)
    assert len(points) == 4
    for pt in points:
        out = workloads.point_op(pt, 4096, 1e-3)
        assert workloads.check_point(pt, out) == set()


def test_cli_workloads_run_with_threads_flag(monkeypatch, tmp_path):
    # Every CLI run of the benchmark passes --threads 1.
    workloads = _load(monkeypatch, "workloads")
    for name in ("scan_grid", "clock_mc"):
        workload = workloads.CliWorkload(name, 1, True, tmp_path)
        assert all("--threads" in argv for _, _, argv, _ in workload.runs)
        result = workload.run_pass()
        assert result.ops > 0 and result.rows == result.ops
        assert not result.failures, (name, result.failures)
