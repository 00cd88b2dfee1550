"""Benchmark of the quenchclock pipeline: end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 bench/run.py --workload scan_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times passes of the workload with nothing wrapped and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see ``bench/README.md``).
Either way the outputs are checked, a readable report goes to stdout, and
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``attempted`` counts the operations (output rows, or points) of one
pass, which every pass repeats; ``failed`` counts those that failed an
output check or raised in any pass.
``correct`` is the run-level verdict: when traced, call counts repeated
exactly across traced passes and self times fit in the traced wall time.
``--workload all`` runs every workload, untraced then traced, each in its
own process.  ``--tiny`` shrinks every workload to a few seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# One BLAS thread: the workloads are single-threaded, and spare threads
# would only contend for the machine's few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from reference import RUNS_PER_REF_S, Reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("scan_grid", "clock_mc", "point_pipeline")
SETUP_REPEATS = 5

END_TO_END = {"rows_per_ref_s": "rows/ref_s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Fresh interpreter -> quenchclock.cli imported and the workload's config
# documents parsed.  Prints the monotonic clock, which is system-wide on
# Linux, so interpreter teardown stays out of the measurement.
_SETUP_PROBE = """\
import sys, time, json
sys.path.insert(0, sys.argv[1])
import quenchclock.cli
from quenchclock.config import RunConfig, apply_overrides
for overrides in json.loads(sys.argv[2]):
    apply_overrides(RunConfig(), overrides)
print(time.monotonic())
"""


def per_layer_units(traced: dict[str, tuple[str, ...]],
                    flags: tuple[str, ...]) -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in (f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["rates.transition_rates.calls_per_row"] = "calls/row"
    units["clock.solve_first_passage.calls_per_row"] = "calls/row"
    units["clock.simulate_ticks.traj_per_s"] = "traj/s"
    units["oracle.modes_per_s"] = "modes/s"
    units["scan.rows"] = "count"
    for flag in (*flags, "none"):
        units[f"scan.flag.{flag}.rows"] = "count"
    units["scan.active_frac"] = "fraction"
    units["point.active_frac"] = "fraction"
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to run in seconds")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def measure_setup(overrides: list[list[str]], repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its config parsed."""
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(SRC), json.dumps(overrides)]
    times = []
    for i in range(repeats + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        if i:  # the first spawn may also write bytecode caches
            times.append(float(done.stdout.split()[-1]) - start)
    return times


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def timed_run(workload, args, setup_overrides):
    """End-to-end metrics from untraced passes; returns
    ``(metrics, checks, report lines, passes)``."""
    setup = measure_setup(setup_overrides, 1 if args.tiny else SETUP_REPEATS)
    reference = Reference()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(workload.run_pass(reference=reference))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = passes[0].ops
    wall_s = sum(p.wall_s for p in passes)
    rate = len(passes) * ops / wall_s
    ref_s = reference.second()
    metrics = {"rows_per_ref_s": rate * ref_s,
               "setup_s": _median(setup),
               "peak_rss_mb": rss_mb}
    n = len(passes)
    report = [
        f"rows_per_ref_s  {metrics['rows_per_ref_s']:.6g} rows/ref_s  ({n} passes of "
        f"{ops} rows or points in {wall_s:.6g} s; reference second {ref_s:.6g} s, "
        f"mean of {len(reference.times)} kernel runs x {RUNS_PER_REF_S})",
        f"rows_per_s      {rate:.6g} rows/s  (the same passes in wall seconds; "
        f"median pass {_median([p.ops / p.wall_s for p in passes]):.6g} rows/s)",
        f"setup_s         {metrics['setup_s']:.6g} s  (median of {len(setup)} "
        f"fresh interpreters: {', '.join(f'{s:.3f}' for s in setup)})",
        f"peak_rss_mb     {rss_mb:.6g} MiB  (this process, this workload only)",
    ]
    if passes[0].trajectories:
        traj = passes[0].trajectories * rate / ops
        report.append(f"mc_traj_per_s   {traj:.6g} trajectories/s  ("
                      f"{traj * ref_s:.6g} per reference second; "
                      f"{passes[0].trajectories} trajectories, timed as rows_per_s)")
    if args.workload == "point_pipeline":
        lat_ms = [x * 1e3 for p in passes for x in p.unit_s.values()]
        p50, p99 = np.percentile(lat_ms, [50, 99])
        report += [
            f"point_p50_ms    {p50:.6g} ms  (n={len(lat_ms)})",
            f"point_p99_ms    {p99:.6g} ms  (n={len(lat_ms)}, "
            f"{sum(x > p99 for x in lat_ms)} beyond)",
        ]
    return metrics, {}, report, passes


def traced_run(workload, args, tracer_mod):
    """Per-layer metrics from alternating untraced and traced passes;
    returns ``(metrics, checks, report lines, passes)``."""
    from quenchclock.scan import FLAG_PRIORITY

    tracer = tracer_mod.Tracer()
    is_point = args.workload == "point_pipeline"
    untraced, traced, stats, walls = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(workload.run_pass())
        with tracer.installed():
            t0 = time.perf_counter()
            traced.append(workload.run_pass(tracer))
            walls.append(time.perf_counter() - t0)
        stats.append(tracer.layer_stats(tracer.take()))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)

    first, calls = traced[0], {k: v.calls for k, v in stats[0].items()}
    checks = {
        "call counts repeat across traced passes":
            all({k: v.calls for k, v in s.items()} == calls for s in stats),
        "summed self times fit in the traced wall time":
            all(sum(v.self_s for v in s.values()) <= w for s, w in zip(stats, walls)),
    }
    m: dict[str, float] = {}
    for layer in (f"{mod}.{fn}" for mod, fns in tracer_mod.TRACED.items() for fn in fns):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = _median([s[layer].self_s for s in stats])
    m["rates.transition_rates.calls_per_row"] = _ratio(
        calls["rates.transition_rates"], first.ops)
    m["clock.solve_first_passage.calls_per_row"] = _ratio(
        calls["clock.solve_first_passage"], first.ops)
    m["clock.simulate_ticks.traj_per_s"] = _median([
        _ratio(p.trajectories, s["clock.simulate_ticks"].total_s)
        for p, s in zip(traced, stats)])
    m["oracle.modes_per_s"] = _median([
        _ratio(p.oracle_modes, s["oracle.discrete_rates"].self_s)
        for p, s in zip(traced, stats)])
    m["scan.rows"] = first.rows
    for flag in (*FLAG_PRIORITY, "none"):
        m[f"scan.flag.{flag}.rows"] = first.flags.get(flag, 0)
    m["scan.active_frac"] = _ratio(first.active, first.rows)
    m["point.active_frac"] = _ratio(first.active, first.ops) if is_point else 0.0
    m["trace.wall_s"] = _median(walls)
    m["trace.overhead_frac"] = (_median([p.wall_s for p in traced])
                                / _median([p.wall_s for p in untraced]) - 1.0)

    units = per_layer_units(tracer_mod.TRACED, FLAG_PRIORITY)
    report = [f"{name:<44} {value:.6g} {units[name]}" for name, value in m.items()]
    report.append(f"{len(untraced)} untraced and {len(traced)} traced passes; "
                  f"spans written to {spans_path}")
    return m, checks, report, untraced + traced


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import quenchclock
    if Path(quenchclock.__file__).resolve().parent != SRC / "quenchclock":
        print(f"quenchclock imported from {quenchclock.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads as wl

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = wl.make(args.workload, args.seed, args.tiny, out_dir)
        if args.trace:
            metrics, checks, report, passes = traced_run(workload, args, tracer_mod)
            units = per_layer_units(tracer_mod.TRACED, wl.FLAG_PRIORITY)
        else:
            metrics, checks, report, passes = timed_run(
                workload, args, wl.setup_overrides(args.workload, args.seed, args.tiny))
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # Every pass redoes the same operations: count each one once, failed
    # if any pass failed it, so the counts depend on the seed alone.
    attempted = passes[0].ops
    failures: dict[object, set[str]] = {}
    for p in passes:
        for op, names in p.failures.items():
            failures.setdefault(op, set()).update(names)
    failed = len(failures)
    causes = Counter(name for names in failures.values() for name in names)
    print(f"quenchclock bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} tiny={int(args.tiny)}")
    for line in report:
        print("  " + line)
    print(f"  failed_frac     {_ratio(failed, attempted):.6g} fraction  "
          f"({failed} of {attempted} operations, each run {len(passes)} times)")
    for cause, n in sorted(causes.items()):
        print(f"    failed check {cause}: {n}")
    for name, ok in checks.items():
        print(f"  run check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, one process each."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            results[f"{name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "quenchclock" / "__init__.py").is_file():
        print(f"no quenchclock sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
