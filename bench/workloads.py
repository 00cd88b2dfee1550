"""The three benchmark workloads, their inputs and their output checks.

* ``scan_grid``: CLI ``scan`` runs, one per ``epsilon0``, over an Ising
  grid of 4800 rows and an ``xx_ring`` grid of 3200 rows, no Monte
  Carlo.  The scalar row path and the scan loop do the work; flagged
  rows take the exception path and evaluable rows the whole pipeline.
* ``clock_mc``: ten one-row CLI ``clock`` runs per pass, 10 active rows
  with 20000 trajectories each.  The tick sampler does nearly all the
  work.
* ``point_pipeline``: one caller walks 1000 random admissible points
  (half chain, half ring) through the library one scalar call at a time,
  including the mode-sum oracle and the master equation.

Every CLI run is the in-process ``cli.main`` with ``--threads 1``, so
parse, scan, render and write are all timed.  The workload seed picks the
Monte Carlo seed and the random points; the program only ever sees the
generated configs and points.

Checks reuse the acceptance invariants.  An operation is one output row
(CLI workloads) or one point (``point_pipeline``).  Every pass redoes the
same operations, so a failure is recorded under the operation's id with
the names of its failed checks, and a run counts each operation once.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quenchclock import battery, clock, cli, oracle, rates, spectra
from quenchclock.config import RunConfig, apply_overrides
from quenchclock.errors import PassiveState, QuenchClockError
from quenchclock.scan import FLAG_PRIORITY

MC_TRAJECTORIES = 20000
POINTS_PER_PASS = 1000
TINY_POINTS = 24
# Points between two reference kernel runs (see reference.py).
REFERENCE_EVERY = 100
ORACLE_SETTINGS = ["oracle.L_oracle=4096", "oracle.eta=0.001"]
# Full round-trip precision, so the checks see the exact floats.
PRECISION = "output.precision=17"


def _axes(*axes: tuple[str, float, float, int]) -> str:
    body = ", ".join(f"{{name: {n}, min: {lo}, max: {hi}, steps: {s}}}"
                     for n, lo, hi, s in axes)
    return f"scan.axes=[{body}]"


def cli_runs(name: str, seed: int, tiny: bool) -> list[tuple[str, str, list[str]]]:
    """``(label, command, overrides)`` of each CLI run in one pass."""
    # The reference kernel (reference.py) is timed before each CLI run, so
    # the grids are cut into one run per epsilon0 and the clock rows into
    # one run per row: host speed is then sampled every second or less.
    if name == "scan_grid":
        n = (3, 4, 2, 3, 3) if tiny else (30, 40, 4, 40, 40)
        chain = [(f"chain-e{e}", "scan", [PRECISION, _axes(
            ("h_i", 0.05, 0.95, n[0]), ("h_f", 0.1, 2.5, n[1]), ("epsilon0", e, e, 1))])
            for e in map(float, np.linspace(1.5, 3.5, n[2]))]
        ring = [(f"ring-e{e}", "scan", [PRECISION, "model.kind=xx_ring", _axes(
            ("v_i", -1.5, 1.5, n[3]), ("v_f", -1.5, 1.5, n[4]), ("epsilon0", e, e, 1))])
            for e in map(float, np.linspace(2.0, 3.2, 2))]
        return chain + ring
    if name == "clock_mc":
        # Tiny mode keeps the full sample size, so the 5% accuracy check
        # stays as strict, and drops to two shallow rows.
        ds = (10,) if tiny else (10, 20)
        eps = (2.2, 3.0) if tiny else (2.2, 2.4, 2.6, 2.8, 3.0)
        return [(f"mc-d{d}-e{e}", "clock", [
            PRECISION, f"mc.n_trajectories={MC_TRAJECTORIES}", f"mc.seed={seed}",
            _axes(("d", d, d, 1), ("epsilon0", e, e, 1))])
            for d in ds for e in eps]
    return []


def setup_overrides(name: str, seed: int, tiny: bool) -> list[list[str]]:
    """The config documents a run of ``name`` parses before its first pass."""
    if name == "point_pipeline":
        return [ORACLE_SETTINGS]
    return [ov for _, _, ov in cli_runs(name, seed, tiny)]


@dataclass
class PassResult:
    # Wall seconds of each timed unit: one CLI run, or one point.
    unit_s: dict[object, float] = field(default_factory=dict)
    ops: int = 0
    # Operation id -> names of the checks it failed.
    failures: dict[object, set[str]] = field(default_factory=dict)
    rows: int = 0
    flags: Counter = field(default_factory=Counter)
    active: int = 0
    trajectories: int = 0
    oracle_modes: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.unit_s.values())


# ----------------------------------------------------------------- CLI runs

def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    table = list(csv.reader(lines))
    return table[0], table[1:]


def _check_rows(label: str, columns: list[str], rows: list[list[str]],
                mc: bool, result: PassResult) -> None:
    """Check every row and tally it into ``result``."""
    idx = {c: i for i, c in enumerate(columns)}
    text_cols = {"verdict", "flag"}
    for n, raw in enumerate(rows):
        causes = set()
        try:
            cell = {c: (raw[i] if c in text_cols else float(raw[i]))
                    for c, i in idx.items()}
        except (ValueError, IndexError):
            result.failures[(label, n)] = {"unparsable_row"}
            continue
        flag = cell["flag"]
        result.flags[flag or "none"] += 1
        if flag and flag not in FLAG_PRIORITY:
            causes.add("unknown_flag")
        numeric = [v for c, v in cell.items() if c not in text_cols]
        if not flag and not all(math.isfinite(v) for v in numeric):
            causes.add("nonfinite_unflagged")
        if mc:
            result.active += cell["p_up"] > cell["p_down"]
            if math.isfinite(cell["empirical_accuracy"]):
                result.trajectories += MC_TRAJECTORIES
            exact = cell["exact_N"]
            if not abs(cell["empirical_accuracy"] - exact) < 0.05 * exact:
                causes.add("mc_accuracy")
        else:
            active = cell["verdict"] == "active"
            result.active += active
            if not flag:
                up, down, chi = cell["gamma_up"], cell["gamma_down"], cell["chi_second"]
                diff = up - down
                if not abs(diff + chi) <= 1e-15 * max(abs(diff), up + down):
                    causes.add("identity_chi")
                if active != (cell["condition_lhs"] < 0.0):
                    causes.add("condition_sign")
            if active and math.isfinite(cell["t_star"]) and not cell["t_star"] > 0.0:
                causes.add("t_star_nonpositive")
        if causes:
            result.failures[(label, n)] = causes
    result.rows += len(rows)


class CliWorkload:
    """Passes of in-process CLI runs writing CSV files under ``out_dir``.

    The first pass's output of each run is checked row by row.  A later
    pass whose bytes equal it has the same rows and the same failures; one
    whose bytes differ is checked in full, and each row that differs from
    the first pass also fails (output bytes must repeat, criterion 7).
    """

    def __init__(self, name: str, seed: int, tiny: bool, out_dir: Path):
        self.mc = name == "clock_mc"
        self.runs = []
        for label, command, overrides in cli_runs(name, seed, tiny):
            path = out_dir / f"{label}.csv"
            argv = [command, "--threads", "1", "--out", str(path)]
            for ov in overrides:
                argv += ["--set", ov]
            config = apply_overrides(RunConfig(), overrides)
            self.runs.append((label, path, argv,
                              math.prod(a.steps for a in config.scan)))
        self._first: dict[Path, tuple[bytes, list[list[str]], PassResult]] = {}

    def run_pass(self, tracer=None, reference=None) -> PassResult:
        # Traced passes need no span of their own: cli.main is the root.
        codes = []
        result = PassResult()
        for label, path, argv, _ in self.runs:
            if reference is not None:
                reference.sample()
            path.unlink(missing_ok=True)
            start = time.perf_counter()
            codes.append(cli.main(argv))
            result.unit_s[label] = time.perf_counter() - start
        for (label, path, _, expected), code in zip(self.runs, codes):
            part = self._check_run(label, path, code, expected)
            for name in ("ops", "rows", "active", "trajectories"):
                setattr(result, name, getattr(result, name) + getattr(part, name))
            result.failures.update(part.failures)
            result.flags.update(part.flags)
        return result

    def _check_run(self, label: str, path: Path, code: int,
                   expected: int) -> PassResult:
        blob = path.read_bytes() if path.exists() else b""
        first = self._first.get(path)
        if first is not None and blob == first[0]:
            return first[2]
        part = PassResult(ops=expected)
        # Exit code 3 means a table written with every row flagged.
        if code not in (0, 3) or not blob:
            part.failures = {(label, n): {f"exit_{code}"} for n in range(expected)}
            return part
        columns, rows = _read_table(path)
        _check_rows(label, columns, rows, self.mc, part)
        if (code == 3) != (bool(rows) and "none" not in part.flags):
            for n in range(len(rows)):
                part.failures.setdefault((label, n), set()).add(f"exit_{code}")
        if first is None:
            self._first[path] = (blob, rows, part)
        else:
            for n, (a, b) in enumerate(zip(rows, first[1])):
                if a != b:
                    part.failures.setdefault((label, n), set()).add("bytes_differ")
        for n in range(len(rows), expected):
            part.failures[(label, n)] = {"rows_missing"}
        part.ops = max(expected, len(rows))
        return part


# ----------------------------------------------------------- point pipeline

@dataclass(frozen=True)
class Point:
    quench: spectra.QuenchSpec
    coupling: rates.QubitCoupling
    ladder: clock.LadderSpec


def _admissible(quench, rng) -> rates.QubitCoupling | None:
    lo, hi = spectra.band_edges(quench.final, reduced=True)
    width = 2.0 * (hi - lo)
    eps0 = rng.uniform(2.0 * lo + 0.08 * width, 2.0 * hi - 0.08 * width)
    coup = rates.QubitCoupling(epsilon0=eps0, g_obs=0.1, L=512)
    try:
        r = rates.transition_rates(quench, coup)
    except QuenchClockError:
        return None
    if max(c.weight for c in r.roots) > 10.0:
        return None  # too close to a band extremum for a fair quadrature
    return coup


def draw_points(seed: int, count: int) -> list[Point]:
    """Random admissible points, drawn as the acceptance tests draw them.

    Even indices are transverse-field chain quenches, odd ones ring
    quenches; each gets a ladder of depth ``d`` in [2, 40] and ``g = 0.01``.
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        while True:
            if i % 2 == 0:
                quench = spectra.QuenchSpec.ising(
                    h_i=rng.uniform(0.05, 0.95), h_f=rng.uniform(1.05, 2.2),
                    kappa=rng.uniform(0.6, 1.4))
            else:
                sign = -1.0 if rng.random() < 0.5 else 1.0
                quench = spectra.QuenchSpec.xx_ring(
                    V_i=sign * rng.uniform(0.3, 1.4), V_f=rng.uniform(0.3, 1.4), t=1.0)
            coup = _admissible(quench, rng)
            if coup is not None:
                break
        d = int(rng.integers(2, 41))
        points.append(Point(quench, coup, clock.LadderSpec(
            d=d, epsilon_w=coup.epsilon0, g=0.01)))
    return points


@dataclass
class PointOutcome:
    rates: object
    condition: object
    ladder_rates: object
    metrics: object
    first_passage: object
    lifetime: object  # None where PassiveState was raised
    oracle: object
    master: object  # None at passive points


def point_op(pt: Point, L: int, eta: float) -> PointOutcome:
    """One pipeline operation, every call through the library's modules."""
    r = rates.transition_rates(pt.quench, pt.coupling)
    cond = rates.bias_condition(pt.quench, pt.coupling.epsilon0)
    lr = clock.ladder_rates(r, pt.ladder)
    metrics = clock.clock_metrics(lr, pt.ladder.d)
    fp = clock.solve_first_passage(lr, pt.ladder)
    try:
        life = battery.lifetime(pt.quench, pt.coupling, pt.ladder)
    except PassiveState:
        life = None
    report = oracle.discrete_rates(pt.quench, pt.coupling, L=L, eta=eta)
    master = None
    if lr.p_up > lr.p_down:
        master = clock.evolve_master(lr, pt.ladder, t_max=12.0 / fp.exact_rate,
                                     n_records=51)
    return PointOutcome(r, cond, lr, metrics, fp, life, report, master)


def check_point(pt: Point, out: PointOutcome) -> set[str]:
    """Criterion 1, 2 and 4 invariants of one point; returns failed causes."""
    causes = set()
    r, lr, m = out.rates, out.ladder_rates, out.metrics
    diff = r.gamma_up - r.gamma_down
    if not abs(diff + r.chi_second) <= 1e-15 * max(abs(diff), r.total):
        causes.add("identity_chi")
    expected = 2.0 * pt.ladder.g ** 2 / r.total
    if not abs(lr.total - expected) <= 1e-15 * expected:
        causes.add("identity_ladder_total")
    target = pt.ladder.d * math.tanh(m.entropy_per_tick / (2.0 * pt.ladder.d))
    if not abs(m.accuracy_N - target) <= 1e-12 * max(1.0, abs(target)):
        causes.add("identity_accuracy")
    if not (out.first_passage.mean_tick_time > 0.0
            and out.first_passage.var_tick_time > 0.0):
        causes.add("first_passage_nonpositive")
    if (out.lifetime is None) != (r.chi_second >= 0.0):
        causes.add("lifetime_verdict")
    elif out.lifetime is not None and not out.lifetime.lifetime > 0.0:
        causes.add("t_star_nonpositive")
    if not out.oracle.relative_error_vs_closed_form < 0.02:
        causes.add("oracle_error")
    errs = [max(row.rel_err_up, row.rel_err_down)
            for row in out.oracle.convergence_table]
    if not all(a > b for a, b in zip(errs, errs[1:])):
        causes.add("oracle_not_monotone")
    if out.master is not None:
        rate = out.first_passage.exact_rate
        if not abs(out.master.tick_rate[-1] - rate) < 0.01 * rate:
            causes.add("master_flux")
    return causes


class PointWorkload:
    """A closed loop with one caller over a fixed draw of points."""

    def __init__(self, seed: int, tiny: bool):
        config = apply_overrides(RunConfig(), ORACLE_SETTINGS)
        self.L = config.oracle.L_oracle
        self.eta = config.oracle.eta
        self.points = draw_points(seed, TINY_POINTS if tiny else POINTS_PER_PASS)

    def run_pass(self, tracer=None, reference=None) -> PassResult:
        result = PassResult()
        clock_ = time.perf_counter
        for n, pt in enumerate(self.points):
            if reference is not None and n % REFERENCE_EVERY == 0:
                reference.sample()
            span = tracer.start_span("bench.point") if tracer else None
            start = clock_()
            try:
                out = point_op(pt, self.L, self.eta)
            except Exception as exc:  # counted as a failed operation
                out = None
                causes = {f"raised_{type(exc).__name__}"}
            elapsed = clock_() - start
            if span is not None:
                tracer.end_span(span)
            result.unit_s[n] = elapsed
            if out is not None:
                causes = check_point(pt, out)
                result.active += out.rates.is_active
                result.oracle_modes += sum((row.L + 2) // 4
                                           for row in out.oracle.convergence_table)
            if causes:
                result.failures[n] = causes
        result.ops = len(self.points)
        return result


def make(name: str, seed: int, tiny: bool, out_dir: Path):
    if name == "point_pipeline":
        return PointWorkload(seed, tiny)
    return CliWorkload(name, seed, tiny, out_dir)
