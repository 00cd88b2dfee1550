"""Grid scans over run configurations, with flat tabular results.

Each command expands the config's scan axes into a cartesian grid (last
axis fastest, matching C order), evaluates one row per grid point, and
collects them into a :class:`Table`.  Rows are immutable tuples in grid
order, and every cell is a plain float, int or string, so the CSV and
JSON writers are trivial and byte-reproducible.

A grid point that cannot be evaluated is not an error: the row keeps
``nan`` in the unavailable columns and carries exactly one flag naming
the innermost reason (priority order in :data:`FLAG_PRIORITY`).  A scan
whose rows are all flagged signals a domain problem to the CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .battery import check_pumping, check_rung, lifetime_report
from .clock import clock_metrics, ladder_rates, simulate_ticks, solve_first_passage
from .config import SWEEPABLE, AxisSpec, OutputConfig, RunConfig
from .errors import (
    ConfigError,
    DegenerateRoot,
    GaplessMode,
    NoResonance,
    NotReachable,
    PassiveState,
    QuenchClockError,
    VanHoveSingularity,
    ZeroRates,
)
from .oracle import discrete_rates
from .rates import bias_condition, transition_rates

# Knuth's 64-bit golden-ratio step decorrelates per-row seeds.
_SEED_STEP = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# Rates that differ by at most this share of their total differ by
# rounding alone (a few units in the last place), so they have no verdict.
_BALANCE_TOL = 4 * np.finfo(float).eps

# One flag per row, first applicable wins.
FLAG_PRIORITY = (
    "invalid",
    "gapless",
    "no_resonance",
    "van_hove",
    "zero_rates",
    "condition_undefined",
    "multi_root",
    "passive",
    "zero_down_rate",
    "not_reachable",
)


@dataclass(frozen=True)
class Table:
    """A finished scan: schema tag, column names and row tuples."""

    schema: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    @property
    def all_flagged(self) -> bool:
        if "flag" not in self.columns or not self.rows:
            return False
        idx = self.columns.index("flag")
        return all(row[idx] != "" for row in self.rows)


def row_seed(base: int, index: int) -> int:
    """Per-row Monte Carlo seed: decorrelated, deterministic, order-free."""
    return (base + (index + 1) * _SEED_STEP) & _MASK64


def _axis_values(axis: AxisSpec) -> list[float]:
    if axis.steps == 1:
        return [float(axis.min)]
    return [float(v) for v in np.linspace(axis.min, axis.max, axis.steps)]


def grid_points(config: RunConfig) -> list[dict[str, float | int]]:
    """All grid points in row order; a single empty point when no axes."""
    points: list[dict[str, float | int]] = [{}]
    for axis in config.scan:
        coerce = SWEEPABLE[axis.name][2]
        values = []
        for v in _axis_values(axis):
            if coerce is int:
                if abs(v - round(v)) > 1e-9:
                    raise ConfigError(
                        f"scan.axes: {axis.name!r} is integer-valued but the "
                        f"grid contains {v!r}")
                values.append(int(round(v)))
            else:
                values.append(v)
        points = [dict(p, **{axis.name: v}) for p in points for v in values]
    return points


_FLAG_OF_ERROR = (
    (GaplessMode, "gapless"),
    (NoResonance, "no_resonance"),
    (DegenerateRoot, "van_hove"),
    (VanHoveSingularity, "van_hove"),
    (ZeroRates, "zero_rates"),
    (PassiveState, "passive"),
    (NotReachable, "not_reachable"),
)


def _flag_of(exc: QuenchClockError) -> str:
    for cls, flag in _FLAG_OF_ERROR:
        if isinstance(exc, cls):
            return flag
    return "invalid"


def _pick_flag(flags: set[str]) -> str:
    for flag in FLAG_PRIORITY:
        if flag in flags:
            return flag
    return ""


def _evaluate(config: RunConfig, stages: frozenset[str], index: int,
              values: dict[str, float | int]) -> tuple[dict[str, Any], set[str]]:
    """Cells and flags of one grid point for the requested ``stages``.

    Steps run in pipeline order: rung check, probe rates, walk rates,
    first passage, then sampling and the battery report.  The probe rates
    and the first passage are computed once and shared by every stage
    that needs them.  A failing step flags the row and leaves the cells
    that depend on it unset; a stage whose own check fails (rung,
    pumping) drops out while the others go on.
    """
    cells: dict[str, Any] = {}
    flags: set[str] = set()
    live = set(stages)
    try:
        quench, coupling, ladder = config.point(values)
    except (ValueError, ConfigError):
        return cells, {"invalid"}
    if "lifetime" in live:
        try:
            check_rung(coupling, ladder)
        except ValueError:
            flags.add("invalid")
            live.discard("lifetime")
    if not live:
        return cells, flags
    try:
        rates = transition_rates(quench, coupling)
    except QuenchClockError as exc:
        flags.add(_flag_of(exc))
        return cells, flags
    if "rates" in live:
        live.discard("rates")
        cells.update(gamma_up=rates.gamma_up, gamma_down=rates.gamma_down,
                     chi_second=rates.chi_second,
                     verdict="active" if rates.is_active else "passive",
                     excluded_roots=rates.excluded_roots)
        cond = bias_condition(quench, coupling.epsilon0)
        if cond.multi_root:
            flags.add("multi_root")
        elif not cond.defined or abs(rates.chi_second) <= _BALANCE_TOL * rates.total:
            flags.add("condition_undefined")
        else:
            cells["condition_lhs"] = cond.lhs_per_root[0]
    if "lifetime" in live:
        try:
            check_pumping(rates)
        except PassiveState:
            flags.add("passive")
            live.discard("lifetime")
    if not live:
        return cells, flags
    try:
        lr = ladder_rates(rates, ladder)
    except QuenchClockError as exc:
        flags.add(_flag_of(exc))
        return cells, flags
    if "clock" in live:
        try:
            metrics = clock_metrics(lr, ladder.d)
        except ZeroRates:
            flags.add("zero_rates")
            return cells, flags
        cells.update(p_up=lr.p_up, p_down=lr.p_down, nu_tick=metrics.nu_tick,
                     accuracy_N=metrics.accuracy_N,
                     entropy_per_tick=metrics.entropy_per_tick,
                     relative_bias=metrics.relative_bias,
                     tur_ratio=metrics.tur_ratio)
        if lr.p_down == 0.0:
            flags.add("zero_down_rate")
    try:
        fp = solve_first_passage(lr, ladder)
    except QuenchClockError as exc:
        flags.add(_flag_of(exc))
        return cells, flags
    cells.update(exact_N=fp.exact_N, exact_rate=fp.exact_rate)
    if "mc" in live:
        # Sampling needs upward drift: against the bias the mean number of
        # jumps to the top grows exponentially with d, so passive points
        # keep nan and the flag says why.
        if lr.p_up > lr.p_down:
            stats = simulate_ticks(lr, ladder, config.mc.n_trajectories,
                                   row_seed(config.mc.seed, index))
            cells.update(empirical_accuracy=stats.empirical_accuracy,
                         empirical_rate=stats.empirical_rate)
        else:
            flags.add("passive")
    if "lifetime" in live:
        rep = lifetime_report(rates, coupling, ladder, fp)
        cells.update(available_energy=rep.available_energy,
                     tick_energy=rep.tick_energy, tick_budget=rep.tick_budget,
                     t_star=rep.lifetime, renewal_lifetime=rep.renewal_lifetime,
                     formula_ratio=rep.formula_ratio,
                     mean_tick_time=rep.mean_tick_time)
    return cells, flags


# Stages each command runs, and the value columns it writes.
_COMMANDS: dict[str, tuple[frozenset[str], tuple[str, ...]]] = {
    "rates": (frozenset({"rates"}),
              ("gamma_up", "gamma_down", "chi_second", "verdict",
               "condition_lhs", "excluded_roots")),
    "clock": (frozenset({"clock"}),
              ("p_up", "p_down", "nu_tick", "accuracy_N", "entropy_per_tick",
               "relative_bias", "tur_ratio", "exact_N", "exact_rate")),
    "lifetime": (frozenset({"lifetime"}),
                 ("available_energy", "tick_energy", "tick_budget", "t_star",
                  "renewal_lifetime", "formula_ratio", "mean_tick_time")),
    "scan": (frozenset({"rates", "clock", "lifetime"}),
             ("gamma_up", "gamma_down", "verdict", "condition_lhs",
              "chi_second", "nu_tick", "accuracy_N", "entropy_per_tick",
              "exact_N", "t_star")),
}
_MC_COLS = ("empirical_accuracy", "empirical_rate")
# Value of a cell its row could not compute; every other column gets nan.
_UNSET = {"verdict": "", "excluded_roots": 0}


def run_scan(config: RunConfig, command: str, threads: int = 1) -> Table:
    """Evaluate ``command`` over the config's grid, one row per point.

    Rows follow grid order, and every Monte Carlo row draws from a seed
    fixed by its grid index.  ``threads`` is accepted for compatibility;
    rows are evaluated in one thread, so it changes neither the result
    nor the speed.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown scan command {command!r}")
    stages, value_cols = _COMMANDS[command]
    if command == "clock" and config.mc.n_trajectories:
        stages = stages | {"mc"}
        value_cols = value_cols + _MC_COLS
    axis_names = tuple(a.name for a in config.scan)
    rows = []
    for index, values in enumerate(grid_points(config)):
        cells, flags = _evaluate(config, stages, index, values)
        rows.append(tuple(values[name] for name in axis_names)
                    + tuple(cells.get(name, _UNSET.get(name, math.nan))
                            for name in value_cols)
                    + (_pick_flag(flags),))
    return Table(schema=f"quenchclock.{command}.v1",
                 columns=axis_names + value_cols + ("flag",), rows=tuple(rows))


def oracle_table(config: RunConfig) -> Table:
    """Refinement table of the finite-size check at the config's point."""
    quench, coupling, _ = config.point({})
    report = discrete_rates(quench, coupling, L=config.oracle.L_oracle,
                            eta=config.oracle.eta, kernel=config.oracle.kernel)
    rows = tuple(
        (r.L, r.eta, r.gamma_up, r.gamma_down, r.rel_err_up, r.rel_err_down)
        for r in report.convergence_table)
    return Table(schema="quenchclock.oracle.v1",
                 columns=("L", "eta", "gamma_up", "gamma_down",
                          "rel_err_up", "rel_err_down"),
                 rows=rows)


def _format_cell(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), f".{precision}g")
    return str(value)


def write_csv(table: Table, precision: int) -> str:
    """Render a table as CSV with a versioned '#' header."""
    lines = [f"# schema: {table.schema}",
             "# columns: " + ",".join(table.columns),
             ",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_cell(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def _json_cell(value: Any) -> Any:
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def write_json(table: Table) -> str:
    """Render a table as JSON; non-finite numbers become null."""
    doc = {"schema": table.schema, "columns": list(table.columns),
           "rows": [[_json_cell(v) for v in row] for row in table.rows]}
    return json.dumps(doc, indent=2) + "\n"


def render_table(table: Table, output: OutputConfig) -> str:
    if output.format == "json":
        return write_json(table)
    return write_csv(table, output.precision)
