"""Grid scans over run configurations, with flat tabular results.

Each command expands the config's scan axes into a cartesian grid (last
axis fastest, matching C order) and evaluates it as columns: one array
per parameter over all rows, and one pass per pipeline layer (row
validation; resonance roots and their guards, and the rates;
the inversion condition; walk rates and clock metrics; first passage;
Monte Carlo; lifetime).  Each pass runs the array twin of a public
scalar function, so a row gets the values the scalar pipeline gives its
point; every scan checks this on its first row that has rates, against
the scalar :func:`~quenchclock.rates.transition_rates`.  A finished
:class:`Table` keeps those arrays as its typed columns (float64, int64,
or an object array of str), rows in grid order, and the CSV and JSON
writers format each column by its dtype, byte-reproducibly.  Its schema
tag ``quenchclock.<command>.v<n>`` counts the changes to the command's
columns: ``lifetime`` is at v2 (``t_star``, ``mean_tick_time``), every
other command at v1.

A grid point that cannot be evaluated is not an error: the row keeps
``nan`` in the unavailable columns and carries exactly one flag naming
the innermost reason (priority order in :data:`FLAG_PRIORITY`).  A scan
whose rows are all flagged signals a domain problem to the CLI.  Monte
Carlo samples every row the first passage leaves live, whatever its
drift; ``passive`` flags only a chain that does not pump (lifetime).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import _gformat
from .battery import lifetime_report_array
from .clock import (
    LadderRates,
    clock_metrics_array,
    first_passage_array,
    ladder_rates_array,
    simulate_ticks,
)
from .config import SWEEPABLE, AxisSpec, OutputConfig, PointArrays, RunConfig
from .errors import (
    ConfigError,
    DegenerateRoot,
    GaplessMode,
    NoResonance,
    NotReachable,
    QuenchClockError,
    Raises,
    ZeroRates,
)
from .oracle import discrete_rates
from .rates import RateArrays, bias_condition_array, transition_rates, transition_rates_array

# Knuth's 64-bit golden-ratio step decorrelates per-row seeds.
_SEED_STEP = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
# Most values an axis, or the grid, may hold: half as many as the
# float64 values whose bytes an i64 counts.  numpy reserves some bytes of
# that count, so np.linspace raises ValueError, not MemoryError, from
# 2**60 - 64 values on.
_MAX_VALUES = np.iinfo(np.intp).max // 16
# Rates that differ by at most this share of their total differ by
# rounding alone (a few units in the last place), so they have no verdict.
_BALANCE_TOL = 4 * np.finfo(float).eps
# Largest difference between the rates of the array and scalar twins, as
# a share of the total rate, that rounding can explain.
_TWIN_RTOL = 1e-12

# The dtypes a table column may have.
_COLUMN_DTYPES = (np.dtype(np.float64), np.dtype(np.int64), np.dtype(object))

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


@dataclass(frozen=True, eq=False)
class Table:
    """A finished scan: schema tag, column names, and one 1-D array per
    column, all of one length: float64, int64, or an object array of str."""

    schema: str
    columns: tuple[str, ...]
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.values) != len(self.columns) or len({v.shape for v in self.values}) > 1:
            raise ValueError("a table needs one array per column, all of one length")
        for name, v in zip(self.columns, self.values):
            if v.ndim != 1 or v.dtype not in _COLUMN_DTYPES:
                raise ValueError(f"column {name!r} is a {v.ndim}-D {v.dtype} array, "
                                 "not a 1-D float64, int64 or object one")

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """The cells as row tuples of Python floats, ints and strings."""
        return tuple(zip(*(v.tolist() for v in self.values)))

    @property
    def all_flagged(self) -> bool:
        if "flag" not in self.columns:
            return False
        flag = self.values[self.columns.index("flag")]
        return flag.size > 0 and bool((flag != "").all())


def row_seed(base: int, index: int) -> int:
    """Per-row Monte Carlo seed: decorrelated, deterministic, order-free."""
    return (base + (index + 1) * _SEED_STEP) & _MASK64


def _axis_values(axis: AxisSpec) -> np.ndarray:
    """The axis's grid values; integers for an integer parameter."""
    if axis.steps == 1:
        values = np.array([float(axis.min)])
    else:
        values = np.linspace(axis.min, axis.max, axis.steps)
    if SWEEPABLE[axis.name][1] is not int:
        return values
    rounded = np.round(values)
    off = np.abs(values - rounded) > 1e-9
    if off.any():
        raise ConfigError(
            f"scan.axes: {axis.name!r} is integer-valued but the grid contains "
            f"{float(values[off][0])!r}")
    return rounded.astype(np.int64)


def size_error(what: str, n: int) -> ConfigError:
    """The config error of ``what``, ``n`` values that do not fit in
    memory, for the caller to raise on a ``MemoryError``; raised at once
    beyond :data:`_MAX_VALUES`, where numpy does not even try."""
    error = ConfigError(f"{what} does not fit in memory")
    if n > _MAX_VALUES:
        raise error
    return error


def sample_error(n: int, d: int, too_many: ConfigError) -> ConfigError:
    """The config error to raise when a Monte Carlo sample of ``n`` tick
    times on a ladder of ``d`` levels runs out of memory: ``too_many``, the
    :func:`size_error` of ``n``, unless the passage spectrum, about ten
    float arrays of ``d`` rates, is the larger of the two."""
    if 10 * d <= n:
        return too_many
    return size_error(f"ladder.d: a passage spectrum of {d} levels", d)


def _grid_axes(config: RunConfig) -> tuple[int, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Row count, and for each swept parameter its axis values and the
    index into them of every row (row order, last axis fastest).

    A parameter swept by two axes takes the later axis's value.
    """
    for axis in config.scan:
        if axis.steps > _MAX_VALUES:
            raise ConfigError(
                f"scan.axes: {axis.name!r} has {axis.steps} steps, more than "
                f"{_MAX_VALUES}, half the float64 values an i64 byte count holds")
    shape = tuple(axis.steps for axis in config.scan)
    n = math.prod(shape)
    too_large = size_error(f"scan.axes: a grid of {n} rows", n)
    try:
        values = [_axis_values(axis) for axis in config.scan]
        index = np.unravel_index(np.arange(n), shape) if values else ()
    except MemoryError:
        raise too_large from None
    return n, {axis.name: (v, i) for axis, v, i in zip(config.scan, values, index)}


def grid_points(config: RunConfig) -> list[dict[str, float | int]]:
    """All grid points in row order; a single empty point when no axes."""
    _, axes = _grid_axes(config)
    columns = {name: values[index].tolist() for name, (values, index) in axes.items()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())] or [{}]


_FLAG_OF_ERROR = (
    (GaplessMode, "gapless"),
    (NoResonance, "no_resonance"),
    (DegenerateRoot, "van_hove"),
    (ZeroRates, "zero_rates"),
    (NotReachable, "not_reachable"),
)


def _flag_of(error: type[Exception]) -> str:
    for cls, flag in _FLAG_OF_ERROR:
        if issubclass(error, cls):
            return flag
    return "invalid"


class _Rows:
    """Cells and flags of every grid row, filled one layer at a time.

    ``live`` marks the rows still being evaluated: the first error of a
    row flags it and takes it out of the later layers.
    """

    def __init__(self, n: int):
        self.n = n
        self.live = np.ones(n, dtype=bool)
        self.flags = {flag: np.zeros(n, dtype=bool) for flag in FLAG_PRIORITY}
        self.cells: dict[str, np.ndarray] = {}

    def fail(self, raises: Raises) -> None:
        for error, rows in raises:
            hit = self.live & rows
            self.flags[_flag_of(error)] |= hit
            self.live &= ~hit

    def put(self, rows: np.ndarray, **values: Any) -> None:
        """Set the cells of ``rows``; the other rows keep their unset value."""
        for name, value in values.items():
            self.column(name)[rows] = np.broadcast_to(value, (self.n,))[rows]

    def column(self, name: str) -> np.ndarray:
        if name not in self.cells:
            unset = _UNSET.get(name, math.nan)
            self.cells[name] = np.full(
                self.n, unset, dtype=object if isinstance(unset, str) else type(unset))
        return self.cells[name]

    def flag_column(self) -> np.ndarray:
        picked = np.full(self.n, "", dtype=object)
        for flag in reversed(FLAG_PRIORITY):
            picked[self.flags[flag]] = flag
        return picked


def _check_rates_twin(pt: PointArrays, rates: RateArrays, rows: np.ndarray) -> None:
    """Recompute the rates of the first of ``rows`` with the scalar
    :func:`transition_rates` and stop the scan if they differ.

    The array twins share each formula with the scalar functions, so the
    two agree to the last bits; a difference beyond rounding means the
    twins have drifted apart, and the table would be wrong.
    """
    first = np.flatnonzero(rows)[:1].tolist()
    if not first:
        return
    i = first[0]
    quench, coupling, _ = pt.point(i)
    up, down = float(rates.gamma_up[i]), float(rates.gamma_down[i])
    try:
        ref = transition_rates(quench, coupling)
    except QuenchClockError as exc:
        raise RuntimeError(f"scan row {i}: the rates twins disagree: {exc}") from exc
    tol = _TWIN_RTOL * (ref.gamma_up + ref.gamma_down)

    def agree(x, y):
        # Overflowed rates are inf or nan in both twins.
        return x == y or abs(x - y) <= tol or (math.isnan(x) and math.isnan(y))

    if not (agree(up, ref.gamma_up) and agree(down, ref.gamma_down)):
        raise RuntimeError(
            f"scan row {i}: the rates twins disagree: ({up!r}, {down!r}) against "
            f"({ref.gamma_up!r}, {ref.gamma_down!r})")


def _evaluate_layers(config: RunConfig, stages: frozenset[str], pt: PointArrays,
                     out: _Rows) -> None:
    """Run the pipeline layers for the requested ``stages`` over all rows.

    Each layer runs once over the whole grid.  The probe rates and the
    first passage are shared by every stage that needs them.  A row
    whose scalar twin would raise gets that error's flag and leaves the
    later layers; a stage whose own check fails (pumping) drops out of
    that row while the others go on.
    """
    # Rows the lifetime stage still runs on.
    lifetime = np.full(out.n, "lifetime" in stages)
    out.fail(((ValueError, ~pt.valid()),))
    rates = transition_rates_array(pt.initial, pt.final, pt.epsilon0, pt.g_obs, pt.L)
    out.fail(rates.raises)
    _check_rates_twin(pt, rates, out.live)
    chi = rates.chi_second
    if "rates" in stages:
        live = out.live.copy()
        out.put(live, gamma_up=rates.gamma_up, gamma_down=rates.gamma_down,
                chi_second=chi,
                verdict=np.select([chi < 0.0, chi >= 0.0], ["active", "passive"], ""),
                excluded_roots=rates.excluded_roots)
        lhs, defined, multi = bias_condition_array(pt.initial, pt.final, pt.epsilon0,
                                                   rates)
        # Written so that a nan chi, the difference of two infinite rates, is
        # undefined too.
        undefined = ~multi & (~defined | ~(np.abs(chi) > _BALANCE_TOL * rates.total))
        out.flags["multi_root"] |= live & multi
        out.flags["condition_undefined"] |= live & undefined
        out.put(live & ~multi & ~undefined, condition_lhs=lhs)
    if "lifetime" in stages:
        passive = out.live & lifetime & (chi >= 0.0)
        out.flags["passive"] |= passive
        lifetime &= ~passive
    if not stages - {"rates", "lifetime"}:
        out.live &= lifetime
    if not out.live.any():
        return

    # Vanishing walk rates flag zero_rates under every command.
    p_up, p_down, raises = ladder_rates_array(rates.gamma_up, rates.gamma_down, pt.g)
    out.fail(raises)
    metrics, raises = clock_metrics_array(p_up, p_down, pt.d)
    out.fail(raises)
    if "clock" in stages:
        live = out.live.copy()
        out.put(live, p_up=p_up, p_down=p_down, nu_tick=metrics.nu_tick,
                accuracy_N=metrics.accuracy_N,
                entropy_per_tick=metrics.entropy_per_tick,
                relative_bias=metrics.relative_bias, tur_ratio=metrics.tur_ratio)
        out.flags["zero_down_rate"] |= live & (p_down == 0.0)

    fp, raises = first_passage_array(p_up, p_down, pt.Gamma, pt.d)
    out.fail(raises)
    out.put(out.live, exact_N=fp.exact_N, exact_rate=fp.exact_rate)
    if "mc" in stages:
        accuracy = out.column("empirical_accuracy")
        rate = out.column("empirical_rate")
        n = config.mc.n_trajectories
        too_large = size_error(f"mc.n_trajectories: a sample of {n} tick times", n)
        # One row at a time: each row draws from its own seed's streams.
        # The sampler refuses only the rows the first passage flagged.
        for i in np.flatnonzero(out.live).tolist():
            _, _, ladder = pt.point(i)
            try:
                stats = simulate_ticks(
                    LadderRates(p_up=float(p_up[i]), p_down=float(p_down[i])),
                    ladder, n, row_seed(config.mc.seed, i))
            except MemoryError:
                raise sample_error(n, ladder.d, too_large) from None
            accuracy[i] = stats.empirical_accuracy
            rate[i] = stats.empirical_rate
    if "lifetime" in stages:
        rep = lifetime_report_array(rates, pt.L, fp.mean_tick_time)
        out.put(out.live & lifetime, t_star=rep.lifetime, mean_tick_time=rep.mean_tick_time)


# Stages each command runs, and the value columns it writes.
_COMMANDS: dict[str, tuple[frozenset[str], tuple[str, ...]]] = {
    "rates": (frozenset({"rates"}),
              ("gamma_up", "gamma_down", "chi_second", "verdict",
               "condition_lhs", "excluded_roots")),
    "clock": (frozenset({"clock"}),
              ("p_up", "p_down", "nu_tick", "accuracy_N", "entropy_per_tick",
               "relative_bias", "tur_ratio", "exact_N", "exact_rate")),
    "lifetime": (frozenset({"lifetime"}), ("t_star", "mean_tick_time")),
    "scan": (frozenset({"rates", "clock", "lifetime"}),
             ("gamma_up", "gamma_down", "verdict", "condition_lhs",
              "chi_second", "nu_tick", "accuracy_N", "entropy_per_tick",
              "exact_N", "t_star")),
}
_MC_COLS = ("empirical_accuracy", "empirical_rate")
# Schema version of each command's table where it is not 1.
_SCHEMA_VERSION = {"lifetime": 2}
# Value of a cell its row could not compute; every other column gets nan.
_UNSET = {"verdict": "", "excluded_roots": 0}


def run_scan(config: RunConfig, command: str) -> Table:
    """Evaluate ``command`` over the config's grid, one row per point.

    Rows follow grid order, and every Monte Carlo row draws from a seed
    fixed by its grid index.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown scan command {command!r}")
    stages, value_cols = _COMMANDS[command]
    if command == "clock" and config.mc.n_trajectories:
        stages = stages | {"mc"}
        value_cols = value_cols + _MC_COLS
    n, axes = _grid_axes(config)
    out = _Rows(n)
    columns = {name: values[index] for name, (values, index) in axes.items()}
    # Flagged rows go on through the arithmetic, with meaningless values.
    with np.errstate(all="ignore"):
        _evaluate_layers(config, stages, config.point_arrays(columns, n), out)
    axis_names = tuple(a.name for a in config.scan)
    return Table(schema=f"quenchclock.{command}.v{_SCHEMA_VERSION.get(command, 1)}",
                 columns=axis_names + value_cols + ("flag",),
                 values=(*(columns[name] for name in axis_names),
                         *(out.column(name) for name in value_cols), out.flag_column()))


def single_point(config: RunConfig, command: str) -> tuple:
    """The quench, probe and ladder of the config's one point, for a
    ``command`` without a grid.

    Scan axes are a config error, since the command would ignore them; a
    point the spec constructors reject is a domain error, as it is an
    ``invalid`` row.
    """
    if config.scan:
        raise ConfigError(f"{command} needs a single point; remove scan axes")
    try:
        return config.point_arrays({}, 1).point(0)
    except ValueError as exc:
        raise QuenchClockError(str(exc)) from exc


def oracle_table(config: RunConfig) -> Table:
    """Refinement table of the finite-size check at the config's point."""
    quench, coupling, _ = single_point(config, "oracle")
    L = config.oracle.L_oracle
    too_large = size_error(f"oracle.L_oracle: a chain of {L} sites", L)
    try:
        # The scalar calls overflow quietly at the ends of the double range,
        # as the grid's array twins do.
        with np.errstate(all="ignore"):
            report = discrete_rates(quench, coupling, L=L, eta=config.oracle.eta)
    except MemoryError:
        raise too_large from None
    columns = ("L", "eta", "gamma_up", "gamma_down", "rel_err_up", "rel_err_down")
    return Table(schema="quenchclock.oracle.v1", columns=columns,
                 values=tuple(np.array([getattr(r, name) for r in report.convergence_table])
                              for name in columns))


# Tables with fewer distinct floats than this print them with `%` one by
# one, where the kernel's fixed cost, about 0.1 ms, outweighs its gain:
# the two break even near 350 keys at precision 17 and near 800 at 6 and
# 12, so from here either way a table takes at most about 20% longer
# than the faster of the two.
_KERNEL_MIN_KEYS = 600


def _number_texts(columns: list[np.ndarray], precision: int) -> list[list[str]]:
    """The cells of number columns of one dtype and length as text, one
    list per column in row order: ``%.{precision}g`` for floats, ``%d``
    for ints.

    Each distinct value of all the columns is formatted once; the values
    are keyed on their int64 bit view, so -0.0 and nan keep their own
    text.  From _KERNEL_MIN_KEYS distinct floats on, and at precisions 1
    to 17, :func:`~quenchclock._gformat.format_g` formats them in numpy
    chunks, with ``%`` for zeros, non-finite values and near-ties; below
    that ``%`` formats each one.
    """
    stacked = np.stack(columns)
    keys, index = np.unique(stacked.view(np.int64), return_inverse=True)
    values = keys.view(stacked.dtype)
    if stacked.dtype.kind == "f" and keys.size >= _KERNEL_MIN_KEYS \
            and precision in _gformat.PRECISIONS:
        texts = _gformat.format_g(values, precision)
    else:
        code = f"%.{precision}g" if stacked.dtype.kind == "f" else "%d"
        texts = [code % x for x in values.tolist()]
    texts = np.fromiter(texts, dtype=object, count=keys.size)
    return texts[index.reshape(stacked.shape)].tolist()


def write_csv(table: Table, precision: int) -> str:
    """Render a table as CSV with a versioned '#' header.

    A number cell is its column's printf code, taken from the dtype:
    ``%.{p}g`` prints a float as ``format(x, ".{p}g")`` does and ``%d``
    an int.  A string cell is written as it is.  A table with
    _KERNEL_MIN_KEYS or more distinct floats has them printed by a numpy
    kernel, chunk by chunk, to the bytes ``%`` gives (:func:`_number_texts`).
    """
    cells = [v.tolist() if v.dtype.kind == "O" else None for v in table.values]
    for kind in "fi":
        at = [i for i, v in enumerate(table.values) if v.dtype.kind == kind]
        if at:
            for i, texts in zip(at, _number_texts([table.values[i] for i in at], precision)):
                cells[i] = texts
    return "\n".join([f"# schema: {table.schema}",
                      "# columns: " + ",".join(table.columns),
                      ",".join(table.columns),
                      *map(",".join, zip(*cells))]) + "\n"


def write_json(table: Table) -> str:
    """Render a table as JSON; non-finite numbers become null."""
    columns = [np.where(np.isfinite(v), v, None).tolist() if v.dtype.kind == "f"
               else v.tolist() for v in table.values]
    doc = {"schema": table.schema, "columns": list(table.columns),
           "rows": [list(row) for row in zip(*columns)]}
    return json.dumps(doc, indent=2) + "\n"


def render_table(table: Table, output: OutputConfig) -> str:
    if output.format == "json":
        return write_json(table)
    return write_csv(table, output.precision)
