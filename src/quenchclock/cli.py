"""Command line front end: evaluate, sweep, check, and export.

Subcommands map one-to-one onto the library layers: ``rates`` (probe
rates and the inversion condition), ``clock`` (ladder metrics, with
optional Monte Carlo columns and tick histograms), ``oracle`` (the
finite-size refinement table), ``lifetime`` (the battery lifetime
``t_star`` and the mean tick interval) and ``scan`` (the full
phase-diagram row set).  All of them read the same config document,
honor repeatable ``--set section.key=value`` overrides, and write CSV or
JSON chosen by ``output.format``.

Exit codes: 0 on success, 2 for configuration problems, 3 when the
requested point or the whole grid is outside the model's domain (every
row flagged), 1 for anything unexpected.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .clock import ladder_rates, sample_tick_times
from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, QuenchClockError
from .rates import transition_rates
from .scan import (
    Table,
    oracle_table,
    render_table,
    run_scan,
    sample_error,
    single_point,
    size_error,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves it unchanged: the ``append`` action of ``--set``
    copies its default list before it appends.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML config file (defaults apply when omitted)")
    common.add_argument("--set", metavar="KEY=VALUE", action="append",
                        default=[], dest="assignments",
                        help="override one config key, e.g. coupling.epsilon0=2.5")
    common.add_argument("--out", metavar="PATH",
                        help="output file (stdout when omitted)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="output format (overrides output.format)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="Monte Carlo seed (overrides mc.seed)")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility, must be >= 1; "
                             "changes neither output nor speed")

    parser = argparse.ArgumentParser(
        prog="quenchclock",
        description="Clock and battery metrics of a quenched-chain steady state.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rates", parents=[common],
                   help="probe rates and the inversion condition over the grid")
    clock = sub.add_parser("clock", parents=[common],
                           help="ladder clock metrics over the grid")
    clock.add_argument("--histogram", type=int, metavar="BINS",
                       help="emit a tick-time histogram of the single "
                            "configured point instead of the metric table")
    sub.add_parser("oracle", parents=[common],
                   help="finite-size refinement table at the configured point")
    sub.add_parser("lifetime", parents=[common],
                   help="battery lifetime t_star and mean tick interval over the grid")
    sub.add_parser("scan", parents=[common],
                   help="full row set: rates, condition, clock and lifetime")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file, then every ``--set``, then the typed flags, built
    and checked once."""
    config = load_config(args.config) if args.config else RunConfig()
    typed = [(section, key, value) for section, key, value in (
        ("mc", "seed", args.seed), ("output", "format", args.format),
        ("output", "path", args.out)) if value is not None]
    return apply_overrides(config, args.assignments, typed)


def _histogram_table(config: RunConfig, bins: int) -> Table:
    n = config.mc.n_trajectories
    if bins < 1:
        raise ConfigError(f"--histogram: bins must be >= 1, got {bins}")
    if not n:
        raise ConfigError("--histogram needs mc.n_trajectories >= 2")
    too_large = size_error(f"--histogram: a histogram of {bins} bins", bins)
    too_many = size_error(f"mc.n_trajectories: a sample of {n} tick times", n)
    quench, coupling, ladder = single_point(config, "--histogram")
    # The scalar calls overflow quietly at the ends of the double range, as
    # the grid's array twins do.
    with np.errstate(all="ignore"):
        rates = transition_rates(quench, coupling)
        try:
            times = sample_tick_times(ladder_rates(rates, ladder), ladder, n, config.mc.seed)
        except MemoryError:
            raise sample_error(n, ladder.d, too_many) from None
    try:
        counts, edges = np.histogram(times, bins=bins)
    except MemoryError:
        raise too_large from None
    return Table(schema="quenchclock.histogram.v1", columns=("bin_lo", "bin_hi", "count"),
                 values=(edges[:-1], edges[1:], counts.astype(np.int64)))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        # Checked, then ignored: the grid is evaluated in one thread.
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        if args.command == "oracle":
            table = oracle_table(config)
        elif args.command == "clock" and args.histogram is not None:
            table = _histogram_table(config, args.histogram)
        else:
            table = run_scan(config, args.command)
        _emit(render_table(table, config.output), config.output.path)
        return 3 if table.all_flagged else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QuenchClockError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
