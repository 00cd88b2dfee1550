"""Config round-trips, scan tables, writers, and the command line."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quenchclock
from quenchclock import _gformat
from quenchclock import config as config_module
from quenchclock import scan
from quenchclock import (
    ConfigError,
    DegenerateRoot,
    GaplessMode,
    LadderSpec,
    NoResonance,
    NotReachable,
    PassiveState,
    QuenchClockError,
    QubitCoupling,
    QuenchSpec,
    RunConfig,
    Table,
    ZeroRates,
    apply_overrides,
    bias_condition,
    clock_metrics,
    emit_config,
    grid_points,
    ladder_rates,
    lifetime,
    load_config,
    parse_config,
    row_seed,
    run_scan,
    sample_tick_times,
    simulate_ticks,
    solve_first_passage,
    transition_rates,
    write_csv,
    write_json,
)
from quenchclock.battery import check_pumping, check_rung, lifetime_report_array
from quenchclock.clock import clock_metrics_array, first_passage_array, ladder_rates_array
from quenchclock.cli import _histogram_table, main
from quenchclock.rates import transition_rates_array
from quenchclock.scan import _BALANCE_TOL, _COMMANDS, _MC_COLS, FLAG_PRIORITY, oracle_table

_ROOT = Path(__file__).resolve().parents[1]
# An integer far beyond the range of a double.
_HUGE_INT = "1" + "0" * 400


class TestConfig:
    def test_defaults_round_trip(self):
        c = RunConfig()
        assert parse_config(emit_config(c)) == c

    def test_custom_round_trip(self):
        text = """
model: {kind: xx_ring, v_i: -0.8, v_f: 1.2, t: 0.9}
coupling: {epsilon0: 2.2, g_obs: 0.05, L: 256}
ladder: {d: 14, g: 0.02, gamma: 3.5}
scan:
  axes:
    - {name: epsilon0, min: 2.0, max: 3.0, steps: 4}
    - {name: v_f, min: 0.5, max: 1.5, steps: 3}
mc: {n_trajectories: 100, seed: 42}
output: {format: json, precision: 9}
"""
        c = parse_config(text)
        assert c.model.kind == "xx_ring"
        assert c.ladder.gamma == 3.5
        assert len(c.scan) == 2 and c.scan[1].name == "v_f"
        assert parse_config(emit_config(c)) == c

    def test_partial_document_fills_defaults(self):
        c = parse_config("coupling: {epsilon0: 3.0}")
        assert c.coupling.epsilon0 == 3.0
        assert c.coupling.L == RunConfig().coupling.L
        assert c.model == RunConfig().model

    def test_overrides(self):
        c = apply_overrides(RunConfig(), ["model.h_f=1.8", "coupling.L=256",
                                          "ladder.gamma=2.0"])
        assert c.model.h_f == 1.8
        assert c.coupling.L == 256
        assert c.ladder.gamma == 2.0
        cleared = apply_overrides(c, ["ladder.gamma=null"])
        assert cleared.ladder.gamma is None
        whole = apply_overrides(c, ["coupling.L=256.0"]).coupling.L
        assert whole == 256 and type(whole) is int

    @pytest.mark.parametrize("item, section, key, value", [
        ("mc.seed=9007199254740993", "mc", "seed", 2**53 + 1),
        ("mc.seed=18446744073709551615", "mc", "seed", 2**64 - 1),
        ("coupling.L=9223372036854775807", "coupling", "L", 2**63 - 1),
    ])
    def test_integers_stay_exact(self, item, section, key, value):
        c = apply_overrides(RunConfig(), [item])
        assert getattr(getattr(c, section), key) == value

    def test_overrides_build_without_yaml_round_trip(self, monkeypatch):
        def no_dump(*args, **kwargs):
            raise AssertionError("apply_overrides emitted a YAML document")

        monkeypatch.setattr("quenchclock.config.yaml.safe_dump", no_dump)
        c = apply_overrides(RunConfig(), [
            "scan.axes=[{name: h_f, min: 1.1, max: 2.0, steps: 5}]",
            "ladder.gamma=2.0", "coupling.L=256"])
        c = apply_overrides(c, ["ladder.gamma=null"])
        assert c.scan[0].steps == 5
        assert c.ladder.gamma is None
        assert c.coupling.L == 256

    @pytest.mark.parametrize("items", [
        # criterion 7
        ["scan.axes=[{name: epsilon0, min: 2.2, max: 3.0, steps: 5}]",
         "mc.n_trajectories=500", "mc.seed=17"],
        # a chain and a ring run of the scan_grid benchmark workload
        ["output.precision=17",
         "scan.axes=[{name: h_i, min: 0.05, max: 0.95, steps: 30}, "
         "{name: h_f, min: 0.1, max: 2.5, steps: 40}, "
         "{name: epsilon0, min: 2.1666666666666665, max: 2.1666666666666665, steps: 1}]"],
        ["output.precision=17", "model.kind=xx_ring",
         "scan.axes=[{name: v_i, min: -1.5, max: 1.5, steps: 40}, "
         "{name: v_f, min: -1.5, max: 1.5, steps: 40}, "
         "{name: epsilon0, min: 3.2, max: 3.2, steps: 1}]"],
        # a run of the clock_mc benchmark workload
        ["output.precision=17", "mc.n_trajectories=20000", "mc.seed=1",
         "scan.axes=[{name: d, min: 20, max: 20, steps: 1}, "
         "{name: epsilon0, min: 2.4, max: 2.4, steps: 1}]"],
    ])
    def test_overrides_match_one_document(self, items):
        sections: dict[str, list[str]] = {}
        for item in items:
            path, _, value = item.partition("=")
            section, key = path.split(".")
            sections.setdefault(section, []).append(f"{key}: {value}")
        text = "".join(f"{section}: {{{', '.join(pairs)}}}\n"
                       for section, pairs in sections.items())
        assert apply_overrides(RunConfig(), items) == parse_config(text)

    def test_override_scan_axes(self):
        c = apply_overrides(
            RunConfig(),
            ["scan.axes=[{name: h_f, min: 1.1, max: 2.0, steps: 5}]"])
        assert len(c.scan) == 1
        assert c.scan[0].steps == 5

    def test_rejections(self):
        bad = [
            "model.kind=heisenberg",
            "output.format=xml",
            "output.precision=30",
            "mc.seed=-3",
            "mc.n_trajectories=-1",
            "coupling.L=12.5",
            "coupling.L=true",
            "coupling.L=9223372036854775808",
            "mc.seed=18446744073709551616",
            "coupling.epsilon0=true",
            "coupling.epsilon0=.inf",
            "nosuch.key=1",
            "model.nope=1",
            "justakey=1",
            "scan.axes=[{name: bogus, min: 0, max: 1, steps: 2}]",
            "scan.axes=[{name: v_f, min: 0, max: 1, steps: 2}]",  # wrong model
            "scan.axes=[{name: h_f, min: 0, max: 1, steps: 0}]",
            "scan.axes=[{name: h_f, min: 0, max: 1}]",
            "scan.axes=[{name: h_f, min: 0, max: 1, steps: 2, extra: 1}]",
        ]
        for item in bad:
            with pytest.raises(ConfigError):
                apply_overrides(RunConfig(), [item])

    _AXIS = "{name: h_f, min: 1, max: 2, steps: 2}"

    @pytest.mark.parametrize("text, error", [
        # A misspelt axes key is an unknown key, not a single point.
        (f"scan: {{axis: [{_AXIS}]}}", "scan.axis: unknown key"),
        # The scan section is a mapping, never a bare list of axes.
        (f"scan: [{_AXIS}]", "scan: expected a mapping, got "
                             "[{'name': 'h_f', 'min': 1, 'max': 2, 'steps': 2}]"),
        ("scan: {axes: [{name: h_f, min: 1, max: 2, steps: 2, extra: 1}]}",
         "scan.axes[0].extra: unknown key"),
        ("scan: {axes: [{name: h_f, min: 1, max: 2}]}", "scan.axes[0]: missing key 'steps'"),
        (f"scan: {{axes: [{_AXIS}, {{name: h_f, min: 1, max: two, steps: 2}}]}}",
         "scan.axes[1].max: expected a number, got 'two'"),
        ("scan: {axes: [{name: d, min: 2, max: 4, steps: 2.5}]}",
         "scan.axes[0].steps: expected an integer, got 2.5"),
        ("scan: {axes: [{name: 7, min: 2, max: 4, steps: 2}]}",
         "scan.axes[0].name: expected a string, got 7"),
        ("scan: {axes: [h_f]}", "scan.axes[0]: expected a mapping, got 'h_f'"),
        ("scan: {axes: h_f}", "scan.axes: expected a list, got 'h_f'"),
    ])
    def test_scan_errors_name_their_place(self, text, error):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == error

    def test_scan_is_set_only_through_its_axes(self, tmp_path, capsys):
        item = f"scan=[{self._AXIS}]"
        with pytest.raises(ConfigError, match="expected section.key=value"):
            apply_overrides(RunConfig(), [item])
        assert main(["scan", "--set", item]) == 2
        assert capsys.readouterr().err.startswith("config error: --set 'scan=[")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"scan: {{axis: [{self._AXIS}]}}\n")
        assert main(["scan", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: scan.axis: unknown key\n"

    def test_sweepable_names_types_and_chains(self):
        # Derived from the annotations of the model, coupling and ladder
        # sections; the same table as when it was written out by hand.
        assert config_module.SWEEPABLE == {
            "h_i": ("model", float, "ising"),
            "h_f": ("model", float, "ising"),
            "kappa": ("model", float, "ising"),
            "v_i": ("model", float, "xx_ring"),
            "v_f": ("model", float, "xx_ring"),
            "t": ("model", float, "xx_ring"),
            "epsilon0": ("coupling", float, None),
            "g_obs": ("coupling", float, None),
            "L": ("coupling", int, None),
            "d": ("ladder", int, None),
            "g": ("ladder", float, None),
            "gamma": ("ladder", float, None),
        }

    def test_not_yaml_and_not_mapping(self):
        with pytest.raises(ConfigError):
            parse_config("model: {kind: [")
        with pytest.raises(ConfigError):
            parse_config("- a\n- b\n")
        with pytest.raises(ConfigError):
            parse_config("cadence: {}\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.yaml"))

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"model:\n  h_i: 0.5  # \xff\n")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))
        assert main(["rates", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    @pytest.mark.parametrize("text, value", [
        ("1e-30", 1.0e-30), ("2.5e0", 2.5), ("25e-1", 2.5), ("1.0e3", 1000.0),
        ("-.5", -0.5), (".5E+1", 5.0), ("12", 12), ("1.5", 1.5), ("e3", "e3")])
    def test_yaml_reads_yaml_1_2_floats(self, text, value):
        # YAML 1.1 reads the exponent forms as strings; integers stay ints.
        got = config_module._load_yaml(text)
        assert got == value and type(got) is type(value)

    def test_exponent_set_values_are_numbers(self):
        c = apply_overrides(RunConfig(), ["ladder.gamma=1e-30", "coupling.epsilon0=2.5e0"])
        assert c.ladder.gamma == 1.0e-30 and c.coupling.epsilon0 == 2.5
        # So a string key given an exponent-looking value is refused.
        with pytest.raises(ConfigError, match="output.path: expected a string"):
            apply_overrides(RunConfig(), ["output.path=1e3"])

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_gives_the_pure_python_values(self, monkeypatch):
        # The README's config document and every --set value of the
        # benchmark workloads, read by both parsers.
        readme = (_ROOT / "README.md").read_text(encoding="utf-8")
        texts = [readme.split("```yaml\n", 1)[1].split("```", 1)[0]]
        spec = importlib.util.spec_from_file_location("workloads", _ROOT / "bench/workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up while the module executes.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for name in ("scan_grid", "clock_mc", "point_pipeline"):
            for seed, tiny in ((1, False), (2**64 - 1, True)):
                texts += [item.partition("=")[2]
                          for overrides in workloads.setup_overrides(name, seed, tiny)
                          for item in overrides]
        assert len(texts) > 20
        for text in texts:
            value = config_module._load_yaml(text)
            assert repr(value) == repr(yaml.load(text, Loader=yaml.SafeLoader)), text
        assert parse_config(texts[0]) == RunConfig()

    @pytest.mark.parametrize("item", ["model.h_i=\udcff", "model.h_i=[1", "model.h_i=\x00"])
    def test_unreadable_set_value_is_a_config_error(self, item):
        # An undecodable argv byte reaches Python as a lone surrogate, which
        # libyaml cannot encode; it stays a config error.
        with pytest.raises(ConfigError, match="bad value"):
            apply_overrides(RunConfig(), [item])

    @pytest.mark.parametrize("text, reason", [
        # One broadening, so no kernel setting: the key is unknown.
        ("oracle: {kernel: foo}", "unknown key"),
        ("oracle: {L_oracle: 65}", "even and >= 64"),
        ("oracle: {L_oracle: 62}", "even and >= 64"),
    ])
    def test_oracle_settings_checked_by_the_oracle_rules(self, text, reason):
        with pytest.raises(ConfigError, match=reason):
            parse_config(text)


class TestGrid:
    def test_last_axis_fastest(self):
        c = apply_overrides(RunConfig(), [
            "scan.axes=[{name: h_f, min: 1.0, max: 2.0, steps: 2},"
            " {name: epsilon0, min: 2.0, max: 4.0, steps: 3}]"])
        pts = grid_points(c)
        assert [(p["h_f"], p["epsilon0"]) for p in pts] == [
            (1.0, 2.0), (1.0, 3.0), (1.0, 4.0),
            (2.0, 2.0), (2.0, 3.0), (2.0, 4.0)]

    def test_integer_axis(self):
        c = apply_overrides(RunConfig(),
                            ["scan.axes=[{name: d, min: 2, max: 4, steps: 3}]"])
        assert [p["d"] for p in grid_points(c)] == [2, 3, 4]
        bad = apply_overrides(RunConfig(),
                              ["scan.axes=[{name: d, min: 2, max: 3, steps: 3}]"])
        with pytest.raises(ConfigError):
            grid_points(bad)

    def test_no_axes_single_point(self):
        assert grid_points(RunConfig()) == [{}]

    def test_row_seed_frozen(self):
        assert row_seed(0, 0) == 11400714819323198485
        assert row_seed(5, 2) == 15755400384260043844
        assert 0 <= row_seed(2**64 - 1, 1000) < 2**64


FIXED_GRID = "scan.axes=[{name: epsilon0, min: 1.0, max: 4.0, steps: 4}]"

# Parameter ranges of the random configs; epsilon0 reaches past both
# models' pair bands, so out-of-band rows occur.
_RANGES = {
    "ising": {"h_i": (0.0, 2.5), "h_f": (0.0, 2.5), "kappa": (0.3, 1.5)},
    "xx_ring": {"v_i": (-2.0, 2.0), "v_f": (-2.0, 2.0), "t": (0.5, 1.5)},
}
_SHARED = {"epsilon0": (0.2, 8.0), "g": (0.001, 0.1), "gamma": (0.5, 50.0)}
# Integer axes run from lo to lo + m (steps - 1), so every grid value is
# an integer; d = 1 and L = 0 make invalid rows.
_INTEGERS = {"d": (1, 12), "L": (0, 600)}


def _num(x: float) -> str:
    # Fixed-point text with six decimals.
    return f"{x:.6f}"


@st.composite
def scan_overrides(draw):
    """``--set`` assignments of a random config with a grid of <= 25 rows."""
    kind = draw(st.sampled_from(sorted(_RANGES)))
    ranges = {**_RANGES[kind], **_SHARED}
    sets = [f"model.kind={kind}", f"ladder.d={draw(st.integers(2, 12))}",
            f"mc.n_trajectories={draw(st.sampled_from([0, 20]))}"]
    for name in _RANGES[kind]:
        sets.append(f"model.{name}={_num(draw(st.floats(*ranges[name])))}")
    sets.append(f"coupling.epsilon0={_num(draw(st.floats(*ranges['epsilon0'])))}")
    sets.append(f"ladder.g={_num(draw(st.floats(*ranges['g'])))}")
    gamma = draw(st.none() | st.floats(*ranges["gamma"]))
    if gamma is not None:
        sets.append(f"ladder.gamma={_num(gamma)}")
    axes = []
    for name in draw(st.lists(st.sampled_from(sorted(ranges) + sorted(_INTEGERS)),
                              min_size=1, max_size=2, unique=True)):
        steps = draw(st.integers(1, 5))
        if name in _INTEGERS:
            lo = draw(st.integers(*_INTEGERS[name]))
            lo, hi = str(lo), str(lo + draw(st.integers(0, 3)) * (steps - 1))
        else:
            lo, hi = (_num(x) for x in sorted(draw(st.floats(*ranges[name]))
                                              for _ in range(2)))
        axes.append(f"{{name: {name}, min: {lo}, max: {hi}, steps: {steps}}}")
    sets.append("scan.axes=[" + ", ".join(axes) + "]")
    return sets


# Edge rows the scan property tests must always cover.  The random
# examples change whenever the library changes (see conftest.py); these
# do not.
_EDGE_ROWS = (
    # d = 1 and L = 0 rows are invalid; d differs between live rows.
    ["mc.n_trajectories=20", "scan.axes=[{name: d, min: 1, max: 9, steps: 5},"
     " {name: epsilon0, min: 2.2, max: 3.0, steps: 3}]"],
    [FIXED_GRID, "ladder.g=0", "mc.n_trajectories=20"],
    # With kappa = 0 the initial chain is gapless at the h_i = 0.5 root.
    ["model.kappa=0.0", "coupling.epsilon0=4.0",
     "scan.axes=[{name: h_i, min: 0.25, max: 0.75, steps: 3}]"],
    # A pinned emission rate far below the walk rates: thousands of
    # visits of the top per tick.
    ["ladder.gamma=0.01", "mc.n_trajectories=20",
     "scan.axes=[{name: d, min: 2, max: 12, steps: 3},"
     " {name: epsilon0, min: 2.2, max: 3.0, steps: 3}]"],
    # Infinite rates, and so a nan chi_second.
    ["coupling.g_obs=1e160"],
    # An emission rate whose square over p_up leaves the double range.
    ["ladder.gamma=1e160", "mc.n_trajectories=20",
     "scan.axes=[{name: d, min: 3, max: 133, steps: 3}]"],
)


def _with_edge_rows(test):
    for overrides in _EDGE_ROWS:
        test = example(overrides)(test)
    return test


def _first_row(table):
    return dict(zip(table.columns, table.rows[0]))


class TestRunScan:
    def test_rates_values_match_library(self):
        c = apply_overrides(RunConfig(), ["coupling.epsilon0=2.5"])
        table = run_scan(c, "rates")
        assert table.schema == "quenchclock.rates.v1"
        assert table.columns == ("gamma_up", "gamma_down", "chi_second",
                                 "verdict", "condition_lhs", "excluded_roots",
                                 "flag")
        quench, coupling, _ = _reference_specs(c, {})
        r = transition_rates(quench, coupling)
        row = table.rows[0]
        assert row[0] == r.gamma_up and row[1] == r.gamma_down
        assert row[3] == "active" and row[6] == ""

    @given(scan_overrides())
    @example([FIXED_GRID, "mc.n_trajectories=50"])
    @_with_edge_rows
    @settings(max_examples=60, deadline=None)
    def test_every_nonfinite_cell_is_flagged(self, overrides):
        c = apply_overrides(RunConfig(), overrides)
        for command in ("rates", "clock", "lifetime", "scan"):
            table = run_scan(c, command)
            flag_idx = table.columns.index("flag")
            for row in table.rows:
                flag = row[flag_idx]
                assert flag == "" or flag in FLAG_PRIORITY
                bad = any(isinstance(v, float) and not math.isfinite(v)
                          for v in row)
                if bad:
                    assert flag != ""

    def test_fixed_grid_mixes_flagged_and_clean_rows(self):
        c = apply_overrides(RunConfig(), [FIXED_GRID, "mc.n_trajectories=50"])
        for command in ("rates", "clock", "lifetime", "scan"):
            table = run_scan(c, command)
            flags = [row[table.columns.index("flag")] for row in table.rows]
            assert "no_resonance" in flags  # epsilon0 = 1 is below the band
            assert "" in flags              # epsilon0 = 4 row is evaluable
            assert not table.all_flagged

    def test_unreachable_sample_is_flagged(self):
        # The top is left down 1e31 times per tick, yet the moments are
        # finite: the row samples, one slow stage dominates, and N is ~1.
        c = apply_overrides(RunConfig(), ["ladder.gamma=1.0e-30", "mc.n_trajectories=20000"])
        row = _first_row(run_scan(c, "clock"))
        assert row["flag"] == ""
        assert math.isfinite(row["empirical_accuracy"]) and math.isfinite(row["empirical_rate"])
        assert row["empirical_accuracy"] == pytest.approx(row["exact_N"], rel=0.05)
        # Moments beyond the double range: the row is flagged before it
        # samples, and every cell from the first passage on stays empty.
        c = apply_overrides(RunConfig(), ["ladder.gamma=1.0e-200", "mc.n_trajectories=20"])
        row = _first_row(run_scan(c, "clock"))
        assert row["flag"] == "not_reachable"
        assert row["p_up"] > row["p_down"]
        for name in ("exact_N", "empirical_accuracy", "empirical_rate"):
            assert math.isnan(row[name])

    def test_passive_point_is_sampled(self):
        # The walk drifts down, yet the clock ticks: the sampler draws the
        # same d stages per tick as at an active point, and its accuracy
        # meets the exact one.
        c = apply_overrides(RunConfig(), ["coupling.epsilon0=4.0",
                                          "mc.n_trajectories=20000"])
        row = _first_row(run_scan(c, "clock"))
        assert row["flag"] == ""
        assert row["p_up"] < row["p_down"]
        assert row["empirical_accuracy"] == pytest.approx(row["exact_N"], rel=0.05)
        assert row["empirical_rate"] == pytest.approx(row["exact_rate"], rel=0.05)

    def test_flat_band_is_van_hove(self):
        # kappa = 1, h_f = 0: every pair has energy 4 = epsilon0.  Both
        # rates twins report one class, and the row one flag.
        c = apply_overrides(RunConfig(), ["model.kappa=1.0", "model.h_f=0.0",
                                          "coupling.epsilon0=4.0"])
        quench, coupling, _ = _reference_specs(c, {})
        with pytest.raises(DegenerateRoot, match="flat band"):
            transition_rates(quench, coupling)
        for command in ("rates", "clock", "lifetime", "scan"):
            assert _first_row(run_scan(c, command))["flag"] == "van_hove"

    @pytest.mark.parametrize("v_i, v_f", [(-1.5, 0.5), (1.5, -0.5)])
    def test_ring_at_exact_balance_is_undefined(self, v_i, v_f):
        # Here the printed condition is exactly 0 and the rates differ
        # only by rounding, so neither verdict can be trusted.
        c = apply_overrides(RunConfig(), [
            "model.kind=xx_ring", f"model.v_i={v_i}", f"model.v_f={v_f}",
            "coupling.epsilon0=2.0"])
        row = _first_row(run_scan(c, "rates"))
        assert abs(row["chi_second"]) < 1e-15 * (row["gamma_up"] + row["gamma_down"])
        assert row["flag"] == "condition_undefined"

    def test_all_flagged_grid(self):
        c = apply_overrides(RunConfig(),
                            ["scan.axes=[{name: epsilon0, min: 20, max: 50, steps: 3}]"])
        table = run_scan(c, "rates")
        assert table.all_flagged

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run_scan(RunConfig(), "frobnicate")

    def test_rates_twin_drift_stops_the_scan(self, monkeypatch):
        # Array rates that leave the scalar ones by more than rounding must
        # not reach a table.
        def drifted(*args):
            rates = twin(*args)
            return dataclasses.replace(rates, gamma_up=rates.gamma_up * (1.0 + 1e-9))

        twin = scan.transition_rates_array
        monkeypatch.setattr(scan, "transition_rates_array", drifted)
        with pytest.raises(RuntimeError, match="twins disagree"):
            run_scan(RunConfig(), "rates")

    def test_overflowing_rates_pass_the_twin_check(self):
        table = run_scan(apply_overrides(RunConfig(), ["coupling.g_obs=1.0e+200"]), "rates")
        assert math.isinf(_first_row(table)["gamma_up"])


_REFERENCE_FLAGS = ((GaplessMode, "gapless"), (NoResonance, "no_resonance"),
                    (DegenerateRoot, "van_hove"), (ZeroRates, "zero_rates"),
                    (NotReachable, "not_reachable"))


class _SharedSampler:
    """:func:`simulate_ticks`, run once per distinct input.

    The sampler is deterministic in its inputs, so when the columnar scan
    and the reference sample with equal inputs the second call reuses the
    first result bit for bit; unequal inputs sample afresh, and the
    comparison of the Monte Carlo cells stays exact.  This halves the
    sampling of a comparison.
    """

    def __init__(self):
        self.results = {}

    def __call__(self, lr, ladder, n_ticks, seed):
        key = (lr.p_up, lr.p_down, ladder, n_ticks, seed)
        if key not in self.results:
            self.results[key] = simulate_ticks(lr, ladder, n_ticks, seed)
        return self.results[key]


def _reference_specs(config, values):
    """The quench, probe and ladder at a grid point, built here from the
    config's keys and the point's axis ``values`` (see ``SWEEPABLE``), so
    that the scan's own mapping is checked against an independent one.
    The ladder's rung is the probe gap."""
    m, c, lad = config.model, config.coupling, config.ladder
    get = values.get
    if m.kind == "ising":
        quench = QuenchSpec.ising(h_i=get("h_i", m.h_i), h_f=get("h_f", m.h_f),
                                  kappa=get("kappa", m.kappa))
    else:
        quench = QuenchSpec.xx_ring(V_i=get("v_i", m.v_i), V_f=get("v_f", m.v_f),
                                    t=get("t", m.t))
    coupling = QubitCoupling(epsilon0=get("epsilon0", c.epsilon0),
                             g_obs=get("g_obs", c.g_obs), L=get("L", c.L))
    ladder = LadderSpec(d=get("d", lad.d), epsilon_w=coupling.epsilon0,
                        g=get("g", lad.g), Gamma=get("gamma", lad.gamma))
    return quench, coupling, ladder


def _reference_point(config, stages, index, values, sample):
    """Cells and flags of one grid point, from the public scalar functions."""
    cells, flags, live = {}, set(), set(stages)
    try:
        quench, coupling, ladder = _reference_specs(config, values)
    except ValueError:
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
        if "rates" in live:
            live.discard("rates")
            cells.update(gamma_up=rates.gamma_up, gamma_down=rates.gamma_down,
                         chi_second=rates.chi_second,
                         verdict="" if math.isnan(rates.chi_second)
                         else "active" if rates.is_active else "passive",
                         excluded_roots=rates.excluded_roots)
            cond = bias_condition(quench, coupling.epsilon0)
            if cond.multi_root:
                flags.add("multi_root")
            elif (not cond.defined
                  or not abs(rates.chi_second) > _BALANCE_TOL * rates.total):
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
        lr = ladder_rates(rates, ladder)
        metrics = clock_metrics(lr, ladder.d)  # ZeroRates for vanishing walk rates
        if "clock" in live:
            cells.update(p_up=lr.p_up, p_down=lr.p_down, nu_tick=metrics.nu_tick,
                         accuracy_N=metrics.accuracy_N,
                         entropy_per_tick=metrics.entropy_per_tick,
                         relative_bias=metrics.relative_bias,
                         tur_ratio=metrics.tur_ratio)
            if lr.p_down == 0.0:
                flags.add("zero_down_rate")
        fp = solve_first_passage(lr, ladder)
    except QuenchClockError as exc:
        return cells, flags | {next(f for c, f in _REFERENCE_FLAGS if isinstance(exc, c))}
    cells.update(exact_N=fp.exact_N, exact_rate=fp.exact_rate)
    if "mc" in live:
        stats = sample(lr, ladder, config.mc.n_trajectories,
                       row_seed(config.mc.seed, index))
        cells.update(empirical_accuracy=stats.empirical_accuracy,
                     empirical_rate=stats.empirical_rate)
    if "lifetime" in live:
        rep = lifetime(quench, coupling, ladder)
        cells.update(t_star=rep.lifetime, mean_tick_time=rep.mean_tick_time)
    return cells, flags


def _assert_matches_reference(config, command):
    """The columnar table of ``command`` against the point-by-point one."""
    sample = _SharedSampler()
    with mock.patch.object(scan, "simulate_ticks", sample):
        table = run_scan(config, command)
    stages, _ = _COMMANDS[command]
    if command == "clock" and config.mc.n_trajectories:
        stages = stages | {"mc"}
    names = table.columns
    for index, (values, row) in enumerate(zip(grid_points(config), table.rows)):
        cells, flags = _reference_point(config, stages, index, values, sample)
        flag = next((f for f in FLAG_PRIORITY if f in flags), "")
        got = dict(zip(names, row))
        where = f"{command} row {index} {values}"
        assert got["flag"] == flag, where
        scale = cells.get("gamma_up", math.nan) + cells.get("gamma_down", math.nan)
        for name in names[len(values):-1]:
            want = cells.get(name, {"verdict": "", "excluded_roots": 0}.get(name, math.nan))
            have = got[name]
            if not isinstance(want, float):
                assert have == want and type(have) is type(want), (where, name)
            elif math.isnan(want) or name in _MC_COLS:
                assert have == want or (math.isnan(have) and math.isnan(want)), (where, name)
            elif name in ("chi_second", "condition_lhs"):
                assert abs(have - want) <= 1e-12 * scale, (where, name)
            else:
                assert have == pytest.approx(want, rel=1e-12), (where, name)


class TestColumnarScan:
    """The columnar grid engine against the scalar pipeline, row by row."""

    @given(scan_overrides())
    @example(["ladder.g=0", "scan.axes=[{name: d, min: 2, max: 4, steps: 3}]"])
    @example(["scan.axes=[{name: L, min: 0, max: 600, steps: 4}]"])
    @_with_edge_rows
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference(self, overrides):
        c = apply_overrides(RunConfig(), overrides)
        for command in ("rates", "clock", "lifetime", "scan"):
            _assert_matches_reference(c, command)

    @pytest.mark.parametrize("overrides", [
        [f"coupling.epsilon0={e}", "scan.axes=[{name: h_i, min: 0.05, max: 0.95, "
         "steps: 30}, {name: h_f, min: 0.1, max: 2.5, steps: 40}]"]
        for e in (1.5, 2.1666666666666665, 2.833333333333333, 3.5)] + [
        ["model.kind=xx_ring", f"coupling.epsilon0={e}", "scan.axes=[{name: v_i, "
         "min: -1.5, max: 1.5, steps: 40}, {name: v_f, min: -1.5, max: 1.5, steps: 40}]"]
        for e in (2.0, 3.2)])
    def test_matches_scalar_reference_on_phase_diagrams(self, overrides):
        # The six scan_grid grids of the benchmark: 8000 rows.
        c = apply_overrides(RunConfig(), overrides)
        for command in ("rates", "clock", "lifetime", "scan"):
            _assert_matches_reference(c, command)

    @given(scan_overrides())
    @example(["model.kind=xx_ring", "scan.axes=[{name: t, min: -1, max: 1, steps: 3}, "
              "{name: gamma, min: -1, max: 1, steps: 3}]"])
    @example(["scan.axes=[{name: epsilon0, min: -1, max: 1, steps: 3}, "
              "{name: L, min: 0, max: 2, steps: 3}]"])
    @_with_edge_rows
    @settings(max_examples=100, deadline=None)
    def test_point_builder_matches_reference_specs(self, overrides):
        # Row i of the one config-to-point mapping builds the specs the
        # reference builds, or raises the same ValueError text.
        c = apply_overrides(RunConfig(), overrides)
        points = grid_points(c)
        columns = {name: np.array([p[name] for p in points]) for name in points[0]}
        pt = c.point_arrays(columns, len(points))
        valid = pt.valid()
        for i, values in enumerate(points):
            try:
                want = _reference_specs(c, values)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    pt.point(i)
                assert str(got.value) == str(exc) and not valid[i]
            else:
                assert pt.point(i) == want and valid[i]


def _cli_run(args: list[str], sets: list[str]
             ) -> tuple[int, str, list[str], list[dict[str, str]]]:
    """Exit code, stderr, header and text cells of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*args, *(arg for item in sets for arg in ("--set", item))])
    lines = out.getvalue().splitlines()[2:]
    columns = lines[0].split(",") if lines else []
    return (code, err.getvalue(), columns,
            [dict(zip(columns, line.split(","))) for line in lines[1:]])


def _clock_run(sets: list[str]) -> tuple[int, list[str], list[dict[str, str]]]:
    """Exit code, columns and text cells of one in-process ``clock`` run."""
    code, _, columns, rows = _cli_run(["clock"], sets)
    return code, columns, rows


@st.composite
def mixed_drift_grids(draw):
    """``--set`` assignments of a chain grid whose rows drift up, drift
    down, or overflow the tick-time moments: small quenches into
    ``h_f = 1.5`` pump hardly at all, and at large d their walks never
    reach the top within the double range."""
    h_lo = draw(st.floats(0.3, 1.0))
    h_hi = draw(st.floats(1.45, 1.499))
    d_lo, d_hi = sorted(draw(st.integers(2, 40)) for _ in range(2))
    gamma = draw(st.sampled_from(["null", "1.0e-200", "2.0e-154", _num(draw(
        st.floats(0.01, 50.0)))]))
    return ["model.h_f=1.5", f"ladder.gamma={gamma}",
            f"ladder.g={_num(draw(st.floats(0.001, 0.1)))}",
            f"scan.axes=[{{name: h_i, min: {_num(h_lo)}, max: {_num(h_hi)}, "
            f"steps: {draw(st.integers(1, 4))}}}, "
            f"{{name: epsilon0, min: 1.5, max: {_num(draw(st.floats(2.5, 7.5)))}, "
            f"steps: {draw(st.integers(1, 3))}}}, "
            f"{{name: d, min: {d_lo}, max: {d_hi}, steps: {2 if d_hi > d_lo else 1}}}]"]


_PINNED_GRID = ("scan.axes=[{name: h_i, min: 0.5, max: 1.499, steps: 3}, "
                "{name: epsilon0, min: 1.5, max: 4.0, steps: 3}, "
                "{name: d, min: 2, max: 40, steps: 3}]")


class TestLadderScale:
    """A clock row at any ladder depth and any scale of its rates."""

    @given(st.integers(-78, 150))
    @example(-2)
    @example(78)
    @example(80)
    @settings(max_examples=40, deadline=None)
    def test_exact_N_ignores_the_ladder_coupling(self, exponent):
        # The walk rates grow as g**2, from 1e-151 to 1e305; the walk and
        # its accuracy stay those of g = 0.01.
        code, _, rows = _clock_run([f"ladder.g=1.0e{exponent}"])
        assert code == 0
        assert (rows[0]["exact_N"], rows[0]["flag"]) == ("4.5627995546", "")

    def test_deep_ladder_in_process(self):
        # The first passage of 10**15 levels takes what that of 10 does.
        start = time.perf_counter()
        code, _, rows = _clock_run(["ladder.d=1000000000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and rows[0]["flag"] == ""
        assert math.isfinite(float(rows[0]["exact_N"]))

    @pytest.mark.parametrize("t", ["1e7", "2e7"])
    def test_ring_gap_below_the_band_has_no_resonance(self, t):
        # eps_k >= |V_f| = 3 everywhere, so a gap of 1 has no pair: eps =
        # 0.5 lies below the bottom of the ring's closed-form domain.
        code, _, _, rows = _cli_run(["rates"], ["model.kind=xx_ring", f"model.t={t}",
                                                "model.v_f=3.0", "coupling.epsilon0=1.0"])
        assert code == 3
        assert [row["flag"] for row in rows] == ["no_resonance"]

    @pytest.mark.parametrize("sets, code, flag", [
        # A chain root at k = 6.4e-8 by the critical field, where cos k is
        # within rounding of 1; its mode energy, 1.4e-11, is gapless.
        (["model.h_f=1.0", "model.kappa=1.1123651081666135e-4",
          "coupling.epsilon0=2.8485716412370226e-11"], 3, "gapless"),
        # A ring root by k = pi/2 at t = 1e9, where one ulp of k moves eps_k
        # by 4.4e-7, past any absolute residual bound.
        (["model.kind=xx_ring", "model.t=1e9", "model.v_f=0.5", "coupling.epsilon0=10"],
         0, ""),
    ])
    def test_gaps_the_closed_forms_resonate(self, sets, code, flag):
        got, _, _, rows = _cli_run(["rates"], sets)
        assert (got, [row["flag"] for row in rows]) == (code, [flag])

    def test_scalar_overflow_leaves_stderr_empty(self):
        # The histogram's scalar calls overflow at h_i = 1e155, quietly, as
        # the grid's array twins do.
        src = str(Path(quenchclock.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "quenchclock", "clock", "--histogram", "3",
             "--set", "mc.n_trajectories=12", "--set", "model.h_i=1e155",
             "--set", "model.h_f=1.0", "--set", "coupling.epsilon0=1.0"],
            env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")


class TestSamplingRule:
    """Monte Carlo refuses exactly the rows the first passage refuses."""

    @given(mixed_drift_grids(), st.sampled_from([2, 200]))
    @example(["model.h_f=1.5", _PINNED_GRID], 2)
    @example(["model.h_f=1.5", _PINNED_GRID], 200)
    @example(["model.h_f=1.5", "ladder.gamma=1.0e-200", _PINNED_GRID], 200)
    @example(["model.h_f=1.5", "ladder.gamma=2.0e-154", _PINNED_GRID], 2)
    @example(["model.h_f=1.5", "ladder.gamma=2.0e-154", _PINNED_GRID], 200)
    @settings(max_examples=60, deadline=None)
    def test_sampling_keeps_the_flags_and_exact_columns(self, sets, n):
        code, columns, rows = _clock_run(sets)
        mc_code, mc_columns, mc_rows = _clock_run([*sets, f"mc.n_trajectories={n}"])
        assert code != 1 and mc_code == code
        assert mc_columns == [*columns[:-1], *_MC_COLS, "flag"]
        assert len(mc_rows) == len(rows) > 0
        for row, mc_row in zip(rows, mc_rows):
            assert {name: mc_row[name] for name in columns} == row
            for name in _MC_COLS:
                if mc_row["flag"] == "":
                    assert math.isfinite(float(mc_row[name])), mc_row
                elif mc_row["flag"] == "not_reachable":
                    assert mc_row[name] == "nan"

    def test_pinned_grid_mixes_the_rows(self):
        # The examples above are worth running: their rows drift both
        # ways, and some overflow the moments.  At Gamma = 2e-154 every
        # tick takes at least 5e153: the upward walks sample, and the
        # downward ones return to the top too often to stay in range.
        for gamma, want in (("null", {(True, ""), (False, ""), (False, "not_reachable")}),
                            ("2.0e-154", {(True, ""), (False, "not_reachable")})):
            _, _, rows = _clock_run(["model.h_f=1.5", f"ladder.gamma={gamma}", _PINNED_GRID])
            drift = {(float(r["p_up"]) > float(r["p_down"]), r["flag"]) for r in rows}
            assert want <= drift, gamma


# Keys and values of the whole-range draws: each float key log-uniform
# over 1e-300..1e300 or 1e-8..1e8, or uniform over 0..5.
_WIDE_MODEL_KEYS = {"ising": ("h_i", "h_f", "kappa"), "xx_ring": ("v_i", "v_f", "t")}
_WIDE_L = (2, 4, 64, 512, 10**6, 10**12)
_WIDE_D = (2, 3, 10, 50)
_WIDE_FLOATS = st.one_of(st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
                         st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
                         st.floats(0.0, 5.0))
# Points found at the ends of the double range; the draws reshuffle
# whenever the library changes (see conftest.py), these do not.
_WIDE_PINS = (
    # kappa**2 overflows in the band edges of the NoResonance message.
    ["model.kappa=1e160"],
    # A ring band narrower than rounding: 2t is far below |V|.
    ["model.kind=xx_ring", "model.t=1e-170"],
    # Both rates are inf, and chi_second nan.
    ["coupling.g_obs=1e160"],
    # Resonant roots near k = 0 at the critical field, solved in the half angle.
    ["model.h_f=1.0", "coupling.epsilon0=1e-8"],
    # Two roots flank the band minimum of a near-XX chain.
    ["model.kappa=1e-12", "model.h_i=0.1", "model.h_f=0.3", "coupling.epsilon0=1e-9"],
    # The one root lies near k = pi, outside the coupled zone cos k >= 0.
    ["model.h_i=-0.5", "model.h_f=-1.000003432137425", "model.kappa=95.63723028640165",
     "coupling.epsilon0=0.02333020375365726"],
)
# Flags of a rates row on which the oracle stops with a domain error.
_ORACLE_STOPS = {"invalid", "gapless", "no_resonance", "van_hove"}


@st.composite
def wide_points(draw):
    """``--set`` assignments of one point drawn from the whole double range."""
    kind = draw(st.sampled_from(sorted(_WIDE_MODEL_KEYS)))
    sets = [f"model.kind={kind}", f"coupling.L={draw(st.sampled_from(_WIDE_L))}",
            f"ladder.d={draw(st.sampled_from(_WIDE_D))}"]
    for key in (*(f"model.{name}" for name in _WIDE_MODEL_KEYS[kind]),
                "coupling.epsilon0", "coupling.g_obs", "ladder.g"):
        sets.append(f"{key}={draw(_WIDE_FLOATS)!r}")
    gamma = draw(st.none() | _WIDE_FLOATS)
    if gamma is not None:
        sets.append(f"ladder.gamma={gamma!r}")
    return sets


def _with_wide_pins(test):
    for sets in _WIDE_PINS:
        test = example(sets)(test)
    return test


def _first_raise(raises):
    """The error class the scalar twin raises at the one row of ``raises``."""
    return next((error for error, rows in raises if np.any(rows)), None)


def _assert_twin(call, raises, values):
    """``call()`` raises exactly the class ``raises`` names for the one row,
    or returns an object whose attributes equal ``values``, one-row arrays."""
    error = _first_raise(raises)
    if error is not None:
        with pytest.raises(error) as got:
            call()
        assert got.type is error
        return
    result = call()
    for name, want in values.items():
        have, want = getattr(result, name), want.item()
        assert have == want or (math.isnan(have) and math.isnan(want)), (name, have, want)


class TestWholeDoubleRange:
    """Both twins fail the same way at every point of the double range."""

    @given(wide_points())
    @_with_wide_pins
    @settings(max_examples=40, deadline=None)
    def test_every_command_exits_as_its_rows_are_flagged(self, sets):
        runs = {command: _cli_run(args, sets) for command, args in (
            ("rates", ["rates"]), ("lifetime", ["lifetime"]), ("scan", ["scan"]),
            ("clock", ["clock", "--set", "mc.n_trajectories=12"]),
            ("histogram", ["clock", "--histogram", "3", "--set", "mc.n_trajectories=12"]),
            ("oracle", ["oracle", "--set", "oracle.L_oracle=64"]))}
        for command, (code, err, _, rows) in runs.items():
            assert code in (0, 2, 3), (command, err)
            assert code != 3 or rows or err.startswith("domain error: "), (command, err)
            for row in rows if command != "oracle" else ():
                bad = [name for name, cell in row.items()
                       if cell in ("nan", "inf", "-inf")]
                assert not bad or row.get("flag", "") != "", (command, row)
        if runs["rates"][0] == 2:
            assert {code for code, *_ in runs.values()} == {2}
            return
        # The histogram samples where the clock row has its exact columns.
        clock_row = runs["clock"][3][0]
        assert (runs["histogram"][0] == 3) == (clock_row["exact_N"] == "nan"), clock_row
        if runs["rates"][3][0]["flag"] in _ORACLE_STOPS:
            assert runs["oracle"][0] == 3

    @given(wide_points())
    @_with_wide_pins
    @settings(max_examples=150, deadline=None)
    # numpy warns where the twins overflow; the results are checked.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalar_twins_raise_the_row_flag_or_match(self, sets):
        try:
            pt = apply_overrides(RunConfig(), sets).point_arrays({}, 1)
        except ConfigError:
            return
        if not pt.valid()[0]:
            return
        quench, coupling, ladder = pt.point(0)
        rates = transition_rates_array(pt.initial, pt.final, pt.epsilon0, pt.g_obs, pt.L)
        p_up, p_down, walk = ladder_rates_array(rates.gamma_up, rates.gamma_down, pt.g)
        metrics, zero = clock_metrics_array(p_up, p_down, pt.d)
        fp, passage = first_passage_array(p_up, p_down, pt.Gamma, pt.d)
        report = lifetime_report_array(rates, pt.L, fp.mean_tick_time)
        _assert_twin(lambda: transition_rates(quench, coupling), rates.raises,
                     {"gamma_up": rates.gamma_up, "gamma_down": rates.gamma_down})
        pumping = ((PassiveState, rates.chi_second >= 0.0),)
        _assert_twin(lambda: lifetime(quench, coupling, ladder),
                     rates.raises + pumping + walk + passage,
                     {"lifetime": report.lifetime, "mean_tick_time": report.mean_tick_time})
        _assert_twin(lambda: ladder_rates(transition_rates(quench, coupling), ladder),
                     rates.raises + walk, {"p_up": p_up, "p_down": p_down})
        if _first_raise(rates.raises + walk) is not None:
            return
        lr = ladder_rates(transition_rates(quench, coupling), ladder)
        _assert_twin(lambda: clock_metrics(lr, ladder.d), zero,
                     {name: getattr(metrics, name) for name in (
                         "nu_tick", "accuracy_N", "entropy_per_tick", "relative_bias",
                         "tur_ratio")})
        _assert_twin(lambda: solve_first_passage(lr, ladder), passage,
                     {name: getattr(fp, name) for name in (
                         "mean_tick_time", "var_tick_time", "exact_N", "exact_rate")})


@pytest.fixture(scope="module")
def writer_tables():
    """One table of each kind the command line writes."""
    c = apply_overrides(RunConfig(), [
        "scan.axes=[{name: d, min: 2, max: 6, steps: 3},"
        " {name: epsilon0, min: 1.0, max: 4.0, steps: 4}]", "mc.n_trajectories=50"])
    tables = {command: run_scan(c, command) for command in ("rates", "clock", "lifetime", "scan")}
    flags = [row[-1] for row in tables["scan"].rows]
    assert "" in flags and "no_resonance" in flags
    point = apply_overrides(RunConfig(), ["oracle.L_oracle=512", "mc.n_trajectories=200"])
    tables["oracle"] = oracle_table(point)
    tables["histogram"] = _histogram_table(point, 8)
    return tables


class TestWriters:
    TABLE = Table(schema="t.v1", columns=("a", "b", "c", "d"),
                  values=(np.array([math.pi, 1.0]), np.array([math.nan, math.inf]),
                          np.array([3, -2]), np.array(["ok", ""], dtype=object)))

    def test_csv_layout(self):
        text = write_csv(self.TABLE, precision=6)
        lines = text.splitlines()
        assert lines[0] == "# schema: t.v1"
        assert lines[1] == "# columns: a,b,c,d"
        assert lines[2] == "a,b,c,d"
        assert lines[3] == "3.14159,nan,3,ok"
        assert lines[4] == "1,inf,-2,"
        assert text.endswith("\n")

    def test_csv_precision(self):
        full = write_csv(self.TABLE, precision=15)
        assert "3.14159265358979" in full

    def test_rows_are_python_cells(self):
        assert self.TABLE.rows[0][0] == math.pi and self.TABLE.rows[0][3] == "ok"
        assert [type(v) for v in self.TABLE.rows[1]] == [float, float, int, str]

    @pytest.mark.parametrize("values", [
        (np.array([True, False]),),
        (np.array([1.0, 2.0], dtype=np.float32),),
        (np.array(["a", "b"]),),
        (np.zeros((2, 1)),),
    ], ids=["bool", "float32", "unicode", "2-D"])
    def test_table_rejects_other_columns(self, values):
        with pytest.raises(ValueError, match="not a 1-D float64, int64 or object"):
            Table(schema="t.v1", columns=("x",), values=values)

    def test_table_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="one array per column"):
            Table(schema="t.v1", columns=("x", "y"), values=(np.zeros(2), np.zeros(3)))
        with pytest.raises(ValueError, match="one array per column"):
            Table(schema="t.v1", columns=("x", "y"), values=(np.zeros(2),))

    @pytest.mark.parametrize("kind", ["rates", "clock", "lifetime", "scan", "oracle",
                                      "histogram"])
    def test_writers_match_per_cell_reference(self, writer_tables, kind):
        # The column-wise writers against a cell-by-cell rendering of the
        # rows: format() for floats, str() for ints and strings.
        table = writer_tables[kind]
        assert table.rows
        for precision in (6, 12, 17):
            lines = [f"# schema: {table.schema}", "# columns: " + ",".join(table.columns),
                     ",".join(table.columns)]
            lines += [",".join(format(v, f".{precision}g") if isinstance(v, float) else str(v)
                               for v in row) for row in table.rows]
            assert write_csv(table, precision) == "\n".join(lines) + "\n"
        cells = [[v if not isinstance(v, float) or math.isfinite(v) else None for v in row]
                 for row in table.rows]
        doc = {"schema": table.schema, "columns": list(table.columns), "rows": cells}
        assert write_json(table) == json.dumps(doc, indent=2) + "\n"

    def test_csv_repeated_values_keep_their_own_text(self):
        # The writer formats each distinct value of a column once, keyed
        # on its bits: 0.0 and -0.0, and nans of any payload or sign, each
        # keep their own text.
        nan_bits = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, *nan_bits.view(np.float64)]
        rng = np.random.default_rng(3)
        x = np.array(specials + [0.1, 1.0 / 3.0, 2.5e-310])[rng.integers(0, 10, 200)]
        n = rng.integers(-3, 3, 200)
        s = np.array(["a", "", "b"], dtype=object)[rng.integers(0, 3, 200)]
        table = Table(schema="t.v1", columns=("x", "n", "s"), values=(x, n, s))
        for precision in (6, 17):
            rows = [f"{format(a, f'.{precision}g')},{b},{c}" for a, b, c in table.rows]
            assert write_csv(table, precision).splitlines()[3:] == rows

    @pytest.mark.parametrize("precision", range(6, 18))
    def test_printf_float_matches_format(self, precision):
        # The CSV rows use printf codes; they must print a float exactly as
        # format() does, including nan, infinities, -0.0 and subnormals.
        rng = np.random.default_rng(precision)
        bits = rng.integers(0, 2**63, size=2000, dtype=np.uint64)
        bits[::2] |= np.uint64(1 << 63)
        values = bits.view(np.float64).tolist() + [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            2.225073858507201e-308, 1e-310, 0.1, 1e16, 123456789012345678.0]
        code = f"%.{precision}g"
        for x in values:
            assert code % x == format(x, f".{precision}g")

    @staticmethod
    def _kernel_families(p: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(100 + p)
        bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64, endpoint=False)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        # (n + 1/2) 10**-j with n of p digits is a double when 5**j divides
        # 2n + 1: a / 2**(j + 1) for odd a, and exactly halfway between two
        # p-digit texts.  The products of (n + 1/2) with 10.0**-j are the
        # doubles next to such ties.
        ties = []
        for j in range(0, 24):
            lo, hi = 2 * 10 ** (p - 1) // 5 ** j + 1, min(2 * 10 ** p // 5 ** j, 2 ** 53)
            odd = rng.integers(lo, hi, size=12) | 1 if lo < hi else []
            ties += [math.ldexp(int(a), -j - 1) for a in odd if lo <= a < hi]
        n = rng.integers(10 ** (p - 1), 10 ** p, size=200, dtype=np.int64)
        near_ties = (n + 0.5) * 10.0 ** -rng.integers(0, 20, size=200)
        specials = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-320,
                    2.225073858507201e-308, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308, 1e23, 0.1, 1.0]
        nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000BAD],
                        dtype=np.uint64).view(np.float64)
        return {
            "random bits": bits.view(np.float64),
            "powers of ten": np.concatenate([powers, np.nextafter(powers, 0.0),
                                             np.nextafter(powers, np.inf)]),
            "integers near 10**p": np.arange(10 ** p - 60, 10 ** p + 60, dtype=np.float64),
            "ties": np.array(ties + [-t for t in ties]),
            "near ties": near_ties,
            "specials": np.concatenate([specials, nans]),
        }

    @pytest.mark.parametrize("precision", range(6, 18))
    def test_printf_kernel_matches_format(self, precision):
        # The writer's vectorized %.{p}g against format(), value by value.
        for name, values in self._kernel_families(precision).items():
            texts = _gformat.format_g(values, precision)
            expected = [format(x, f".{precision}g") for x in values.tolist()]
            wrong = [(x, a, b) for x, a, b in zip(values.tolist(), texts, expected) if a != b]
            assert not wrong, (name, wrong[:5])

    def test_printf_kernel_takes_the_exponent_of_the_value(self):
        # The double nearest 1e23 is below 10**23; its rounded 16 digits
        # are not.
        assert _gformat.format_g(np.array([1e23, 1e22, 9.5]), 16) == [
            "9.999999999999999e+22", "1e+22", "9.5"]

    def test_printf_kernel_chunks(self, monkeypatch):
        values = self._kernel_families(17)["random bits"]
        whole = _gformat.format_g(values, 17)
        monkeypatch.setattr(_gformat, "_CHUNK", 7)
        assert _gformat.format_g(values, 17) == whole

    @pytest.mark.parametrize("keys", [scan._KERNEL_MIN_KEYS - 1, scan._KERNEL_MIN_KEYS])
    def test_csv_matches_per_cell_reference_about_the_crossover(self, keys, monkeypatch):
        # A float column of `keys` distinct values beside an int column:
        # % formats them one by one below the crossover and the kernel at it.
        calls = []
        kernel = _gformat.format_g
        monkeypatch.setattr(_gformat, "format_g", lambda *a: calls.append(a) or kernel(*a))
        rng = np.random.default_rng(keys)
        x = np.concatenate([rng.standard_normal(keys - 5) * 10.0 ** rng.integers(-8, 20, keys - 5),
                            [0.0, -0.0, math.nan, math.inf, 0.5]])
        table = Table(schema="t.v1", columns=("x", "n"),
                      values=(x[rng.permutation(2 * keys) % keys], np.arange(2 * keys)))
        for precision in (6, 12, 17):
            rows = [f"{format(a, f'.{precision}g')},{b}" for a, b in table.rows]
            assert write_csv(table, precision).splitlines()[3:] == rows
        assert len(calls) == (3 if keys >= scan._KERNEL_MIN_KEYS else 0)

    def test_json_unchanged(self):
        assert write_json(self.TABLE) == (
            '{\n  "schema": "t.v1",\n  "columns": [\n    "a",\n    "b",\n    "c",'
            '\n    "d"\n  ],\n  "rows": [\n    [\n      3.141592653589793,\n      '
            'null,\n      3,\n      "ok"\n    ],\n    [\n      1.0,\n      null,'
            '\n      -2,\n      ""\n    ]\n  ]\n}\n')

    def test_json_nulls(self):
        doc = json.loads(write_json(self.TABLE))
        assert doc["schema"] == "t.v1"
        assert doc["rows"][0][1] is None
        assert doc["rows"][1][1] is None
        assert doc["rows"][0][0] == pytest.approx(math.pi)


class TestCli:
    # Runs each command line in turn in one interpreter and prints, after
    # the import and after each run, its exit code and the scipy modules
    # then loaded.
    _SCIPY_PROBE = """\
import contextlib, io, json, sys
import quenchclock.cli
def scipy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = [["import", 0, scipy()]]
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = quenchclock.cli.main(args)
    seen.append([" ".join(args), code, scipy()])
print(json.dumps(seen))
"""

    @staticmethod
    def _probe(script, *args):
        # Runs script in a fresh interpreter on this package; its printed JSON.
        src = str(Path(quenchclock.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, *args],
                              env=env, capture_output=True, text=True, check=True)
        return json.loads(done.stdout)

    def _scipy_after(self, *commands):
        return self._probe(self._SCIPY_PROBE, json.dumps(commands))

    def test_import_leaves_out_scipy(self):
        # The package runs on numpy alone; scipy.linalg, imported with it,
        # once added about 0.3 s and 28 MiB to the start of every run
        # (0.23 s and 30 MiB without it), and about 0.2 s and 26.5 MiB to
        # the first master-equation solve.
        seen = self._scipy_after(
            ["rates"], ["scan", "--set", "scan.axes=[{name: h_f, min: 1.2, max: 1.8, steps: 3}]"],
            ["lifetime"], ["oracle", "--set", "oracle.L_oracle=512"], ["clock"])
        assert len(seen) == 6
        assert [(step, code, loaded) for step, code, loaded in seen
                if code != 0 or loaded] == []

    @pytest.mark.parametrize("args", [
        ["clock", "--set", "mc.n_trajectories=200"],
        ["clock", "--histogram", "8", "--set", "mc.n_trajectories=200"],
    ], ids=["mc", "histogram"])
    def test_sampling_leaves_out_scipy(self, args):
        # The sampler's passage spectrum is numpy alone.
        (_, _, before), (_, code, after) = self._scipy_after(args)
        assert (before, code, after) == ([], 0, [])

    def test_no_library_entry_point_loads_scipy(self):
        # The master equation, the oracles and the sampler: numpy alone.
        probe = """\
import json, sys
from quenchclock import (LadderRates, LadderSpec, QubitCoupling, QuenchSpec, Rates,
                         dense_ed_correlator, discrete_rates, evolve_master,
                         ladder_rates, simulate_ticks)
lad = LadderSpec(d=6, epsilon_w=1.0, g=0.1)
lr = ladder_rates(Rates(gamma_up=3.0, gamma_down=1.0), lad)
quench = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
coupling = QubitCoupling(epsilon0=2.5, g_obs=0.1, L=512)
drift = evolve_master(lr, lad, t_max=10.0).probability_drift
discrete_rates(quench, coupling, L=512, eta=0.01)
dense_ed_correlator(quench, 4)
simulate_ticks(LadderRates(p_up=1.0, p_down=2.0), lad, 100, seed=1)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps([loaded, drift]))
"""
        loaded, drift = self._probe(probe)
        assert loaded == []
        assert drift < 1e-9

    def test_runs_where_scipy_cannot_be_imported(self):
        # A finder ahead of every other makes ``import scipy`` fail, as on
        # an install with numpy and PyYAML only.
        probe = """\
import contextlib, io, json, sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, NoScipy())
import quenchclock.cli
from quenchclock import LadderRates, LadderSpec, evolve_master
lad = LadderSpec(d=6, epsilon_w=1.0, g=0.1)
drift = evolve_master(LadderRates(p_up=3.0, p_down=1.0), lad, t_max=10.0).probability_drift
codes = []
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(quenchclock.cli.main(args))
print(json.dumps([codes, drift]))
"""
        commands = [["rates"], ["lifetime"], ["clock", "--set", "mc.n_trajectories=200"],
                    ["clock", "--histogram", "8", "--set", "mc.n_trajectories=200"],
                    ["scan", "--set", "scan.axes=[{name: h_f, min: 1.2, max: 1.8, steps: 3}]"],
                    ["oracle", "--set", "oracle.L_oracle=512"]]
        codes, drift = self._probe(probe, json.dumps(commands))
        assert codes == [0] * len(commands)
        assert drift < 1e-9

    def test_rates_to_stdout(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema: quenchclock.rates.v1\n")
        assert "active" in out

    def test_bad_set_exits_2(self, capsys):
        assert main(["rates", "--set", "coupling.L=nope"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, reason", [
        pytest.param(["--set", "coupling.L=10000000000000000000"], "i64",
                     id="coupling.L=10000000000000000000"),
        pytest.param(["--set", "ladder.d=-10000000000000000000"], "i64",
                     id="ladder.d=-10000000000000000000"),
        pytest.param(["--set", f"coupling.epsilon0={_HUGE_INT}"], "float range",
                     id="coupling.epsilon0=1e400"),
        pytest.param(["--set", f"coupling.L={_HUGE_INT}"], "float range",
                     id="coupling.L=1e400"),
        pytest.param(["--seed", _HUGE_INT], "u64", id="seed=1e400"),
        pytest.param(["--set", "scan.axes=[{name: h_f, min: 1, max: 2, "
                      f"steps: {_HUGE_INT}}}]"], "float range", id="steps=1e400"),
    ])
    def test_integer_beyond_i64_exits_2(self, args, reason, capsys):
        assert main(["rates", *args]) == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("axis, reason", [
        pytest.param("{name: L, min: 2, max: 1.0e+19, steps: 2}", "i64", id="L-1.0e+19"),
        pytest.param("{name: d, min: 2, max: -1.0e+19, steps: 2}", "i64", id="d--1.0e+19"),
        pytest.param("{name: h_f, min: 1, max: 2, steps: 1.0e+300}", "i64",
                     id="steps-1.0e+300"),
        # Inside the i64 range: more steps than an axis may hold, or an
        # axis too large to allocate.
        pytest.param("{name: h_f, min: 1, max: 2, steps: 9223372036854775807}", "i64",
                     id="steps-9223372036854775807"),
        pytest.param("{name: h_f, min: 1, max: 2, steps: 1.0e+17}",
                     "100000000000000000 rows", id="steps-1.0e+17"),
    ])
    def test_integer_axis_beyond_i64_exits_2(self, axis, reason, capsys):
        assert main(["rates", "--set", f"scan.axes=[{axis}]"]) == 2
        assert reason in capsys.readouterr().err

    def test_out_of_domain_point_exits_3(self, capsys):
        assert main(["rates", "--set", "coupling.epsilon0=50"]) == 3
        out = capsys.readouterr().out
        assert "no_resonance" in out

    @pytest.mark.parametrize("overrides, message", [
        (["coupling.epsilon0=-1"], "epsilon0 must be positive"),
        (["coupling.L=0"], "L must be a positive integer"),
        (["model.kind=xx_ring", "model.t=0"], "hopping t must be positive"),
        (["ladder.d=1"], "d must be an integer >= 2"),
    ])
    def test_invalid_single_point_exits_like_rates(self, overrides, message, capsys):
        # The row of rates is flagged invalid; the one-point commands have no
        # row to flag and stop with the spec's message.
        args = [a for item in ["mc.n_trajectories=10", *overrides] for a in ("--set", item)]
        expected = main(["rates", *args])
        assert capsys.readouterr().out.splitlines()[3].endswith(",invalid")
        for command in (["oracle"], ["clock", "--histogram", "4"]):
            assert main([*command, *args]) == expected == 3
            assert capsys.readouterr().err.startswith(f"domain error: {message}")

    def test_zero_ladder_coupling_exits_3_with_table(self, capsys):
        for command in ("clock", "scan"):
            assert main([command, "--set", "ladder.g=0"]) == 3
            header, row = capsys.readouterr().out.splitlines()[2:4]
            assert dict(zip(header.split(","), row.split(",")))["flag"] == "zero_rates"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_ladder_coupling_flags_zero_rates_for_every_command(self, d, capsys):
        # Vanishing walk rates are one condition whatever the command.
        for command in ("clock", "lifetime", "scan"):
            assert main([command, "--set", "ladder.g=0", "--set", f"ladder.d={d}"]) == 3
            header, row = capsys.readouterr().out.splitlines()[2:4]
            assert dict(zip(header.split(","), row.split(",")))["flag"] == "zero_rates"

    def test_zero_ladder_coupling_is_zero_rates_off_the_grid_too(self, capsys):
        # The library calls and the histogram stop on the row's flag.
        quench, coupling, ladder = apply_overrides(RunConfig(), ["ladder.g=0"]).point_arrays(
            {}, 1).point(0)
        with pytest.raises(ZeroRates, match="both walk rates vanish"):
            lifetime(quench, coupling, ladder)
        walk = ladder_rates(transition_rates(quench, coupling), ladder)
        with pytest.raises(ZeroRates, match="both walk rates vanish"):
            sample_tick_times(walk, ladder, 10, seed=0)
        assert main(["clock", "--histogram", "4", "--set", "mc.n_trajectories=10",
                     "--set", "ladder.g=0"]) == 3
        assert capsys.readouterr().err == "domain error: both walk rates vanish\n"

    def test_json_format(self, capsys):
        assert main(["rates", "--format", "json",
                     "--set", "coupling.epsilon0=50"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "quenchclock.rates.v1"
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["gamma_up"] is None
        assert row["flag"] == "no_resonance"

    def test_oracle_columns(self, tmp_path, capsys):
        path = tmp_path / "oracle.csv"
        code = main(["oracle", "--set", "oracle.L_oracle=256",
                     "--set", "oracle.eta=0.02", "--out", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[2] == "L,eta,gamma_up,gamma_down,rel_err_up,rel_err_down"
        assert len(lines) == 6  # two header comments, one title row, 3 rungs
        assert capsys.readouterr().out == ""

    def test_rates_with_infinite_rates(self, capsys):
        # chi_second is inf - inf, nan: the row has no verdict and no balance.
        assert main(["rates", "--set", "coupling.g_obs=1e160"]) == 3
        assert capsys.readouterr().out.splitlines()[3] == (
            "inf,inf,nan,,nan,0,condition_undefined")

    def test_oracle_with_infinite_rates(self, capsys):
        # g_obs**2 overflows: every rung's rates are inf and their errors
        # against the infinite closed forms nan.
        code = main(["oracle", "--set", "oracle.L_oracle=512",
                     "--set", "coupling.g_obs=1e160"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:] == ["64,0.01,inf,inf,nan,nan",
                             "256,0.00316227766017,inf,inf,nan,nan",
                             "512,0.001,inf,inf,nan,nan"]

    def test_lifetime_command(self, capsys):
        assert main(["lifetime"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# schema: quenchclock.lifetime.v2",
                             "# columns: t_star,mean_tick_time,flag"]
        header, row = lines[2:4]
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["t_star"]) > 0.0
        assert cells["flag"] == ""

    def test_scan_command_merges_sections(self, capsys):
        assert main(["scan"]) == 0
        header = capsys.readouterr().out.splitlines()[2].split(",")
        for name in ("gamma_up", "condition_lhs", "nu_tick", "t_star", "flag"):
            assert name in header

    def test_histogram(self, capsys):
        code = main(["clock", "--histogram", "8",
                     "--set", "mc.n_trajectories=400", "--seed", "9"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema: quenchclock.histogram.v1"
        counts = [int(line.split(",")[2]) for line in lines[3:]]
        assert len(counts) == 8
        assert sum(counts) == 400

    def test_histogram_guards(self, capsys):
        # a passive point is sampled like any other
        assert main(["clock", "--histogram", "8", "--set", "mc.n_trajectories=10",
                     "--set", "coupling.epsilon0=4.0"]) == 0
        counts = [int(line.split(",")[2]) for line in capsys.readouterr().out.splitlines()[3:]]
        assert len(counts) == 8 and sum(counts) == 10
        # an unreachable top cannot be
        assert main(["clock", "--histogram", "8", "--set", "mc.n_trajectories=10",
                     "--set", "ladder.gamma=1.0e-200"]) == 3
        assert "domain error" in capsys.readouterr().err
        # a grid cannot be histogrammed
        assert main(["clock", "--histogram", "8", "--set", "mc.n_trajectories=10",
                     "--set", "scan.axes=[{name: h_f, min: 1.2, max: 1.5, steps: 2}]",
                     ]) == 2
        # sampling must be enabled
        assert main(["clock", "--histogram", "8"]) == 2
        assert main(["clock", "--histogram", "0",
                     "--set", "mc.n_trajectories=10"]) == 2

    def test_rung_is_no_config_key(self, tmp_path, capsys):
        # The rung is the probe gap; the old key has no alias.
        assert main(["lifetime", "--set", "ladder.epsilon_w=2.5"]) == 2
        assert "unknown key ladder.epsilon_w" in capsys.readouterr().err
        cfg = tmp_path / "run.yaml"
        cfg.write_text("ladder: {epsilon_w: null}\n")
        assert main(["rates", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: ladder.epsilon_w: unknown key\n"

    @pytest.mark.parametrize("command", [["clock"], ["clock", "--histogram", "4"]])
    def test_one_trajectory_is_a_config_error(self, command, capsys):
        # One sample has no spread: both sampling paths refuse it by one rule.
        assert main([*command, "--set", "mc.n_trajectories=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: mc.n_trajectories: must be 0")

    # Sizes numpy refuses at once; sizes it could allocate are never tried.
    @pytest.mark.parametrize("args, what", [
        (["oracle", "--set", "oracle.L_oracle=1000000000000000"],
         "oracle.L_oracle: a chain of 1000000000000000 sites"),
        (["clock", "--histogram", "1000000000000000", "--set", "mc.n_trajectories=10"],
         "--histogram: a histogram of 1000000000000000 bins"),
        (["clock", "--histogram", "1" + "0" * 21, "--set", "mc.n_trajectories=10"],
         f"--histogram: a histogram of {10**21} bins"),
        (["clock", "--set", "mc.n_trajectories=1000000000000000"],
         "mc.n_trajectories: a sample of 1000000000000000 tick times"),
        (["clock", "--histogram", "3", "--set", "mc.n_trajectories=1000000000000000"],
         "mc.n_trajectories: a sample of 1000000000000000 tick times"),
        (["clock", "--set", f"mc.n_trajectories={10**18}"],
         f"mc.n_trajectories: a sample of {10**18} tick times"),
        # The first passage is O(1) at any depth; the sampler's passage
        # spectrum is not.
        (["clock", "--set", "ladder.d=1000000000000000", "--set", "mc.n_trajectories=10"],
         "ladder.d: a passage spectrum of 1000000000000000 levels"),
        (["clock", "--histogram", "3", "--set", "ladder.d=1000000000000000",
          "--set", "mc.n_trajectories=10"],
         "ladder.d: a passage spectrum of 1000000000000000 levels"),
    ])
    def test_unallocatable_size_exits_2(self, args, what, capsys):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {what} does not fit in memory\n"

    @pytest.mark.parametrize("command, name", [(["oracle"], "oracle"),
                                               (["clock", "--histogram", "4"], "--histogram")])
    def test_single_point_command_rejects_axes(self, command, name, capsys):
        # A one-point command would ignore the grid; both refuse it by one rule.
        assert main([*command, "--set", "mc.n_trajectories=10", "--set",
                     "scan.axes=[{name: h_f, min: 1.2, max: 1.5, steps: 2}]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {name} needs a single point; remove scan axes\n"

    def test_consecutive_calls_match_separate_processes(self, capsys):
        # One parser serves every call in a process; no call's --set list
        # may leak into the next one's defaults.
        runs = [["rates", "--set", "coupling.epsilon0=2.2", "--set", "model.h_f=1.3"],
                ["clock", "--set", "ladder.d=12"],
                ["rates"]]
        in_process = []
        for argv in runs:
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        src = str(Path(quenchclock.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        separate = [subprocess.run([sys.executable, "-m", "quenchclock", *argv], env=env,
                                   capture_output=True, text=True, check=True).stdout
                    for argv in runs]
        assert in_process == separate
        assert len(set(in_process)) == len(runs)

    def test_seed_controls_sampling(self, tmp_path):
        args = ["clock", "--set", "mc.n_trajectories=60"]
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        assert main(args + ["--seed", "7", "--out", str(paths[0])]) == 0
        assert main(args + ["--seed", "7", "--out", str(paths[1])]) == 0
        assert main(args + ["--seed", "8", "--out", str(paths[2])]) == 0
        a, b, c = (p.read_bytes() for p in paths)
        assert a == b
        assert a != c

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        base = ["clock",
                "--set", "scan.axes=[{name: epsilon0, min: 2.3, max: 2.7, steps: 2}]",
                "--set", "mc.n_trajectories=200", "--seed", "11"]
        out = []
        for name, threads in (("t1a.csv", "1"), ("t1b.csv", "1"), ("t4.csv", "4")):
            path = tmp_path / name
            assert main(base + ["--threads", threads, "--out", str(path)]) == 0
            out.append(path.read_bytes())
        assert out[0] == out[1] == out[2]

    def test_typed_flags_apply_after_set(self, tmp_path, capsys):
        assert main(["rates", "--set", "output.format=csv", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == "quenchclock.rates.v1"
        clock = ["clock", "--set", "mc.n_trajectories=60"]
        runs = {"flag": ["--set", "mc.seed=5", "--seed", "7"],
                "set": ["--set", "mc.seed=7"],
                "2**53": ["--seed", str(2**53)],
                "2**53+1": ["--seed", str(2**53 + 1)]}
        out = {}
        for name, args in runs.items():
            path = tmp_path / f"{name}.csv"
            assert main(clock + args + ["--out", str(path)]) == 0
            out[name] = path.read_bytes()
        assert out["flag"] == out["set"]
        assert out["2**53"] != out["2**53+1"]
        for seed in ("-1", "18446744073709551616"):
            assert main(["rates", "--seed", seed]) == 2
            assert "u64" in capsys.readouterr().err
        assert main(["rates", "--threads", "0"]) == 2

    @pytest.mark.parametrize("command", ["rates", "oracle"])
    @pytest.mark.parametrize("item, error", [
        ("oracle.kernel=foo", "--set 'oracle.kernel=foo': unknown key oracle.kernel\n"),
        ("oracle.L_oracle=65", "oracle: lattice size must be even and >= 64, got 65\n"),
        ("oracle.L_oracle=62", "oracle: lattice size must be even and >= 64, got 62\n"),
    ], ids=["oracle.kernel=foo", "oracle.L_oracle=65", "oracle.L_oracle=62"])
    def test_bad_oracle_setting_exits_2(self, command, item, error, capsys):
        assert main([command, "--set", item]) == 2
        assert capsys.readouterr().err == f"config error: {error}"

    def test_bad_oracle_eta_is_a_domain_error(self, capsys):
        # Its bound is a tenth of the point's band, so only the oracle sees it.
        assert main(["rates", "--set", "oracle.eta=5"]) == 0
        assert main(["oracle", "--set", "oracle.eta=5"]) == 3
        assert "domain error" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        assert main(["rates", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output {str(path)!r}")
        assert not path.parent.exists()

    def test_out_path_stays_verbatim(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name in ("null", "123"):
            assert main(["rates", "--out", name]) == 0
            assert (tmp_path / name).read_text().startswith("# schema: ")
        assert capsys.readouterr().out == ""

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("coupling: {epsilon0: 50.0}\n")
        assert main(["rates", "--config", str(cfg)]) == 3
        capsys.readouterr()
        assert main(["rates", "--config", str(cfg),
                     "--set", "coupling.epsilon0=2.5"]) == 0
        assert "active" in capsys.readouterr().out
        assert main(["rates", "--config", str(tmp_path / "missing.yaml")]) == 2
