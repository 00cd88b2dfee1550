"""Config round-trips, scan tables, writers, and the command line."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quenchclock import (
    ConfigError,
    RunConfig,
    Table,
    apply_overrides,
    emit_config,
    grid_points,
    load_config,
    parse_config,
    row_seed,
    run_scan,
    transition_rates,
    write_csv,
    write_json,
)
from quenchclock.cli import THREADS_ENV, main
from quenchclock.scan import FLAG_PRIORITY


class TestConfig:
    def test_defaults_round_trip(self):
        c = RunConfig()
        assert parse_config(emit_config(c)) == c

    def test_custom_round_trip(self):
        text = """
model: {kind: xx_ring, v_i: -0.8, v_f: 1.2, t: 0.9}
coupling: {epsilon0: 2.2, g_obs: 0.05, L: 256}
ladder: {d: 14, g: 0.02, gamma: 3.5, epsilon_w: 2.2}
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
_SHARED = {"epsilon0": (0.2, 8.0), "g": (0.001, 0.1), "gamma": (0.5, 50.0),
           "epsilon_w": (0.2, 8.0)}


def _num(x: float) -> str:
    # Fixed-point text: YAML reads "1e-05" as a string, "0.000010" as a float.
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
    for name in ("gamma", "epsilon_w"):
        value = draw(st.none() | st.floats(*ranges[name]))
        if value is not None:
            sets.append(f"ladder.{name}={_num(value)}")
    axes = []
    for name in draw(st.lists(st.sampled_from(sorted(ranges)), min_size=1,
                              max_size=2, unique=True)):
        lo, hi = sorted(draw(st.floats(*ranges[name])) for _ in range(2))
        axes.append(f"{{name: {name}, min: {_num(lo)}, max: {_num(hi)}, "
                    f"steps: {draw(st.integers(1, 5))}}}")
    sets.append("scan.axes=[" + ", ".join(axes) + "]")
    return sets


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
        quench, coupling, _ = c.point({})
        r = transition_rates(quench, coupling)
        row = table.rows[0]
        assert row[0] == r.gamma_up and row[1] == r.gamma_down
        assert row[3] == "active" and row[6] == ""

    @given(scan_overrides())
    @example([FIXED_GRID, "mc.n_trajectories=50"])
    @example([FIXED_GRID, "ladder.g=0", "mc.n_trajectories=20"])
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

    def test_passive_point_skips_sampling(self):
        c = apply_overrides(RunConfig(), ["coupling.epsilon0=4.0",
                                          "mc.n_trajectories=20"])
        table = run_scan(c, "clock")
        row = dict(zip(table.columns, table.rows[0]))
        assert row["flag"] == "passive"
        assert math.isnan(row["empirical_accuracy"])
        assert row["p_up"] < row["p_down"]  # exact columns still filled
        assert math.isfinite(row["exact_N"])

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

    def test_threads_do_not_change_rows(self):
        c = apply_overrides(RunConfig(), [
            "scan.axes=[{name: epsilon0, min: 2.2, max: 3.0, steps: 5}]",
            "mc.n_trajectories=40"])
        t1 = run_scan(c, "clock", threads=1)
        t4 = run_scan(c, "clock", threads=4)
        assert t1 == t4

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run_scan(RunConfig(), "frobnicate")


class TestWriters:
    TABLE = Table(schema="t.v1", columns=("a", "b", "c", "d"),
                  rows=((math.pi, math.nan, 3, "ok"),
                        (1.0, math.inf, -2, "")))

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

    def test_json_nulls(self):
        doc = json.loads(write_json(self.TABLE))
        assert doc["schema"] == "t.v1"
        assert doc["rows"][0][1] is None
        assert doc["rows"][1][1] is None
        assert doc["rows"][0][0] == pytest.approx(math.pi)


class TestCli:
    def test_rates_to_stdout(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema: quenchclock.rates.v1\n")
        assert "active" in out

    def test_bad_set_exits_2(self, capsys):
        assert main(["rates", "--set", "coupling.L=nope"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_domain_point_exits_3(self, capsys):
        assert main(["rates", "--set", "coupling.epsilon0=50"]) == 3
        out = capsys.readouterr().out
        assert "no_resonance" in out

    def test_zero_ladder_coupling_exits_3_with_table(self, capsys):
        for command in ("clock", "scan"):
            assert main([command, "--set", "ladder.g=0"]) == 3
            header, row = capsys.readouterr().out.splitlines()[2:4]
            assert dict(zip(header.split(","), row.split(",")))["flag"] == "zero_rates"

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

    def test_lifetime_command(self, capsys):
        assert main(["lifetime"]) == 0
        header, row = capsys.readouterr().out.splitlines()[2:4]
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
        # a passive point cannot be sampled
        assert main(["clock", "--histogram", "8", "--set", "mc.n_trajectories=10",
                     "--set", "coupling.epsilon0=4.0"]) == 3
        assert "domain error" in capsys.readouterr().err
        # a grid cannot be histogrammed
        assert main(["clock", "--histogram", "8", "--set", "mc.n_trajectories=10",
                     "--set", "scan.axes=[{name: h_f, min: 1.2, max: 1.5, steps: 2}]",
                     ]) == 2
        # sampling must be enabled
        assert main(["clock", "--histogram", "8"]) == 2
        assert main(["clock", "--histogram", "0",
                     "--set", "mc.n_trajectories=10"]) == 2

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

    def test_threads_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(THREADS_ENV, "3")
        path = tmp_path / "env.csv"
        assert main(["rates", "--out", str(path)]) == 0
        monkeypatch.setenv(THREADS_ENV, "zero")
        assert main(["rates"]) == 2
        assert "config error" in capsys.readouterr().err
        monkeypatch.setenv(THREADS_ENV, "0")
        assert main(["rates"]) == 2

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("coupling: {epsilon0: 50.0}\n")
        assert main(["rates", "--config", str(cfg)]) == 3
        capsys.readouterr()
        assert main(["rates", "--config", str(cfg),
                     "--set", "coupling.epsilon0=2.5"]) == 0
        assert "active" in capsys.readouterr().out
        assert main(["rates", "--config", str(tmp_path / "missing.yaml")]) == 2
