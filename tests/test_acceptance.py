"""Acceptance gate: the seven product-level guarantees, one test each.

Every test prints a single summary line ``[PASS|FAIL] criterion N
(label): T s``; run ``pytest tests/test_acceptance.py -v -s`` to see
them as they complete.  Each criterion carries a wall-clock budget that
is asserted along with the numeric tolerances.
"""

import math
import time

import numpy as np

from quenchclock import (
    LadderRates,
    LadderSpec,
    QubitCoupling,
    QuenchClockError,
    QuenchSpec,
    RunConfig,
    apply_overrides,
    band_edges,
    clock_metrics,
    discrete_rates,
    emit_config,
    evolve_master,
    ladder_rates,
    lifetime,
    run_scan,
    simulate_ticks,
    solve_first_passage,
    transition_rates,
)
from quenchclock.cli import main as cli_main


def _finish(n, label, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        failures.append(f"wall clock {elapsed:.1f}s exceeds the {budget}s budget")
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {n} ({label}): {elapsed:.1f}s")
    assert not failures, f"criterion {n} ({label}): " + "; ".join(failures)


def _draw_chain_point(rng):
    """Random admissible transverse-chain quench and probe gap."""
    while True:
        quench = QuenchSpec.ising(h_i=rng.uniform(0.05, 0.95),
                                  h_f=rng.uniform(1.05, 2.2),
                                  kappa=rng.uniform(0.6, 1.4))
        lo, hi = band_edges(quench.final, reduced=True)
        width = 2.0 * (hi - lo)
        eps0 = rng.uniform(2.0 * lo + 0.08 * width, 2.0 * hi - 0.08 * width)
        coup = QubitCoupling(epsilon0=eps0, g_obs=0.1, L=512)
        try:
            rates = transition_rates(quench, coup)
        except QuenchClockError:
            continue
        if max(c.weight for c in rates.roots) > 10.0:
            continue  # too close to a band extremum for a fair quadrature
        return quench, coup, rates


def _draw_ring_point(rng):
    while True:
        sign = -1.0 if rng.random() < 0.5 else 1.0
        quench = QuenchSpec.xx_ring(V_i=sign * rng.uniform(0.3, 1.4),
                                    V_f=rng.uniform(0.3, 1.4), t=1.0)
        lo, hi = band_edges(quench.final, reduced=True)
        width = 2.0 * (hi - lo)
        eps0 = rng.uniform(2.0 * lo + 0.08 * width, 2.0 * hi - 0.08 * width)
        coup = QubitCoupling(epsilon0=eps0, g_obs=0.1, L=512)
        try:
            rates = transition_rates(quench, coup)
        except QuenchClockError:
            continue
        if max(c.weight for c in rates.roots) > 10.0:
            continue
        return quench, coup, rates


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    for model, draw in (("chain", _draw_chain_point), ("ring", _draw_ring_point)):
        for i in range(10):
            quench, coup, _ = draw(rng)
            rep = discrete_rates(quench, coup, L=4096, eta=1e-3)
            where = f"{model} point {i} (eps0={coup.epsilon0:.4f})"
            if not rep.relative_error_vs_closed_form < 0.02:
                failures.append(
                    f"{where}: error {rep.relative_error_vs_closed_form:.3%} >= 2%")
            errs = [max(r.rel_err_up, r.rel_err_down)
                    for r in rep.convergence_table]
            if not (errs[0] > errs[1] > errs[2]):
                failures.append(f"{where}: refinement not monotone {errs}")
    _finish(1, "oracle equivalence", t0, 1.0, failures)


def test_criterion_2_identity_suite():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(202)
    for i in range(1000):
        draw = _draw_chain_point if i % 2 == 0 else _draw_ring_point
        quench, coup, rates = draw(rng)

        # pumping strength is exactly the response asymmetry
        lhs = rates.gamma_up - rates.gamma_down
        if not abs(lhs + rates.chi_second) <= 1e-15 * max(abs(lhs), rates.total):
            failures.append(f"draw {i}: gamma difference != -chi''")
            break

        lad = LadderSpec(d=int(rng.integers(2, 60)), epsilon_w=coup.epsilon0,
                         g=rng.uniform(1e-3, 0.5))
        lr = ladder_rates(rates, lad)
        expected = 2.0 * lad.g**2 / rates.total
        if not abs(lr.total - expected) <= 1e-15 * expected:
            failures.append(f"draw {i}: p_up + p_down != 2 g^2 / bath total")
            break

        m = clock_metrics(lr, lad.d)
        target = lad.d * math.tanh(m.entropy_per_tick / (2.0 * lad.d))
        if not abs(m.accuracy_N - target) <= 1e-12 * max(1.0, abs(target)):
            failures.append(f"draw {i}: N != d tanh(entropy / 2d)")
            break

        h = rng.uniform(0.1, 2.5)
        if abs(h - 1.0) < 0.05:
            h += 0.1
        null = QuenchSpec.ising(h_i=h, h_f=h, kappa=1.0)
        lo, hi = band_edges(null.final, reduced=True)
        try:
            r0 = transition_rates(null, QubitCoupling(
                epsilon0=float(lo + hi), g_obs=0.1, L=64))
        except QuenchClockError:
            continue
        if r0.gamma_up != 0.0:
            failures.append(f"draw {i}: null quench pumps (gamma_up={r0.gamma_up})")
            break
    _finish(2, "steady-state identities", t0, 1.0, failures)


def test_criterion_3_bias_condition_equivalence():
    t0 = time.perf_counter()
    failures = []

    def check(config, command_label, necessary):
        table = run_scan(config, "rates")
        cols = table.columns
        idx = {name: cols.index(name) for name in
               ("verdict", "condition_lhs", "chi_second", "flag")}
        unflagged = active_rows = 0
        for row in table.rows:
            if row[idx["flag"]] != "":
                continue
            unflagged += 1
            active = row[idx["verdict"]] == "active"
            lhs = row[idx["condition_lhs"]]
            if active != (lhs < 0.0):
                failures.append(
                    f"{command_label} row {row[:2]}: rate sign and printed "
                    f"condition disagree (lhs={lhs!r})")
            if active:
                active_rows += 1
                if not necessary(row):
                    failures.append(
                        f"{command_label} row {row[:2]}: active outside the "
                        f"predicted parameter region")
        if unflagged < 500 or active_rows < 50:
            failures.append(f"{command_label}: grid too degenerate "
                            f"({unflagged} unflagged, {active_rows} active)")

    chain = apply_overrides(RunConfig(), [
        "coupling.epsilon0=2.5",
        "scan.axes=[{name: h_i, min: 0.05, max: 0.95, steps: 50},"
        " {name: h_f, min: 0.1, max: 2.5, steps: 50}]"])
    check(chain, "chain", lambda row: row[1] > 1.0)  # h_f is the second axis

    ring = apply_overrides(RunConfig(), [
        "model.kind=xx_ring", "coupling.epsilon0=2.6",
        "scan.axes=[{name: v_i, min: -1.5, max: 1.5, steps: 50},"
        " {name: v_f, min: -1.5, max: 1.5, steps: 50}]"])
    check(ring, "ring", lambda row: row[0] * row[1] < 0.0)
    _finish(3, "inversion-condition equivalence", t0, 1.0, failures)


def test_criterion_4_clock_statistics():
    t0 = time.perf_counter()
    failures = []
    d = 20
    lad = LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=50.0)
    for ratio in (1.5, 3.0, 10.0):
        lr = LadderRates(p_up=ratio, p_down=1.0)
        fp = solve_first_passage(lr, lad)
        stats = simulate_ticks(lr, lad, 100_000, seed=404)
        err = abs(stats.empirical_accuracy - fp.exact_N) / fp.exact_N
        if not err < 0.05:
            failures.append(f"ratio {ratio}: sampled N off the exact first "
                            f"passage by {err:.2%} (>= 5%)")
        if ratio == 10.0:
            closed = d * (ratio - 1.0) / (ratio + 1.0)
            err = abs(stats.empirical_accuracy - closed) / closed
            if not err < 0.10:
                failures.append(f"ratio 10: sampled N off d(p-q)/(p+q) by "
                                f"{err:.2%} (>= 10%)")
        tr = evolve_master(lr, lad, t_max=12.0 / fp.exact_rate, n_records=51)
        err = abs(tr.tick_rate[-1] - fp.exact_rate) / fp.exact_rate
        if not err < 0.01:
            failures.append(f"ratio {ratio}: master flux off the exact rate "
                            f"by {err:.2%} (>= 1%)")
    _finish(4, "clock statistics", t0, 3.0, failures)


def test_criterion_5_scaling_shapes():
    t0 = time.perf_counter()
    failures = []
    lr = LadderRates(p_up=3.0, p_down=1.0)
    base = clock_metrics(lr, 10).nu_tick * 10
    for d in (20, 40):
        other = clock_metrics(lr, d).nu_tick * d
        if not abs(other / base - 1.0) <= 1e-12:
            failures.append(f"nu_tick * d not constant at d={d}")
    big = clock_metrics(LadderRates(p_up=1000.0, p_down=1.0), 20)
    if not big.accuracy_N / 20 > 0.99:
        failures.append(f"N/d = {big.accuracy_N / 20:.4f} <= 0.99 at ratio 1e3")
    small = clock_metrics(LadderRates(p_up=1.001, p_down=1.0), 20)
    quotient = small.accuracy_N / (small.entropy_per_tick / 2.0)
    if not abs(quotient - 1.0) < 1e-3:
        failures.append(f"N != entropy/2 at ratio 1.001 (quotient {quotient})")
    _finish(5, "scaling shapes", t0, 1.0, failures)


def test_criterion_6_lifetime():
    t0 = time.perf_counter()
    failures = []
    quench = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
    lad = LadderSpec(d=6, epsilon_w=2.5, g=0.02)
    t_small = lifetime(quench, QubitCoupling(2.5, 0.1, 256), lad).lifetime
    t_large = lifetime(quench, QubitCoupling(2.5, 0.1, 512), lad).lifetime
    if not abs(t_large / t_small - 2.0) <= 1e-12:
        failures.append(f"doubling L scaled T* by {t_large / t_small!r}, not 2")

    # |V| = 1 ring: relative bias at gap eps0 is (eps0^2/4 - 2)/(eps0^2/4),
    # so this gap pins it to -1e-7
    eps0 = 2.0 * math.sqrt(2.0 / (1.0 + 1e-7))
    ring = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
    coup = QubitCoupling(epsilon0=eps0, g_obs=0.1, L=512)
    rates = transition_rates(ring, coup)
    rel_bias = rates.chi_second / rates.total
    if not abs(rel_bias + 1e-7) < 1e-10:
        failures.append(f"constructed relative bias {rel_bias!r}, wanted -1e-7")
    t_star = lifetime(ring, coup, LadderSpec(d=6, epsilon_w=eps0, g=0.02)).lifetime
    if not t_star > 1e6:
        failures.append(f"T* = {t_star!r} <= 1e6 at relative bias 1e-7")
    _finish(6, "battery lifetime", t0, 1.0, failures)


def test_criterion_7_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []
    config = apply_overrides(RunConfig(), [
        "scan.axes=[{name: epsilon0, min: 2.2, max: 3.0, steps: 5}]",
        "mc.n_trajectories=500", "mc.seed=17"])
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(emit_config(config))
    blobs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        out = tmp_path / name
        code = cli_main(["clock", "--config", str(cfg_path),
                         "--threads", threads, "--out", str(out)])
        if code != 0:
            failures.append(f"run {name}: exit code {code}")
        blobs.append(out.read_bytes())
    if not (blobs[0] == blobs[1]):
        failures.append("two identical runs produced different bytes")
    if not (blobs[0] == blobs[2]):
        failures.append("thread counts 1 and 4 produced different bytes")
    _finish(7, "byte determinism", t0, 1.0, failures)
