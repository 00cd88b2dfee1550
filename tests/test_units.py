"""Every table column scales as its unit says when the energy unit changes.

Rescaling every energy of a ring point by ``lam`` (hopping, both
staggerings, the probe gap, the ladder coupling and the ladder's
emission rate) changes nothing but the unit: rates and energies grow as
``lam``, times shrink as ``1/lam``, and counts and ratios stay.  The
ring's observable, its current, already carries the hopping, so
``g_obs`` stays.  The chain's energy unit is its fixed exchange, so the
ring carries the check; the battery formulas are shared by both models.
"""

from dataclasses import replace

import numpy as np
import pytest

from quenchclock import ModelSpec, RunConfig, band_edges, run_scan

# The power of the energy unit in each numeric column's unit.  A column
# missing here has no stated unit, and fails the test.
_UNIT_POWER = {
    "gamma_up": 1,
    "gamma_down": 1,
    "chi_second": 1,
    "condition_lhs": 2,
    "excluded_roots": 0,
    "p_up": 1,
    "p_down": 1,
    "nu_tick": 1,
    "accuracy_N": 0,
    "entropy_per_tick": 0,
    "relative_bias": 0,
    "tur_ratio": 0,
    "exact_N": 0,
    "exact_rate": 1,
    "empirical_accuracy": 0,
    "empirical_rate": 1,
    "t_star": -1,
    "mean_tick_time": -1,
}
_RTOL = 1e-12
_COMMANDS = ("rates", "clock", "lifetime", "scan")


def _ring_points(n, seed=5):
    """``n`` random ring points, most of them pumping: staggering that
    changes sign, and a probe gap inside the final band."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        t = rng.uniform(0.5, 1.5)
        v_i = -t * rng.uniform(0.3, 1.4)
        v_f = t * rng.uniform(0.3, 1.4)
        lo, hi = band_edges(ModelSpec.xx_ring(t=t, V=v_f))
        width = 2.0 * (hi - lo)
        epsilon0 = rng.uniform(2.0 * lo + 0.08 * width, 2.0 * hi - 0.08 * width)
        points.append(dict(t=t, v_i=v_i, v_f=v_f, epsilon0=epsilon0,
                           g=rng.uniform(0.005, 0.2), gamma=rng.uniform(0.5, 5.0),
                           d=int(rng.integers(2, 30))))
    return points


def _config(point, lam):
    c = RunConfig()
    return replace(
        c,
        model=replace(c.model, kind="xx_ring", t=lam * point["t"],
                      v_i=lam * point["v_i"], v_f=lam * point["v_f"]),
        coupling=replace(c.coupling, epsilon0=lam * point["epsilon0"], L=256),
        ladder=replace(c.ladder, d=point["d"], g=lam * point["g"],
                       gamma=lam * point["gamma"]),
        mc=replace(c.mc, n_trajectories=200, seed=11))


def _misscaled(base, scaled, lam):
    """Names of the columns of ``scaled`` that are not ``base`` in the
    unit ``lam`` times larger; strings must not change."""
    assert base.columns == scaled.columns
    bad = set()
    for name, b, s in zip(base.columns, base.values, scaled.values):
        if b.dtype.kind == "O":
            if not (b == s).all():
                bad.add(name)
            continue
        if name not in _UNIT_POWER:
            bad.add(f"{name} (no unit)")
            continue
        want = b * float(lam) ** _UNIT_POWER[name]
        same = (s == want) | (np.isnan(s) & np.isnan(want))
        if not (same | (np.abs(s - want) <= _RTOL * np.abs(want))).all():
            bad.add(name)
    return bad


@pytest.mark.parametrize("lam", [2.0, 1e3])
def test_columns_scale_with_the_energy_unit(lam):
    bad, finite = set(), set()
    for point in _ring_points(12):
        for command in _COMMANDS:
            base = run_scan(_config(point, 1.0), command)
            bad |= _misscaled(base, run_scan(_config(point, lam), command), lam)
            finite.update(name for name, v in zip(base.columns, base.values)
                          if v.dtype.kind == "f" and np.isfinite(v).any())
    assert not bad, sorted(bad)
    # Every column with a unit was checked on at least one finite cell.
    assert finite == set(_UNIT_POWER) - {"excluded_roots"}, sorted(finite)
