"""Ladder clock: walk rates, metrics, master equation, sampling."""

import importlib.util
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal, expm
from scipy.signal import lfilter
from scipy.stats import kstest

from quenchclock import (
    LadderRates,
    LadderSpec,
    NotReachable,
    Rates,
    ZeroRates,
    clock_metrics,
    evolve_master,
    ladder_rates,
    resolve_gamma,
    sample_tick_times,
    simulate_ticks,
    solve_first_passage,
    transition_rates,
)
from quenchclock import clock
from quenchclock.errors import QuenchClockError

_ROOT = Path(__file__).resolve().parents[1]

# Walks whose passage rates span up to 60 decades: (p_up, p_down, gamma, d).
SPECTRUM_REGIMES = [
    (3.0, 1.0, 40.0, 4),
    (1.5, 1.0, 50.0, 20),
    (1.0, 1.0, 7.0, 13),
    (1.2, 1.0, 50.0, 20),
    (3.0, 1.0, 50.0, 20),
    (6940.0, 6346.0, 1.0, 12),
    (0.1, 1.0, 36.0, 30),     # passive, p_up/p_down = 1/10
    (1 / 30, 1.0, 36.0, 20),  # passive, p_up/p_down = 1/30
    (1.0, 10.0, 5.0, 20),     # the symmetrized generator's spectrum is 100% off
    (0.7, 0.0, 11.0, 2),      # no down rate: the stages are p_up and Gamma
    (2.0, 1.0, 1e-30, 10),    # a top that almost never fires
    (1.0, 1e-30, 1e-30, 10),
    (100.0, 1.0, 1e-6, 20),   # Gamma far below p_up
    (1.0, 100.0, 1e6, 20),    # Gamma far above p_down
]


def golub_kahan_spectrum(p_up, p_down, gamma, d):
    """Reference passage spectrum: squared singular values of the upper
    bidiagonal B with diagonal sqrt(p_up) (sqrt(gamma) at the top) and
    superdiagonal sqrt(p_down), by LAPACK bisection on the zero-diagonal
    Golub-Kahan tridiagonal of B, which keeps each one's relative
    accuracy, in O(d**2) time."""
    off = np.full(2 * d - 1, math.sqrt(p_down))
    off[0::2] = math.sqrt(p_up)
    off[-1] = math.sqrt(gamma)
    sigma = eigvalsh_tridiagonal(np.zeros(2 * d), off, select="i",
                                 select_range=(d, 2 * d - 1), lapack_driver="stebz",
                                 tol=np.finfo(float).tiny)
    return sigma * sigma


class TestLadderRates:
    def test_second_order_values(self):
        lad = LadderSpec(d=10, epsilon_w=1.0, g=0.2)
        lr = ladder_rates(Rates(gamma_up=3.0, gamma_down=1.0), lad)
        # scale = g^2/(gamma_up+gamma_down) = 0.01; m = 1/2
        assert lr.p_up == pytest.approx(0.015, rel=1e-14)
        assert lr.p_down == pytest.approx(0.005, rel=1e-14)
        assert (lr.p_up - lr.p_down) / lr.total == pytest.approx(0.5, rel=1e-14)

    def test_zero_environment(self):
        with pytest.raises(ZeroRates):
            ladder_rates(Rates(gamma_up=0.0, gamma_down=0.0),
                         LadderSpec(d=3, epsilon_w=1.0, g=0.1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LadderSpec(d=1, epsilon_w=1.0, g=0.1)
        with pytest.raises(ValueError):
            LadderSpec(d=5, epsilon_w=-2.0, g=0.1)
        with pytest.raises(ValueError):
            LadderSpec(d=5, epsilon_w=1.0, g=0.1, Gamma=0.0)


class TestMetrics:
    def test_three_to_one_ladder(self):
        m = clock_metrics(LadderRates(p_up=3.0, p_down=1.0), d=10)
        assert m.nu_tick == pytest.approx(0.2, rel=1e-15)
        assert m.accuracy_N == pytest.approx(5.0, rel=1e-15)
        assert m.entropy_per_tick == pytest.approx(10.0 * math.log(3.0), rel=1e-15)
        assert m.relative_bias == pytest.approx(0.5, rel=1e-15)

    def test_unidirectional_sentinels(self):
        m = clock_metrics(LadderRates(p_up=2.0, p_down=0.0), d=7)
        assert m.accuracy_N == 7.0
        assert m.entropy_per_tick == math.inf
        assert m.tur_ratio == 0.0
        down = clock_metrics(LadderRates(p_up=0.0, p_down=2.0), d=7)
        assert down.entropy_per_tick == -math.inf

    def test_weak_bias_report(self):
        m = clock_metrics(LadderRates(p_up=1.02, p_down=1.0), d=10)
        assert abs(m.relative_bias) < 0.1
        # in this weak-bias regime accuracy approaches half the entropy cost
        assert m.accuracy_N == pytest.approx(m.entropy_per_tick / 2.0, rel=1e-3)

    def test_balanced_walk(self):
        m = clock_metrics(LadderRates(p_up=1.0, p_down=1.0), d=5)
        assert m.nu_tick == 0.0
        assert m.accuracy_N == 0.0
        assert m.entropy_per_tick == 0.0
        assert math.isnan(m.tur_ratio)

    def test_tur_bound(self):
        for ratio in (1.1, 2.0, 5.0, 50.0):
            m = clock_metrics(LadderRates(p_up=ratio, p_down=1.0), d=12)
            assert m.tur_ratio <= 1.0 + 1e-12

    def test_scalar_matches_array_twin_bits(self):
        # Random rates, then p_down = 0, p_up = 0, p_up = p_down, a ratio
        # that underflows to 0 and rates of opposite sign, then every pair
        # of the extremes but (0, 0): subnormal, huge and infinite rates.
        rng = np.random.default_rng(23)
        extremes = [0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf]
        ends = [(u, w) for u in extremes for w in extremes if u or w]
        p_up = np.concatenate([10.0 ** rng.uniform(-6.0, 3.0, 300),
                               [2.0, 0.0, 1.5, 1e-200, -1.0], [u for u, _ in ends]])
        p_down = np.concatenate([10.0 ** rng.uniform(-6.0, 3.0, 300),
                                 [0.0, 2.0, 1.5, 1e200, 2.0], [w for _, w in ends]])
        d = rng.integers(2, 60, p_up.size)
        with np.errstate(over="ignore"):  # the ZeroRates guard adds 1.7e308 twice
            twin, _ = clock.clock_metrics_array(p_up, p_down, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the scalar path stays silent
            scalar = [clock_metrics(LadderRates(p_up=u, p_down=w), int(n))
                      for u, w, n in zip(p_up.tolist(), p_down.tolist(), d)]
        for name in ("nu_tick", "accuracy_N", "entropy_per_tick", "relative_bias",
                     "tur_ratio"):
            got = [getattr(m, name) for m in scalar]
            assert all(type(v) is type(got[0]) for v in got), name
            assert list(map(repr, got)) == [repr(v) for v in getattr(twin, name).tolist()], name
        inf_up, inf_down, balanced = scalar[300:303]
        assert (inf_up.entropy_per_tick, inf_up.tur_ratio) == (math.inf, 0.0)
        assert (inf_down.entropy_per_tick, inf_down.tur_ratio) == (-math.inf, 0.0)
        assert balanced.entropy_per_tick == 0.0 and math.isnan(balanced.tur_ratio)


@given(gu=st.floats(1e-6, 1e3), gd=st.floats(1e-6, 1e3),
       g=st.floats(1e-4, 10.0), d=st.integers(2, 200))
@settings(max_examples=200, deadline=None)
def test_rate_sum_identity(gu, gd, g, d):
    lad = LadderSpec(d=d, epsilon_w=1.0, g=g)
    lr = ladder_rates(Rates(gamma_up=gu, gamma_down=gd), lad)
    expected = 2.0 * g * g / (gu + gd)
    assert abs(lr.total - expected) <= 1e-15 * expected


@given(gu=st.floats(1e-6, 1e3), gd=st.floats(1e-6, 1e3), d=st.integers(2, 500))
@settings(max_examples=200, deadline=None)
def test_accuracy_entropy_identity(gu, gd, d):
    m = clock_metrics(LadderRates(p_up=gu, p_down=gd), d=d)
    expected = d * math.tanh(m.entropy_per_tick / (2.0 * d))
    assert m.accuracy_N == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert abs(m.accuracy_N) <= d * (1.0 + 1e-15)


@given(gu=st.floats(1e-3, 1e2), gd=st.floats(1e-3, 1e2),
       c=st.floats(1e-3, 1e3), d=st.integers(2, 50))
@settings(max_examples=100, deadline=None)
def test_rate_rescaling_moves_speed_not_accuracy(gu, gd, c, d):
    lad = LadderSpec(d=d, epsilon_w=1.0, g=0.1)
    m1 = clock_metrics(ladder_rates(Rates(gamma_up=gu, gamma_down=gd), lad), d)
    m2 = clock_metrics(ladder_rates(Rates(gamma_up=c * gu, gamma_down=c * gd), lad), d)
    assert m2.accuracy_N == pytest.approx(m1.accuracy_N, rel=1e-12)
    assert m2.nu_tick == pytest.approx(m1.nu_tick / c, rel=1e-12)


class TestResolveGamma:
    def test_default_is_fast_reset(self):
        lad = LadderSpec(d=6, epsilon_w=1.0, g=0.5)
        lr = LadderRates(p_up=0.3, p_down=0.1)
        assert resolve_gamma(lad, lr) == pytest.approx(10.0 * 0.4 * 6, rel=1e-15)

    def test_explicit_wins(self):
        lad = LadderSpec(d=6, epsilon_w=1.0, g=0.5, Gamma=2.5)
        assert resolve_gamma(lad, LadderRates(p_up=0.3, p_down=0.1)) == 2.5


class TestFirstPassage:
    def test_two_level_hand_solution(self):
        # d=2, p_down=0: tick time = Exp(p) + Exp(Gamma);
        # mean = 1/p + 1/Gamma, var = 1/p^2 + 1/Gamma^2
        lr = LadderRates(p_up=0.7, p_down=0.0)
        lad = LadderSpec(d=2, epsilon_w=1.0, g=0.1, Gamma=11.0)
        fp = solve_first_passage(lr, lad)
        assert fp.mean_tick_time == pytest.approx(1.5194805194805194, rel=1e-14)
        assert fp.var_tick_time == pytest.approx(2.0490807893405303, rel=1e-13)
        assert fp.exact_N == pytest.approx(fp.mean_tick_time**2 / fp.var_tick_time, rel=1e-15)
        assert fp.exact_rate == pytest.approx(1.0 / fp.mean_tick_time, rel=1e-15)

    def test_unidirectional_limit_counts_stages(self):
        # p_down=0 and instantaneous emission: d-1 iid climbs, N -> d-1
        lr = LadderRates(p_up=1.0, p_down=0.0)
        lad = LadderSpec(d=9, epsilon_w=1.0, g=0.1, Gamma=1e9)
        fp = solve_first_passage(lr, lad)
        assert fp.exact_N == pytest.approx(8.0, rel=1e-6)
        assert fp.mean_tick_time == pytest.approx(8.0, rel=1e-6)

    def test_monotone_in_bias(self):
        lad = LadderSpec(d=12, epsilon_w=1.0, g=0.1, Gamma=50.0)
        ns = [solve_first_passage(LadderRates(p_up=r, p_down=1.0), lad).exact_N
              for r in (1.5, 2.0, 4.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_not_reachable(self):
        lad = LadderSpec(d=3, epsilon_w=1.0, g=0.1)
        with pytest.raises(NotReachable):
            solve_first_passage(LadderRates(p_up=0.0, p_down=1.0), lad)

    def test_vanishing_walk_rates_are_zero_rates(self):
        # As in clock_metrics, before the reachability checks, in both twins.
        lad = LadderSpec(d=3, epsilon_w=1.0, g=0.0)
        with pytest.raises(ZeroRates, match="both walk rates vanish"):
            solve_first_passage(LadderRates(p_up=0.0, p_down=0.0), lad)
        _, raises = clock.first_passage_array(np.zeros(2), np.array([0.0, 1.0]),
                                              np.full(2, np.nan), np.array([3, 3]))
        assert [(error, rows.tolist()) for error, rows in raises] == [
            (ZeroRates, [True, False]), (NotReachable, [True, True])]

    def test_array_twin_on_rows_of_mixed_depth(self):
        # Rows of depth 2 to 60 in one call, with rows of d = 0 among them;
        # half the walks are moderate and half span the double range.
        rng = np.random.default_rng(26)
        n = 600
        decades = np.where(np.arange(n) < n // 2, 3.0, 300.0)
        p_up = 10.0 ** rng.uniform(-decades, decades)
        p_down = p_up * 10.0 ** rng.uniform(-2.0, 2.0, n)
        p_down[::7] = 0.0
        explicit = rng.random(n) < 0.5
        gamma = np.where(explicit, p_up * 10.0 ** rng.uniform(-3.0, 3.0, n), np.nan)
        d = rng.integers(2, 61, n)
        d[::5] = 0
        fp, raises = clock.first_passage_array(p_up, p_down, gamma, d)
        flagged = np.logical_or.reduce([rows for _, rows in raises])
        returned = 0
        for i in np.flatnonzero(d).tolist():
            ladder = LadderSpec(d=int(d[i]), epsilon_w=1.0, g=0.1,
                                Gamma=float(gamma[i]) if explicit[i] else None)
            try:
                want = solve_first_passage(LadderRates(float(p_up[i]), float(p_down[i])),
                                           ladder)
            except NotReachable:
                assert flagged[i], i
                continue
            assert not flagged[i], i
            returned += 1
            for name in ("mean_tick_time", "var_tick_time", "exact_N", "exact_rate"):
                assert getattr(fp, name)[i].item().hex() == getattr(want, name).hex(), (i, name)
        assert returned > n // 2

    @staticmethod
    def _exact_moments(p_up, p_down, gamma, d):
        # Q m = -1 and Q s = -2 m on the tridiagonal generator restricted
        # to the ladder, solved in rationals by forward elimination.
        p_up, p_down, gamma = (Fraction(x) for x in (p_up, p_down, gamma))
        sub = [p_down if j > 0 else 0 for j in range(d)]
        sup = [p_up if j < d - 1 else 0 for j in range(d)]
        diag = [-(sup[j] + sub[j] + (gamma if j == d - 1 else 0)) for j in range(d)]

        def solve(rhs):
            c, r = [Fraction(0)] * d, [Fraction(0)] * d
            for j in range(d):
                pivot = diag[j] - (sub[j] * c[j - 1] if j else 0)
                c[j] = sup[j] / pivot
                r[j] = (rhs[j] - (sub[j] * r[j - 1] if j else 0)) / pivot
            x = [Fraction(0)] * d
            for j in reversed(range(d)):
                x[j] = r[j] - (c[j] * x[j + 1] if j < d - 1 else 0)
            return x

        m = solve([Fraction(-1)] * d)
        s = solve([-2 * v for v in m])
        return m[0], s[0] - m[0] ** 2

    @pytest.mark.parametrize("p_up, p_down, gamma, d", [
        (3.0, 1.0, 40.0, 4),
        (1.5, 1.0, 50.0, 20),
        (1.0, 1.0, 7.0, 13),
        (0.2, 1.0, 36.0, 30),     # passive: the dense solve returned a negative mean
        (0.05, 0.9, 2.0, 25),
        (0.7, 0.0, 11.0, 2),
    ])
    def test_recursion_matches_rational_solve(self, p_up, p_down, gamma, d):
        fp = solve_first_passage(LadderRates(p_up=p_up, p_down=p_down),
                                 LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=gamma))
        mean, var = self._exact_moments(p_up, p_down, gamma, d)
        assert fp.mean_tick_time == pytest.approx(float(mean), rel=1e-12)
        assert fp.var_tick_time == pytest.approx(float(var), rel=1e-12)
        assert fp.exact_N == pytest.approx(float(mean**2 / var), rel=1e-12)

    def test_overflowing_moments_not_reachable(self):
        lad = LadderSpec(d=200, epsilon_w=1.0, g=0.1)
        with pytest.raises(NotReachable):
            solve_first_passage(LadderRates(p_up=1e-3, p_down=1.0), lad)


def _passage_step(a, q, m, s):
    # Moments of the passage out of a level left upward at rate a and
    # downward at rate q, from the moments (m, s) of the one below.
    r = a + q
    m_next = (1.0 + q * m) / a
    s_next = (2.0 / r + 2.0 * q * (m + m_next) / r + q * (s + 2.0 * m * m_next)) / a
    return m_next, s_next


def _recursion(p_up, p_down, gamma, d):
    """Mean and variance of the tick interval level by level, by the
    positive-term recursion of :func:`_passage_step`, in numpy's long
    double: near a balanced walk of 10**6 levels the recursion in doubles
    is off by 1e-10, as each level adds its rounding to all the levels
    above.

    Below the top every level has the same rates, so the two linear
    recursions there, m_k = (1 + q m_{k-1})/a and s_k = q s_{k-1}/a +
    (the rest of the step), run as first-order filters over the d - 1
    levels; the top is one more step.
    """
    a, q, gamma = (np.longdouble(x) for x in (p_up, p_down, gamma))
    one = np.longdouble(1.0)
    with np.errstate(all="ignore"):
        m = lfilter([one / a], [one, -q / a], np.ones(d - 1, dtype=np.longdouble))
        if d > 1 and not np.isfinite(m[-1]):
            return math.inf, math.inf
        below = np.concatenate(([0.0], m[:-1])).astype(np.longdouble)
        r = a + q
        rest = (2.0 / r + 2.0 * q * (below + m) / r + 2.0 * q * below * m) / a
        s = lfilter([one], [one, -q / a], rest)
        top = _passage_step(gamma, q, m[-1], s[-1]) if d > 1 else (1.0 / gamma, 2.0 / gamma**2)
        return (float(np.sum(m) + top[0]),
                float(np.sum(s - m * m) + (top[1] - top[0] * top[0])))


class TestClosedForm:
    """The O(1) moments of :func:`solve_first_passage` and its array twin
    against the level-by-level recursion, and their scale."""

    @staticmethod
    def _draws(rng, n):
        # p_down/p_up = 1 + delta: below and above 1, and within 1e-12 of it.
        delta = np.concatenate([
            -(10.0 ** rng.uniform(-12.0, 0.0, n)), 10.0 ** rng.uniform(-12.0, 1.0, n),
            10.0 ** rng.uniform(-6.0, 6.0, n) - 1.0, [-1e-12, 1e-12, 0.0, -1.0]])
        p_up = 10.0 ** rng.uniform(-4.0, 4.0, delta.size)
        explicit = np.arange(delta.size) % 2 == 1
        gamma = np.where(explicit, p_up * 10.0 ** rng.uniform(-3.0, 3.0, delta.size),
                         np.nan)
        return p_up, p_up * (1.0 + delta), gamma

    @pytest.mark.parametrize("d", [1, 2, 3, 10, 37, 1000, 10**6])
    def test_matches_the_recursion(self, d):
        rng = np.random.default_rng(d)
        p_up, p_down, gamma = self._draws(rng, 1 if d == 10**6 else 12)
        fp, raises = clock.first_passage_array(p_up, p_down, gamma, np.full(p_up.size, d))
        flagged = np.logical_or.reduce([rows for _, rows in raises])
        compared = 0
        for i in range(p_up.size):
            g = float(gamma[i]) if gamma[i] == gamma[i] else 10.0 * (p_up[i] + p_down[i]) * d
            mean, var = _recursion(p_up[i], p_down[i], g, d)
            if not (np.isfinite(mean) and np.isfinite(var)):
                continue
            assert not flagged[i], i
            assert fp.mean_tick_time[i] == pytest.approx(mean, rel=1e-12), i
            assert fp.var_tick_time[i] == pytest.approx(var, rel=1e-12), i
            assert fp.exact_N[i] == pytest.approx(mean * mean / var, rel=1e-12), i
            compared += 1
            if d < 2:
                continue
            ladder = LadderSpec(d=d, epsilon_w=1.0, g=0.1,
                                Gamma=float(gamma[i]) if gamma[i] == gamma[i] else None)
            want = solve_first_passage(LadderRates(float(p_up[i]), float(p_down[i])), ladder)
            for name in ("mean_tick_time", "var_tick_time", "exact_N", "exact_rate"):
                assert getattr(fp, name)[i].item().hex() == getattr(want, name).hex(), (i, name)
        assert compared >= p_up.size // 2

    def test_series_walks_match_the_array_twin_bits(self):
        # Near-balanced walks, |(d - 1) delta| < 1, take the power series:
        # the scalar twin sums it in Python floats, the array twin in numpy,
        # with the same bits.  (d - 1) delta spans 1e-16 to 0.999 in size,
        # of either sign, and 0.
        rng = np.random.default_rng(30)
        n = 10_000
        d = rng.integers(2, 61, n)
        scaled = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, math.log10(0.999), n)
        scaled[::97] = 0.0
        p_up = 10.0 ** rng.uniform(-4.0, 4.0, n)
        p_down = p_up * (1.0 + scaled / (d - 1))
        explicit = np.arange(n) % 2 == 1
        gamma = np.where(explicit, p_up * 10.0 ** rng.uniform(-3.0, 3.0, n), np.nan)
        assert np.all(np.abs((d - 1) * ((p_down - p_up) / p_up)) < 1.0)
        fp, raises = clock.first_passage_array(p_up, p_down, gamma, d)
        assert not np.logical_or.reduce([rows for _, rows in raises]).any()
        names = ("mean_tick_time", "var_tick_time", "exact_N", "exact_rate")
        for i in range(n):
            ladder = LadderSpec(d=int(d[i]), epsilon_w=1.0, g=0.1,
                                Gamma=float(gamma[i]) if explicit[i] else None)
            want = solve_first_passage(LadderRates(float(p_up[i]), float(p_down[i])), ladder)
            got = [getattr(fp, name)[i].item().hex() for name in names]
            assert got == [getattr(want, name).hex() for name in names], i

    @given(exponents=st.lists(st.floats(-8.0, 8.0), min_size=3, max_size=3),
           explicit=st.booleans(), d=st.sampled_from([2, 3, 7, 10, 33, 60, 1000, 10**15]),
           k=st.integers(-664, 664))
    @settings(max_examples=300, deadline=None)
    def test_exact_N_ignores_the_rate_scale(self, exponents, explicit, d, k):
        # Every rate times 2**k, from about 1e-200 to 1e200: the mean and
        # the variance scale by 2**-k and 2**-2k, and exact_N not at all,
        # wherever the scaled moments are normal doubles.
        p_up, p_down, gamma = (10.0 ** e for e in exponents)
        gamma = gamma if explicit else None
        base = clock.first_passage_array(np.array([p_up]), np.array([p_down]),
                                         np.array([np.nan if gamma is None else gamma]),
                                         np.array([d]))[0]
        c = math.ldexp(1.0, k)
        lr = LadderRates(p_up * c, p_down * c)
        ladder = LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=None if gamma is None else gamma * c)
        mean, var = base.mean_tick_time[0].item() / c, base.var_tick_time[0].item() / c / c
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        if not (tiny < mean < huge and tiny < var < huge and np.isfinite(base.exact_N[0])):
            return
        fp = solve_first_passage(lr, ladder)
        assert fp.exact_N == base.exact_N[0]
        # A walk that drifts down scales its sums by exp and log, whose
        # rounding moves with the scale.
        assert fp.mean_tick_time == pytest.approx(mean, rel=1e-12)
        assert fp.var_tick_time == pytest.approx(var, rel=1e-12)

    def test_drift_down_moments_near_the_double_top(self):
        # Mean 1e110 and variance 1e220, though the top's share of the mean
        # is 1e160 in units of the sums' scale, whose square overflowed.  At
        # d = 2 a tick takes K cycles, each Exp(a) then Exp(Gamma + q), K
        # geometric with success chance p = Gamma/(Gamma + q), so var =
        # E[K] var(cycle) + var(K) E[cycle]**2; exact rationals here.
        a, q, gamma = (Fraction(x) for x in (1e100, 1e260, 1e50))
        p = gamma / (gamma + q)
        cycle = 1 / a + 1 / (gamma + q)
        var = (1 / a**2 + 1 / (gamma + q) ** 2) / p + (1 - p) / p**2 * cycle**2
        fp = solve_first_passage(LadderRates(1e100, 1e260),
                                 LadderSpec(d=2, epsilon_w=1.0, g=0.1, Gamma=1e50))
        assert fp.mean_tick_time == pytest.approx(float(cycle / p), rel=1e-12)
        assert fp.var_tick_time == pytest.approx(float(var), rel=1e-12)
        array, raises = clock.first_passage_array(np.array([1e100]), np.array([1e260]),
                                                  np.array([1e50]), np.array([2]))
        assert not np.logical_or.reduce([rows for _, rows in raises]).any()
        for name in ("mean_tick_time", "var_tick_time", "exact_N", "exact_rate"):
            assert getattr(array, name)[0].item().hex() == getattr(fp, name).hex(), name

    def test_deep_ladder_in_constant_time(self):
        # A ladder of 10**15 levels costs what one of 10 does.
        lad = LadderSpec(d=10**15, epsilon_w=1.0, g=0.1)
        fp = solve_first_passage(LadderRates(p_up=3.0, p_down=1.0), lad)
        # Drift 2 per unit time over 10**15 levels, nearly deterministic.
        assert fp.mean_tick_time == pytest.approx(0.5e15, rel=1e-9)
        assert fp.exact_N == pytest.approx(0.5e15, rel=1e-6)
        # Balanced to 1e-16: the unbiased walk's d**2 mean and its
        # accuracy 3/2.
        fp = solve_first_passage(LadderRates(p_up=1.0, p_down=1.0), lad)
        assert fp.mean_tick_time == pytest.approx(0.5e30, rel=1e-9)
        assert fp.exact_N == pytest.approx(1.5, rel=1e-6)


class TestMaster:
    def test_two_level_flux_approaches_up_rate(self):
        # fast emission drains the top as soon as it fills: flux -> p_up
        lr = LadderRates(p_up=0.05, p_down=0.0)
        lad = LadderSpec(d=2, epsilon_w=1.0, g=0.1, Gamma=5.0)
        fp = solve_first_passage(lr, lad)
        tr = evolve_master(lr, lad, t_max=12.0 / fp.exact_rate, n_records=101)
        assert tr.tick_rate[-1] == pytest.approx(0.05, rel=0.015)

    def test_flux_matches_renewal_rate(self):
        lr = LadderRates(p_up=3.0, p_down=1.0)
        lad = LadderSpec(d=8, epsilon_w=1.0, g=0.1)
        fp = solve_first_passage(lr, lad)
        tr = evolve_master(lr, lad, t_max=40.0 / fp.exact_rate, n_records=81)
        assert tr.tick_rate[-1] == pytest.approx(fp.exact_rate, rel=1e-8)
        assert tr.probability_drift < 1e-9
        # accumulated expected ticks track the flux integral
        integral = np.trapezoid(tr.tick_rate, tr.times)
        assert tr.ticks[-1] == pytest.approx(integral, rel=1e-3)

    def test_populations_normalized_and_positive(self):
        lr = LadderRates(p_up=2.0, p_down=0.5)
        lad = LadderSpec(d=5, epsilon_w=1.0, g=0.1, Gamma=30.0)
        tr = evolve_master(lr, lad, t_max=20.0, n_records=41)
        assert np.all(tr.populations > -1e-12)
        assert np.allclose(tr.populations.sum(axis=1), 1.0, atol=1e-9)


    @staticmethod
    def _stepwise(lr, lad, t_max, n_records):
        # One record at a time, each state its own vector.
        gamma = resolve_gamma(lad, lr)
        stride = clock._expm(clock._generator(lr, lad.d, gamma) * (t_max / (n_records - 1)))
        v = np.zeros(lad.d + 1)
        v[0] = 1.0
        populations, ticks, drift = [], [], 0.0
        for i in range(n_records):
            if i:
                v = stride @ v
            populations.append(v[:lad.d].copy())
            ticks.append(v[lad.d])
            drift = max(drift, abs(float(populations[-1].sum()) - 1.0))
        populations = np.array(populations)
        return populations, np.array(ticks), gamma * populations[:, lad.d - 1], drift

    def test_matches_stepwise_reference_bits(self):
        rng = np.random.default_rng(31)
        for d in range(2, 41):
            lr = LadderRates(p_up=rng.uniform(0.1, 50.0), p_down=rng.uniform(0.0, 50.0))
            gamma = None if rng.random() < 0.5 else rng.uniform(1.0, 500.0)
            lad = LadderSpec(d=d, epsilon_w=1.0, g=0.01, Gamma=gamma)
            t_max = rng.uniform(0.1, 100.0)
            n_records = int(rng.integers(2, 80))
            tr = evolve_master(lr, lad, t_max, n_records)
            populations, ticks, tick_rate, drift = self._stepwise(lr, lad, t_max, n_records)
            for got, want in ((tr.populations, populations), (tr.ticks, ticks),
                              (tr.tick_rate, tick_rate)):
                assert got.shape == want.shape
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()
            assert repr(tr.probability_drift) == repr(drift)

    @pytest.mark.parametrize("lr, t_max", [
        (LadderRates(p_up=1e308, p_down=1e308), 1.0),
        (LadderRates(p_up=2.0, p_down=1.0), 1e300),
    ], ids=["overflowing_rates", "overflowing_time"])
    def test_failed_solve_reports_nan_drift(self, lr, t_max):
        # The propagator overflows to nan: the drift must say so, not 0.0.
        lad = LadderSpec(d=5, epsilon_w=1.0, g=0.01)
        with np.errstate(all="ignore"):
            tr = evolve_master(lr, lad, t_max)
        assert np.isnan(tr.populations[1:]).all()
        assert math.isnan(tr.probability_drift)


class TestPropagator:
    """The numpy Pade-13 propagator against ``scipy.linalg.expm``.

    Each bound is five or more times the largest difference measured on
    its set.  On the worst cases both propagators are off a 40-digit
    mpmath expm by about as much as from each other (up to 5e-13 on the
    points, 2e-11 on random draws), so the differences are roundings.
    """

    @staticmethod
    def _differences(a):
        # Largest population difference, and tick-row difference over
        # the tick row's largest entry.
        got, want = clock._expm(a), expm(a)
        d = a.shape[0] - 1
        return (float(np.abs(got[:d] - want[:d]).max()),
                float(np.abs(got[d] - want[d]).max() / np.abs(want[d]).max()))

    @staticmethod
    def _pipeline_steps(monkeypatch, seed):
        # Generator times record spacing at the active points of the
        # point_pipeline benchmark workload, as its master solve sets them.
        spec = importlib.util.spec_from_file_location("workloads", _ROOT / "bench/workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up while the module executes.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        steps = []
        for pt in workloads.draw_points(seed, workloads.POINTS_PER_PASS):
            lr = ladder_rates(transition_rates(pt.quench, pt.coupling), pt.ladder)
            if not lr.p_up > lr.p_down:
                continue
            try:
                rate = solve_first_passage(lr, pt.ladder).exact_rate
            except QuenchClockError:
                continue
            g = clock._generator(lr, pt.ladder.d, resolve_gamma(pt.ladder, lr))
            steps.append(g * (12.0 / rate / 50))
        return steps

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scipy_on_pipeline_points(self, monkeypatch, seed):
        # Measured on seeds 1-3: populations 8.0e-14, tick row 3.6e-13,
        # at norms up to 3.6e5.
        steps = self._pipeline_steps(monkeypatch, seed)
        assert len(steps) > 150
        worst = np.max([self._differences(a) for a in steps], axis=0)
        assert worst[0] <= 1e-12
        assert worst[1] <= 2e-12

    def test_matches_scipy_on_random_generators(self):
        # Rates spread over nine decades make stiff, ill-conditioned
        # walks.  Measured: populations 2.4e-13, tick row 1.7e-13 here,
        # and 4.4e-12, 5.4e-12 over 4000 draws of other seeds.
        rng = np.random.default_rng(18)
        worst = np.zeros(2)
        for _ in range(300):
            d = int(rng.integers(2, 41))
            p_up, p_down, gamma = 10.0 ** rng.uniform(-6.0, 3.0, size=3)
            g = clock._generator(LadderRates(p_up=p_up, p_down=p_down), d, gamma)
            worst = np.maximum(worst, self._differences(g * 10.0 ** rng.uniform(-3.0, 2.0)))
        assert worst[0] <= 5e-11
        assert worst[1] <= 5e-11

    @staticmethod
    def _random_steps(seed, n):
        # Ladder generators with d from 2 to 300, rates log-uniform over
        # +-150 decades and no down rate in a fifth of them, times a step
        # that puts their 1-norm log-uniform in [1e-6, 1e15], where _expm
        # takes from 0 to about 48 squarings.
        rng = np.random.default_rng(seed)
        for i in range(n):
            d = int(rng.integers(2, 301))
            p_up, p_down, gamma = 10.0 ** rng.uniform(-150.0, 150.0, size=3)
            g = clock._generator(LadderRates(p_up, 0.0 if i % 5 == 0 else p_down), d, gamma)
            yield g * (10.0 ** rng.uniform(-6.0, 15.0) / np.abs(g).sum(axis=0).max())

    @staticmethod
    def _needs_no_excess(a):
        # Al-Mohy and Higham's bound |c_27| || |b|**27 ||_1 / ||b||_1 <= u
        # at b = 2**-s a, for the s of the eta rule of _expm: where it
        # holds, their excess term asks for no further squaring.
        d6, d8, d10 = (np.abs(np.linalg.matrix_power(a, k)).sum(axis=0).max() ** (1.0 / k)
                       for k in (6, 8, 10))
        eta = min(max(d6, d8), max(d8, d10))
        s = max(math.ceil(math.log2(eta / 4.25)), 0) if eta > 0.0 else 0
        b = np.abs(a) * 2.0 ** -s
        bound = np.linalg.matrix_power(b, 27).sum(axis=0).max() / b.sum(axis=0).max()
        return bound / 113250775606021113483283660800000000.0 <= 2.0 ** -53

    @pytest.mark.parametrize("source, seed", [
        ("pipeline", 1), ("pipeline", 2), ("pipeline", 3), ("random", 28), ("random", 29),
    ])
    def test_eta_rule_needs_no_excess_squaring(self, monkeypatch, source, seed):
        # Why _expm computes no excess term: on the ladder's generators it
        # is zero.  A nilpotent 100 [[1, 1], [-1, -1]], which is no
        # generator, fails the check.
        steps = (self._pipeline_steps(monkeypatch, seed) if source == "pipeline"
                 else self._random_steps(seed, 150))
        for a in steps:
            assert self._needs_no_excess(a), np.diag(a)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 1e300, 1e17])
    def test_out_of_range_is_nan(self, scale):
        # A non-finite step, powers past the double range, or so many
        # squarings that rounding outgrows the result: nan, not zeros.
        g = clock._generator(LadderRates(p_up=2.0, p_down=1.0), 5, 150.0)
        with np.errstate(all="ignore"):
            assert np.isnan(clock._expm(g * scale)).all()


class TestSampling:
    LAD = LadderSpec(d=4, epsilon_w=1.0, g=0.1, Gamma=40.0)
    LR = LadderRates(p_up=3.0, p_down=1.0)

    def test_bitwise_reproducible(self):
        a = sample_tick_times(self.LR, self.LAD, 3000, seed=123)
        b = sample_tick_times(self.LR, self.LAD, 3000, seed=123)
        assert np.array_equal(a, b)

    def test_stream_per_trajectory_prefix(self):
        # blocks are keyed by (seed, block) and drawn whole: a shorter run
        # is a prefix
        long = sample_tick_times(self.LR, self.LAD, 5000, seed=5)
        short = sample_tick_times(self.LR, self.LAD, 1200, seed=5)
        assert np.array_equal(long[:1200], short)

    def test_seed_changes_sample(self):
        a = sample_tick_times(self.LR, self.LAD, 1000, seed=1)
        b = sample_tick_times(self.LR, self.LAD, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_statistics_against_exact(self):
        # Depths past the first and the second level chunk check the
        # reciprocals of every chunk without the stage formula.
        for d in (4, 65, 133):
            lad = LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=40.0)
            stats = simulate_ticks(self.LR, lad, 20000, seed=77)
            fp = solve_first_passage(self.LR, lad)
            assert stats.mean_tick_time == pytest.approx(fp.mean_tick_time, rel=0.03), d
            assert stats.empirical_accuracy == pytest.approx(fp.exact_N, rel=0.06), d

    def test_two_level_hand_distribution(self):
        lr = LadderRates(p_up=0.7, p_down=0.0)
        lad = LadderSpec(d=2, epsilon_w=1.0, g=0.1, Gamma=11.0)
        t = sample_tick_times(lr, lad, 40000, seed=3)
        assert t.mean() == pytest.approx(1.0 / 0.7 + 1.0 / 11.0, rel=0.02)
        assert t.var(ddof=1) == pytest.approx(1.0 / 0.49 + 1.0 / 121.0, rel=0.05)

    def test_prefix_across_block_boundary(self):
        n = clock._STREAM_BLOCK
        long = sample_tick_times(self.LR, self.LAD, n + 1, seed=8)
        short = sample_tick_times(self.LR, self.LAD, n, seed=8)
        assert np.array_equal(long[:n], short)

    def test_largest_seed(self):
        t = sample_tick_times(self.LR, self.LAD, 2000, seed=2**64 - 1)
        assert np.all(np.isfinite(t)) and np.all(t > 0.0)
        assert not np.array_equal(t, sample_tick_times(self.LR, self.LAD, 2000, seed=0))

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 2])
    def test_neighbouring_large_seeds_differ(self, seed):
        # Seeds this large are not doubles: a key built through float64
        # would give both the same stream.
        a = sample_tick_times(self.LR, self.LAD, 100, seed=seed)
        b = sample_tick_times(self.LR, self.LAD, 100, seed=seed + 1)
        assert not np.array_equal(a, b)

    def test_passive_walk_not_reachable(self):
        # Each level is left down 1e8 times per up-exit: the variance of
        # the tick time leaves the range of a double.
        lad = LadderSpec(d=37, epsilon_w=1.0, g=0.1)
        with pytest.raises(NotReachable, match="out of double range"):
            sample_tick_times(LadderRates(p_up=1e-8, p_down=1.0), lad, 100, seed=1)

    def test_accuracy_where_the_squared_mean_overflows(self):
        # A top that fires at 2e-154: the exact moments are in range, but
        # a sample mean above 1.34e154 has no square in double range.
        lr = LadderRates(p_up=72.7, p_down=27.0)
        lad = LadderSpec(d=10, epsilon_w=1.0, g=0.01, Gamma=2.0e-154)
        assert math.isfinite(solve_first_passage(lr, lad).exact_N)
        squares_overflow = 0
        for n in range(2, 21):
            for seed in range(1, 41):
                stats = simulate_ticks(lr, lad, n, seed)
                assert math.isfinite(stats.empirical_accuracy), (n, seed)
                assert stats.empirical_accuracy > 0.0
                times = sample_tick_times(lr, lad, n, seed)
                scaled = times / 1e154
                want = scaled.mean() ** 2 / scaled.var(ddof=1)
                assert stats.empirical_accuracy == pytest.approx(want, rel=1e-12)
                squares_overflow += stats.mean_tick_time > 1.34e154
        assert squares_overflow > 10

    @pytest.mark.parametrize("n", [2, 200, 20000])
    def test_passive_walk_at_the_moment_range_edge(self, n):
        # Drift down at p_up/p_down = 1.13e-4 over 40 levels: the tick-time
        # variance is 7e307, just inside the double range.
        lr = LadderRates(p_up=1.13e-4, p_down=1.0)
        lad = LadderSpec(d=40, epsilon_w=1.0, g=0.01)
        fp = solve_first_passage(lr, lad)
        assert 1e307 < fp.var_tick_time < 1.8e308
        stats = simulate_ticks(lr, lad, n, seed=4)
        assert math.isfinite(stats.empirical_accuracy) and stats.empirical_accuracy > 0.0
        assert math.isfinite(stats.empirical_rate)
        if n == 20000:
            # One slow stage holds nearly all the time: N is about 1.
            assert stats.empirical_accuracy == pytest.approx(fp.exact_N, rel=0.05)
            assert stats.empirical_rate == pytest.approx(fp.exact_rate, rel=0.03)

    @pytest.mark.parametrize("decades", [155, 200, 300, 320])
    @pytest.mark.parametrize("d", [3, 10, 133])
    def test_top_far_above_the_walk(self, decades, d):
        # gamma/p_up = 10**decades, from where its square leaves the double
        # range to beyond the range itself.
        lr = LadderRates(p_up=1e-20, p_down=4e-21)
        lad = LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=10.0 ** (decades - 20))
        fp = solve_first_passage(lr, lad)
        rates = clock._passage_spectrum(lr.p_up, lr.p_down, lad.Gamma, d)
        assert np.sum(1.0 / rates) == pytest.approx(fp.mean_tick_time,
                                                    rel=clock._SPECTRUM_RTOL)
        times = sample_tick_times(lr, lad, 2000, seed=5)
        assert np.all(np.isfinite(times)) and np.all(times > 0.0)
        assert times.mean() == pytest.approx(fp.mean_tick_time, rel=0.1)

    @pytest.mark.parametrize("p_up, p_down, gamma, d", SPECTRUM_REGIMES)
    def test_spectrum_matches_first_passage_moments(self, p_up, p_down, gamma, d):
        # Sum of independent Exp(lambda_j): mean sum 1/lambda, variance
        # sum 1/lambda**2, over rates that span up to 60 decades.
        rates = clock._passage_spectrum(p_up, p_down, gamma, d)
        fp = solve_first_passage(LadderRates(p_up=p_up, p_down=p_down),
                                 LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=gamma))
        assert rates.shape == (d,) and rates[0] > 0.0 and np.all(np.diff(rates) >= 0.0)
        assert np.sum(1.0 / rates) == pytest.approx(fp.mean_tick_time, rel=1e-12)
        assert np.sum(1.0 / rates**2) == pytest.approx(fp.var_tick_time, rel=1e-12)

    def test_wrong_spectrum_fails_loudly(self, monkeypatch):
        # The eigenvalues of the symmetrized generator, from the default
        # tridiagonal solver, lose the small rates of a downward walk to
        # rounding on the scale of the large ones.
        def symmetrized(p_up, p_down, gamma, d):
            diag = np.full(d, p_up + p_down)
            diag[0], diag[-1] = p_up, gamma + p_down
            return eigvalsh_tridiagonal(diag, np.full(d - 1, math.sqrt(p_up * p_down)))

        monkeypatch.setattr(clock, "_passage_spectrum", symmetrized)
        lad = LadderSpec(d=20, epsilon_w=1.0, g=0.1, Gamma=5.0)
        with pytest.raises(RuntimeError, match="passage spectrum"):
            sample_tick_times(LadderRates(p_up=1.0, p_down=10.0), lad, 10, seed=1)

    def test_stream_matches_slow_reference(self):
        # The slow path of the stream format: per block of 2048 lanes a
        # fresh PCG64 under SeedSequence(seed, spawn_key=(b,)), one (d, 2048)
        # uniform draw in ascending rates, each stage log(1 - U) * (-1/rate),
        # added level by level.  Depths on both sides of a level chunk,
        # sizes on both sides of a block; a ladder has d >= 2, so one stage
        # goes to the block loop directly.
        block, chunk = clock._STREAM_BLOCK, clock._LEVEL_CHUNK
        for d in (1, 2, chunk, chunk + 1, 2 * chunk + 5):
            lad = LadderSpec(d=max(d, 2), epsilon_w=1.0, g=0.1, Gamma=40.0)
            rates = (clock._passage_spectrum(self.LR.p_up, self.LR.p_down, 40.0, d)
                     if d > 1 else np.array([0.7]))
            for n in (1, block - 1, block, block + 1):
                expected = np.zeros((-(-n // block), block))
                for b, times in enumerate(expected):
                    seq = np.random.SeedSequence(31, spawn_key=(b,))
                    u = np.random.Generator(np.random.PCG64(seq)).random((d, block))
                    for stage in np.log(1.0 - u) * (-1.0 / rates)[:, None]:
                        times += stage
                got = (sample_tick_times(self.LR, lad, n, seed=31) if d > 1
                       else clock._simulate(rates, 31, n))
                assert np.array_equal(got, expected.reshape(-1)[:n]), (d, n)

    def test_ends_of_the_uniform(self, monkeypatch):
        # U = 0 gives a stage of exactly 0, and the largest uniform double
        # 1 - 2**-53 the longest stage, 53 ln 2 / rate: no stage is infinite.
        top = 1.0 - 2.0**-53

        class Ends:
            def __init__(self, bit_generator):
                pass

            def random(self, out):
                out[:, 0::2] = 0.0
                out[:, 1::2] = top
                return out

        monkeypatch.setattr(np.random, "Generator", Ends)
        for rate in (0.7, 40.0, 3e-200, 5e250):
            t = clock._simulate(np.array([rate]), 9, 5)
            assert np.all(np.isfinite(t)) and np.all(t >= 0.0), rate
            assert np.all(t[0::2] == 0.0), rate
            longest = 53.0 * math.log(2.0) / rate
            assert np.all(np.abs(t[1::2] - longest) <= 4.0 * np.spacing(longest)), rate
        rates = clock._passage_spectrum(self.LR.p_up, self.LR.p_down, 40.0, 133)
        t = clock._simulate(rates, 9, 2049)
        assert np.all(np.isfinite(t)) and np.all(t >= 0.0)
        assert np.all(t[0::2] == 0.0)
        assert t[1::2] == pytest.approx(53.0 * math.log(2.0) * np.sum(1.0 / rates),
                                        rel=1e-13)

    @pytest.mark.parametrize("n_ticks", [100.0, 2.5])
    @pytest.mark.parametrize("sampler", [sample_tick_times, simulate_ticks])
    def test_non_integer_sample_size_refused(self, sampler, n_ticks):
        with pytest.raises(ValueError, match="n_ticks must be an integer"):
            sampler(self.LR, self.LAD, n_ticks, seed=1)

    @pytest.mark.parametrize("seed", [3.7, 2.0])
    def test_non_integer_seed_refused(self, seed):
        # A float key would be truncated and run another seed's stream.
        with pytest.raises(ValueError, match="seed must be an integer"):
            sample_tick_times(self.LR, self.LAD, 100, seed=seed)

    def test_numpy_integer_seeds(self):
        for seed in (np.int64(3), np.uint64(2**64 - 1)):
            assert np.array_equal(sample_tick_times(self.LR, self.LAD, 100, seed=seed),
                                  sample_tick_times(self.LR, self.LAD, 100, seed=int(seed)))

    @staticmethod
    def _phase_type_cdf(p_up, p_down, gamma, d, t_max, points=20001):
        """1 - alpha expm(S t) 1 on an even grid of [0, t_max] (Neuts 1981).

        S is the walk generator on the d levels, killed from the top at
        the emission rate, and alpha starts the walk at the bottom.
        """
        s = (np.diag(np.full(d - 1, p_up), 1) + np.diag(np.full(d - 1, p_down), -1))
        s -= np.diag(s.sum(axis=1))
        s[-1, -1] -= gamma
        grid = np.linspace(0.0, t_max, points)
        step = expm(s * grid[1])
        alive = np.zeros(d)
        alive[0] = 1.0
        survival = np.empty(points)
        for i in range(points):
            survival[i] = alive.sum()
            alive = alive @ step
        return grid, 1.0 - survival

    @pytest.mark.parametrize("p_up, p_down, gamma, d", [
        pytest.param(6940.0, 6346.0, 1.0, 12, id="pinned-low-gamma"),
        pytest.param(0.7, 0.0, 11.0, 2, id="two-level-no-down"),
        pytest.param(1.2, 1.0, 50.0, 20, id="d20-bias-1.2"),
        pytest.param(3.0, 1.0, 50.0, 20, id="d20-bias-3"),
    ])
    def test_distribution_matches_phase_type(self, p_up, p_down, gamma, d):
        n = 100_000
        lad = LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=gamma)
        t = sample_tick_times(LadderRates(p_up=p_up, p_down=p_down), lad, n, seed=2024)
        grid, cdf = self._phase_type_cdf(p_up, p_down, gamma, d, t.max())
        result = kstest(t, lambda x: np.interp(x, grid, cdf))
        # The 0.1% critical distance of the one-sample test.
        assert result.statistic < 1.95 / math.sqrt(n), result

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_ticks(self.LR, self.LAD, 1, seed=0)
        with pytest.raises(ValueError):
            sample_tick_times(self.LR, self.LAD, 10, seed=-1)
        with pytest.raises(ValueError):
            sample_tick_times(self.LR, self.LAD, 10, seed=2**64)
        with pytest.raises(NotReachable):
            sample_tick_times(LadderRates(p_up=0.0, p_down=1.0), self.LAD, 10, seed=0)


def assert_same_spectrum(p_up, p_down, gamma, d):
    got = clock._passage_spectrum(p_up, p_down, gamma, d)
    want = golub_kahan_spectrum(p_up, p_down, gamma, d)
    assert got.shape == want.shape == (d,)
    # 1e-12 relative; a rate below the normal range keeps only its
    # absolute accuracy.
    off = np.abs(got - want) - 1e-12 * want
    assert np.all(off <= np.finfo(float).tiny), (p_up, p_down, gamma, d, got, want)


def random_walks(seed, n, d_max):
    """n walks with p_up, p_down log-uniform in [1e-8, 1e8], gamma in
    [1e-30, 1e6] and d log-uniform in [1, d_max]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        p_up, p_down = 10.0 ** rng.uniform(-8.0, 8.0, 2)
        gamma = 10.0 ** rng.uniform(-30.0, 6.0)
        yield p_up, p_down, gamma, int(round(d_max ** rng.uniform(0.0, 1.0)))


class TestPassageSpectrum:
    """The closed-form passage spectrum against Golub-Kahan bisection."""

    @pytest.mark.parametrize("p_up, p_down, gamma, d", SPECTRUM_REGIMES + [
        (2.0, 1.0, 3.0, 2),
        (1.0, 3.0, 0.5, 2),
        (0.5, 1.0, 1e6, 2),
        (2.0, 0.0, 3.0, 7),       # p_down = 0: p_up d - 1 times, and gamma
        (2.0, 0.0, 0.5, 7),
        (2.0, 1e-30, 3.0, 7),
        (2.0, 1e-30, 1e-30, 40),
    ])
    def test_matches_golub_kahan(self, p_up, p_down, gamma, d):
        assert_same_spectrum(p_up, p_down, gamma, d)

    def test_matches_golub_kahan_on_random_walks(self):
        # A ladder has d >= 2 levels; the walks drawn at d = 1 are no ladder.
        for walk in random_walks(17, 200, 400):
            if walk[3] >= 2:
                assert_same_spectrum(*walk)

    def test_band_rates_keep_their_brackets(self):
        # Rate j = 1 .. d-2 solves d phi + chi(phi) = (j+1) pi with phi in
        # (j pi/d, (j+1) pi/d), where the band's rate rises with phi.
        for p_up, p_down, gamma, d in random_walks(5, 300, 2000):
            if d < 3:
                continue
            rates = clock._passage_spectrum(p_up, p_down, gamma, d)
            assert np.all(np.diff(rates) >= 0.0)
            phi = np.arange(1, d) * math.pi / d
            band = (((p_up - p_down) / (math.sqrt(p_up) + math.sqrt(p_down))) ** 2
                    + 4.0 * math.sqrt(p_up * p_down) * np.sin(phi / 2.0) ** 2)
            inner = rates[1:d - 1]
            assert np.all(band[:-1] * (1.0 - 1e-13) <= inner), (p_up, p_down, gamma, d)
            assert np.all(inner <= band[1:] * (1.0 + 1e-13)), (p_up, p_down, gamma, d)

    DEEP_WALKS = pytest.mark.parametrize("p_up, p_down, gamma", [
        (3.0, 1.0, None),      # fast reset: the top rate is a bound state
        (1.0, 1.0, 1.5),       # slow reset: the top rate is in the band
        (1.0, 1.0005, 7.0),    # passive: the lowest rate is a bound state
        (2.0, 1.0, 1e-30),     # a top that almost never fires
    ])

    @staticmethod
    def _assert_moments(p_up, p_down, gamma, d, rel):
        lr = LadderRates(p_up=p_up, p_down=p_down)
        lad = LadderSpec(d=d, epsilon_w=1.0, g=0.1, Gamma=gamma)
        rates = clock._passage_spectrum(p_up, p_down, resolve_gamma(lad, lr), lad.d)
        fp = solve_first_passage(lr, lad)
        assert np.sum(1.0 / rates) == pytest.approx(fp.mean_tick_time, rel=rel)
        assert np.sum(1.0 / rates**2) == pytest.approx(fp.var_tick_time, rel=rel)

    @DEEP_WALKS
    def test_deep_ladder_moments(self, p_up, p_down, gamma):
        # At d = 4000, where bisection takes about 11 s.
        self._assert_moments(p_up, p_down, gamma, 4000, 1e-12)

    @DEEP_WALKS
    def test_deeper_ladder_moments(self, p_up, p_down, gamma):
        # At d = 10**5, where the plain-double roundings of the band's
        # constants add up over the determinant; measured: 3.1e-11.
        self._assert_moments(p_up, p_down, gamma, 10**5, 1e-10)
