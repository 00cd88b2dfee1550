"""Ladder clock run by the pumped probe.

Replacing the probe qubit by a ladder of ``d`` levels with uniform rung
spacing turns the rate imbalance into a clock: the ladder performs a
biased random walk (up rate ``p_up``, down rate ``p_down``), and from
the top level a photon of the accumulated energy is emitted at rate
``Gamma``, resetting the ladder to the bottom.  Each emission is one
tick.

To second order in the ladder coupling ``g`` the walk rates are

    p_up   = g**2 / (gamma_up + gamma_down) * (1 + m)
    p_down = g**2 / (gamma_up + gamma_down) * (1 - m)

with ``m = (gamma_up - gamma_down) / (gamma_up + gamma_down)`` the
normalized rate asymmetry of the environment.  The classic figures of
merit of such a clock, in the idealized limit of instantaneous emission,
are collected by :func:`clock_metrics`; exact finite-``Gamma`` answers
come from :func:`solve_first_passage` (moments of the tick time),
:func:`evolve_master` (full population dynamics with a tick counter) and
:func:`simulate_ticks` (sampled tick intervals).

The sampler draws each tick interval exactly, as a sum of ``d``
independent exponential stages whose rates are the passage-time spectrum
of the walk (Keilson's theorem), each stage by inversion from one uniform
double, in one draw and one vector log per level chunk of each block of
:data:`_STREAM_BLOCK` trajectories.  The spectrum comes in
O(d) from the roots of a boundary equation, with numpy alone.  Block
``b`` of seed ``s`` draws from ``numpy.random.PCG64`` seeded by
``SeedSequence(s, spawn_key=(b,))``, so a sample is fixed by its seed and
is a prefix of any larger one.

The ``*_array`` functions are the array twins the grid scan uses; each
shares its arithmetic with its scalar twin and reports the errors that
twin would raise as :data:`~quenchclock.errors.Raises`.  Every sum of
the first passage has one kernel, which both of its twins call, the
scalar one on a one-element row where the sums are a series.  The two
twins of :func:`clock_metrics` evaluate one float64 expression per
figure of merit, without branches: IEEE arithmetic gives its limits, an
infinite entropy where a rate vanishes and a nan TUR ratio on a balanced
walk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NotReachable, Raises, ZeroRates
from .rates import Rates

# Trajectories per Monte Carlo stream block.  It is part of the stream
# format, not a tuning knob: every sampled value depends on it.
_STREAM_BLOCK = 2048
# Levels a block draws per numpy call: one uniform double per stage, then
# one vector log over the chunk.  The stream is consumed level-major, so
# the chunk changes no sampled bit; it bounds the one reused buffer.
_LEVEL_CHUNK = 64
# Largest share of the exact mean tick time by which the mean of the
# sampled spectrum, sum(1/lambda), may differ from it.
_SPECTRUM_RTOL = 1e-9
# Steps for the band rates of the passage spectrum.  In t = m pi - d phi
# the fixed-point start is within 0.61 of a root r and a Newton step takes
# t to t' with |t' - r| <= 0.37 |t - r|**2, so five Newton steps reach
# rounding, and one below 1e-8 leaves an error below 4e-17.
_NEWTON_STEPS = 8
# Steps for one scalar root: bisection alone narrows its bracket 2**200-fold.
_BRACKET_STEPS = 200
_EPS = float(np.finfo(float).eps)
# Mantissas in [1/2, 1) multiplied at once: their product stays normal.
_PROD_CHUNK = 1000
# Coefficients b_0 .. b_13 of the Pade-13 approximant of exp (Higham 2005).
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)
# The same, by row the weights of I, b**2, b**4 and b**6 in the four sums
# of the odd and even parts (see :func:`_expm`).
_PADE_13_TERMS = np.array([(0.0, *_PADE_13[9::2]), _PADE_13[1:8:2],
                           (0.0, *_PADE_13[8:13:2]), _PADE_13[0:7:2]])
# Largest eta for which the Pade-13 backward error stays below 2**-53 (Al-Mohy & Higham 2009).
_THETA_13 = 4.25
# Terms of the power series of the first-passage sums, and the constants
# of its four series: k, j and i of :func:`_series_sums`.
_SERIES_TERMS = 20
_SERIES_K = np.array([4.0, 4.0, 3.0, 2.0])[:, None, None]
_SERIES_J = np.arange(4.0)
_SERIES_I = np.arange(1.0, _SERIES_TERMS)


@dataclass(frozen=True)
class LadderSpec:
    """Clockwork ladder: ``d`` levels spaced ``epsilon_w``, coupling ``g``.

    ``Gamma`` is the emission rate from the top level; ``None`` selects
    the fast-reset default ``10 * (p_up + p_down) * d`` at evaluation
    time, once the walk rates are known.
    """

    d: int
    epsilon_w: float
    g: float
    Gamma: float | None = None

    def __post_init__(self):
        if self.d != int(self.d) or self.d < 2:
            raise ValueError(f"d must be an integer >= 2, got {self.d!r}")
        if not (math.isfinite(self.epsilon_w) and self.epsilon_w > 0.0):
            raise ValueError(f"epsilon_w must be positive, got {self.epsilon_w!r}")
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g!r}")
        if self.Gamma is not None and not (math.isfinite(self.Gamma) and self.Gamma > 0.0):
            raise ValueError(f"Gamma must be positive or None, got {self.Gamma!r}")


def ladder_valid(d, g, Gamma) -> np.ndarray:
    """Rows the checks of :class:`LadderSpec` accept, for an integer ``d``,
    ``Gamma`` nan where it is None and a rung that is a valid probe gap."""
    return ((d >= 2) & np.isfinite(g)
            & (np.isnan(Gamma) | (np.isfinite(Gamma) & (Gamma > 0.0))))


@dataclass(frozen=True)
class LadderRates:
    """Up and down walk rates of the ladder."""

    p_up: float
    p_down: float

    @property
    def total(self) -> float:
        return self.p_up + self.p_down


def ladder_rates(rates: Rates, ladder: LadderSpec) -> LadderRates:
    """Second-order walk rates of the ladder in the pumped environment."""
    tot = rates.total
    if not tot > 0.0:
        raise ZeroRates(f"total rate {tot!r} is not positive")
    return LadderRates(*_walk_rates(rates.gamma_up, rates.gamma_down, ladder.g))


def _walk_rates(gamma_up, gamma_down, g):
    tot = gamma_up + gamma_down
    m = (gamma_up - gamma_down) / tot
    scale = g * g / tot
    return scale * (1.0 + m), scale * (1.0 - m)


def ladder_rates_array(gamma_up, gamma_down, g) -> tuple[np.ndarray, np.ndarray, Raises]:
    """Array twin of :func:`ladder_rates`: ``(p_up, p_down, raises)``."""
    with np.errstate(all="ignore"):
        p_up, p_down = _walk_rates(gamma_up, gamma_down, g)
    return p_up, p_down, ((ZeroRates, ~(gamma_up + gamma_down > 0.0)),)


@dataclass(frozen=True)
class ClockMetrics:
    """Idealized tick rate, accuracy and entropy cost of the ladder clock.

    ``accuracy_N`` is the squared mean-to-deviation ratio of the tick
    interval in the fast-emission limit; ``entropy_per_tick`` diverges
    (``inf``) for a perfectly unidirectional walk.  ``tur_ratio`` is
    ``2 accuracy_N / entropy_per_tick``, bounded by one for a Markov
    clock, and nan when both numerator and denominator vanish.
    """

    nu_tick: float
    accuracy_N: float
    entropy_per_tick: float
    relative_bias: float
    tur_ratio: float


def clock_metrics(lr: LadderRates, d: int) -> ClockMetrics:
    """Figures of merit in the instantaneous-reset idealization.

    ``nu_tick = (p_up - p_down)/d``, ``accuracy_N = d * relative_bias``
    and ``entropy_per_tick = d * ln(p_up/p_down)``.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d!r}")
    p_up, p_down = float(lr.p_up), float(lr.p_down)
    if not p_up + p_down > 0.0:
        raise ZeroRates("both walk rates vanish")
    return ClockMetrics(*map(float, _metrics(np.float64(p_up), np.float64(p_down), d)))


def _metrics(p_up, p_down, d):
    # nu_tick, accuracy_N, entropy_per_tick, relative_bias and tur_ratio of
    # float64 walk rates (numpy scalars or arrays).  IEEE arithmetic gives
    # the limits: a vanishing rate or ratio makes the entropy infinite and
    # the TUR ratio 0, and a balanced walk makes the TUR ratio 0/0, nan.
    with np.errstate(all="ignore"):
        rel = (p_up - p_down) / (p_up + p_down)
        acc = d * rel
        entropy = d * np.log(p_up / p_down)
        return (p_up - p_down) / d, acc, entropy, rel, 2.0 * acc / entropy


def clock_metrics_array(p_up, p_down, d) -> tuple[ClockMetrics, Raises]:
    """Array twin of :func:`clock_metrics` over rows with ``d >= 2``."""
    p_up = np.asarray(p_up, dtype=float)
    p_down = np.asarray(p_down, dtype=float)
    return ClockMetrics(*_metrics(p_up, p_down, d)), ((ZeroRates, ~(p_up + p_down > 0.0)),)


def resolve_gamma(ladder: LadderSpec, lr: LadderRates) -> float:
    """Emission rate to use: the ladder's explicit value, or the fast-reset default."""
    if ladder.Gamma is not None:
        return ladder.Gamma
    return _default_gamma(lr.p_up, lr.p_down, ladder.d)


def _default_gamma(p_up, p_down, d):
    # Fast reset: emission well above the ladder's own rates.
    return 10.0 * (p_up + p_down) * d


@dataclass(frozen=True)
class MasterTrajectory:
    """Recorded master-equation solution of the ladder-plus-counter system."""

    times: np.ndarray  # (n_records,)
    populations: np.ndarray  # (n_records, d)
    tick_rate: np.ndarray  # Gamma * p_top at the record times
    ticks: np.ndarray  # accumulated expected ticks
    probability_drift: float


def _generator(lr: LadderRates, d: int, gamma: float) -> np.ndarray:
    # Column convention, dp/dt = G p; last row integrates the tick flux.
    g = np.zeros((d + 1, d + 1))
    level = np.arange(d - 1)
    g[level + 1, level] = lr.p_up
    g[level, level + 1] = lr.p_down
    g[0, d - 1] += gamma  # reset closes the probability loop
    g[np.diag_indices(d)] = -g[:d, :d].sum(axis=0)
    g[d, d - 1] = gamma
    return g


def _expm(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` of a :func:`_generator` matrix times a step, by the
    Pade-13 approximant with scaling and squaring.

    The approximant is Higham's (SIAM J. Matrix Anal. Appl. 26, 1179,
    2005); the squarings come from the eta rule of Al-Mohy and Higham
    (same journal, 31, 970, 2009) alone: ``s`` is the least power with
    ``2**-s eta <= theta_13`` for ``eta = min(max(d6, d8), max(d8,
    d10))``, where ``d_k = ||a**k||_1**(1/k)`` is computed exactly.  Their
    excess term is not computed: it is zero on every ladder generator, as
    a test pins, though not on every matrix, so the function is meant for
    those alone.  On them ``eta`` is about ``0.4 ||a||_1``, one squaring
    fewer than the ``||a||_1`` rule of 2005.  All nan, never zeros or a
    raise, when a power of ``a`` leaves the double range or the squarings
    would amplify rounding past the result (``2**s u >= 1``).
    """
    n = a.shape[0]
    powers = np.empty((6, n, n))
    eye, a2, a4, a6, a8, a10 = powers
    eye[...] = np.eye(n)
    with np.errstate(all="ignore"):
        np.matmul(a, a, out=a2)
        np.matmul(a2, a2, out=a4)
        np.matmul(a2, a4, out=a6)
        np.matmul(a4, a4, out=a8)
        np.matmul(a4, a6, out=a10)
        d = np.abs(powers[3:]).sum(axis=1).max(axis=1) ** (1.0 / np.array([6.0, 8.0, 10.0]))
    if not np.isfinite(d).all():
        return np.full_like(a, np.nan)
    d6, d8, d10 = d.tolist()
    eta = min(max(d6, d8), max(d8, d10))
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if eta > 0.0 else 0
    if s >= 53:  # 2**s u >= 1
        return np.full_like(a, np.nan)
    # b = 2**-s a, its even powers scaled exactly from those of a, and
    # u = b (b6 u_high + u_low), v = b6 v_high + v_low for the odd and even
    # parts of the approximant.
    scale = np.ldexp(1.0, -s * np.arange(7))
    terms = ((_PADE_13_TERMS * scale[::2]) @ powers[:4].reshape(4, -1)).reshape(4, n, n)
    high = (scale[6] * a6) @ terms[0::2]
    u = (scale[1] * a) @ (high[0] + terms[1])
    v = high[1] + terms[3]
    # (v - u)**-1 (v + u) as the identity plus a correction, which keeps
    # the columns' mass to rounding of the correction, not of the whole.
    r = np.linalg.solve(v - u, 2.0 * u)
    r += eye
    for _ in range(s):
        r = r @ r
    return r


def evolve_master(lr: LadderRates, ladder: LadderSpec, t_max: float,
                  n_records: int = 201) -> MasterTrajectory:
    """Solve the ladder populations from the bottom level.

    The exact propagator ``exp(G * dt)`` of the generator over one
    record spacing ``dt = t_max / (n_records - 1)``, by the Pade-13
    scaling and squaring of :func:`_expm`, carries the state from each
    of the ``n_records`` equally spaced record times to the next, so the
    accuracy does not depend on the rates' stiffness.  The
    states go as rows into one ``(n_records, d + 1)`` array, of which
    ``populations`` and ``ticks`` are views.  ``probability_drift`` is
    the largest ``|sum(populations) - 1|`` over the records; it is nan
    when any population is, so an overflowed solve does not pass as
    exact.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if n_records < 2:
        raise ValueError(f"n_records must be >= 2, got {n_records!r}")
    d = ladder.d
    gamma = resolve_gamma(ladder, lr)
    if not max(lr.p_up, lr.p_down, gamma) > 0.0:
        raise ZeroRates("no process moves the ladder")
    stride = _expm(_generator(lr, d, gamma) * (t_max / (n_records - 1)))
    states = np.zeros((n_records, d + 1))
    states[0, 0] = 1.0
    for i in range(1, n_records):
        np.matmul(stride, states[i - 1], out=states[i])
    populations = states[:, :d]
    drift = float(np.abs(populations.sum(axis=1) - 1.0).max())
    return MasterTrajectory(times=np.linspace(0.0, t_max, n_records),
                            populations=populations,
                            tick_rate=gamma * populations[:, d - 1],
                            ticks=states[:, d], probability_drift=drift)


@dataclass(frozen=True)
class FirstPassage:
    """Exact moments of the time between ticks."""

    mean_tick_time: float
    var_tick_time: float
    exact_N: float  # mean**2 / variance
    exact_rate: float  # 1 / mean


def solve_first_passage(lr: LadderRates, ladder: LadderSpec) -> FirstPassage:
    """First two moments of the tick interval, from the bottom level, in
    closed form.

    The interval is the sum of independent passages from each level k to
    the next (from the top, to the tick).  Level k is left upward at
    ``p_up`` (``Gamma`` at the top) and downward at ``p_down`` (not at the
    bottom); a step down costs a passage back from k-1 and a fresh try.
    Below the top these rates are the same on every level, so with ``r =
    p_down/p_up``, ``delta = r - 1`` and ``[n] = (r**n - 1)/delta``, in
    units of ``1/p_up``, the passage out of level k has mean ``[k+1]`` and
    second moment ``s_k = 2 [k+1]**2 + r s_{k-1}``.  Over the ``L = d - 1``
    lower levels, with ``w = r**L``, the sums of the means and of the
    variances, and the second moment of the last passage, are

        S1 = (r (w - 1) - L delta) / delta**2
        P  = (r**2 (w**2 - 1) - L delta (2 + delta) + 4 r (w - 1)
              - 4 L r w delta) / delta**4
        s  = 2 ((r w + 1)(w - 1)/delta - 2 L w) / delta**2,

    and the top, left at ``Gamma`` with ``g = p_up/Gamma``, adds its own:

        mean = (S1 + g [d]) / p_up
        var  = (P + g**2 [d]**2 + r g s) / p_up**2.

    Each sum is taken where it loses no digits: as a power series in
    ``delta`` where ``|L delta| < 1`` (:func:`_series_sums`), as above on a
    walk that drifts up (:func:`_sums_drift_up`), and over
    ``r**(L+1)/delta**2``, the growth of the mean, on one that drifts down
    (:func:`_sums_drift_down`).  They are combined in units of
    ``min(p_up, Gamma)`` and scaled back only at the end, so
    ``exact_N``, their squared mean over their variance, does not depend
    on the scale of the rates, and a mean or a variance leaves the double
    range only where its own value does.  The cost does not grow with
    ``d``.  Raises :class:`ZeroRates` when both walk rates vanish, as
    :func:`clock_metrics` does, and :class:`NotReachable` when the top is
    never reached, or when the moments leave the double range.
    """
    d = ladder.d
    if not lr.p_up + lr.p_down > 0.0:
        raise ZeroRates("both walk rates vanish")
    if not lr.p_up > 0.0:
        raise NotReachable(f"upward rate {lr.p_up!r} is not positive; the top "
                           "level is never reached")
    gamma = resolve_gamma(ladder, lr)
    if not 0.0 < gamma < math.inf:
        # The default overflows where the walk rates near the double's top.
        raise NotReachable(f"emission rate {gamma!r} is not a positive double")
    # Python floats, with numpy's exp and logs: the bits of the array twin.
    p_up, p_down, gamma = float(lr.p_up), float(lr.p_down), float(gamma)
    L = d - 1
    delta = (p_down - p_up) / p_up
    r = p_down / p_up
    mu = min(p_up, gamma)
    series = abs(L * delta) < 1.0
    drifts_down = not series and delta > 0.0
    if series:
        # The array twin's kernel on one row.  Past d = 1e77 its binomials
        # overflow into nan sums, as the moments do, and numpy would warn.
        with np.errstate(all="ignore"):
            sums = _series_sums(np.array([float(d)]), np.array([delta]))[:, 0].tolist()
    elif drifts_down:
        ell = float(np.log1p(delta))
        x = L * ell
        *sums, t = map(float, _sums_drift_down(L, delta, r, float(np.exp(-x)), mu / gamma))
        log_scale = x + ell - 2.0 * float(np.log(delta)) - float(np.log(mu))
    else:
        # w = 0 where delta rounds to -1, at which log1p would warn.
        sums = _sums_drift_up(L, delta, r, float(np.exp(L * float(np.log1p(delta))))
                              if delta > -1.0 else 0.0)
    M, V = _combine(*sums, r, mu / p_up, mu / gamma)
    if drifts_down:
        # Beyond 1400 the mean overflows whatever M is, and np.exp may warn.
        half = t * float(np.exp(0.5 * log_scale)) if log_scale <= 1400.0 else math.inf
        mean, var = M * half * half, V * half * half * half * half
    else:
        mean, var = M / mu, V / mu / mu
    exact_N = M * M / V if V > 0.0 else math.nan
    if not (0.0 < mean < math.inf and var < math.inf and math.isfinite(exact_N)
            and 1.0 / mean < math.inf):
        raise NotReachable(f"tick-time moments out of double range (mean {mean!r}, "
                           f"variance {var!r})")
    return FirstPassage(mean_tick_time=mean, var_tick_time=var,
                        exact_N=exact_N, exact_rate=1.0 / mean)


def _sums_drift_up(L, delta, r, w):
    # (S1, [d], s, P) of :func:`solve_first_passage` for delta <= -1/L, with
    # w = r**L <= 1/e: no term cancels more than a few digits.
    W = w - 1.0
    rW = r * W
    rw = r * w
    Ld = L * delta
    dd = delta * delta
    return ((rW - Ld) / dd,
            rW / delta + 1.0,
            2.0 / dd * ((rw + 1.0) * W / delta - 2.0 * L * w),
            (rW * (r * (w + 1.0) + 4.0) - Ld * (2.0 + delta + 4.0 * rw)) / (dd * dd))


def _sums_drift_down(L, delta, r, z, beta):
    # The same for delta >= 1/L, divided by K = t**2 r**(L+1)/delta**2 (the
    # second moments by K**2), with z = r**-L <= 1/2, rho = delta/r, beta =
    # mu/Gamma and t, returned last, the least power of two for which the
    # top's share [d] beta/K, of order delta beta/t**2, is below 1: so that
    # no sum nor that share's square overflows where K does.
    Z = 1.0 - z
    rho = delta / r
    u = delta * (1.0 - z / r)
    j = (np.maximum(np.frexp(u * beta)[1], 0) + 1) // 2
    c = np.ldexp(1.0, -2 * j)
    return ((Z - L * rho * z) * c,
            u * c,
            2.0 * rho * ((1.0 + z / r) * Z - 2.0 * L * z * rho) * c * c,
            (Z * (1.0 + z) - L * rho * (1.0 + 1.0 / r) * z * z + 4.0 * Z * z / r
             - 4.0 * L * rho * z) * c * c,
            np.ldexp(1.0, j))


def _series_sums(d, delta):
    # (S1, [d], s, P) of :func:`solve_first_passage` for |(d-1) delta| < 1,
    # from float arrays d and delta, as power series in delta whose
    # coefficients are binomials:
    #   [d] = sum_i C(d, i+1) delta**i,   S1 = sum_i C(d, i+2) delta**i,
    #   s   = 2 sum_i (C(2d-1, i+3) - (2d-1) C(d-1, i+2)) delta**i,
    #   P   = sum_i (C(2d, i+4) + 4 C(d, i+4) - 4 (d-1) C(d, i+3)) delta**i.
    # Four series sum_i C(n, k+i) delta**i, each term from the one before.
    # The i-th term is at most 2.2**i 4!/(i+4)! of the first, so
    # _SERIES_TERMS of them reach rounding; at small d they end by
    # themselves, where the binomials vanish.
    n = np.stack([d, 2.0 * d, 2.0 * d - 1.0, d - 1.0])[..., None]
    k, j, i = _SERIES_K, _SERIES_J, _SERIES_I
    terms = np.empty(n.shape[:2] + (_SERIES_TERMS,))
    terms[..., 0] = np.where(j < k, (n - j) / (j + 1.0), 1.0).prod(axis=-1)
    terms[..., 1:] = delta[:, None] * (n - (k - 1.0) - i) / (k + i)
    a, b, c, e = np.cumprod(terms, axis=-1).sum(axis=-1)
    c2 = d * (d - 1.0) / 2.0
    a3 = c2 * (d - 2.0) / 3.0 + delta * a
    s1 = c2 + delta * a3
    return np.stack([s1, d + delta * s1, 2.0 * (c - (2.0 * d - 1.0) * e),
                     b + 4.0 * a - 4.0 * (d - 1.0) * a3])


def _combine(s1, u, s, p, r, alpha, beta):
    # Mean and variance of the tick interval in units of mu = min(p_up,
    # Gamma), from the sums in units of 1/p_up: alpha = mu/p_up, beta =
    # mu/Gamma, one of them 1.
    top = u * beta
    return s1 * alpha + top, p * alpha * alpha + top * top + r * s * alpha * beta


def first_passage_array(p_up, p_down, Gamma, d) -> tuple[FirstPassage, Raises]:
    """Array twin of :func:`solve_first_passage`, with ``Gamma`` nan where
    the ladder leaves it None.

    The same closed form in ``r = p_down/p_up`` and ``w = r**(d-1)``:
    ``mean = (S1 + g [d])/p_up`` and ``var = (P + g**2 [d]**2 + r g
    s)/p_up**2`` with ``g = p_up/Gamma`` and the sums ``S1``, ``P``, ``s``
    and ``[d] = (r**d - 1)/(r - 1)`` given there.  Every row takes the form
    its scalar twin takes: each closed form runs over the whole grid where
    some row needs it, the series only on its own rows.  The cost does not
    grow with ``d``.
    """
    with np.errstate(all="ignore"):
        gamma = np.where(np.isnan(Gamma), _default_gamma(p_up, p_down, d), Gamma)
        L = d - 1
        delta = (p_down - p_up) / p_up
        r = p_down / p_up
        mu = np.minimum(p_up, gamma)
        ell = np.log1p(delta)
        x = L * ell
        series = np.abs(L * delta) < 1.0
        drifts_down = ~series & (delta > 0.0)
        any_down = drifts_down.any()
        sums = _sums_drift_up(L, delta, r, np.exp(x))
        if any_down:
            *down, t = _sums_drift_down(L, delta, r, np.exp(-x), mu / gamma)
            sums = np.where(drifts_down, down, sums)
        if series.any():
            sums = np.array(sums)
            d = np.broadcast_to(d, series.shape)[series].astype(float)
            sums[:, series] = _series_sums(d, delta[series])
        M, V = _combine(*sums, r, mu / p_up, mu / gamma)
        mean, var = M / mu, V / mu / mu
        if any_down:
            half = t * np.exp(0.5 * (x + ell - 2.0 * np.log(delta) - np.log(mu)))
            mean = np.where(drifts_down, M * half * half, mean)
            var = np.where(drifts_down, V * half * half * half * half, var)
        passage = FirstPassage(mean_tick_time=mean, var_tick_time=var,
                               exact_N=M * M / V, exact_rate=1.0 / mean)
        in_range = ((0.0 < mean) & (mean < np.inf) & (var < np.inf)
                    & np.isfinite(passage.exact_N) & (passage.exact_rate < np.inf))
    return passage, ((ZeroRates, ~(p_up + p_down > 0.0)),
                     (NotReachable, ~((p_up > 0.0) & (0.0 < gamma) & (gamma < np.inf)
                                      & in_range)))


@dataclass(frozen=True)
class TickStatistics:
    """Sample statistics of simulated tick intervals."""

    mean_tick_time: float
    var_tick_time: float
    empirical_accuracy: float
    empirical_rate: float


def _passage_spectrum(p_up: float, p_down: float, gamma: float, d: int) -> np.ndarray:
    """Rates ``lambda_j``, ascending, of the exponential stages of a tick.

    The time from the bottom level to the tick is distributed as
    ``sum_j E_j / lambda_j`` with ``E_j`` iid standard exponentials, where
    the ``lambda_j`` are the eigenvalues of minus the walk generator on the
    ``d >= 2`` levels, killed from the top at rate ``gamma`` (J. Keilson 1971;
    J. A. Fill, J. Theor. Probab. 22, 2009).  With ``a = p_up``, ``q =
    p_down`` and ``b = sqrt(a q)`` that matrix is similar to the symmetric
    tridiagonal one with diagonal ``[a, a+q, ..., a+q, gamma+q]`` and every
    off-diagonal entry ``-b``, whose eigenvectors are plane waves.  With
    ``rho = sqrt(q/a)`` and ``sigma = (a - gamma)/b``, a rate in the band
    is ``(sqrt(a) - sqrt(q))**2 + 4 b sin(phi/2)**2``, a sum of positive
    terms, where ``phi`` in ``(0, pi)`` is a root of the boundary equation

        sin((d+1) phi) - (rho+sigma) sin(d phi) + rho sigma sin((d-1) phi) = 0.

    That is ``d phi + chi(phi) = m pi`` for the phase ``chi`` of
    ``e^{i phi} - (rho+sigma) + rho sigma e^{-i phi}``, which stays in
    ``(0, pi)`` because ``rho sigma = 1 - gamma/a < 1``.  So each bracket
    ``((m-1) pi/d, m pi/d)``, ``m = 2 .. d-1``, holds one root, and there
    ``|chi'| <= 1/sin(phi) <= d/2`` and ``|chi''| <= d**2/2``: Newton's
    method on ``t = m pi - d phi``, kept in ``[0, pi]``, converges in every
    bracket at once (see :data:`_NEWTON_STEPS`).  Of the two rates left,
    one lies above these brackets: the root in ``((d-1) pi/d, pi)``, or a
    bound state above the band when ``sigma < -1`` (a fast reset), solved
    as a scalar.  The other lies below them and comes from the determinant
    ``gamma a**(d-1)``, because as a bound state below the band (a passive
    walk, or a top that rarely fires) it can lie tens of decades below
    ``a + q``, where any direct formula loses its digits to cancellation.
    The whole spectrum costs O(d) time and memory.  The constants ``(1 -
    rho)**2``, ``4 rho`` and ``m pi`` are plain doubles, whose roundings
    add up over the determinant: measured, the rates agree with Golub-Kahan
    bisection to 4e-14 at ``d <= 400``, and ``sum(1/lambda)`` with the
    exact mean to 5e-13 at ``d = 4000`` and 2e-10 at ``4 10**6``.
    """
    a, q = p_up, p_down
    if q == 0.0:
        # A walk that only climbs: the matrix is bidiagonal.
        return np.sort(np.append(np.full(d - 1, a, dtype=float), gamma))
    # rho = sqrt(q/a) from the mantissas and an even exponent: q/a may
    # leave the double range.
    ma, ea = math.frexp(a)
    mq, eq = math.frexp(q)
    half_exp, odd = divmod(eq - ea, 2)
    rho = math.ldexp(math.sqrt(math.ldexp(mq, odd) / ma), half_exp)
    # In units of a: rates r = lambda/a, and rho sigma = 1 - u.  Once u =
    # gamma/a = m 2**u_exp, m in [1/2, 1), exceeds 1, chi's argument, which
    # grows like u, and its slope constants, like u**2, are taken in units
    # of c = 2**-u_exp, and so is a top stage above the band: an exact
    # scaling that keeps them in the double range whatever the ratio.
    u, u_exp = gamma / a, 0
    if u > 1.0:
        # From the exponents of gamma and a, as the ratio may overflow.
        mg, eg = math.frexp(gamma)
        u, u_exp = math.frexp(mg / ma)
        u_exp += eg - ea
    c = math.ldexp(1.0, -u_exp)
    sigma = (c - u) / rho  # sigma c
    # The coefficients (1-rho)(1-sigma) and 2 (1 + rho sigma) of chi's
    # argument, and (1-rho)(1-sigma) u/d and 2 (rho + sigma) u/d of its slope.
    k0 = (1.0 - rho) * (c - sigma)
    k = (k0, 2.0 * (2.0 * c - u), k0 * u / d, 2.0 * (rho * c + sigma) * u / d)
    # The boundary equation over sin(phi) at phi = pi: with this sign its
    # last root lies below pi, in the band; else one lies above the band.
    top_in_band = d * (1.0 + rho) * (c + sigma) + u > 0.0
    m = np.arange(2.0, d + top_in_band)
    mpi = m * math.pi
    t = np.empty(m.size)
    with np.errstate(all="ignore"):
        # One fixed-point step from pi/2, then Newton's method until no
        # step exceeds 1e-8.
        inner_mpi = mpi[:d - 2]
        inner = _phase(0.5 * math.pi, inner_mpi, d, u, k, slope=False)
        for _ in range(_NEWTON_STEPS):
            gap, slope = _phase(inner, inner_mpi, d, u, k)
            step = gap / slope
            inner = np.minimum(np.maximum(inner - step, 0.0), math.pi)
            if not step @ step > 1e-16:
                break
        t[:d - 2] = inner
    r = np.empty(d)
    top_exp = 0  # r[-1] is the top rate over a 2**top_exp
    if top_in_band:
        t[-1] = _bracketed_root(
            lambda x: _phase(x, mpi[-1], d, u, k, math.sin, math.atan2),
            0.0, math.pi, 0.5 * math.pi)
    else:
        # w + 1/w of the bound state is -sigma to rounding from -sigma =
        # 2**54 on, the exact limit of the root.
        s = -sigma
        bound = s if s >= 2.0**54 * c else c * _bound_state(rho, s / c, d)
        r[-1] = c * (1.0 + rho * rho) + rho * bound
        top_exp = u_exp
    s2 = np.sin((mpi - t) / (2 * d)) ** 2
    r[1:1 + t.size] = (1.0 - rho) * (1.0 - rho) + 4.0 * rho * s2
    # The determinant: r_0 = u / prod(r_1 .. r_{d-1}), over mantissas and
    # exact binary exponents, so the product neither leaves the double
    # range nor loses digits however far the rates spread.
    mant, expo = np.frexp(r[1:])
    low, shift = math.frexp(u)
    shift += u_exp - top_exp - int(expo.sum())
    for start in range(0, d - 1, _PROD_CHUNK):
        low, e = math.frexp(low / float(mant[start:start + _PROD_CHUNK].prod()))
        shift += e
    r[0] = math.ldexp(low, shift)
    rates = a * r
    rates[-1] = np.ldexp(rates[-1], top_exp)
    return rates


def _phase(t, mpi, d, u, k, sin=np.sin, atan2=np.arctan2, slope=True):
    # t - chi(phi) at phi = (m pi - t)/d, and its slope in t: zero at a
    # rate of the band, negative for smaller t and positive for larger.
    # With s2 = sin(phi/2)**2 the real part of chi's argument is
    # (1-rho)(1-sigma) - 2 (1 + rho sigma) s2, free of the cancellation of
    # (1 + rho sigma) cos(phi) - (rho + sigma) at small phi.  Without the
    # slope, chi itself: one fixed-point step.
    phi = (mpi - t) / d
    s2 = sin(0.5 * phi) ** 2
    y = u * sin(phi)
    x = k[0] - k[1] * s2
    if not slope:
        return atan2(y, x)
    return t - atan2(y, x), 1.0 + (k[2] + k[3] * s2) / (x * x + y * y)


def _bound_state(rho, s, d):
    # w + 1/w for the rate a + q + b (w + 1/w) above the band, where w in
    # (1, s) solves w**(2d) (w + rho)(s - w) = (1 + rho w)(s w - 1).  The
    # start is one fixed-point step from w = s, exact to rounding when the
    # state is deep, as it is for a fast reset.
    z = s * math.exp(-2 * d * math.log(s) - math.log((s + rho) / (1.0 + rho * s)))
    w = s - (s - 1.0 / s) * z / (1.0 + z)
    if w < s:
        w = _bracketed_root(lambda w: (
            math.log(s) - 2 * d * math.log(w) - math.log((w + rho) / (1.0 + rho * w))
            - math.log((s - w) / (w - 1.0 / s)),
            1.0 / (s - w) + 1.0 / (w - 1.0 / s) + rho / (1.0 + rho * w)
            - 2 * d / w - 1.0 / (w + rho)), 1.0, s, w)
    return w + 1.0 / w


def _bracketed_root(f, lo, hi, x):
    # Newton's method on a scalar f(x) = (value, slope) that is negative on
    # (lo, root) and positive on (root, hi), bisecting when a step would
    # leave the bracket.
    for _ in range(_BRACKET_STEPS):
        value, slope = f(x)
        if value < 0.0:
            lo = x
        else:
            hi = x
        new = x - value / slope if slope else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
            if not lo < new < hi:
                return x
        if abs(new - x) <= 2.0 * _EPS * new:
            return new
        x = new
    return x


def _simulate(rates: np.ndarray, seed: int, n: int) -> np.ndarray:
    # Trajectory j is lane j % _STREAM_BLOCK of block j // _STREAM_BLOCK,
    # and block b draws from numpy's PCG64 seeded by SeedSequence(seed,
    # spawn_key=(b,)).  A block draws one uniform double U per stage,
    # level-major in the order of ``rates``, into rows 1... of one reused
    # buffer whose row 0 holds the running lanes, and turns it into the
    # stage log(1 - U) * (-1/lambda) by inversion.  U is a multiple of
    # 2**-53 in [0, 1), so 1 - U is exact and in (0, 1]: every stage is
    # finite, at most 53 ln 2 / lambda.  One reduction over the rows adds
    # the stages level by level, so no sum depends on the chunking or on
    # a BLAS.
    scales = -1.0 / rates[:, None]
    times = np.zeros((-(-n // _STREAM_BLOCK), _STREAM_BLOCK))
    buf = np.empty((min(rates.size, _LEVEL_CHUNK) + 1, _STREAM_BLOCK))
    for b, lanes in enumerate(times):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        for start in range(0, rates.size, _LEVEL_CHUNK):
            scale = scales[start:start + _LEVEL_CHUNK]
            part = buf[:scale.size + 1]
            part[0] = lanes
            stages = rng.random(out=part[1:])
            np.subtract(1.0, stages, out=stages)
            np.log(stages, out=stages)
            np.multiply(stages, scale, out=stages)
            np.add.reduce(part, axis=0, out=lanes)
    return times.reshape(-1)[:n]


def sample_tick_times(lr: LadderRates, ladder: LadderSpec, n_ticks: int,
                      seed: int) -> np.ndarray:
    """Draw ``n_ticks`` independent tick intervals of the ladder clock.

    Ticks renew the ladder at the bottom level, so intervals are iid and
    one interval per trajectory suffices.  Each interval is drawn exactly,
    as ``d`` exponential stages over the passage-time spectrum, at a
    cost of O(d) per interval whatever the bias or the emission rate:
    stage ``j`` is ``log(1 - U) * (-1/lambda_j)`` from one uniform double
    ``U``, so an interval costs ``d`` uniform doubles and one vector log.
    Trajectories come in blocks of :data:`_STREAM_BLOCK`; block ``b`` draws,
    always whole, from numpy's PCG64 seeded by ``SeedSequence(seed,
    spawn_key=(b,))``.  So the sample is reproducible bit for bit for a
    given integer ``seed``, and a shorter sample is a prefix of a longer one.

    Raises :class:`ValueError` for a non-integer ``n_ticks`` or ``seed``,
    what :func:`solve_first_passage` raises, where it does, and
    :class:`RuntimeError` when the spectrum's mean tick time misses the
    exact one, which only a wrong spectrum can do.
    """
    try:
        n_ticks = operator.index(n_ticks)
    except TypeError:
        raise ValueError(f"n_ticks must be an integer, got {n_ticks!r}") from None
    if n_ticks < 1:
        raise ValueError(f"need at least 1 tick sample, got {n_ticks!r}")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed!r}")
    mean = solve_first_passage(lr, ladder).mean_tick_time
    rates = _passage_spectrum(lr.p_up, lr.p_down, resolve_gamma(ladder, lr), ladder.d)
    spectrum_mean = float(np.sum(1.0 / rates))
    if not abs(spectrum_mean - mean) <= _SPECTRUM_RTOL * mean:
        raise RuntimeError(f"passage spectrum has mean tick time {spectrum_mean!r}, "
                           f"the first-passage moments {mean!r}")
    return _simulate(rates, seed, n_ticks)


def simulate_ticks(lr: LadderRates, ladder: LadderSpec, n_ticks: int,
                   seed: int) -> TickStatistics:
    """Monte Carlo tick statistics from :func:`sample_tick_times`.

    The accuracy is the inverse variance of the intervals in units of
    their mean, finite even where the squared mean overflows."""
    if n_ticks < 2:
        raise ValueError(f"need at least 2 tick samples, got {n_ticks!r}")
    times = sample_tick_times(lr, ladder, n_ticks, seed)
    mean = float(times.mean())
    rel_var = float((times / mean).var(ddof=1))
    return TickStatistics(mean_tick_time=mean, var_tick_time=mean * mean * rel_var,
                          empirical_accuracy=1.0 / rel_var, empirical_rate=1.0 / mean)
