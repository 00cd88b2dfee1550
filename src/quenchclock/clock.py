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
:func:`simulate_ticks` (stochastic trajectories).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import NotReachable, ZeroRates
from .rates import Rates

# Validity margin for the second-order ladder rates: g should not exceed
# this fraction of the total environment rate.
WEAK_COUPLING_MARGIN = 0.1

_CHUNK = 4096
_BLOCK = 64


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


@dataclass(frozen=True)
class LadderRates:
    """Walk rates of the ladder, with a record of their validity margins.

    The second-order rates are trustworthy only for a ladder coupling
    small against both environment scales; ``g_over_bath`` (g against
    the total qubit rate) and ``g_over_emission`` (g against the top
    emission rate) record how far the inputs sit from that regime.
    """

    p_up: float
    p_down: float
    g_over_bath: float = 0.0
    g_over_emission: float = 0.0

    @property
    def weak_coupling(self) -> bool:
        return (self.g_over_bath <= WEAK_COUPLING_MARGIN
                and self.g_over_emission <= WEAK_COUPLING_MARGIN)

    @property
    def total(self) -> float:
        return self.p_up + self.p_down

    @property
    def bias(self) -> float:
        tot = self.total
        if tot == 0.0:
            return math.nan
        return (self.p_up - self.p_down) / tot


@dataclass(frozen=True)
class QubitSteadyState:
    """Stationary populations of the pumped probe qubit."""

    p_excited: float
    p_ground: float
    magnetization: float  # p_excited - p_ground

    @property
    def inverted(self) -> bool:
        return self.magnetization > 0.0


def qubit_steady_state(rates: Rates) -> QubitSteadyState:
    """Stationary state of the probe: populations and their imbalance.

    Detailed balance of the pumped qubit gives ``p_excited = gamma_up /
    (gamma_up + gamma_down)``; the magnetization is positive exactly for
    an inverted (active) environment.  Raises :class:`ZeroRates` when
    the environment neither pumps nor drains.
    """
    tot = rates.total
    if not tot > 0.0:
        raise ZeroRates(f"total rate {tot!r} is not positive")
    p1 = rates.gamma_up / tot
    return QubitSteadyState(p_excited=p1, p_ground=1.0 - p1,
                            magnetization=(rates.gamma_up - rates.gamma_down) / tot)


def ladder_rates(rates: Rates, ladder: LadderSpec) -> LadderRates:
    """Second-order walk rates of the ladder in the pumped environment."""
    tot = rates.total
    if not tot > 0.0:
        raise ZeroRates(f"total rate {tot!r} is not positive")
    m = (rates.gamma_up - rates.gamma_down) / tot
    scale = ladder.g**2 / tot
    walk = LadderRates(p_up=scale * (1.0 + m), p_down=scale * (1.0 - m))
    g_abs = abs(ladder.g)
    gamma = resolve_gamma(ladder, walk)
    return LadderRates(
        p_up=walk.p_up,
        p_down=walk.p_down,
        g_over_bath=g_abs / tot,
        g_over_emission=g_abs / gamma if gamma > 0.0 else (0.0 if g_abs == 0.0 else math.inf),
    )


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
    weak_bias: bool  # |relative_bias| < 0.1, where accuracy ~ entropy/2


def clock_metrics(lr: LadderRates, d: int) -> ClockMetrics:
    """Figures of merit in the instantaneous-reset idealization.

    ``nu_tick = (p_up - p_down)/d``, ``accuracy_N = d * relative_bias``
    and ``entropy_per_tick = d * ln(p_up/p_down)``.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d!r}")
    tot = lr.p_up + lr.p_down
    if not tot > 0.0:
        raise ZeroRates("both walk rates vanish")
    rel = (lr.p_up - lr.p_down) / tot
    nu = (lr.p_up - lr.p_down) / d
    acc = d * rel
    if lr.p_down == 0.0:
        entropy = math.inf
    elif lr.p_up == 0.0:
        entropy = -math.inf
    else:
        entropy = d * math.log(lr.p_up / lr.p_down)
    if entropy == 0.0:
        tur = math.nan
    elif math.isinf(entropy):
        tur = 0.0 if math.isfinite(acc) else math.nan
    else:
        tur = 2.0 * acc / entropy
    return ClockMetrics(nu_tick=nu, accuracy_N=acc, entropy_per_tick=entropy,
                        relative_bias=rel, tur_ratio=tur,
                        weak_bias=abs(rel) < 0.1)


def resolve_gamma(ladder: LadderSpec, lr: LadderRates) -> float:
    """Emission rate to use: the ladder's explicit value, or the fast-reset default."""
    if ladder.Gamma is not None:
        return ladder.Gamma
    return 10.0 * (lr.p_up + lr.p_down) * ladder.d


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
    for j in range(d):
        out = 0.0
        if j < d - 1:
            g[j + 1, j] += lr.p_up
            out += lr.p_up
        if j > 0:
            g[j - 1, j] += lr.p_down
            out += lr.p_down
        if j == d - 1:
            g[0, j] += gamma  # reset closes the probability loop
            out += gamma
        g[j, j] = -out
    g[d, d - 1] = gamma
    return g


def evolve_master(lr: LadderRates, ladder: LadderSpec, t_max: float,
                  n_records: int = 201) -> MasterTrajectory:
    """Solve the ladder populations from the bottom level.

    The exact propagator ``expm(G * dt)`` of the generator over one
    record spacing ``dt = t_max / (n_records - 1)`` carries the state
    from each of the ``n_records`` equally spaced record times to the
    next, so the accuracy does not depend on the rates' stiffness.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive, got {t_max!r}")
    if n_records < 2:
        raise ValueError(f"n_records must be >= 2, got {n_records!r}")
    d = ladder.d
    gamma = resolve_gamma(ladder, lr)
    if not max(lr.p_up, lr.p_down, gamma) > 0.0:
        raise ZeroRates("no process moves the ladder")
    stride = expm(_generator(lr, d, gamma) * (t_max / (n_records - 1)))
    v = np.zeros(d + 1)
    v[0] = 1.0
    times = np.linspace(0.0, t_max, n_records)
    populations = np.empty((n_records, d))
    ticks = np.empty(n_records)
    drift = 0.0
    for i in range(n_records):
        if i:
            v = stride @ v
        populations[i] = v[:d]
        ticks[i] = v[d]
        drift = max(drift, abs(populations[i].sum() - 1.0))
    tick_rate = gamma * populations[:, d - 1]
    return MasterTrajectory(times=times, populations=populations,
                            tick_rate=tick_rate, ticks=ticks,
                            probability_drift=drift)


@dataclass(frozen=True)
class FirstPassage:
    """Exact moments of the time between ticks."""

    mean_tick_time: float
    var_tick_time: float
    exact_N: float  # mean**2 / variance
    exact_rate: float  # 1 / mean


def solve_first_passage(lr: LadderRates, ladder: LadderSpec) -> FirstPassage:
    """First two moments of the tick interval, from the bottom level.

    Solves the linear moment equations of the absorbed walk: with ``Q``
    the generator restricted to the ladder (emission leaving the system),
    ``Q m = -1`` and ``Q s = -2 m`` give mean and second moment.
    """
    d = ladder.d
    if not lr.p_up > 0.0:
        raise NotReachable(f"upward rate {lr.p_up!r} is not positive; the top "
                           "level is never reached")
    gamma = resolve_gamma(ladder, lr)
    if not gamma > 0.0:
        raise NotReachable(f"emission rate {gamma!r} is not positive")
    q = np.zeros((d, d))
    for j in range(d):
        out = 0.0
        if j < d - 1:
            q[j, j + 1] = lr.p_up
            out += lr.p_up
        if j > 0:
            q[j, j - 1] = lr.p_down
            out += lr.p_down
        if j == d - 1:
            out += gamma
        q[j, j] = -out
    m = np.linalg.solve(q, -np.ones(d))
    s = np.linalg.solve(q, -2.0 * m)
    mean = float(m[0])
    var = float(s[0] - m[0] ** 2)
    return FirstPassage(mean_tick_time=mean, var_tick_time=var,
                        exact_N=mean**2 / var, exact_rate=1.0 / mean)


@dataclass(frozen=True)
class TickStatistics:
    """Sample statistics of simulated tick intervals."""

    n_trajectories: int
    mean_tick_time: float
    var_tick_time: float
    empirical_accuracy: float
    empirical_rate: float
    seed: int


def _simulate_chunk(p_up: float, p_down: float, gamma: float, d: int,
                    seed: int, start: int, count: int) -> np.ndarray:
    # One independent counter-based stream per trajectory, so results do
    # not depend on chunking or scheduling.
    gens = [np.random.Generator(np.random.Philox(
        key=np.array([seed, start + j], dtype=np.uint64))) for j in range(count)]
    exp_blk = np.empty((count, _BLOCK))
    uni_blk = np.empty((count, _BLOCK))
    for j, gen in enumerate(gens):
        exp_blk[j] = gen.standard_exponential(_BLOCK)
        uni_blk[j] = gen.random(_BLOCK)
    t = np.zeros(count)
    state = np.zeros(count, dtype=np.int64)
    out = np.empty(count)
    active = np.ones(count, dtype=bool)
    q_mid = p_up / (p_up + p_down)
    q_top = gamma / (gamma + p_down)
    ptr = 0
    while active.any():
        if ptr == _BLOCK:
            for j in np.flatnonzero(active):
                exp_blk[j] = gens[j].standard_exponential(_BLOCK)
                uni_blk[j] = gens[j].random(_BLOCK)
            ptr = 0
        e = exp_blk[:, ptr]
        u = uni_blk[:, ptr]
        ptr += 1
        bottom = state == 0
        top = state == d - 1
        rate = np.where(bottom, p_up, np.where(top, gamma + p_down, p_up + p_down))
        t = np.where(active, t + e / rate, t)
        up = bottom | (~bottom & ~top & (u < q_mid))
        emit = top & (u < q_top)
        new_state = np.where(up, state + 1, np.where(emit, state, state - 1))
        ticked = active & emit
        out[ticked] = t[ticked]
        active = active & ~emit
        state = np.where(active, new_state, state)
    return out


def sample_tick_times(lr: LadderRates, ladder: LadderSpec, n_ticks: int,
                      seed: int) -> np.ndarray:
    """Draw ``n_ticks`` independent tick intervals of the ladder clock.

    Ticks renew the ladder at the bottom level, so intervals are iid and
    one interval per trajectory suffices.  Trajectory ``j`` draws from
    its own counter-based stream keyed by ``(seed, j)``: the sample is
    reproducible bit for bit for a given ``seed`` regardless of how the
    work is batched.
    """
    if n_ticks < 1:
        raise ValueError(f"need at least 1 tick sample, got {n_ticks!r}")
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed!r}")
    if not lr.p_up > 0.0:
        raise NotReachable(f"upward rate {lr.p_up!r} is not positive; the top "
                           "level is never reached")
    gamma = resolve_gamma(ladder, lr)
    if not gamma > 0.0:
        raise NotReachable(f"emission rate {gamma!r} is not positive")
    times = np.empty(n_ticks)
    for start in range(0, n_ticks, _CHUNK):
        count = min(_CHUNK, n_ticks - start)
        times[start:start + count] = _simulate_chunk(
            lr.p_up, lr.p_down, gamma, ladder.d, seed, start, count)
    return times


def simulate_ticks(lr: LadderRates, ladder: LadderSpec, n_ticks: int,
                   seed: int) -> TickStatistics:
    """Monte Carlo tick statistics from :func:`sample_tick_times`."""
    if n_ticks < 2:
        raise ValueError(f"need at least 2 tick samples, got {n_ticks!r}")
    times = sample_tick_times(lr, ladder, n_ticks, seed)
    mean = float(times.mean())
    var = float(times.var(ddof=1))
    return TickStatistics(n_trajectories=n_ticks, mean_tick_time=mean,
                          var_tick_time=var, empirical_accuracy=mean**2 / var,
                          empirical_rate=1.0 / mean, seed=seed)
