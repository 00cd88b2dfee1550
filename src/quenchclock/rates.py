"""Golden-rule rates of a probe qubit fed by the quenched chain.

After the quench the chain settles into a stationary diagonal ensemble
with mode occupations ``n_k = sin(dtheta_k)**2``.  A weakly coupled
two-level probe with gap ``epsilon0`` exchanges energy with pairs of
quasiparticles, resonant where ``2 eps_k = epsilon0``.  The golden rule
then gives a pumping rate ``gamma_up`` (the chain excites the probe, de
occupying a pair) and a decay rate ``gamma_down`` (the probe relaxes,
creating a pair).  Their imbalance is what can invert the probe and
drive a clock: the probe is pumped when ``gamma_up > gamma_down``.

Per resonant momentum ``k*`` in the reduced zone the delta function
contributes ``1 / |d(2 eps_k)/dk|`` and a squared matrix element:

* transverse-field chain: ``sin(2 theta_f)**2`` times the prefactor
  ``2 g**2 / (pi L)``, integrating over ``|k| < pi/2`` only, so roots
  with ``cos k < 0`` are excluded (and counted);
* ring: ``(t sin k)**2 sin(2 theta_f)**2`` times ``2 g**2 / (pi L)``.

Emission carries an extra ``sin(dtheta)**2`` (the pair must be there to
be consumed) and absorption ``cos(dtheta)**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateRoot, NoResonance
from .spectra import (
    DERIVATIVE_TOL,
    EnergyRoot,
    ModeState,
    ModelKind,
    QuenchSpec,
    band_edges,
    energy_roots,
    mode_state,
)

# Each root in the half zone stands for a +-k* pair of the full zone.
SYMMETRY_FACTOR = 2.0


@dataclass(frozen=True)
class QubitCoupling:
    """Probe qubit: gap ``epsilon0``, coupling ``g_obs``, chain length ``L``."""

    epsilon0: float
    g_obs: float
    L: int

    def __post_init__(self):
        if not (math.isfinite(self.epsilon0) and self.epsilon0 > 0.0):
            raise ValueError(f"epsilon0 must be positive, got {self.epsilon0!r}")
        if not math.isfinite(self.g_obs):
            raise ValueError(f"g_obs must be finite, got {self.g_obs!r}")
        if self.L != int(self.L) or self.L < 1:
            raise ValueError(f"L must be a positive integer, got {self.L!r}")


@dataclass(frozen=True)
class RootContribution:
    """One resonant pair and its additive share of the two rates."""

    mode: ModeState
    velocity: float  # d eps_k/dk on the final band at k*
    weight: float  # delta-function weight 1/|d(2 eps_k)/dk|
    emission: float  # share of gamma_up
    absorption: float  # share of gamma_down


@dataclass(frozen=True)
class Rates:
    """Pumping (``gamma_up``) and decay (``gamma_down``) of the probe."""

    gamma_up: float
    gamma_down: float
    roots: tuple[RootContribution, ...] = ()
    excluded_roots: int = 0

    @property
    def total(self) -> float:
        return self.gamma_up + self.gamma_down

    @property
    def bias(self) -> float:
        """Normalized asymmetry ``(up - down) / (up + down)``; nan if both vanish."""
        tot = self.total
        if tot == 0.0:
            return math.nan
        return (self.gamma_up - self.gamma_down) / tot

    @property
    def is_active(self) -> bool:
        """True when the environment pumps the probe faster than it drains it."""
        return self.gamma_up > self.gamma_down

    @property
    def chi_second(self) -> float:
        """Spectral asymmetry ``gamma_down - gamma_up`` at the probe gap.

        Positive for any passive (e.g. thermal) environment; a negative
        value signals population inversion of the probe.
        """
        return self.gamma_down - self.gamma_up


@dataclass(frozen=True)
class ResonanceRoots:
    """Solutions of ``2 eps_k = epsilon0`` split by the integration domain."""

    epsilon0: float
    included: tuple[EnergyRoot, ...]
    excluded: tuple[EnergyRoot, ...]


def resonance_roots(quench: QuenchSpec, epsilon0: float) -> ResonanceRoots:
    """Momenta on the final band where a pair matches the probe gap.

    For the transverse-field chain the rate integral runs over
    ``|k| < pi/2`` only; roots with ``cos k < 0`` exist on the band but
    do not couple, and are reported separately.  The ring's reduced zone
    ``[0, pi/2]`` is already the integration domain.
    """
    if not (math.isfinite(epsilon0) and epsilon0 > 0.0):
        raise ValueError(f"epsilon0 must be positive, got {epsilon0!r}")
    roots = energy_roots(quench.final, 0.5 * epsilon0)
    if quench.kind is ModelKind.ISING_XY:
        included = tuple(r for r in roots if r.u >= 0.0)
        excluded = tuple(r for r in roots if r.u < 0.0)
    else:
        included, excluded = roots, ()
    return ResonanceRoots(epsilon0=float(epsilon0), included=included, excluded=excluded)


def transition_rates(quench: QuenchSpec, coupling: QubitCoupling) -> Rates:
    """Pumping and decay rates of the probe, summed over the resonant roots.

    Raises :class:`NoResonance` when no coupled pair matches the gap and
    :class:`DegenerateRoot` when a resonant root sits where the band is
    flat.
    """
    rr = resonance_roots(quench, coupling.epsilon0)
    if not rr.included:
        lo, hi = band_edges(quench.final, reduced=quench.kind is ModelKind.ISING_XY)
        raise NoResonance(
            f"no resonant pair at epsilon0={coupling.epsilon0!r}; the coupled "
            f"pair band is [{2.0 * lo:.6g}, {2.0 * hi:.6g}]")
    g2 = coupling.g_obs**2
    pref = 2.0 * g2 / (math.pi * coupling.L)
    up = 0.0
    down = 0.0
    contribs = []
    for root in rr.included:
        v = root.velocity
        if not math.isfinite(v) or abs(v) < DERIVATIVE_TOL:
            raise DegenerateRoot(
                f"band slope {v!r} at resonant k={root.k!r} is below "
                f"{DERIVATIVE_TOL}; the delta-function weight diverges")
        ms = mode_state(quench, root.k)
        element = math.sin(2.0 * ms.theta_f) ** 2
        if quench.kind is ModelKind.XX_RING:
            element *= (quench.final.t * math.sin(root.k)) ** 2
        weight = 1.0 / (2.0 * abs(v))
        base = pref * SYMMETRY_FACTOR * element * weight
        emission = base * ms.n_k
        absorption = base * (1.0 - ms.n_k)
        contribs.append(RootContribution(mode=ms, velocity=v, weight=weight,
                                         emission=emission, absorption=absorption))
        up += emission
        down += absorption
    return Rates(gamma_up=up, gamma_down=down, roots=tuple(contribs),
                 excluded_roots=len(rr.excluded))


@dataclass(frozen=True)
class BiasCondition:
    """Closed-form sign test for steady-state inversion at gap ``epsilon0``.

    ``lhs_per_root`` holds the printed closed form evaluated verbatim at
    each resonant momentum; inversion corresponds to a negative value.
    The form can degenerate (square root of a non-positive number), in
    which case the entry is nan and ``defined`` is False.  ``active`` is
    computed from the rate asymmetry itself, so it keeps a verdict even
    then, and also when several momenta contribute (``multi_root``),
    where no single-root inequality applies.
    """

    epsilon0: float
    lhs_per_root: tuple[float, ...]
    weighted_lhs: float
    active: bool
    defined: bool
    multi_root: bool


def bias_condition(quench: QuenchSpec, epsilon0: float) -> BiasCondition:
    """Evaluate the inversion condition of the probe at gap ``epsilon0``.

    Raises the same :class:`NoResonance` / :class:`DegenerateRoot`
    guards as the rates themselves.
    """
    probe = QubitCoupling(epsilon0=float(epsilon0), g_obs=1.0, L=2)
    rates = transition_rates(quench, probe)
    lhs: list[float] = []
    if quench.kind is ModelKind.ISING_XY:
        h_i = quench.initial.h
        h_f = quench.final.h
        kap = quench.initial.kappa
        for contrib in rates.roots:
            u = math.cos(contrib.mode.k)
            arg = epsilon0**2 / 4.0 - 4.0 * (h_f - u) ** 2 + 4.0 * (h_i - u) ** 2
            if not (math.isfinite(arg) and arg > 0.0):
                lhs.append(math.nan)
                continue
            num = 8.0 * ((h_f - u) * (h_i - u) + kap**2 * (1.0 - u**2))
            lhs.append(num / (epsilon0 * math.sqrt(arg)))
    else:
        V_i = quench.initial.V
        V_f = quench.final.V
        value = epsilon0**2 / 4.0 - V_f**2 + V_i * V_f
        lhs = [value] * len(rates.roots)
    # Rate-weighted mean of cos(2 dtheta) over the roots; its sign is the
    # inversion verdict and for a single root it reduces to the printed form.
    weights = [c.weight * math.sin(2.0 * c.mode.theta_f) ** 2 for c in rates.roots]
    cos2 = [1.0 - 2.0 * c.mode.n_k for c in rates.roots]
    wsum = sum(weights)
    weighted = math.nan if wsum <= 0.0 else sum(w * c for w, c in zip(weights, cos2)) / wsum
    return BiasCondition(
        epsilon0=float(epsilon0),
        lhs_per_root=tuple(lhs),
        weighted_lhs=weighted,
        active=rates.is_active,
        defined=bool(lhs) and all(math.isfinite(x) for x in lhs),
        multi_root=len(rates.roots) > 1,
    )
