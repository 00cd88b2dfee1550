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

One predicate, :func:`_coupled`, says which roots couple, for the
scalar functions and their array twins alike.

Emission carries an extra ``sin(dtheta)**2`` (the pair must be there to
be consumed) and absorption ``cos(dtheta)**2``.

:func:`transition_rates_array` and :func:`bias_condition_array` are the
array twins the grid scan uses; they share each formula with the scalar
functions (see :mod:`quenchclock.spectra` on squares).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRoot, GaplessMode, NoResonance, Raises
from .spectra import (
    ModeState,
    ModelArrays,
    ModelKind,
    QuenchSpec,
    band_edges,
    check_slope,
    energy_roots,
    energy_roots_array,
    mode_state,
    mode_state_array,
    van_hove,
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


def coupling_valid(epsilon0, g_obs, L) -> np.ndarray:
    """Rows the checks of :class:`QubitCoupling` accept, for an integer ``L``."""
    return np.isfinite(epsilon0) & (epsilon0 > 0.0) & np.isfinite(g_obs) & (L >= 1)


@dataclass(frozen=True)
class RootContribution:
    """One resonant pair and its additive share of the two rates."""

    mode: ModeState
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
    def is_active(self) -> bool:
        """True when the environment pumps the probe faster than it drains it."""
        return self.chi_second < 0.0

    @property
    def chi_second(self) -> float:
        """Spectral asymmetry ``gamma_down - gamma_up`` at the probe gap.

        Positive for any passive (e.g. thermal) environment; a negative
        value signals population inversion of the probe.
        """
        return self.gamma_down - self.gamma_up


def _coupled(kind: ModelKind, u):
    """Whether a resonant root at ``u = cos k`` couples to the probe
    (scalars or arrays): on the transverse-field chain only where
    ``u >= 0``, since its rate integral runs over ``|k| < pi/2``; on the
    ring every root, since its reduced zone is the integration domain."""
    return u >= 0.0 if kind is ModelKind.ISING_XY else True


def transition_rates(quench: QuenchSpec, coupling: QubitCoupling) -> Rates:
    """Pumping and decay rates of the probe, summed over the resonant roots.

    Raises :class:`NoResonance` when no coupled pair matches the gap and
    :class:`DegenerateRoot` when a resonant root sits where the band is
    flat.

    The resonance depends on the quench and the gap only, so consecutive
    calls on one :class:`QuenchSpec` object at one ``epsilon0`` (as
    :func:`bias_condition`, :func:`~quenchclock.battery.lifetime` and the
    oracle's closed form make at a point) share one resonance solve.
    """
    excluded, pairs = _resonance(quench, coupling.epsilon0)
    g2 = coupling.g_obs * coupling.g_obs
    pref = 2.0 * g2 / (math.pi * coupling.L)
    up = 0.0
    down = 0.0
    contribs = []
    for ms, element, weight in pairs:
        emission, absorption = _pair_shares(pref, element, weight, ms.n_k)
        contribs.append(RootContribution(mode=ms, weight=weight, emission=emission,
                                         absorption=absorption))
        up += emission
        down += absorption
    return Rates(gamma_up=up, gamma_down=down, roots=tuple(contribs),
                 excluded_roots=excluded)


# The last resonance :func:`_resonance` solved, as one tuple
# (quench, epsilon0, excluded root count, ((mode state, squared matrix
# element, delta weight), ...)), the two factors as Python floats.
# It is only ever replaced whole, so a reader in another thread sees one
# consistent entry.
_last_resonance = None


def _resonance(quench: QuenchSpec, epsilon0):
    """The excluded root count and, per coupled root, its mode state,
    squared matrix element and delta-function weight at gap ``epsilon0``,
    after the guards of :func:`transition_rates`.

    The last success is kept and reused for the same ``quench`` object
    (by identity: ``==`` holds between specs whose signed zeros give
    angles of opposite sign) at an equal ``epsilon0``; a call that raises
    keeps nothing, so it raises again when repeated.
    """
    global _last_resonance
    memo = _last_resonance
    if memo is not None and memo[0] is quench and memo[1] == epsilon0:
        return memo[2], memo[3]
    roots = energy_roots(quench.final, 0.5 * epsilon0)
    included = [root for root in roots if _coupled(quench.kind, root.u)]
    if not included:
        # The coupled pair band: reduced where the roots at cos k < 0 do not couple.
        lo, hi = band_edges(quench.final, reduced=not _coupled(quench.kind, -1.0))
        raise NoResonance(
            f"no resonant pair at epsilon0={epsilon0!r}; the coupled "
            f"pair band is [{2.0 * lo:.6g}, {2.0 * hi:.6g}]")
    pairs = []
    for root in included:
        check_slope(root)
        ms = mode_state(quench, root.k)
        element, weight = _pair_factors(quench.final, root.k, root.velocity, ms.theta_f)
        pairs.append((ms, float(element), float(weight)))
    excluded = len(roots) - len(included)
    pairs = tuple(pairs)
    _last_resonance = (quench, epsilon0, excluded, pairs)
    return excluded, pairs


def _pair_factors(final, k, velocity, theta_f):
    # Squared matrix element and delta-function weight of resonant pairs
    # at momenta k of the final band (scalars or arrays).
    s = np.sin(2.0 * theta_f)
    element = s * s
    if final.kind is ModelKind.XX_RING:
        st = final.t * np.sin(k)
        element = element * (st * st)
    return element, 1.0 / (2.0 * abs(velocity))


def _pair_shares(pref, element, weight, n_k):
    # Emission and absorption of resonant pairs (Python floats or arrays).
    base = pref * SYMMETRY_FACTOR * element * weight
    return base * n_k, base * (1.0 - n_k)


@dataclass(frozen=True)
class RateArrays:
    """Array twin of :class:`Rates` over grid rows, with its roots.

    The columns of ``included``, ``u``, ``weight`` and ``n_k`` are the
    root columns of :class:`~quenchclock.spectra.RootArrays`;
    ``included`` marks the coupled roots, the ones :attr:`Rates.roots`
    holds.  ``raises`` holds the errors :func:`transition_rates` raises
    (see :data:`~quenchclock.errors.Raises`); the values of those rows
    are meaningless.
    """

    gamma_up: np.ndarray
    gamma_down: np.ndarray
    excluded_roots: np.ndarray
    included: np.ndarray
    u: np.ndarray
    weight: np.ndarray
    n_k: np.ndarray
    raises: Raises

    @property
    def total(self) -> np.ndarray:
        return self.gamma_up + self.gamma_down

    @property
    def chi_second(self) -> np.ndarray:
        return self.gamma_down - self.gamma_up


def transition_rates_array(initial: ModelArrays, final: ModelArrays, epsilon0,
                           g_obs, L) -> RateArrays:
    """Array twin of :func:`transition_rates` for the quench ``initial`` to
    ``final`` and the probe ``(epsilon0, g_obs, L)`` of every row."""
    roots = energy_roots_array(final, 0.5 * np.asarray(epsilon0, dtype=float))
    included = roots.present & _coupled(final.kind, roots.u)
    column = (slice(None), None)
    with np.errstate(all="ignore"):
        mode, gapless = mode_state_array(initial.take(column), final.take(column),
                                         roots.k)
        v = roots.velocity
        flat = van_hove(v)
        pref = 2.0 * (g_obs * g_obs) / (math.pi * L)
        element, weight = _pair_factors(final.take(column), roots.k, v, mode.theta_f)
        emission, absorption = _pair_shares(np.reshape(pref, (-1, 1)), element, weight,
                                            mode.n_k)
    emission = np.where(included, emission, 0.0)
    absorption = np.where(included, absorption, 0.0)
    raises = [(DegenerateRoot, roots.degenerate),
              (NoResonance, ~included.any(axis=1))]
    for j in range(included.shape[1]):
        raises += [(DegenerateRoot, included[:, j] & flat[:, j]),
                   (GaplessMode, included[:, j] & gapless[:, j])]
    return RateArrays(gamma_up=emission[:, 0] + emission[:, 1],
                      gamma_down=absorption[:, 0] + absorption[:, 1],
                      excluded_roots=(roots.present & ~included).sum(axis=1),
                      included=included, u=roots.u, weight=weight,
                      n_k=mode.n_k, raises=tuple(raises))


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

    lhs_per_root: tuple[float, ...]
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
    lhs = []
    for c in rates.roots:
        num, arg = _condition_terms(quench.initial, quench.final, epsilon0,
                                    float(np.cos(c.mode.k)))
        if arg is None:
            lhs.append(num)
        elif math.isfinite(arg) and arg > 0.0:
            lhs.append(num / (epsilon0 * math.sqrt(arg)))
        else:
            lhs.append(math.nan)
    return BiasCondition(
        lhs_per_root=tuple(lhs),
        active=rates.is_active,
        defined=bool(lhs) and all(math.isfinite(x) for x in lhs),
        multi_root=len(rates.roots) > 1,
    )


def _condition_terms(initial, final, epsilon0, u):
    # The printed condition at resonant u = cos k* (scalars or arrays): the
    # chain's is num / (epsilon0 sqrt(arg)), defined where arg > 0; the
    # ring's is num itself, and arg is None.
    if initial.kind is ModelKind.ISING_XY:
        h_i, h_f, kap = initial.h, final.h, initial.kappa
        arg = (epsilon0 * epsilon0 / 4.0 - 4.0 * ((h_f - u) * (h_f - u))
               + 4.0 * ((h_i - u) * (h_i - u)))
        num = 8.0 * ((h_f - u) * (h_i - u) + kap * kap * (1.0 - u * u))
        return num, arg
    return epsilon0 * epsilon0 / 4.0 - final.V * final.V + initial.V * final.V, None


def bias_condition_array(initial: ModelArrays, final: ModelArrays, epsilon0,
                         rates: RateArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array twin of :func:`bias_condition` at the roots of ``rates``.

    Returns per row the printed condition at the first coupled root
    (``lhs_per_root[0]``), ``defined`` and ``multi_root``.
    """
    column = (slice(None), None)
    epsilon0 = np.reshape(epsilon0, (-1, 1))
    with np.errstate(all="ignore"):
        lhs, arg = _condition_terms(initial.take(column), final.take(column),
                                    epsilon0, rates.u)
        if arg is not None:
            ok = np.isfinite(arg) & (arg > 0.0)
            lhs = np.where(ok, lhs / (epsilon0 * np.sqrt(np.where(ok, arg, 1.0))), np.nan)
    included = rates.included
    lhs = np.broadcast_to(lhs, included.shape)
    first = np.where(included[:, 0], lhs[:, 0], lhs[:, 1])
    count = included.sum(axis=1)
    defined = (count > 0) & np.all(np.isfinite(lhs) | ~included, axis=1)
    return first, defined, count > 1
