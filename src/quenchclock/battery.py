"""How long the quenched chain can keep the clock running.

The chain is a battery: the quench loads every resonant mode pair with
occupation ``n_k``, and each climb of the ladder drains one quantum
``epsilon0`` from it.  The extractable energy near resonance is the
mode density times the absorption weight ``cos(dtheta)**2``,

    E_av = epsilon0 * (L / 2 pi) * sum_roots 2 * cos(dtheta)**2 / |v|,

an extensive quantity (the sum runs over the coupled roots that feed
the rates, ``rates.roots``, with the same factor 2 standing for the +-k
pair; ``v`` is the band slope there), reported as
:attr:`LifetimeReport.available_energy`.  A tick costs ``(d - 1) * epsilon0``,
so the battery holds ``E_av / E_ph`` ticks.  The
closed-form lifetime rescales the drain by the pumping asymmetry,

    T_star = -(gamma_up + gamma_down) / chi_second * dos_term,

defined only while the chain actually pumps (``chi_second < 0``); a
passive chain raises :class:`PassiveState`.  The renewal estimate
``n_ticks * mean_tick_time`` instead uses the exact tick interval of
the ladder, and their quotient ``formula_ratio`` exposes the clock-speed
factor separating the two conventions.

:func:`lifetime_report_array` is the array twin the grid scan uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import FirstPassage, LadderSpec, ladder_rates, solve_first_passage
from .errors import PassiveState
from .rates import SYMMETRY_FACTOR, QubitCoupling, RateArrays, Rates, transition_rates
from .spectra import QuenchSpec

# Relative tolerance within which the ladder rung matches the probe gap.
_RUNG_RTOL = 1e-9


@dataclass(frozen=True)
class LifetimeReport:
    """Energy budget and lifetime of the chain-powered clock."""

    available_energy: float
    tick_energy: float
    tick_budget: float
    lifetime: float
    renewal_lifetime: float
    formula_ratio: float
    mean_tick_time: float


def _dos_term(rates: Rates, L: int) -> float:
    return L / (2.0 * math.pi) * sum(_root_dos(c.weight, c.mode.n_k) for c in rates.roots)


def _root_dos(weight, n_k):
    # A resonant root's share of the dos term (scalars or arrays).  weight =
    # 1/(2|v|) per root, so the single-particle density 1/|v| is twice that;
    # the symmetry factor counts the +-k partner as the rates do.
    return SYMMETRY_FACTOR * 2.0 * weight * (1.0 - n_k)


def check_rung(coupling: QubitCoupling, ladder: LadderSpec) -> None:
    """Reject a ladder whose rung is not resonant with the probe gap.

    Mismatched energies would make the golden-rule rates inapplicable.
    """
    if not math.isclose(ladder.epsilon_w, coupling.epsilon0, rel_tol=_RUNG_RTOL,
                        abs_tol=0.0):
        raise ValueError(
            f"ladder rung epsilon_w={ladder.epsilon_w!r} must equal the probe "
            f"gap epsilon0={coupling.epsilon0!r}")


def check_pumping(rates: Rates) -> None:
    """Raise :class:`PassiveState` unless the chain pumps the probe."""
    if rates.chi_second >= 0.0:
        raise PassiveState(f"chi_second={rates.chi_second!r} >= 0: the chain "
                           "does not pump at this gap")


def lifetime_report(rates: Rates, coupling: QubitCoupling, ladder: LadderSpec,
                    first_passage: FirstPassage) -> LifetimeReport:
    """Energy budget and lifetime from already evaluated pipeline stages.

    ``rates`` are the probe rates at ``coupling`` and ``first_passage``
    the tick interval of ``ladder`` driven by them; the inputs must have
    passed :func:`check_rung` and :func:`check_pumping`.
    """
    return _report(rates, _dos_term(rates, coupling.L), coupling.epsilon0,
                   ladder.d, ladder.epsilon_w, first_passage.mean_tick_time)


def _report(rates, dos, epsilon0, d, epsilon_w, mean_tick_time) -> LifetimeReport:
    e_av = epsilon0 * dos
    e_ph = (d - 1) * epsilon_w
    budget = e_av / e_ph
    t_star = -(rates.total / rates.chi_second) * dos
    renewal = budget * mean_tick_time
    return LifetimeReport(available_energy=e_av, tick_energy=e_ph,
                          tick_budget=budget, lifetime=t_star,
                          renewal_lifetime=renewal,
                          formula_ratio=renewal / t_star,
                          mean_tick_time=mean_tick_time)


def lifetime_report_array(rates: RateArrays, epsilon0, L, d,
                          mean_tick_time) -> LifetimeReport:
    """Array twin of :func:`lifetime_report`: a report of arrays over rows
    that passed the pumping check, each with its rung at ``epsilon0``."""
    with np.errstate(all="ignore"):
        terms = np.where(rates.included, _root_dos(rates.weight, rates.n_k), 0.0)
        dos = L / (2.0 * math.pi) * (terms[:, 0] + terms[:, 1])
        return _report(rates, dos, epsilon0, d, epsilon0, mean_tick_time)


def lifetime(quench: QuenchSpec, coupling: QubitCoupling,
             ladder: LadderSpec) -> LifetimeReport:
    """Battery lifetime of the chain driving the given ladder clock.

    The ladder rung must be resonant with the probe gap (``ValueError``
    otherwise) and the chain must pump (:class:`PassiveState` otherwise).
    """
    check_rung(coupling, ladder)
    rates = transition_rates(quench, coupling)
    check_pumping(rates)
    fp = solve_first_passage(ladder_rates(rates, ladder), ladder)
    return lifetime_report(rates, coupling, ladder, fp)
