"""How long the quenched chain can keep the clock running.

The chain is a battery: the quench loads every resonant mode pair with
occupation ``n_k``, and the probe drains the loaded pairs near its gap.
Their density per unit energy is

    dos = (L / 2 pi) * sum_roots 2 * (1 - n_k) / |v|,

an extensive quantity (the sum runs over the coupled roots that feed
the rates, ``rates.roots``, with the same factor 2 standing for the +-k
pair; ``v`` is the band slope there).  The closed-form lifetime is the
number of loaded pairs in a window of width ``gamma_up + gamma_down``,
divided by the net pump rate ``|chi_second|``:

    T_star = -(gamma_up + gamma_down) / chi_second * dos,

defined only while the chain actually pumps (``chi_second < 0``); a
passive chain raises :class:`PassiveState`.

:func:`lifetime_report_array` is the array twin the grid scan uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import LadderSpec, ladder_rates, solve_first_passage
from .errors import PassiveState
from .rates import SYMMETRY_FACTOR, QubitCoupling, RateArrays, Rates, transition_rates
from .spectra import QuenchSpec

# Relative tolerance within which the ladder rung matches the probe gap.
_RUNG_RTOL = 1e-9


@dataclass(frozen=True)
class LifetimeReport:
    """Closed-form lifetime of the chain-powered clock, and the mean tick
    interval of its ladder."""

    lifetime: float
    mean_tick_time: float


def _root_dos(weight, n_k):
    # A resonant root's share of the dos term (scalars or arrays).  weight =
    # 1/(2|v|) per root, so the single-particle density 1/|v| is twice that;
    # the symmetry factor counts the +-k partner as the rates do.
    return SYMMETRY_FACTOR * 2.0 * weight * (1.0 - n_k)


def _t_star(rates, dos):
    # The loaded pairs in a window of width total, over the net pump rate.
    return -(rates.total / rates.chi_second) * dos


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


def lifetime_report_array(rates: RateArrays, L, mean_tick_time) -> LifetimeReport:
    """Array twin of :func:`lifetime`: a report of arrays over rows that
    passed the pumping check."""
    with np.errstate(all="ignore"):
        terms = np.where(rates.included, _root_dos(rates.weight, rates.n_k), 0.0)
        dos = L / (2.0 * math.pi) * (terms[:, 0] + terms[:, 1])
        return LifetimeReport(lifetime=_t_star(rates, dos), mean_tick_time=mean_tick_time)


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
    dos = coupling.L / (2.0 * math.pi) * sum(_root_dos(c.weight, c.mode.n_k)
                                             for c in rates.roots)
    return LifetimeReport(lifetime=_t_star(rates, dos), mean_tick_time=fp.mean_tick_time)
