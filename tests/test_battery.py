"""Energy budget of the quenched chain and the clock lifetime it buys."""

import math

import pytest

from quenchclock import (
    LadderSpec,
    PassiveState,
    QubitCoupling,
    QuenchSpec,
    energy_roots,
    group_velocity,
    ladder_rates,
    lifetime,
    mode_state,
    solve_first_passage,
    transition_rates,
)
from quenchclock.battery import check_rung, lifetime_report

RING = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
EPS_BOUNDARY = 2.0 * math.sqrt(2.0)  # |V|=1 rings: bias changes sign here


def ring_coupling(L, epsilon0=math.sqrt(6.0)):
    return QubitCoupling(epsilon0=epsilon0, g_obs=0.1, L=L)


def make_ladder(epsilon0, d=6, g=0.02, Gamma=None):
    return LadderSpec(d=d, epsilon_w=epsilon0, g=g, Gamma=Gamma)


def stored_energy(quench, coupling):
    """``available_energy`` of the lifetime report, which :func:`lifetime`
    gives at a pumping chain, here without its pumping check."""
    rates = transition_rates(quench, coupling)
    lad = make_ladder(coupling.epsilon0)
    fp = solve_first_passage(ladder_rates(rates, lad), lad)
    return lifetime_report(rates, coupling, lad, fp).available_energy


def band_energy(quench, coupling):
    # E_av = eps0 (L/2pi) sum_roots 2 (1 - n_k)/|v|, straight from the
    # dispersion, bypassing the rates module
    total = 0.0
    for root in energy_roots(quench.final, coupling.epsilon0 / 2.0):
        st = mode_state(quench, root.k)
        total += 2.0 * (1.0 - st.n_k) / abs(group_velocity(quench.final, root.k))
    return coupling.epsilon0 * coupling.L / (2.0 * math.pi) * total


class TestAvailableEnergy:
    def test_frozen_ring_value(self):
        # eps0 = 2 sqrt 2 resonates the |V|=1 ring at u^2 = 1/4;
        # assembled by hand: E_av = 94.09346481865254 at L = 256
        e = stored_energy(RING, ring_coupling(256, EPS_BOUNDARY))
        assert e == pytest.approx(94.09346481865254, rel=1e-12)

    def test_composed_from_band_quantities(self):
        coup = ring_coupling(128)
        assert stored_energy(RING, coup) == pytest.approx(band_energy(RING, coup), rel=1e-12)

    def test_extensive_in_chain_length(self):
        e1 = stored_energy(RING, ring_coupling(256))
        e2 = stored_energy(RING, ring_coupling(512))
        assert e2 / e1 == pytest.approx(2.0, rel=1e-12)

    def test_works_on_passive_chains_too(self):
        # the stored energy is a property of the quench, not of the pumping sign
        passive = QuenchSpec.xx_ring(V_i=0.5, V_f=1.0, t=1.0)
        coup = ring_coupling(64)
        assert stored_energy(passive, coup) == pytest.approx(band_energy(passive, coup),
                                                             rel=1e-12)
        assert stored_energy(passive, coup) > 0.0


class TestLifetime:
    def test_report_wiring(self):
        coup = ring_coupling(256)
        lad = make_ladder(coup.epsilon0, d=6)
        rep = lifetime(RING, coup, lad)
        assert rep.tick_energy == pytest.approx(5.0 * coup.epsilon0, rel=1e-15)
        assert rep.tick_budget == pytest.approx(rep.available_energy / rep.tick_energy,
                                                rel=1e-15)
        assert rep.available_energy == pytest.approx(band_energy(RING, coup), rel=1e-12)
        fp = solve_first_passage(ladder_rates(transition_rates(RING, coup), lad), lad)
        assert rep.mean_tick_time == pytest.approx(fp.mean_tick_time, rel=1e-15)
        assert rep.renewal_lifetime == pytest.approx(
            rep.tick_budget * rep.mean_tick_time, rel=1e-15)
        assert rep.formula_ratio == pytest.approx(
            rep.renewal_lifetime / rep.lifetime, rel=1e-15)

    def test_closed_form_value(self):
        coup = ring_coupling(128)
        r = transition_rates(RING, coup)
        rep = lifetime(RING, coup, make_ladder(coup.epsilon0))
        dos = rep.available_energy / coup.epsilon0
        assert rep.lifetime == pytest.approx(-(r.total / r.chi_second) * dos, rel=1e-14)

    def test_lifetime_extensive(self):
        lad = make_ladder(math.sqrt(6.0))
        t1 = lifetime(RING, ring_coupling(256), lad).lifetime
        t2 = lifetime(RING, ring_coupling(512), lad).lifetime
        assert t2 / t1 == pytest.approx(2.0, rel=1e-12)

    def test_passive_chain_rejected(self):
        # same-sign interactions never invert the qubit: chi'' > 0 there
        passive = QuenchSpec.xx_ring(V_i=0.5, V_f=1.0, t=1.0)
        with pytest.raises(PassiveState):
            lifetime(passive, ring_coupling(64), make_ladder(math.sqrt(6.0)))

    def test_off_resonant_ladder_rejected(self):
        coup = ring_coupling(64)
        with pytest.raises(ValueError):
            lifetime(RING, coup, LadderSpec(d=6, epsilon_w=coup.epsilon0 * 1.01, g=0.02))

    @pytest.mark.parametrize("shift", [0.0, 5e-10, -5e-10, 9.9e-10, 1.01e-9, -2e-9, 1e-3])
    def test_rung_rule_is_isclose(self, shift):
        # The rung rule is math.isclose with rel_tol 1e-9 and no absolute
        # tolerance.
        coup = ring_coupling(64)
        lad = LadderSpec(d=6, epsilon_w=coup.epsilon0 * (1.0 + shift), g=0.02)
        close = math.isclose(lad.epsilon_w, coup.epsilon0, rel_tol=1e-9, abs_tol=0.0)
        if close:
            check_rung(coup, lad)
        else:
            with pytest.raises(ValueError, match="must equal the probe gap"):
                check_rung(coup, lad)

    def test_grows_without_bound_at_marginal_bias(self):
        # on the |V|=1 ring the relative bias at gap eps0 is
        # (eps0^2/4 - 2)/(eps0^2/4); pinning it to -1e-7 makes the chain
        # almost reversible and the closed-form lifetime macroscopic
        eps0 = 2.0 * math.sqrt(2.0 / (1.0 + 1e-7))
        coup = QubitCoupling(epsilon0=eps0, g_obs=0.1, L=512)
        rep = lifetime(RING, coup, make_ladder(eps0))
        assert rep.lifetime > 1e6

    def test_monotone_in_pumping_margin(self):
        # walking the gap toward the sign change shrinks |chi''| while the
        # stored energy stays comparable: T_star must climb monotonically
        values = []
        for eps0 in (2.2, 2.5, 2.7, 2.8, 2.82):
            coup = QubitCoupling(epsilon0=eps0, g_obs=0.1, L=256)
            values.append(lifetime(RING, coup, make_ladder(eps0)).lifetime)
        assert all(b > a for a, b in zip(values, values[1:]))
