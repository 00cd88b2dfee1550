"""The clock lifetime that the quenched chain's stored pairs buy."""

import dataclasses
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
from quenchclock.battery import check_rung

RING = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)


def ring_coupling(L, epsilon0=math.sqrt(6.0)):
    return QubitCoupling(epsilon0=epsilon0, g_obs=0.1, L=L)


def make_ladder(epsilon0, d=6, g=0.02, Gamma=None):
    return LadderSpec(d=d, epsilon_w=epsilon0, g=g, Gamma=Gamma)


def band_energy(quench, coupling):
    # eps0 (L/2pi) sum_roots 2 (1 - n_k)/|v|, the gap times the density of
    # loaded pairs, straight from the dispersion, bypassing the rates module
    total = 0.0
    for root in energy_roots(quench.final, coupling.epsilon0 / 2.0):
        st = mode_state(quench, root.k)
        total += 2.0 * (1.0 - st.n_k) / abs(group_velocity(quench.final, root.k))
    return coupling.epsilon0 * coupling.L / (2.0 * math.pi) * total


def loaded_pair_density(quench, coupling):
    """The density of loaded pairs that ``t_star`` holds, read back from it
    by undoing the rate factor: dos = -t_star * chi_second / total."""
    r = transition_rates(quench, coupling)
    rep = lifetime(quench, coupling, make_ladder(coupling.epsilon0))
    return -rep.lifetime * r.chi_second / r.total


class TestAvailableEnergy:
    """The energy the quench leaves to the probe enters the lifetime only as
    the density of loaded pairs, band_energy / eps0; these check that
    density as ``t_star`` carries it."""

    def test_composed_from_band_quantities(self):
        for eps0 in (2.2, math.sqrt(6.0), 2.7):
            coup = ring_coupling(128, eps0)
            assert loaded_pair_density(RING, coup) == pytest.approx(
                band_energy(RING, coup) / eps0, rel=1e-12)

    def test_extensive_in_chain_length(self):
        # the rate factor total/chi_second does not depend on L, so the
        # doubling sits in the pair density
        r1 = transition_rates(RING, ring_coupling(256))
        r2 = transition_rates(RING, ring_coupling(512))
        assert r2.total / r2.chi_second == pytest.approx(r1.total / r1.chi_second, rel=1e-12)
        d1 = loaded_pair_density(RING, ring_coupling(256))
        d2 = loaded_pair_density(RING, ring_coupling(512))
        assert d2 / d1 == pytest.approx(2.0, rel=1e-12)


class TestLifetime:
    def test_report_wiring(self):
        coup = ring_coupling(256)
        lad = make_ladder(coup.epsilon0, d=6)
        rep = lifetime(RING, coup, lad)
        assert [f.name for f in dataclasses.fields(rep)] == ["lifetime", "mean_tick_time"]
        fp = solve_first_passage(ladder_rates(transition_rates(RING, coup), lad), lad)
        assert rep.mean_tick_time == pytest.approx(fp.mean_tick_time, rel=1e-15)

    def test_closed_form_value(self):
        # The density of loaded pairs, summed here from the dispersion.
        coup = ring_coupling(128)
        r = transition_rates(RING, coup)
        dos = band_energy(RING, coup) / coup.epsilon0
        rep = lifetime(RING, coup, make_ladder(coup.epsilon0))
        assert rep.lifetime == pytest.approx(-(r.total / r.chi_second) * dos, rel=1e-12)

    def test_frozen_ring_value(self):
        # eps0 = sqrt 6 resonates the |V|=1 ring at cos^2 k = 1/8, where
        # n_k = 1/eps_k^2 = 2/3, |v| = sqrt(7/6) and the bias is 2 n_k - 1 =
        # 1/3: T_star = 3 (L/2pi) 2 (1 - n_k)/|v| = (L/pi) sqrt(6/7), by hand
        # 75.44260878982824 at L = 256
        rep = lifetime(RING, ring_coupling(256), make_ladder(math.sqrt(6.0)))
        assert rep.lifetime == pytest.approx(75.44260878982824, rel=1e-12)

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
        # density of loaded pairs stays comparable: T_star must climb monotonically
        values = []
        for eps0 in (2.2, 2.5, 2.7, 2.8, 2.82):
            coup = QubitCoupling(epsilon0=eps0, g_obs=0.1, L=256)
            values.append(lifetime(RING, coup, make_ladder(eps0)).lifetime)
        assert all(b > a for a, b in zip(values, values[1:]))
