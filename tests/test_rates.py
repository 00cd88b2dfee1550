"""Golden-rule rates and the closed-form inversion condition.

The frozen numbers are assembled from the dispersion formulas with pen
and paper (literal expressions in the comments), independently of the
code under test.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import _draw_chain_point, _draw_ring_point
from test_claims import _CHAIN_DISORDERED, _RING_ACROSS

from quenchclock import (
    DegenerateRoot,
    GaplessMode,
    LadderSpec,
    NoResonance,
    QuenchClockError,
    QubitCoupling,
    QuenchSpec,
    RunConfig,
    apply_overrides,
    bias_condition,
    discrete_rates,
    energy_roots,
    lifetime,
    run_scan,
    transition_rates,
)

ISING = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
RING_UP = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
RING_DOWN = QuenchSpec.xx_ring(V_i=1.0, V_f=-1.0, t=1.0)


class TestFrozenAnchors:
    def test_chain_passive_point(self):
        # eps0 = 4 resonates at u = 0.75 exactly (linear root at kappa=1).
        # There sin^2(2 theta_f) = (1-u^2)/(eps_f/2)^2, |v| = 4 s h_f/eps_f,
        # n = (1 - 1/(2 sqrt 2))/2, prefactor 2 g^2/(pi L), pair factor 2:
        #   gamma_up   = 0.022684048519370694   (g=1, L=2)
        #   gamma_down = 0.04749668470526138
        r = transition_rates(ISING, QubitCoupling(epsilon0=4.0, g_obs=1.0, L=2))
        assert r.gamma_up == pytest.approx(0.022684048519370694, rel=1e-12)
        assert r.gamma_down == pytest.approx(0.04749668470526138, rel=1e-12)
        assert r.chi_second == pytest.approx(0.024812636185890687, rel=1e-11)
        assert not r.is_active
        assert len(r.roots) == 1
        assert r.roots[0].mode.k == pytest.approx(math.acos(0.75), abs=1e-13)

    def test_chain_coupling_scaling_frozen(self):
        r = transition_rates(ISING, QubitCoupling(epsilon0=4.0, g_obs=0.25, L=128))
        assert r.gamma_up == pytest.approx(2.2152391132197943e-05, rel=1e-12)
        assert r.gamma_down == pytest.approx(4.638348115748182e-05, rel=1e-12)

    def test_ring_boundary_point(self):
        # eps0 = 2 sqrt 2 puts the root at k* = pi/3 where n = 1/2 exactly,
        # so pumping and decay balance:
        #   gamma = (2 g^2/(pi L)) * 2 * (sin^2 k*)/2 * 1/(2 sqrt(3/2)) * 1/2
        r = transition_rates(RING_UP, QubitCoupling(epsilon0=2.0 * math.sqrt(2.0), g_obs=1.0, L=2))
        assert r.gamma_up == pytest.approx(0.04873105007710476, rel=1e-12)
        assert r.gamma_down == pytest.approx(r.gamma_up, rel=1e-14)
        assert abs((r.gamma_up - r.gamma_down) / r.total) < 1e-13

    def test_ring_small_coupling(self):
        r = transition_rates(RING_UP, QubitCoupling(epsilon0=2.0 * math.sqrt(2.0), g_obs=0.7, L=64))
        assert r.gamma_up == pytest.approx(0.0007461942043056665, rel=1e-12)

    def test_ring_active_point(self):
        # Crossing quench V: 1 -> -1 at eps0 = sqrt(6):
        # condition value eps0^2/4 - V_f^2 + V_i V_f = 1.5 - 1 - 1 = -0.5
        r = transition_rates(RING_DOWN, QubitCoupling(epsilon0=math.sqrt(6.0), g_obs=1.0, L=16))
        assert r.is_active
        assert r.gamma_up > r.gamma_down > 0.0

    def test_null_quench_zero_pumping(self):
        q = QuenchSpec.ising(h_i=1.5, h_f=1.5, kappa=1.0)
        r = transition_rates(q, QubitCoupling(epsilon0=4.0, g_obs=1.0, L=8))
        assert r.gamma_up == 0.0
        assert r.gamma_down > 0.0


class TestDomains:
    def test_no_resonance_outside_band(self):
        with pytest.raises(NoResonance):
            transition_rates(RING_UP, QubitCoupling(epsilon0=5.0, g_obs=1.0, L=8))

    def test_chain_excluded_root_reported(self):
        # h_f = 0.3: eps0 = 4.4 solves only at u = (h^2+1-eps0^2/16)/(2h) < 0,
        # outside the coupled domain cos k >= 0: no rate, and the row says so.
        q = QuenchSpec.ising(h_i=0.1, h_f=0.3, kappa=1.0)
        (root,) = energy_roots(q.final, 2.2)
        assert root.u == pytest.approx(-0.2, abs=1e-12)
        with pytest.raises(NoResonance):
            transition_rates(q, QubitCoupling(epsilon0=4.4, g_obs=1.0, L=8))
        row = _rates_row(["model.h_i=0.1", "model.h_f=0.3", "coupling.epsilon0=4.4"])
        assert row["flag"] == "no_resonance" and row["excluded_roots"] == 0
        # At kappa = 0.5, eps0 = 2.5 solves at u = 0.4 -+ 0.47697 (their sum is
        # 2 h_f / (1 - kappa^2)): one root couples and one is counted.
        q = QuenchSpec.ising(h_i=0.1, h_f=0.3, kappa=0.5)
        low, high = sorted(energy_roots(q.final, 1.25), key=lambda r: r.u)
        assert low.u < 0.0 <= high.u
        assert low.u + high.u == pytest.approx(0.8, abs=1e-12)
        r = transition_rates(q, QubitCoupling(epsilon0=2.5, g_obs=1.0, L=8))
        assert [c.mode.k for c in r.roots] == [high.k]
        assert r.excluded_roots == 1
        row = _rates_row(["model.h_i=0.1", "model.h_f=0.3", "model.kappa=0.5",
                          "coupling.epsilon0=2.5"])
        assert row["flag"] == "" and row["excluded_roots"] == 1

    def test_degenerate_root_at_band_extremum(self):
        # resonance exactly at the upper band edge: zero slope
        q = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
        with pytest.raises((DegenerateRoot, NoResonance)):
            transition_rates(q, QubitCoupling(epsilon0=2.0 * math.sqrt(5.0), g_obs=1.0, L=8))


def _rates_row(sets):
    """The one row of the ``rates`` table of the default config with ``sets``."""
    table = run_scan(apply_overrides(RunConfig(), sets), "rates")
    return {name: v.tolist()[0] for name, v in zip(table.columns, table.values)}


_FLAG_OF = {NoResonance: "no_resonance", DegenerateRoot: "van_hove", GaplessMode: "gapless"}


def _check_zone_rows(config, rows):
    """The ``rates`` table rows of ``config`` that ``rows(columns)`` picks,
    one by one, against the scalar rates and against the zone rule applied
    to ``energy_roots``: the chain couples the roots with ``u = cos k >= 0``,
    the ring every root.  Returns the table's columns.
    """
    table = run_scan(config, "rates")
    cols = dict(zip(table.columns, table.values))
    ring = config.model.kind == "xx_ring"
    probe = config.coupling
    for i in rows(cols).tolist():
        if ring:
            quench = QuenchSpec.xx_ring(V_i=float(cols["v_i"][i]), V_f=float(cols["v_f"][i]),
                                        t=config.model.t)
        else:
            quench = QuenchSpec.ising(h_i=float(cols["h_i"][i]), h_f=float(cols["h_f"][i]),
                                      kappa=float(cols["kappa"][i]))
        eps0 = float(cols["epsilon0"][i])
        roots = energy_roots(quench.final, 0.5 * eps0)
        coupled = [r.k for r in roots if ring or r.u >= 0.0]
        where = f"row {i}: {quench}, epsilon0={eps0!r}"
        try:
            rates = transition_rates(quench, QubitCoupling(eps0, probe.g_obs, probe.L))
        except QuenchClockError as exc:
            assert cols["flag"][i] == _FLAG_OF[type(exc)], where
            assert cols["excluded_roots"][i] == 0, where
            if isinstance(exc, NoResonance):
                assert not coupled, where
            continue
        assert [c.mode.k for c in rates.roots] == coupled, where
        assert rates.excluded_roots == len(roots) - len(coupled), where
        assert cols["excluded_roots"][i] == rates.excluded_roots, where
        assert cols["flag"][i] in ("", "multi_root", "condition_undefined"), where
        tol = 1e-12 * rates.total
        assert abs(cols["gamma_up"][i] - rates.gamma_up) <= tol, where
        assert abs(cols["gamma_down"][i] - rates.gamma_down) <= tol, where
    return cols


class TestCoupledZone:
    """One rule says which resonant roots couple to the probe.  The scalar
    rates and their array twin in the scan must apply it alike, row by
    row, on grids with roots on both sides of cos k = 0."""

    def test_chain_couples_the_roots_with_cos_k_nonnegative(self):
        # The disorder-circle grid of the claims (110 000 rows): every row
        # with a root at cos k < 0, and 1000 other rows.
        rng = np.random.default_rng(41)

        def rows(cols):
            excluded = cols["excluded_roots"] > 0
            return np.r_[np.flatnonzero(excluded),
                         rng.choice(np.flatnonzero(~excluded), 1000, replace=False)]

        cols = _check_zone_rows(apply_overrides(RunConfig(), list(_CHAIN_DISORDERED)), rows)
        excluded = cols["excluded_roots"] > 0
        assert excluded.sum() == 6275
        assert (excluded & (cols["verdict"] == "active")).sum() == 1241

    def test_ring_couples_every_root(self):
        rng = np.random.default_rng(42)
        cols = _check_zone_rows(apply_overrides(RunConfig(), list(_RING_ACROSS)),
                                lambda cols: rng.choice(len(cols["flag"]), 1000,
                                                        replace=False))
        assert not cols["excluded_roots"].any()


class TestBiasCondition:
    def test_printed_form_equals_occupation_form(self):
        # The closed form is algebraically cos(2 dtheta) at the root; the
        # frozen value at eps0 = 2.5 (root u = 0.953125 exactly) is
        # -0.4588314677411235.
        cond = bias_condition(ISING, 2.5)
        assert cond.defined and not cond.multi_root
        assert cond.lhs_per_root[0] == pytest.approx(-0.4588314677411235, rel=1e-13)
        assert cond.active
        r = transition_rates(ISING, QubitCoupling(epsilon0=2.5, g_obs=1.0, L=2))
        bias = (r.gamma_up - r.gamma_down) / r.total
        assert cond.lhs_per_root[0] == pytest.approx(-bias, rel=1e-12)

    def test_passive_side_of_the_window(self):
        # same quench, eps0 = 4: cos(2 dtheta) = +1/(2 sqrt 2)
        cond = bias_condition(ISING, 4.0)
        assert cond.lhs_per_root[0] == pytest.approx(0.35355339059327373, rel=1e-13)
        assert not cond.active

    def test_ring_value_and_verdict(self):
        cond = bias_condition(RING_DOWN, math.sqrt(6.0))
        assert cond.lhs_per_root[0] == pytest.approx(-0.5, abs=1e-12)
        assert cond.active
        cond2 = bias_condition(RING_UP, math.sqrt(6.0))
        assert cond2.lhs_per_root[0] == pytest.approx(-0.5, abs=1e-12)
        assert cond2.active

    def test_multi_root_flagged(self):
        # interior band extremum doubles the resonant momenta
        q = QuenchSpec.ising(h_i=0.2, h_f=0.5, kappa=0.5)
        cond = bias_condition(q, 1.8)
        assert cond.multi_root
        assert len(cond.lhs_per_root) == 2
        # the verdict still agrees with the rate asymmetry
        r = transition_rates(q, QubitCoupling(epsilon0=1.8, g_obs=1.0, L=2))
        assert cond.active == r.is_active

    def test_verdict_always_matches_rate_sign(self):
        for q, eps0 in [(ISING, 2.2), (ISING, 3.0), (RING_UP, 2.2),
                        (RING_DOWN, 2.3), (RING_DOWN, math.sqrt(6.0))]:
            cond = bias_condition(q, eps0)
            r = transition_rates(q, QubitCoupling(epsilon0=eps0, g_obs=1.0, L=2))
            assert cond.active == r.is_active


class TestStructure:
    def test_coupling_scaling_property(self):
        base = transition_rates(ISING, QubitCoupling(epsilon0=2.5, g_obs=1.0, L=64))
        scaled = transition_rates(ISING, QubitCoupling(epsilon0=2.5, g_obs=3.0, L=64))
        halved = transition_rates(ISING, QubitCoupling(epsilon0=2.5, g_obs=1.0, L=128))
        assert scaled.gamma_up == pytest.approx(9.0 * base.gamma_up, rel=1e-12)
        assert halved.gamma_down == pytest.approx(0.5 * base.gamma_down, rel=1e-12)

    def test_chi_second_is_rate_difference(self):
        c = QubitCoupling(epsilon0=2.5, g_obs=0.4, L=32)
        r = transition_rates(ISING, c)
        assert r.chi_second == r.gamma_down - r.gamma_up

    def test_emission_absorption_split(self):
        r = transition_rates(ISING, QubitCoupling(epsilon0=2.5, g_obs=1.0, L=8))
        assert r.gamma_up == pytest.approx(sum(c.emission for c in r.roots), rel=1e-15)
        assert r.gamma_down == pytest.approx(sum(c.absorption for c in r.roots), rel=1e-15)
        for c in r.roots:
            total = c.emission + c.absorption
            assert c.emission == pytest.approx(total * c.mode.n_k, rel=1e-14)


def _outcome(call, quench):
    """``repr`` of what ``call(quench)`` returns, or the type and message
    of the package error it raises."""
    try:
        return repr(call(quench))
    except QuenchClockError as exc:
        return f"{type(exc).__name__}: {exc}"


def _point_calls(coup):
    """The four scalar entry points that solve the resonance at a point,
    in the order the benchmark's point pipeline calls them."""
    ladder = LadderSpec(d=12, epsilon_w=coup.epsilon0, g=0.01)
    return {
        "transition_rates": lambda q: transition_rates(q, coup),
        "bias_condition": lambda q: bias_condition(q, coup.epsilon0),
        "lifetime": lambda q: lifetime(q, coup, ladder),
        "discrete_rates": lambda q: discrete_rates(q, coup, L=1024, eta=4e-3),
    }


def _fresh(quench):
    # An equal spec the resonance memo has not seen.
    return QuenchSpec(quench.initial, quench.final)


class TestResonanceMemo:
    """Consecutive calls on one spec object at one gap share a resonance
    solve; they must return what separate solves return, bit for bit."""

    @pytest.mark.parametrize("draw, seed", [(_draw_chain_point, 31), (_draw_ring_point, 32)])
    def test_warm_calls_match_cold_calls(self, draw, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            quench, coup, _ = draw(rng)
            calls = _point_calls(coup)
            cold = {name: _outcome(call, _fresh(quench)) for name, call in calls.items()}
            for order in (list(calls), list(reversed(calls))):
                warm = _fresh(quench)
                for name in order:
                    assert _outcome(calls[name], warm) == cold[name], (name, order)

    @pytest.mark.parametrize("quench, warm_epsilon0, epsilon0, error", [
        (QuenchSpec.ising(h_i=0.2, h_f=0.5, kappa=0.5), 2.2, 6.0, NoResonance),
        # The root sits at the ring's upper band edge, k = 0.
        (QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0), 3.0, 2.0 * math.sqrt(5.0),
         DegenerateRoot),
        # With kappa = 0 the initial band closes at cos k = h_i, the root's u.
        (QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=0.0), 3.0, 4.0, GaplessMode),
    ])
    def test_failures_raise_on_every_call(self, quench, warm_epsilon0, epsilon0, error):
        coup = QubitCoupling(epsilon0=epsilon0, g_obs=0.1, L=512)
        first = _outcome(_point_calls(coup)["transition_rates"], _fresh(quench))
        assert first.startswith(f"{error.__name__}: ")
        warm = _point_calls(QubitCoupling(epsilon0=warm_epsilon0, g_obs=0.1, L=512))
        for _ in range(3):
            # A success at another gap on the same object changes nothing.
            transition_rates(quench, QubitCoupling(epsilon0=warm_epsilon0, g_obs=0.1, L=512))
            for name, call in _point_calls(coup).items():
                assert _outcome(call, quench) == first, name
            assert not _outcome(warm["transition_rates"], quench).startswith(error.__name__)

    @pytest.mark.parametrize("draw, seed", [(_draw_chain_point, 35), (_draw_ring_point, 36)],
                             ids=["chain", "ring"])
    def test_memo_hit_matches_a_fresh_solve(self, draw, seed, monkeypatch):
        # A hit forms each pair's shares from the matrix element and delta
        # weight the memo keeps as Python floats.  At any probe, with the
        # infinite rates of g_obs = 1e160 too, every field, roots
        # included, is what a solve with the memo cleared gives.
        rng = np.random.default_rng(seed)
        for _ in range(10):
            quench, coup, _ = draw(rng)
            for g_obs, L in ((0.1, 512), (1.0, 2), (0.1, 4096), (3.3e-7, 7), (1e160, 512)):
                probe = QubitCoupling(epsilon0=coup.epsilon0, g_obs=g_obs, L=L)
                transition_rates(quench, coup)
                hit = repr(transition_rates(quench, probe))
                monkeypatch.setattr("quenchclock.rates._last_resonance", None)
                fresh = transition_rates(quench, probe)
                assert hit == repr(fresh), (quench, probe)
                assert math.isinf(fresh.gamma_down) == (g_obs == 1e160)

    def test_signed_zero_specs_keep_their_own_bits(self):
        # kappa = -0.0 and 0.0 give equal, equally hashed specs whose
        # angles differ in sign where h_f - cos k < 0, so the memo must
        # key on the object, not on ==.
        neg = QuenchSpec.ising(h_i=1.5, h_f=0.5, kappa=-0.0)
        pos = QuenchSpec.ising(h_i=1.5, h_f=0.5, kappa=0.0)
        assert neg == pos and hash(neg) == hash(pos)
        calls = _point_calls(QubitCoupling(epsilon0=1.2, g_obs=0.1, L=512))
        cold = [{name: _outcome(call, _fresh(q)) for name, call in calls.items()}
                for q in (neg, pos)]
        assert cold[0]["transition_rates"] != cold[1]["transition_rates"]
        specs = (neg, pos)
        for first, second in ((0, 1), (1, 0), (0, 1)):
            for name, call in calls.items():
                assert _outcome(call, specs[first]) == cold[first][name], name
                assert _outcome(call, specs[second]) == cold[second][name], name


    def test_threads_sharing_the_memo_get_their_own_rates(self):
        # Threads switch the one memo entry between points at a short switch
        # interval; each call must still get the rates of its own point.
        rng = np.random.default_rng(34)
        points = ([_draw_chain_point(rng)[:2] for _ in range(3)]
                  + [_draw_ring_point(rng)[:2] for _ in range(3)])
        want = [repr(transition_rates(_fresh(q), c)) for q, c in points]
        wrong = []

        def work(offset):
            for i in range(400):
                j = (i // 2 + offset) % len(points)  # each point twice in a row
                if repr(transition_rates(*points[j])) != want[j]:
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


@given(h_i=st.floats(0.05, 0.95), h_f=st.floats(1.05, 2.5),
       frac=st.floats(0.1, 0.9))
@settings(max_examples=80, deadline=None)
def test_rates_nonnegative_and_bias_bounded(h_i, h_f, frac):
    q = QuenchSpec.ising(h_i=h_i, h_f=h_f, kappa=1.0)
    lo = 2.0 * abs(h_f - 1.0)
    hi = 2.0 * (h_f + 1.0)
    eps0 = 2.0 * (lo + frac * (hi - lo)) / 2.0
    # keep clear of both band edges where the weight diverges
    if eps0 <= lo * 1.02 or eps0 >= hi * 0.98:
        return
    try:
        r = transition_rates(q, QubitCoupling(epsilon0=eps0, g_obs=1.0, L=16))
    except (NoResonance, DegenerateRoot):
        return
    assert r.gamma_up >= 0.0
    assert r.gamma_down >= 0.0
    assert abs((r.gamma_up - r.gamma_down) / r.total) <= 1.0 + 1e-12
    cond = bias_condition(q, eps0)
    assert cond.active == r.is_active
