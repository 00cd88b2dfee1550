"""Band structure, quench angles and resonance roots.

Frozen values below are computed from the closed dispersion formulas by
hand (see the literal expressions in the comments), never read back from
the code under test.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from quenchclock import (
    DegenerateRoot,
    GaplessMode,
    ModelSpec,
    QuenchSpec,
    band_edges,
    dispersion,
    energy_roots,
    group_velocity,
    mode_state,
)
from quenchclock import spectra
from quenchclock.spectra import ModelArrays, ModelKind, energy_roots_array

SQRT2 = math.sqrt(2.0)


class TestDispersion:
    def test_chain_frozen_points(self):
        # eps = 2 sqrt((h-cos k)^2 + kappa^2 sin^2 k)
        m = ModelSpec.ising(h=2.0, kappa=1.0)
        assert dispersion(m, math.pi / 2) == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-15)
        # u = 0.75: 2 sqrt((0.5-0.75)^2 + (1-0.75^2)) = sqrt(2)
        m2 = ModelSpec.ising(h=0.5, kappa=1.0)
        assert dispersion(m2, math.acos(0.75)) == pytest.approx(SQRT2, rel=1e-14)
        # and the post-quench value at the same momentum: exactly 2
        m3 = ModelSpec.ising(h=1.5, kappa=1.0)
        assert dispersion(m3, math.acos(0.75)) == pytest.approx(2.0, rel=1e-14)

    def test_ring_frozen_point(self):
        # eps = sqrt((2 t cos k)^2 + V^2) = sqrt(2) at k = pi/3, t = V = 1
        m = ModelSpec.xx_ring(t=1.0, V=1.0)
        assert dispersion(m, math.pi / 3) == pytest.approx(SQRT2, rel=1e-15)

    def test_vectorized(self):
        m = ModelSpec.ising(h=0.7, kappa=0.4)
        ks = np.linspace(0.0, math.pi, 7)
        eps = dispersion(m, ks)
        assert eps.shape == ks.shape
        assert eps[0] == pytest.approx(2.0 * abs(0.7 - 1.0))

    def test_group_velocity_matches_finite_difference(self):
        m = ModelSpec.ising(h=1.3, kappa=0.8)
        k = 1.1
        dk = 1e-6
        fd = (dispersion(m, k + dk) - dispersion(m, k - dk)) / (2 * dk)
        assert group_velocity(m, k) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_group_velocity_scalar_matches_array_bits(self, kind):
        # Random rows, each through the scalar path (a ModelSpec and a float
        # momentum) and through the array twin (ModelArrays, as the scan
        # calls it); row 0 of the chain is gapless, k = 0 at h = 1.
        rng = np.random.default_rng(17)
        n = 400
        k = rng.uniform(-4.0, 4.0, n)
        a, b = rng.uniform(-2.0, 2.0, n), rng.uniform(0.1, 2.0, n)
        if kind is ModelKind.ISING_XY:
            a[0], k[0] = 1.0, 0.0
            rows = ModelArrays(kind, h=a, kappa=b)
            specs = [ModelSpec.ising(h, kap) for h, kap in zip(a, b)]
        else:
            rows = ModelArrays(kind, t=b, V=a)
            specs = [ModelSpec.xx_ring(t, V) for t, V in zip(b, a)]
        scalar = [group_velocity(m, x) for m, x in zip(specs, k.tolist())]
        assert all(type(v) is float for v in scalar)
        for twin in (group_velocity(rows, k),
                     [group_velocity(m, np.array([x]))[0] for m, x in zip(specs, k)]):
            assert [repr(v) for v in scalar] == [repr(float(v)) for v in twin]
        if kind is ModelKind.ISING_XY:
            assert math.isnan(scalar[0])

    def test_gapless_angle_raises(self):
        # critical chain: gap closes at k = 0 for h = 1, at either end of
        # the quench
        m = ModelSpec.ising(h=1.0, kappa=1.0)
        assert dispersion(m, 0.0) == 0.0
        for quench in (QuenchSpec.ising(h_i=0.5, h_f=1.0), QuenchSpec.ising(h_i=1.0, h_f=0.5)):
            with pytest.raises(GaplessMode):
                mode_state(quench, 0.0)

    def test_angle_frozen(self):
        # chain: 2 theta = atan2(kappa sin k, h - cos k) at k = pi/2
        st = mode_state(QuenchSpec.ising(h_i=0.5, h_f=2.0, kappa=1.0), math.pi / 2)
        assert st.theta_f == pytest.approx(0.5 * math.atan2(1.0, 2.0), rel=1e-15)
        assert st.theta_i == pytest.approx(0.5 * math.atan2(1.0, 0.5), rel=1e-15)
        # ring: 2 theta = atan2(V, 2 t cos k), here atan2(+-1, 1) at k = pi/3
        st = mode_state(QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0), math.pi / 3)
        assert st.theta_f == pytest.approx(math.pi / 8, rel=1e-14)
        assert st.theta_i == pytest.approx(-math.pi / 8, rel=1e-14)


class TestBandEdges:
    def test_chain_edges(self):
        m = ModelSpec.ising(h=1.5, kappa=1.0)
        lo, hi = band_edges(m)
        assert lo == pytest.approx(1.0, rel=1e-15)  # 2|h-1| at u=1
        assert hi == pytest.approx(5.0, rel=1e-15)  # 2(h+1) at u=-1
        lo_r, hi_r = band_edges(m, reduced=True)
        assert lo_r == pytest.approx(1.0, rel=1e-15)
        assert hi_r == pytest.approx(2.0 * math.sqrt(3.25), rel=1e-15)  # u=0

    def test_chain_interior_extremum(self):
        # kappa < 1 pulls a band minimum inside the zone at u = h/(1-kappa^2)
        m = ModelSpec.ising(h=0.5, kappa=0.5)
        lo, hi = band_edges(m)
        u_star = 0.5 / 0.75
        eps_star = 2.0 * math.sqrt((0.5 - u_star) ** 2 + 0.25 * (1.0 - u_star**2))
        assert lo == pytest.approx(eps_star, rel=1e-14)
        assert hi == pytest.approx(3.0, rel=1e-15)
        ks = np.linspace(0.0, math.pi, 20001)
        eps = dispersion(m, ks)
        assert eps.min() >= lo - 1e-9
        assert eps.max() <= hi + 1e-12

    def test_ring_edges(self):
        m = ModelSpec.xx_ring(t=1.0, V=1.0)
        assert band_edges(m) == (1.0, math.sqrt(5.0))


class TestEnergyRoots:
    def test_single_root_exact_u(self):
        # kappa = 1 degenerates the root equation to a linear one:
        # u = (h^2 + 1 - eps^2/4) / (2h); eps = 2, h = 1.5 -> u = 0.75
        m = ModelSpec.ising(h=1.5, kappa=1.0)
        roots = energy_roots(m, 2.0)
        assert len(roots) == 1
        assert roots[0].u == pytest.approx(0.75, abs=1e-13)
        assert abs(dispersion(m, roots[0].k) - 2.0) <= 1e-12

    def test_two_roots_below_edge(self):
        # interior extremum splits the inverse image into two momenta
        m = ModelSpec.ising(h=0.5, kappa=0.5)
        roots = energy_roots(m, 0.9)
        assert len(roots) == 2
        for r in roots:
            assert abs(dispersion(m, r.k) - 0.9) <= 1e-12
        assert roots[0].u != pytest.approx(roots[1].u, abs=1e-6)

    def test_ring_root(self):
        # cos^2 k* = (eps^2 - V^2) / (2t)^2 -> k* = pi/3 at eps = sqrt(2)
        m = ModelSpec.xx_ring(t=1.0, V=1.0)
        roots = energy_roots(m, SQRT2)
        assert len(roots) == 1
        assert roots[0].k == pytest.approx(math.pi / 3, abs=1e-13)

    def test_out_of_band(self):
        m = ModelSpec.xx_ring(t=1.0, V=1.0)
        assert energy_roots(m, 0.5) == ()
        assert energy_roots(m, 3.0) == ()

    def test_cancellation_prone_quadratic(self):
        # Roots stay accurate when b^2 >> 4ac, the regime where the naive
        # quadratic formula loses half the digits.
        m = ModelSpec.ising(h=5.0, kappa=0.999)
        lo, hi = band_edges(m)
        eps = lo + 1e-6 * (hi - lo)
        for r in energy_roots(m, eps):
            assert abs(dispersion(m, r.k) - eps) <= 1e-12 * max(1.0, eps)

    def test_array_twin_solves_critical_roots_like_the_scalar(self):
        # At the critical field h = 1 a root near k = 0 is the small
        # solution of a half-angle quadratic, where arccos of a root in
        # cos k kept none of its digits; both twins return its bits.
        kappa = np.repeat([0.3, 0.5, 0.7, 0.9], 7)
        eps = np.tile(4.0 * 10.0 ** -np.arange(6.0, 13.0), 4)
        roots = energy_roots_array(
            ModelArrays(ModelKind.ISING_XY, h=np.ones(kappa.size), kappa=kappa), eps)
        assert not roots.degenerate.any()
        for i, (kap, e) in enumerate(zip(kappa, eps)):
            m = ModelSpec.ising(1.0, kap)
            (root,) = energy_roots(m, e)
            assert roots.present[i].tolist() == [True, False]
            assert roots.k[i, 0] == root.k and roots.velocity[i, 0] == root.velocity
            # An independent solve: k ~ e/(2 kappa) lies inside [0, 1e-3].
            ref = brentq(lambda k: dispersion(m, k) - e, 0.0, 1e-3,
                         xtol=1e-300, rtol=8.9e-16, maxiter=1000)
            assert root.k == pytest.approx(ref, rel=1e-12, abs=0.0)

    # A momentum just above the chain's interior band minimum at k = acos(0.3)
    # and one just below it: at kappa = 0 the two roots at cos k = 0.3 -+ eps/2.
    _K_MIN = math.acos(0.3)
    _XX_BRACKETS = ((_K_MIN, _K_MIN + 1e-6), (_K_MIN - 1e-6, _K_MIN))

    @pytest.mark.parametrize("h, kappa, eps, brackets", [
        # Near the critical field, where acos of the root in cos k loses it.
        (1.0000000000004645, -81.58607093880616, 9.35460522159e-13, [(0.0, 1e-3)]),
        (0.9999999999999679, -1.4210348913476685e-4, 9.026866590499726e-14,
         [(0.0, 1e-3)]),
        (1.0000000001109215, -0.002737686856703, 1.7327009783371679e-09, [(0.0, 1e-3)]),
        (-1.000003432137425, 95.63723028640165, 0.01166510187682863,
         [(math.pi - 1e-3, math.pi)]),
        # Near the XX chain two roots flank the band minimum, where the
        # discriminant in cos k cancels.
        (0.3, 0.0, 1e-9, _XX_BRACKETS),
        (0.3, 1e-12, 1e-9, _XX_BRACKETS),
        # The root of x = q/A of the half-angle quadratic, not of C/q.
        (0.9999999061708378, 1.0339636777311407e-4, 1.2712482501333868e-06,
         [(0.0, 1e-2)]),
    ])
    def test_half_angle_roots_match_brentq(self, h, kappa, eps, brackets):
        # Each bracket holds one sign change of eps_k - eps, listed in the
        # twins' order of ascending cos k.  The reference takes h - cos k
        # in the half angle, as h - 1 + 2 sin(k/2)**2 or h + 1 - 2
        # cos(k/2)**2, since cos k near +-1 rounds away a small root.
        def residual(k):
            if k > 0.5 * math.pi:
                x = h + 1.0 - 2.0 * math.cos(0.5 * k) ** 2
            else:
                x = h - 1.0 + 2.0 * math.sin(0.5 * k) ** 2
            return 2.0 * math.hypot(x, kappa * math.sin(k)) - eps

        m = ModelSpec.ising(h, kappa)
        roots = energy_roots(m, eps)
        rows = energy_roots_array(
            ModelArrays(ModelKind.ISING_XY, h=np.array([h]), kappa=np.array([kappa])),
            np.array([eps]))
        assert rows.present[0].tolist() == [True, len(brackets) == 2]
        assert len(roots) == len(brackets)
        for j, (root, (lo, hi)) in enumerate(zip(roots, brackets)):
            assert rows.k[0, j] == root.k and rows.velocity[0, j] == root.velocity
            ref = brentq(residual, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=1000)
            assert root.k == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestDensityOfStates:
    def test_flat_band_is_a_degenerate_root(self):
        # |kappa| = 1, h = 0: eps_k = 2 at every k, so each k is a root.
        m = ModelSpec.ising(h=0.0, kappa=1.0)
        with pytest.raises(DegenerateRoot, match="flat band"):
            energy_roots(m, 2.0)
        rows = energy_roots_array(ModelArrays(ModelKind.ISING_XY, h=np.zeros(1),
                                              kappa=np.ones(1)), np.array([2.0]))
        assert rows.degenerate.tolist() == [True]


class TestQuench:
    def test_null_quench_empty_occupation(self):
        q = QuenchSpec.ising(h_i=1.5, h_f=1.5, kappa=1.0)
        for k in (0.3, 1.1, 2.5):
            ms = mode_state(q, k)
            assert ms.n_k == 0.0
            assert ms.dtheta == 0.0

    def test_frozen_occupation_chain(self):
        # h 0.5 -> 1.5 at u = 0.75: cos 2 dtheta = 1/(2 sqrt 2), so
        # n = (1 - 1/(2 sqrt 2))/2
        q = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
        ms = mode_state(q, math.acos(0.75))
        assert ms.n_k == pytest.approx(0.32322330470336313, rel=1e-13)
        assert ms.n_k < 0.5  # not inverted

    def test_frozen_occupation_ring(self):
        # V -1 -> 1 rotates 2 theta from -pi/4 to pi/4 at k = pi/3: n = 1/2
        q = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
        ms = mode_state(q, math.pi / 3)
        assert ms.n_k == pytest.approx(0.5, abs=1e-15)
        assert ms.eps_i == pytest.approx(SQRT2, rel=1e-15)
        assert ms.eps_f == pytest.approx(SQRT2, rel=1e-15)

    def test_invalid_pairs_rejected(self):
        ising = ModelSpec.ising(h=1.0, kappa=1.0)
        ring = ModelSpec.xx_ring(t=1.0, V=1.0)
        with pytest.raises(ValueError):
            QuenchSpec(initial=ising, final=ring)
        with pytest.raises(ValueError):
            QuenchSpec(initial=ModelSpec.ising(h=0.5, kappa=0.3),
                       final=ModelSpec.ising(h=1.5, kappa=0.8))
        with pytest.raises(ValueError):
            ModelSpec.xx_ring(t=-1.0, V=0.5)
        with pytest.raises(TypeError):
            ModelSpec.xx_ring(1.0, 0.5, phi=0.3)  # the ring carries no flux


@st.composite
def chain_and_energy(draw):
    h = draw(st.floats(0.05, 2.5))
    kappa = draw(st.floats(0.15, 1.5))
    m = ModelSpec.ising(h=h, kappa=kappa)
    lo, hi = band_edges(m)
    if hi - lo < 1e-3 or lo < 1e-3:
        # nearly flat or nearly gapless band: no stable target energy
        return None
    frac = draw(st.floats(0.05, 0.95))
    return m, lo + frac * (hi - lo)


@given(chain_and_energy())
@settings(max_examples=120, deadline=None)
def test_root_residuals_property(pair):
    if pair is None:
        return
    model, eps = pair
    try:
        roots = energy_roots(model, eps)
    except DegenerateRoot:
        return
    assert roots
    for r in roots:
        assert abs(dispersion(model, r.k) - eps) <= 1e-12 * max(1.0, eps)
        assert 0.0 <= r.k <= math.pi
        assert r.u == pytest.approx(math.cos(r.k), abs=5e-16)


def _random_models(kind, rng, n):
    """``n`` random models of ``kind``, with the chain's special cases
    (linear root equation at |kappa| = 1, h = 0) mixed in, and targets
    at the band edges, inside the band and just outside it, and the
    negatives of those inside, which no mode reaches."""
    if kind is ModelKind.ISING_XY:
        h = rng.uniform(-3.0, 3.0, n)
        kappa = rng.uniform(-2.0, 2.0, n)
        kappa[rng.random(n) < 0.1] = 1.0
        h[rng.random(n) < 0.05] = 0.0
        specs = [ModelSpec.ising(a, b) for a, b in zip(h, kappa)]
        rows = ModelArrays(kind, h=h, kappa=kappa)
    else:
        t, V = rng.uniform(0.05, 3.0, n), rng.uniform(-3.0, 3.0, n)
        specs = [ModelSpec.xx_ring(a, b) for a, b in zip(t, V)]
        rows = ModelArrays(kind, t=t, V=V)
    edges = np.array([band_edges(m, reduced=bool(r)) for m, r in
                      zip(specs, rng.random(n) < 0.5)])
    lo, hi = edges[:, 0], edges[:, 1]
    pick = rng.integers(0, 4, n)
    inside = lo + rng.uniform(-0.05, 1.05, n) * (hi - lo)
    eps = np.choose(pick, [lo, hi, inside, -np.abs(inside)])
    return specs, rows, eps


# Half the tolerance on the pair energy 2 eps_k that a resonant root meets.
_RESIDUAL_TOL = 5e-13


@pytest.mark.parametrize("kind", list(ModelKind))
def test_every_root_meets_the_residual_or_sits_at_an_extremum(kind):
    # Every root the closed forms return meets _RESIDUAL_TOL * max(1, eps),
    # and an extremum touching eps is a root, for the van Hove guard to
    # see its slope.
    rng = np.random.default_rng(29)
    specs, rows, eps = _random_models(kind, rng, 10000)
    tol = _RESIDUAL_TOL * np.maximum(1.0, eps)

    arr = energy_roots_array(rows, eps)
    keep = arr.present & ~arr.degenerate[:, None]
    residual = np.abs(dispersion(rows.take((slice(None), None)), arr.k) - eps[:, None])
    ok = residual <= tol[:, None]
    assert keep.sum() > 7000
    assert ok[keep].all(), np.argwhere(keep & ~ok)[:5]
    assert (keep & (np.abs(arr.velocity) < spectra.DERIVATIVE_TOL)).any()

    # The scalar twin on the first rows, which also returns as many roots.
    checked = 0
    for i, (m, e, t) in enumerate(zip(specs[:2000], eps.tolist(), tol.tolist())):
        try:
            roots = energy_roots(m, e)
        except DegenerateRoot:
            continue
        assert len(roots) == arr.present[i].sum(), (m, e)
        for r in roots:
            checked += 1
            assert abs(dispersion(m, r.k) - e) <= t, (m, e, r)
    assert checked > 1000


def test_ring_gap_just_below_the_band_has_no_root():
    # eps_k >= |V| = 3 at every k, so eps = 0.5 leaves the factor
    # (eps - |V|)(eps + |V|) = (2t cos k)**2 of the ring's closed form
    # negative, outside its domain, however large t is: divided by 4 t**2
    # it would be -5e-15 at t = 2e7, within rounding of 0.
    for t in (1e7, 2e7):
        assert energy_roots(ModelSpec.xx_ring(t=t, V=3.0), 0.5) == ()
        arr = energy_roots_array(
            ModelArrays(ModelKind.XX_RING, t=np.array([t]), V=np.array([3.0])),
            np.array([0.5]))
        assert not arr.present.any() and not arr.degenerate.any()
        assert np.isnan(arr.k).all() and np.isnan(arr.velocity).all()


def _mp_chain_root(model, eps, k0):
    """The chain's root near ``k0`` at 50 digits, with ``h - cos k`` in the
    half angle of the zone end nearest ``k0``."""
    with mpmath.workdps(50):
        h, kappa, e = (mpmath.mpf(v) for v in (model.h, model.kappa, eps))

        def residual(k):
            if k > mpmath.pi / 2:
                x = h + 1 - 2 * mpmath.cos(k / 2) ** 2
            else:
                x = h - 1 + 2 * mpmath.sin(k / 2) ** 2
            return 2 * mpmath.sqrt(x * x + (kappa * mpmath.sin(k)) ** 2) - e

        return float(mpmath.findroot(residual, mpmath.mpf(k0)))


def _twin_roots(model, eps):
    """The roots of both twins at one row, after checking that they are
    the same bits."""
    roots = energy_roots(model, eps)
    if model.kind is ModelKind.ISING_XY:
        rows = ModelArrays(model.kind, h=np.array([model.h]), kappa=np.array([model.kappa]))
    else:
        rows = ModelArrays(model.kind, t=np.array([model.t]), V=np.array([model.V]))
    arr = energy_roots_array(rows, np.array([eps]))
    assert arr.present[0].sum() == len(roots)
    for j, root in enumerate(roots):
        assert (arr.k[0, j], arr.velocity[0, j]) == (root.k, root.velocity)
    return roots


class TestClosedFormRoots:
    """Roots where ``cos k`` keeps few of their digits: within rounding of
    a zone end or of the seam ``k = pi/2``, and on a ring whose hopping
    is far above the gap."""

    @pytest.mark.parametrize("h, kappa, eps", [
        # Roots near k = 0 by the critical field, where cos k is within
        # rounding of 1: k = 6.4e-8 and 2.2e-6.
        (1.0, 1.1123651081666135e-4, 0.5 * 2.8485716412370226e-11),
        (1.0, 0.9, 4e-6),
        # The reduced band edge at cos k = 0, the seam of the two half-angle
        # quadratics, where both x = sin(k/2)**2 and cos(k/2)**2 round above 1/2.
        (-2.5538364782379697, -0.08841330079446097, 5.1107328904321685),
    ])
    def test_chain_root_matches_mpmath(self, h, kappa, eps):
        model = ModelSpec.ising(h, kappa)
        (root,) = _twin_roots(model, eps)
        assert root.k == pytest.approx(_mp_chain_root(model, eps, root.k), rel=1e-15, abs=0.0)

    def test_ring_root_far_below_the_hopping(self):
        # At t = 1e9 one ulp of k near pi/2 moves eps_k by 4.4e-7, so no
        # double k meets an absolute residual bound such as 5e-13 * eps.
        model = ModelSpec.xx_ring(1e9, 0.5)
        (root,) = _twin_roots(model, 5.0)
        with mpmath.workdps(50):
            exact = mpmath.findroot(
                lambda k: mpmath.sqrt((2 * mpmath.mpf(model.t) * mpmath.cos(k)) ** 2
                                      + mpmath.mpf(model.V) ** 2) - 5, mpmath.mpf(root.k))
            assert abs(root.k - exact) <= math.ulp(root.k)

    @pytest.mark.parametrize("h, kappa, eps, k_end, n_roots", [
        # Gaps one ulp above a zone-end maximum of the near-critical band,
        # as eps_k at k = 1e-10 or pi - 1e-10 rounds: the half-angle root
        # is just below 0, and the zone end is the root, a van Hove one.
        (0.9999999901373375, -1.819598117424966, 3.9999999802746746, math.pi, 2),
        (0.9999999934485296, 1.3485625426910104, 3.9999999868970595, math.pi, 1),
        (-0.9999999999999157, -1.3242031616626495, 3.9999999999998317, 0.0, 1),
    ])
    def test_zone_end_within_rounding_is_a_van_hove_root(self, h, kappa, eps, k_end,
                                                         n_roots):
        roots = _twin_roots(ModelSpec.ising(h, kappa), eps)
        assert len(roots) == n_roots
        ends = [root for root in roots if root.k == k_end]
        assert len(ends) == 1 and spectra.van_hove(ends[0].velocity)


def test_ring_roots_over_wide_scales():
    # Every row has one root, both twins give its bits, and it is within one
    # ulp of an exact root of a gap within one rounding unit of eps: the
    # exact eps_k at the two doubles next to k, which bracket the gap as
    # eps_k falls with k, widened by ulp(eps), hold eps.  Half the gaps are
    # eps_k at uniform k; the others lie 10**U(-12, 0) of the band's width
    # above its bottom |V|, whose roots near k = pi/2 no double k meets to
    # an absolute residual bound where t is large: there one ulp of k moves
    # eps_k by up to 4.4e-16 t.
    rng = np.random.default_rng(31)
    n = 3000
    t = 10.0 ** rng.uniform(-6.0, 9.0, n)
    V = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
    rows = ModelArrays(ModelKind.XX_RING, t=t, V=V)
    bottom, width = np.abs(V), np.hypot(2.0 * t, V) - np.abs(V)
    eps = np.where(rng.random(n) < 0.5,
                   dispersion(rows, rng.uniform(0.0, 0.5 * math.pi, n)),
                   bottom + width * 10.0 ** rng.uniform(-12.0, 0.0, n))

    arr = energy_roots_array(rows, eps)
    assert arr.present[:, 0].all() and not arr.present[:, 1].any()
    with mpmath.workdps(30):
        for i, (ti, vi, e) in enumerate(zip(t.tolist(), V.tolist(), eps.tolist())):
            (root,) = energy_roots(ModelSpec.xx_ring(ti, vi), e)
            assert (root.k, root.velocity) == (arr.k[i, 0], arr.velocity[i, 0])
            top, bottom = (mpmath.sqrt((2 * mpmath.mpf(ti) * mpmath.cos(mpmath.mpf(k))) ** 2
                                       + mpmath.mpf(vi) ** 2)
                           for k in (max(math.nextafter(root.k, -1.0), 0.0),
                                     math.nextafter(root.k, 2.0)))
            unit = math.ulp(e)
            assert bottom - unit <= e <= top + unit, (ti, vi, e, root.k)
