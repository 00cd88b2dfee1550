"""Mode-sum and dense-diagonalization checks of the closed-form rates.

The dense cross-check rebuilds the two-spin problem with explicit Pauli
matrices and the textbook Lehmann sum, so it shares no code with the
module under test, and pins every line of larger chains to a pair
energy.  The differential tests rebuild the rung-by-rung complex-log
mode sum that the stacked real-arithmetic one replaced, and the angle
form of the occupations and matrix elements that the unit vectors
replaced.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from test_acceptance import _draw_chain_point, _draw_ring_point

from quenchclock import (
    BadBroadening,
    GaplessMode,
    ModelKind,
    QubitCoupling,
    QuenchSpec,
    TooLarge,
    band_edges,
    dense_ed_correlator,
    discrete_rates,
    dispersion,
    mode_state,
    transition_rates,
)
from quenchclock.oracle import _GRID_MEMO, _density, _rung_grid, _rung_modes
from quenchclock.spectra import _check_gapped, _components, _energy, _mode_fields

ISING = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
RING = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
COUP = QubitCoupling(epsilon0=2.5, g_obs=0.25, L=128)
RING_COUP = QubitCoupling(epsilon0=math.sqrt(6.0), g_obs=0.25, L=128)


# The Lorentzian reference takes the difference of two complex logs.  In
# the flat cells near a band extremum the two nearly equal angles cancel,
# which costs up to 1.1e-11 of a ring rate in float64 (measured on the
# draws below); in extended precision the reference is exact to ~5e-15.
# The tolerance leaves a margin of about three over these maxima.
_WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps
_MODE_SUM_TOL = 1e-13 if _WIDE else 3e-11


def _cell_density(eta, x, cell_width=0.0):
    """Density seen at frequency 0 of a mode at offset ``x``, averaged
    over the cell ``[x - w/2, x + w/2]`` of width ``cell_width``."""
    half = 0.5 * cell_width
    return _density(eta, 0.0, x, x - half, x + half)


class TestKernels:
    ETA = 0.05

    def test_point_lorentzian_mass(self):
        # integral over [-X, X] has the closed form (2/pi) atan(X/eta)
        X = 40.0
        val, _ = quad(lambda x: _cell_density(self.ETA, x), -X, X, points=[0.0], limit=300)
        assert val == pytest.approx(2.0 / math.pi * math.atan(X / self.ETA), abs=1e-8)

    def test_cell_averaged_lorentzian_normalized(self):
        # averaging over the cell preserves unit mass; the far tail is the
        # point tail up to O(w/X)
        X, w = 5e4 * self.ETA, 0.02
        val, _ = quad(lambda x: _cell_density(self.ETA, x, w),
                      -X, X, points=[0.0], limit=500)
        tail = 1.0 - 2.0 / math.pi * math.atan(X / self.ETA)
        assert val + tail == pytest.approx(1.0, abs=1e-6)

    def test_cell_average_flattens_the_peak(self):
        peak_point = _cell_density(self.ETA, 0.0)
        peak_cell = _cell_density(self.ETA, 0.0, cell_width=0.5)
        assert 0.0 < peak_cell < peak_point

    def test_cell_ends_in_either_order(self):
        # A cell's two end energies may come in either order, with the
        # same bits, in wide cells and in the narrow ones of the point form.
        rng = np.random.default_rng(7)
        E = rng.uniform(-1.0, 3.0, 400)
        e_a = E - 10.0 ** rng.uniform(-15.0, 0.0, 400)
        e_b = E + 10.0 ** rng.uniform(-15.0, 0.0, 400)
        omega = np.linspace(-1.0, 3.0, 9)[:, None]
        for eta in (self.ETA, 1e-6):
            got = _density(eta, omega, E, e_a, e_b)
            assert got.tobytes() == _density(eta, omega, E, e_b, e_a).tobytes()

    def test_zero_width_cells_are_the_point_kernel(self):
        # A cell collapsed to its mode takes the point form, bit for bit.
        eta = self.ETA
        x = np.linspace(-1.0, 1.0, 41)
        assert np.array_equal(_cell_density(eta, x), eta / (np.pi * (x * x + eta * eta)))
        assert _cell_density(eta, 0.3) == eta / (np.pi * (0.3 * 0.3 + eta * eta))
        E = np.array([-0.4, 0.0, 0.05, 2.5])
        omega = np.linspace(-1.0, 3.0, 17)[:, None]
        cells = _density(eta, omega, E, E, E)
        assert cells.shape == (17, 4)
        x = E - omega
        assert np.array_equal(cells, eta / (np.pi * (x * x + eta * eta)))


class TestDiscreteRates:
    def test_chain_two_percent_at_reference_resolution(self):
        rep = discrete_rates(ISING, COUP, L=4096, eta=1e-3)
        assert rep.relative_error_vs_closed_form < 0.02

    def test_ring_two_percent_at_reference_resolution(self):
        rep = discrete_rates(RING, RING_COUP, L=4096, eta=1e-3)
        assert rep.relative_error_vs_closed_form < 0.02

    def test_refinement_is_monotone(self):
        for quench, coup in ((ISING, COUP), (RING, RING_COUP)):
            rep = discrete_rates(quench, coup, L=4096, eta=1e-3)
            errs = [max(r.rel_err_up, r.rel_err_down) for r in rep.convergence_table]
            assert len(errs) == 3
            assert errs[0] > errs[1] > errs[2]

    def test_last_rung_is_the_request(self):
        rep = discrete_rates(ISING, COUP, L=512, eta=5e-3)
        last = rep.convergence_table[-1]
        assert (last.L, last.eta) == (512, 5e-3)
        assert rep.relative_error_vs_closed_form == max(last.rel_err_up, last.rel_err_down)

    def test_errors_measured_against_matching_chain(self):
        rep = discrete_rates(ISING, COUP, L=1024, eta=3e-3)
        row = rep.convergence_table[-1]
        closed = transition_rates(ISING, QubitCoupling(2.5, 0.25, 1024))
        assert row.rel_err_up == pytest.approx(
            abs(row.gamma_up - closed.gamma_up) / closed.gamma_up, rel=1e-12)

    def test_broadening_window(self):
        for eta in (0.0, -1.0, 2.0, math.inf):
            with pytest.raises(BadBroadening):
                discrete_rates(ISING, COUP, L=256, eta=eta)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            discrete_rates(ISING, COUP, L=63, eta=1e-2)
        with pytest.raises(ValueError):
            discrete_rates(ISING, COUP, L=32, eta=1e-2)


def _rel(value, ref):
    return abs(value - ref) / abs(ref) if ref else (0.0 if value == 0.0 else math.inf)


def _printed_angle(model, k):
    """theta_k from the printed rotation angle, on the branch of atan2:
    tan 2 theta = kappa sin k / (h - cos k) on the chain and
    V / (2 t cos k) on the ring.  A gapless mode has no angle, and
    raises :class:`GaplessMode` as the package does."""
    if (dispersion(model, k) < 1e-10).any():
        raise GaplessMode(f"a mode of {model} is gapless")
    if model.kind is ModelKind.ISING_XY:
        return 0.5 * np.arctan2(model.kappa * np.sin(k), model.h - np.cos(k))
    return 0.5 * np.arctan2(model.V, 2.0 * model.t * np.cos(k))


def _complex_log_rates(quench, coupling, rungs):
    """(gamma_up, gamma_down, rel_err_up, rel_err_down) of each rung, from
    its own momentum grid, the complex kernel's imaginary part and the
    closed forms at that rung's chain size."""
    final, initial = quench.final, quench.initial
    w, g = coupling.epsilon0, coupling.g_obs
    ld = np.longdouble if _WIDE else np.float64
    rows = []
    for L, eta in rungs:
        n = np.arange((L + 2) // 4)
        k = (2 * n + 1) * (math.pi / L)
        k_lo = 2 * n * (math.pi / L)
        k_hi = np.minimum((2 * n + 2) * (math.pi / L), 0.5 * math.pi)
        E = 2.0 * dispersion(final, k)
        e_a, e_b = 2.0 * dispersion(final, k_lo), 2.0 * dispersion(final, k_hi)
        lo, hi = np.minimum(e_a, e_b), np.maximum(e_a, e_b)
        th_f = _printed_angle(final, k)
        th_i = _printed_angle(initial, k)
        n_k = np.sin(th_f - th_i) ** 2
        F = np.sin(2.0 * th_f) ** 2
        if quench.kind is ModelKind.XX_RING:
            F = F * (final.t * np.sin(k)) ** 2
        point = 1.0 / (np.pi * (E - w - 1j * eta))
        width = hi - lo
        narrow = width < 1e-12 * np.maximum(1.0, np.abs(E))
        diff = (np.log(hi.astype(ld) - ld(w) - 1j * ld(eta))
                - np.log(lo.astype(ld) - ld(w) - 1j * ld(eta)))
        dens = np.where(narrow, point.imag,
                        diff.imag.astype(float) / (np.pi * np.where(narrow, 1.0, width)))
        base = 4.0 * g**2 / (math.pi * L) * (k_hi - k_lo) * F * dens
        up, down = float(np.sum(base * n_k)), float(np.sum(base * (1.0 - n_k)))
        closed = transition_rates(quench, QubitCoupling(w, g, L))
        rows.append((up, down, _rel(up, closed.gamma_up), _rel(down, closed.gamma_down)))
    return rows


def _points(draw, seed, count=50):
    rng = np.random.default_rng(seed)
    return [draw(rng)[:2] for _ in range(count)]


class TestAgainstComplexLogModeSum:
    # The ids name the broadening too: the Lorentzian averaged over each cell.
    @pytest.mark.parametrize("draw, seed", [(_draw_chain_point, 11), (_draw_ring_point, 12)],
                             ids=["chain-lorentzian", "ring-lorentzian"])
    def test_every_rung_matches(self, draw, seed):
        for quench, coup in _points(draw, seed):
            # The rungs of 1030 are (128, 516, 1030): the last is 2 mod 4,
            # so its last mode sits at k = pi/2, and 516 is not a multiple
            # of 8.
            for L in (4096, 1030):
                rep = discrete_rates(quench, coup, L=L, eta=1e-3)
                table = rep.convergence_table
                expected = _complex_log_rates(quench, coup, [(r.L, r.eta) for r in table])
                for row, (up, down, err_up, err_down) in zip(table, expected, strict=True):
                    assert row.gamma_up == pytest.approx(up, rel=_MODE_SUM_TOL, abs=0.0)
                    assert row.gamma_down == pytest.approx(down, rel=_MODE_SUM_TOL, abs=0.0)
                    assert row.rel_err_up == pytest.approx(err_up, rel=0.0, abs=_MODE_SUM_TOL)
                    assert row.rel_err_down == pytest.approx(err_down, rel=0.0,
                                                             abs=_MODE_SUM_TOL)

    def test_gapless_mode_still_raises(self):
        # With V = 0 the ring's band closes at k = pi/2, a mode when L = 2 mod 4.
        ring = QuenchSpec.xx_ring(V_i=-1.0, V_f=0.0, t=1.0)
        with pytest.raises(GaplessMode):
            _complex_log_rates(ring, RING_COUP, [(94, 0.02)])
        # The last rung has the mode: the rungs of 94 are (64, 64, 94), and
        # those of 510 (64, 256, 510).
        for L in (94, 510):
            with pytest.raises(GaplessMode):
                discrete_rates(ring, RING_COUP, L=L, eta=0.02)
        # Only the middle rung has it: the rungs of 1028 are (128, 514, 1028).
        with pytest.raises(GaplessMode):
            discrete_rates(ring, RING_COUP, L=1028, eta=0.02)
        # No rung of 96, (64, 64, 96), has a mode at pi/2.
        discrete_rates(ring, RING_COUP, L=96, eta=0.02)



def _stacked_grid(sizes):
    """Rung mode counts, the stacked grids ``j pi/L`` and the grid index of
    each mode, built from scratch."""
    counts = [(L + 2) // 4 for L in sizes]
    grids, modes, offset = [], [], 0
    for L, count in zip(sizes, counts):
        grid = np.arange(2 * count + 1) * (math.pi / L)
        grid[-1] = min(grid[-1], 0.5 * math.pi)
        grids.append(grid)
        modes.append(np.arange(offset + 1, offset + 2 * count, 2))
        offset += len(grid)
    return counts, np.concatenate(grids), np.concatenate(modes)


def _rung_modes_unmemoized(quench, sizes):
    """The stacked mode data built from scratch on every call, by the
    unit-vector formulas of :func:`_rung_modes` written out of place."""
    counts, k, mode = _stacked_grid(sizes)
    km = k[mode]
    final, initial = quench.final, quench.initial
    ring = quench.kind is ModelKind.XX_RING
    c, s = np.cos(k), np.sin(k)
    x, y = _components(final, c, s)
    r = np.sqrt(x * x + y * y)
    E = r * (2.0 if ring else 4.0)
    _check_gapped(km, 0.5 * E[mode])
    x_i, y_i = _components(initial, c[mode], s[mode])
    r_i = np.sqrt(x_i * x_i + y_i * y_i)
    _check_gapped(km, r_i if ring else 2.0 * r_i)
    x_f, y_f = _components(final, c[mode], s[mode])
    ux_f, uy_f = x_f / r[mode], y_f / r[mode]
    ux_i, uy_i = x_i / r_i, y_i / r_i
    weight = uy_f * uy_f * (k[mode + 1] - k[mode - 1])
    if ring:
        weight = weight * (final.t * s[mode]) ** 2
    n_k = ((ux_f - ux_i) ** 2 + (uy_f - uy_i) ** 2) * 0.25
    m_k = ((ux_f + ux_i) ** 2 + (uy_f + uy_i) ** 2) * 0.25
    return (E[mode], E[mode - 1], E[mode + 1], weight, n_k, m_k, counts)


def _rung_modes_angle_form(quench, sizes):
    """The stacked mode data of the angle form that the unit vectors
    replaced: ``theta = atan2(y, x)/2`` per mode, ``n_k = sin(dtheta)**2``
    and the matrix element ``sin(2 theta_f)**2``.  Its ``1 - n_k`` is
    ``cos(dtheta)**2``, which, unlike ``1 - sin(dtheta)**2``, does not
    cancel where ``n_k`` nears 1."""
    counts, k, mode = _stacked_grid(sizes)
    km = k[mode]
    final, initial = quench.final, quench.initial
    c, s = np.cos(k), np.sin(k)
    eps = _energy(final, *_components(final, c, s))
    _check_gapped(km, eps[mode])
    eps_i, _, _, th_f, dtheta, n_k = _mode_fields(initial, final, c[mode], s[mode])
    _check_gapped(km, eps_i)
    weight = (k[mode + 1] - k[mode - 1]) * np.sin(2.0 * th_f) ** 2
    if quench.kind is ModelKind.XX_RING:
        weight = weight * (final.t * s[mode]) ** 2
    return (2.0 * eps[mode], 2.0 * eps[mode - 1], 2.0 * eps[mode + 1], weight, n_k,
            np.cos(dtheta) ** 2, counts)


# Both forms of n_k = sin(dtheta)**2 take the difference of two O(1)
# quantities, the half angles or the unit vectors, each good to a few
# eps.  With |d n_k / d dtheta| = 2 sqrt(n_k (1 - n_k)), both carry an
# absolute error of a few eps times sqrt(n_k), the same for 1 - n_k and
# for the matrix element s**2 = sin(2 theta_f)**2 (s is good to a few
# eps absolute in the angle form).  An error delta in dtheta moves n_k by
# 2 sqrt(n_k) delta + delta**2, so the tolerance on a mode is tol
# (sqrt(value) + tol) with tol = _FORM_K eps, on s**2 for the weight (its
# width and ring factor scaled out).  The largest error measured on the
# draws and quenches below is 3.8 eps (sqrt(value) + tol).  Against
# 40-digit mpmath, the n_k near 1e-20 of the near-identical quenches are
# off by up to 5e-6 relative in the unit-vector form and 4e-5 in the
# angle form: neither keeps more digits than sqrt(n_k) allows.
_FORM_K = 8.0
_EPS = np.finfo(float).eps
_FORM_SIZES = ((512, 2048, 4096), (94, 510, 1030))


def _matrix_scale(quench, sizes):
    """Cell width, times ``(t sin k)**2`` on the ring: the weight over
    its squared matrix element."""
    g = _rung_grid(tuple(sizes))
    if quench.kind is ModelKind.XX_RING:
        return g.width * (quench.final.t * g.sin_mode) ** 2
    return g.width


def _mode_tolerance(value):
    tol = _FORM_K * _EPS
    return tol * (np.sqrt(value) + tol)


def _assert_modes_match(quench, sizes):
    """The unit-vector mode data against the angle form, mode by mode;
    returns both."""
    got, want = _rung_modes(quench, sizes), _rung_modes_angle_form(quench, sizes)
    E, e_a, e_b, weight, n_k, m_k, counts = got
    E0, e_a0, e_b0, weight0, n0, m0, counts0 = want
    assert list(counts) == counts0
    # The energies are the same expression: 4 r = 2 (2 r) on the chain.
    for a, b in ((E, E0), (e_a, e_a0), (e_b, e_b0)):
        assert a.tobytes() == b.tobytes()
    scale = _matrix_scale(quench, sizes)
    for name, a, b in (("n_k", n_k, n0), ("1 - n_k", m_k, m0),
                       ("s**2", weight / scale, weight0 / scale)):
        excess = np.abs(a - b) / _mode_tolerance(b)
        assert excess.max() <= 1.0, (name, quench, sizes, excess.max())
    return got, want


def _rung_sums(modes, eta_rungs, omega):
    """Each rung's sums of weight * density * n_k and * (1 - n_k), and of
    weight * density * the mode tolerance of n_k."""
    E, e_a, e_b, weight, n_k, m_k, counts = modes
    base = weight * _density(np.repeat(eta_rungs, counts), omega, E, e_a, e_b)
    starts = np.cumsum(counts) - counts
    return [np.add.reduceat(base * v, starts) for v in (n_k, m_k, _mode_tolerance(n_k))]


class TestAgainstAngleForm:
    @pytest.mark.parametrize("draw, seed", [(_draw_chain_point, 31), (_draw_ring_point, 32)],
                             ids=["chain", "ring"])
    def test_modes_and_rung_sums(self, draw, seed):
        for quench, coup in _points(draw, seed, 20):
            for sizes in _FORM_SIZES:
                _assert_modes_match(quench, sizes)
            # discrete_rates' in-place sums against the angle form's, rung
            # by rung: the rungs of 4096 and of 1030 are _FORM_SIZES.
            for L in (4096, 1030):
                table = discrete_rates(quench, coup, L=L, eta=1e-3).convergence_table
                sizes = [row.L for row in table]
                ups, downs, _ = _rung_sums(_rung_modes_angle_form(quench, sizes),
                                           [row.eta for row in table], coup.epsilon0)
                for row, up, down in zip(table, ups, downs, strict=True):
                    pref = 4.0 * coup.g_obs**2 / (math.pi * row.L)
                    assert row.gamma_up == pytest.approx(pref * up, rel=1e-12, abs=0.0)
                    assert row.gamma_down == pytest.approx(pref * down, rel=1e-12, abs=0.0)

    def test_overflowing_norms_keep_their_direction(self):
        # Where x**2 + y**2 overflows, as at h or V near 1e300, the unit
        # vector comes from components scaled by the larger one, and stays
        # finite as the angle does.
        with np.errstate(over="ignore"):
            for quench in (QuenchSpec.ising(1e300, 1.5, 1.0), QuenchSpec.ising(0.5, 1e300, 1.0),
                           QuenchSpec.ising(1e300, 1.5, 1e300),
                           QuenchSpec.xx_ring(1e300, 1.0, 1.0)):
                _assert_modes_match(quench, _FORM_SIZES[0])

    @pytest.mark.parametrize("kind", ["chain", "ring"])
    def test_near_identical_quenches(self, kind):
        # h_i -> h_f (V_i -> V_f): n_k falls to 1e-20 and below, where both
        # forms keep only the digits sqrt(n_k) allows.  The rung sums of
        # n_k agree within the sums of the mode tolerances (plus 1e-12 of
        # the sum for the summation), those of 1 - n_k within 1e-12.
        quenches = []
        for rel in (1e-4, 1e-7, 1e-10):
            if kind == "chain":
                quenches += [QuenchSpec.ising(h * (1.0 + rel), h, 0.9) for h in (0.6, 1.3, 2.0)]
            else:
                quenches += [QuenchSpec.xx_ring(V * (1.0 + rel), V, 1.0) for V in (0.4, 1.2)]
        smallest = math.inf
        for quench in quenches:
            for sizes in _FORM_SIZES:
                got, want = _assert_modes_match(quench, sizes)
                smallest = min(smallest, want[4].min())
                lo, hi = band_edges(quench.final, reduced=True)
                up, down, _ = _rung_sums(got, [1e-2, 3e-3, 1e-3], lo + hi)
                up0, down0, bound = _rung_sums(want, [1e-2, 3e-3, 1e-3], lo + hi)
                assert np.all(np.abs(up - up0) <= bound + 1e-12 * up0), (quench, sizes)
                assert np.all(np.abs(down - down0) <= 1e-12 * down0), (quench, sizes)
        assert smallest < 1e-20


class TestRungGridMemo:
    # Default rungs; L = 2 mod 4 (a mode at pi/2); L % 8 != 0 and sizes
    # that do not nest, in falling order too; a repeated rung; one rung.
    SIZES = ((512, 2048, 4096), (94, 510, 1030), (100, 252, 700), (1030, 94, 300),
             (64, 64, 96), (64,))

    @staticmethod
    def _assert_bits_equal(got, want):
        *arrays, counts = got
        *ref, ref_counts = want
        assert list(counts) == ref_counts
        for a, b in zip(arrays, ref, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("first", ["chain", "ring"])
    def test_matches_unmemoized_build(self, first):
        quenches = {"chain": [p[0] for p in _points(_draw_chain_point, 21, 3)],
                    "ring": [p[0] for p in _points(_draw_ring_point, 22, 3)]}
        order = [first, "ring" if first == "chain" else "chain"]
        _rung_grid.cache_clear()
        for _ in range(2):  # cold, then warm
            for kind in order:
                for quench in quenches[kind]:
                    for sizes in self.SIZES:
                        self._assert_bits_equal(_rung_modes(quench, sizes),
                                                _rung_modes_unmemoized(quench, sizes))

    @pytest.mark.parametrize("sizes, distinct", [((512, 2048, 4096), 2049),
                                                 ((94, 510, 1030), 812), ((64, 64, 96), 69)])
    def test_union_holds_each_momentum_once(self, sizes, distinct):
        # The grid is the ascending union of the stacked rung grids, each
        # distinct double once; its indices pick each rung's modes and
        # cell edges out of it.
        counts, k, mode = _stacked_grid(sizes)
        union = np.unique(k)
        assert len(union) == distinct
        g = _rung_grid(sizes)
        assert g.cos.tobytes() == np.cos(union).tobytes()
        assert g.sin.tobytes() == np.sin(union).tobytes()
        for index, stacked in ((g.mode, mode), (g.below, mode - 1), (g.above, mode + 1)):
            assert union[index].tobytes() == k[stacked].tobytes()
        assert g.k_mode.tobytes() == k[mode].tobytes()
        assert g.width.tobytes() == (k[mode + 1] - k[mode - 1]).tobytes()
        assert g.starts.tolist() == (np.cumsum(counts) - counts).tolist()
        assert g.counts == tuple(counts)

    def test_numpy_sizes_share_the_entry(self):
        _rung_grid.cache_clear()
        _rung_modes(ISING, [512, 2048])
        _rung_modes(ISING, np.array([512, 2048]))
        info = _rung_grid.cache_info()
        assert (info.hits, info.currsize) == (1, 1)

    def test_arrays_refuse_writes(self):
        grid = _rung_grid((94, 512))
        arrays = [a for a in grid if isinstance(a, np.ndarray)]
        assert len(arrays) == len(grid) - 1 and any(a is grid.starts for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]

    def test_memo_is_bounded(self):
        _rung_grid.cache_clear()
        for n in range(20):
            _rung_modes(ISING, [64 + 2 * n, 512])
        info = _rung_grid.cache_info()
        assert info.maxsize == _GRID_MEMO and info.currsize == _GRID_MEMO
        # The last entries are still served.
        _rung_modes(ISING, [64 + 2 * 19, 512])
        assert _rung_grid.cache_info().hits == 1

    def test_warm_memo_still_raises(self):
        # Grids a gapped ring left in the memo still refuse a gapless one:
        # at the last rung (94, 510) or at the middle one only (1028).
        gapless = QuenchSpec.xx_ring(V_i=-1.0, V_f=0.0, t=1.0)
        for _ in range(2):
            for L in (94, 510, 1028):
                discrete_rates(RING, RING_COUP, L=L, eta=0.01)
                with pytest.raises(GaplessMode):
                    discrete_rates(gapless, RING_COUP, L=L, eta=0.01)
            discrete_rates(gapless, RING_COUP, L=96, eta=0.01)


# Every ConvergenceRow field of discrete_rates at two chain and two ring
# points drawn as _draw_*_point draws them, through this same call.  Both
# rung sets were recorded again when the occupations and matrix elements
# came to be taken from unit vectors instead of angles: against the angle
# form's records the rates moved by at most 6.6e-16 relative and the
# errors, differences of nearly equal rates, by at most 2e-12 relative.
# They were recorded again when the resonant roots came from closed forms
# only: three of the four roots moved by one to five ulps, each nearer the
# 50-digit root, the closed-form rates by at most 1.3e-15 relative and the
# errors by at most 7.8e-12 relative; the mode sums did not move.
# Keys are (point, rungs); rows are (L, eta, gamma_up, gamma_down,
# rel_err_up, rel_err_down), and every float literal is the recorded repr.
_ANCHOR_POINTS = (
    (QuenchSpec.ising(0.6538580381869649, 1.403855201524476, 0.9263358498019613),
     4.639605624604286),
    (QuenchSpec.ising(0.2318152423021388, 2.0862242124882933, 0.846153940868623),
     6.127187524024793),
    (QuenchSpec.xx_ring(0.47550346001726784, 1.3190266090696796),
     4.43415209076845),
    (QuenchSpec.xx_ring(-0.48946909881337747, 0.409900549013787),
     2.3408653202009333),
)
_ANCHORS = {
    (0, 0): (
        (128, 0.04, 1.3461853685061236e-06, 1.0144510203799095e-05,
         0.0021101878998490728, 0.014365539435117676),
        (512, 0.012649110640673518, 3.373632230767255e-07, 2.561356026318172e-06,
         0.0003119367108276401, 0.004560805954227377),
        (1024, 0.004, 1.68604339661259e-07, 1.2846935427232012e-06,
         0.00014629925415983103, 0.001439634612252195),
    ),
    (0, 1): (
        (128, 0.04, 1.3461853685061236e-06, 1.0144510203799095e-05,
         0.0021101878998492293, 0.014365539435117676),
        (516, 0.012649110640673518, 3.359101575309088e-07, 2.54142485111209e-06,
         0.0037847453342483408, 0.0045904564970962),
        (1030, 0.004, 1.6756924740395436e-07, 1.2772128339481347e-06,
         0.0004620290227795075, 0.0014373337426818774),
    ),
    (1, 0): (
        (128, 0.04, 2.6834968564252684e-06, 1.7241811380451588e-06,
         0.015159915278293315, 0.017990206358474797),
        (512, 0.012649110640673518, 6.77614346621278e-07, 4.368606318227833e-07,
         0.005265433514804906, 0.004741649377302066),
        (1024, 0.004, 3.3981519161791176e-07, 2.1945732721274357e-07,
         0.0023059015660088014, 6.216352118573794e-05),
    ),
    (1, 1): (
        (128, 0.04, 2.6834968564252684e-06, 1.7241811380451588e-06,
         0.01515991527829316, 0.017990206358474557),
        (516, 0.012649110640673518, 6.718855567597937e-07, 4.341546349824215e-07,
         0.005969607220297178, 0.0031791733821905192),
        (1030, 0.004, 3.380637158923872e-07, 2.178442926469552e-07,
         0.0016324841639064418, 0.0015958659652873192),
    ),
    (2, 0): (
        (128, 0.04, 1.8518996286898344e-07, 4.933015125232384e-06,
         0.06400623202976777, 0.02824051306912011),
        (512, 0.012649110640673518, 4.4412079582330224e-08, 1.2102707795053857e-06,
         0.02067582326657139, 0.009078152552843242),
        (1024, 0.004, 2.1889991515007956e-08, 6.012067898017725e-07,
         0.006149017159206482, 0.0025271154663922325),
    ),
    (2, 1): (
        (128, 0.04, 1.8518996286898344e-07, 4.933015125232384e-06,
         0.06400623202976809, 0.02824051306912047),
        (516, 0.012649110640673518, 4.4057817026724427e-08, 1.2006640523846407e-06,
         0.020444605166764062, 0.008889272698118423),
        (1030, 0.004, 2.1779396632860292e-08, 5.980845528179438e-07,
         0.006931265918645902, 0.003164384495358887),
    ),
    (3, 0): (
        (128, 0.04, 5.161738515268622e-07, 2.3640783451879715e-06,
         0.3185575023530372, 0.013763036455396362),
        (512, 0.012649110640673518, 1.0675633916898018e-07, 5.828342298387906e-07,
         0.09082915780113837, 0.0002771273732302841),
        (1024, 0.004, 5.042420034168843e-08, 2.917265628806743e-07,
         0.030462236147982158, 0.0007844513362559392),
    ),
    (3, 1): (
        (128, 0.04, 5.161738515268622e-07, 2.3640783451879715e-06,
         0.31855750235303737, 0.013763036455396362),
        (516, 0.012649110640673518, 1.0641566821636625e-07, 5.797847668147102e-07,
         0.09584311256403323, 0.0022616653283046976),
        (1030, 0.004, 5.016947111620983e-08, 2.901436187830723e-07,
         0.03126398668319939, 0.0011862249679839723),
    ),
}
# Rungs 0: those of (L, eta) = (1024, 4e-3); rungs 1: those of (1030,
# 4e-3), whose last mode sits at pi/2 and whose middle chain, 516, is not
# a multiple of 8.
_ANCHOR_L = (1024, 1030)


@pytest.mark.parametrize("point, rungs", [
    pytest.param(point, rungs, id=f"{point}-{rungs}-lorentzian") for point, rungs in _ANCHORS])
def test_convergence_rows_match_frozen_anchors(point, rungs):
    quench, epsilon0 = _ANCHOR_POINTS[point]
    rep = discrete_rates(quench, QubitCoupling(epsilon0, 0.1, 512), L=_ANCHOR_L[rungs],
                         eta=4e-3)
    fields = ("L", "eta", "gamma_up", "gamma_down", "rel_err_up", "rel_err_down")
    got = [tuple(repr(getattr(row, f)) for f in fields) for row in rep.convergence_table]
    assert got == [tuple(map(repr, row)) for row in _ANCHORS[point, rungs]]


def _pauli_chain_hamiltonian(h, kappa):
    # two sites, periodic: the (0,1) bond appears twice
    I2 = np.eye(2)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Y = np.array([[0.0, -1j], [1j, 0.0]])
    Z = np.diag([1.0, -1.0])
    xx = np.kron(X, X).real
    yy = np.kron(Y, Y).real
    zz = np.kron(Z, I2) + np.kron(I2, Z)
    jx, jy = (1.0 + kappa) / 2.0, (1.0 - kappa) / 2.0
    return -2.0 * (jx * xx + jy * yy) - h * zz, zz


class TestDense:
    def test_two_spins_against_explicit_lehmann_sum(self):
        # Quenches whose two-spin ground state is not a final eigenstate.
        for h_i, h_f, kappa in ((0.5, 1.5, 1.0), (1.5, 0.5, 0.6)):
            h_ini, _ = _pauli_chain_hamiltonian(h_i, kappa)
            h_fin, mag = _pauli_chain_hamiltonian(h_f, kappa)
            w_i, v_i = np.linalg.eigh(h_ini)
            psi0 = v_i[:, 0]
            w_f, v_f = np.linalg.eigh(h_fin)
            coeff = v_f.T @ psi0
            op = v_f.T @ mag @ v_f
            eta = 0.1
            grid = np.linspace(-8.0, 8.0, 81)
            expected = np.zeros(len(grid), dtype=complex)
            for m in range(4):
                for n in range(4):
                    w = (coeff[m] * op[m, n]) ** 2
                    expected += w / (math.pi * (w_f[m] - w_f[n] - grid - 1j * eta))
            omega, weight = dense_ed_correlator(QuenchSpec.ising(h_i, h_f, kappa), L=2)
            assert len(omega) >= 1
            # The lines broadened as the Lehmann sum is.
            got = (weight / (math.pi * (omega - grid[:, None] - 1j * eta))).sum(axis=1)
            assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    @staticmethod
    def _assert_lines_at_pair_energies(quench, L):
        # The coupling operator is a fermion bilinear: it moves exactly one
        # (k, -k) pair or none, so every line sits at 0 or +-2 eps_k.
        omega, weight = dense_ed_correlator(quench, L)
        # 2 eps_k at the antiperiodic modes k = (2n+1) pi/L: all L/2 of
        # them on the chain, the L/4 with k < pi/2 on the ring.
        count = L // 2 if quench.kind is ModelKind.ISING_XY else L // 4
        pairs = 2.0 * dispersion(quench.final, (2 * np.arange(count) + 1) * math.pi / L)
        targets = np.concatenate(([0.0], pairs, -pairs))
        heavy = omega[weight > 1e-12 * weight.sum()]
        offset = np.abs(heavy[:, None] - targets).min(axis=1)
        assert offset.max() <= 1e-12, (L, offset.max())
        # And each pair energy is an emission line.
        found = np.abs(heavy[:, None] - pairs).min(axis=0)
        assert found.max() <= 1e-12, (L, found.max())

    def test_chain_peaks_sit_at_pair_energies(self):
        for L in (2, 4, 6, 8):
            self._assert_lines_at_pair_energies(QuenchSpec.ising(0.5, 1.5, 1.0), L)
        for h_i, h_f, kappa in ((1.5, 0.5, 0.6), (0.2, 2.0, 1.2)):
            self._assert_lines_at_pair_energies(QuenchSpec.ising(h_i, h_f, kappa), 8)

    @pytest.mark.parametrize("L", [4, 8])
    def test_ring_peaks_sit_at_pair_energies(self, L):
        for V_i, V_f in ((-1.0, 1.0), (0.7, 1.3)):
            self._assert_lines_at_pair_energies(QuenchSpec.xx_ring(V_i, V_f, 1.0), L)

    @pytest.mark.parametrize("L", [4, 8])
    def test_ring_line_weights(self, L):
        # The current moves one pair at a time, and its matrix element at
        # mode k is m = sin(2 theta_f) t sin k, odd in k.  In the diagonal
        # ensemble the degenerate +-k pair interferes: the emission lines at
        # 2 eps_k carry 8 m^2 n_k^2 in all, the absorption lines at -2 eps_k
        # 8 m^2 (1 - n_k)^2, and their difference is the generalized Gibbs
        # ensemble's 8 m^2 (1 - 2 n_k).  Lines of several level groups can
        # share a frequency, so the weights at one frequency add up.
        for V_i, V_f, t in ((-1.0, 1.0, 1.0), (0.7, 1.3, 1.0), (-0.5, 1.5, 0.8)):
            quench = QuenchSpec.xx_ring(V_i, V_f, t)
            omega, weight = dense_ed_correlator(quench, L)
            for k in (2 * np.arange(L // 4) + 1) * math.pi / L:
                st = mode_state(quench, k)
                m2 = math.sin(2.0 * st.theta_f) ** 2 * (t * math.sin(k)) ** 2
                emission = weight[np.abs(omega - 2.0 * st.eps_f) <= 1e-9].sum()
                absorption = weight[np.abs(omega + 2.0 * st.eps_f) <= 1e-9].sum()
                where = (V_i, V_f, t, L, k)
                assert abs(emission - 8.0 * m2 * st.n_k**2) <= 1e-12, where
                assert abs(absorption - 8.0 * m2 * (1.0 - st.n_k) ** 2) <= 1e-12, where
                assert abs(absorption - emission - 8.0 * m2 * (1.0 - 2.0 * st.n_k)) <= 1e-12, where

    def test_no_line_gives_empty_arrays(self):
        # At L = 2 the initial ground state is a final eigenstate with zero
        # magnetization, so no line survives.
        omega, weight = dense_ed_correlator(QuenchSpec.ising(0.3, 1.7, 0.8), 2)
        for a in (omega, weight):
            assert a.dtype == np.float64 and a.shape == (0,)

    def test_size_and_input_guards(self):
        with pytest.raises(TooLarge):
            dense_ed_correlator(ISING, L=12)
        with pytest.raises(ValueError):
            dense_ed_correlator(ISING, L=1)
        with pytest.raises(ValueError):
            dense_ed_correlator(RING, L=5)  # ring needs even sites
        with pytest.raises(ValueError, match="L % 4 == 0"):
            # half filling at L = 2 mod 4 is odd: periodic fermions
            dense_ed_correlator(RING, L=6)
