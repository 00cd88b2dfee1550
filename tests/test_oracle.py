"""Mode-sum and dense-diagonalization checks of the closed-form rates.

The dense cross-check rebuilds the two-spin problem with explicit Pauli
matrices and the textbook Lehmann sum, so it shares no code with the
module under test.  The differential test rebuilds the rung-by-rung
complex-log mode sum that the stacked real-arithmetic one replaced.
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
    SpectralFunction,
    TooLarge,
    bogoliubov_angle,
    chi_spectrum,
    dense_ed_correlator,
    discrete_rates,
    dispersion,
    kernel_density,
    transition_rates,
)
from quenchclock.oracle import _GRID_MEMO, _kernel_matrix, _rung_grid, _rung_modes
from quenchclock.spectra import _check_gapped, _components, _energy, _mode_fields

ISING = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
RING = QuenchSpec.xx_ring(V_i=-1.0, V_f=1.0, t=1.0)
COUP = QubitCoupling(epsilon0=2.5, g_obs=0.25, L=128)
RING_COUP = QubitCoupling(epsilon0=math.sqrt(6.0), g_obs=0.25, L=128)


class TestKernels:
    ETA = 0.05

    def test_point_lorentzian_mass(self):
        # integral over [-X, X] has the closed form (2/pi) atan(X/eta)
        X = 40.0
        val, _ = quad(lambda x: kernel_density("lorentzian_point", self.ETA, x),
                      -X, X, points=[0.0], limit=300)
        assert val == pytest.approx(2.0 / math.pi * math.atan(X / self.ETA), abs=1e-8)

    def test_cell_averaged_lorentzian_normalized(self):
        # averaging over the cell preserves unit mass; the far tail is the
        # point tail up to O(w/X)
        X, w = 5e4 * self.ETA, 0.02
        val, _ = quad(lambda x: kernel_density("lorentzian", self.ETA, x, w),
                      -X, X, points=[0.0], limit=500)
        tail = 1.0 - 2.0 / math.pi * math.atan(X / self.ETA)
        assert val + tail == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_normalized(self):
        val, _ = quad(lambda x: kernel_density("gaussian", self.ETA, x),
                      -12.0 * self.ETA, 12.0 * self.ETA, points=[0.0])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_cell_average_flattens_the_peak(self):
        peak_point = kernel_density("lorentzian_point", self.ETA, 0.0)
        peak_cell = kernel_density("lorentzian", self.ETA, 0.0, cell_width=0.5)
        assert 0.0 < peak_cell < peak_point

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            kernel_density("top_hat", self.ETA, 0.0)

    def test_zero_width_cells_are_the_point_kernel(self):
        # A cell collapsed to its mode takes the point form, in the density
        # and in the dispersive part, bit for bit.
        x = np.linspace(-1.0, 1.0, 41)
        assert np.array_equal(kernel_density("lorentzian", self.ETA, x),
                              kernel_density("lorentzian_point", self.ETA, x))
        assert (kernel_density("lorentzian", self.ETA, 0.3)
                == kernel_density("lorentzian_point", self.ETA, 0.3))
        E = np.array([-0.4, 0.0, 0.05, 2.5])
        omega = np.linspace(-1.0, 3.0, 17)
        cells = _kernel_matrix("lorentzian", self.ETA, omega, E, E, E)
        assert cells.shape == (17, 4)
        assert np.array_equal(cells, _kernel_matrix("lorentzian_point", self.ETA, omega,
                                                    E, E, E))

    @pytest.mark.parametrize("x", [0.0, 0.015, -0.085, 0.2, 0.45])
    def test_gaussian_dispersive_part_is_the_hilbert_transform(self, x):
        # Re K(x) = (1/pi) P int rho(y) / (x - y) dy, with quad's Cauchy
        # weight 1 / (y - x); the density is negligible beyond 14 eta.
        X = 14.0 * self.ETA
        val, _ = quad(lambda y: kernel_density("gaussian", self.ETA, y), -X, X,
                      weight="cauchy", wvar=x)
        k = _kernel_matrix("gaussian", self.ETA, np.array([0.0]), np.array([x]), None, None)
        assert k.real[0, 0] == pytest.approx(-val / math.pi, rel=1e-12, abs=1e-12)
        assert k.imag[0, 0] == kernel_density("gaussian", self.ETA, x)


class TestDiscreteRates:
    def test_chain_two_percent_at_reference_resolution(self):
        rep = discrete_rates(ISING, COUP, L=4096, eta=1e-3)
        assert rep.relative_error_vs_closed_form < 0.02
        assert rep.kernel == "lorentzian"

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
        assert rep.gamma_up_oracle == last.gamma_up
        assert rep.chi2_oracle == last.gamma_down - last.gamma_up

    def test_explicit_convergence_ladder(self):
        rungs = ((128, 0.05), (512, 0.01))
        rep = discrete_rates(ISING, COUP, L=512, eta=0.01, convergence=rungs)
        assert [(r.L, r.eta) for r in rep.convergence_table] == list(rungs)

    def test_errors_measured_against_matching_chain(self):
        rep = discrete_rates(ISING, COUP, L=1024, eta=3e-3)
        row = rep.convergence_table[-1]
        closed = transition_rates(ISING, QubitCoupling(2.5, 0.25, 1024))
        assert row.rel_err_up == pytest.approx(
            abs(row.gamma_up - closed.gamma_up) / closed.gamma_up, rel=1e-12)

    def test_cell_average_beats_point_comb(self):
        # at eta below the level spacing the point comb falls apart while
        # the cell average keeps converging; this is why it is the default
        smooth = discrete_rates(ISING, COUP, L=4096, eta=1e-3)
        comb = discrete_rates(ISING, COUP, L=4096, eta=1e-3, kernel="lorentzian_point")
        assert (smooth.relative_error_vs_closed_form
                < comb.relative_error_vs_closed_form)

    def test_broadening_window(self):
        for eta in (0.0, -1.0, 2.0, math.inf):
            with pytest.raises(BadBroadening):
                discrete_rates(ISING, COUP, L=256, eta=eta)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            discrete_rates(ISING, COUP, L=63, eta=1e-2)
        with pytest.raises(ValueError):
            discrete_rates(ISING, COUP, L=32, eta=1e-2)
        with pytest.raises(ValueError):
            discrete_rates(ISING, COUP, L=256, eta=1e-2, kernel="nope")


# The Lorentzian reference takes the difference of two complex logs.  In
# the flat cells near a band extremum the two nearly equal angles cancel,
# which costs up to 8e-12 of a ring rate in float64 (measured); in
# extended precision the reference is exact to ~1e-15.
_WIDE = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _rel(value, ref):
    return abs(value - ref) / abs(ref) if ref else (0.0 if value == 0.0 else math.inf)


def _complex_log_rates(quench, coupling, rungs, kernel):
    """(gamma_up, gamma_down, rel_err_up, rel_err_down) of each rung, from
    its own momentum grid, the complex kernel's imaginary part and the
    closed forms at that rung's chain size."""
    final, initial = quench.final, quench.initial
    w, g = coupling.epsilon0, coupling.g_obs
    rows = []
    for L, eta in rungs:
        n = np.arange((L + 2) // 4)
        k = (2 * n + 1) * (math.pi / L)
        k_lo = 2 * n * (math.pi / L)
        k_hi = np.minimum((2 * n + 2) * (math.pi / L), 0.5 * math.pi)
        E = 2.0 * dispersion(final, k)
        e_a, e_b = 2.0 * dispersion(final, k_lo), 2.0 * dispersion(final, k_hi)
        lo, hi = np.minimum(e_a, e_b), np.maximum(e_a, e_b)
        th_f = bogoliubov_angle(final, k)
        th_i = bogoliubov_angle(initial, k)
        n_k = np.sin(th_f - th_i) ** 2
        F = np.sin(2.0 * th_f) ** 2
        if quench.kind is ModelKind.XX_RING:
            F = F * (final.t * np.sin(k)) ** 2
        point = 1.0 / (np.pi * (E - w - 1j * eta))
        if kernel == "lorentzian":
            width = hi - lo
            narrow = width < 1e-12 * np.maximum(1.0, np.abs(E))
            ld = np.longdouble
            diff = (np.log(hi.astype(ld) - ld(w) - 1j * ld(eta))
                    - np.log(lo.astype(ld) - ld(w) - 1j * ld(eta)))
            dens = np.where(narrow, point.imag,
                            diff.imag.astype(float) / (np.pi * np.where(narrow, 1.0, width)))
        elif kernel == "lorentzian_point":
            dens = point.imag
        else:
            dens = np.exp(-((E - w) ** 2) / (2.0 * eta**2)) / (eta * math.sqrt(2.0 * math.pi))
        base = 4.0 * g**2 / (math.pi * L) * (k_hi - k_lo) * F * dens
        up, down = float(np.sum(base * n_k)), float(np.sum(base * (1.0 - n_k)))
        closed = transition_rates(quench, QubitCoupling(w, g, L))
        rows.append((up, down, _rel(up, closed.gamma_up), _rel(down, closed.gamma_down)))
    return rows


def _points(draw, seed, count=50):
    rng = np.random.default_rng(seed)
    return [draw(rng)[:2] for _ in range(count)]


# 94 and 1030 are 2 mod 4, so their last mode sits at k = pi/2; 252 is
# not a multiple of 8.
_CUSTOM_RUNGS = ((94, 0.02), (252, 0.01), (1030, 2e-3))


class TestAgainstComplexLogModeSum:
    @pytest.mark.parametrize("kernel", [
        pytest.param("lorentzian", marks=pytest.mark.skipif(
            not _WIDE, reason="the reference needs extended precision")),
        "lorentzian_point",
        "gaussian",
    ])
    @pytest.mark.parametrize("draw, seed", [(_draw_chain_point, 11), (_draw_ring_point, 12)],
                             ids=["chain", "ring"])
    def test_every_rung_matches(self, draw, seed, kernel):
        for quench, coup in _points(draw, seed):
            for rungs in (None, _CUSTOM_RUNGS):
                rep = discrete_rates(quench, coup, L=4096, eta=1e-3, kernel=kernel,
                                     convergence=rungs)
                table = rep.convergence_table
                expected = _complex_log_rates(quench, coup, [(r.L, r.eta) for r in table],
                                              kernel)
                for row, (up, down, err_up, err_down) in zip(table, expected, strict=True):
                    assert row.gamma_up == pytest.approx(up, rel=1e-13, abs=0.0)
                    assert row.gamma_down == pytest.approx(down, rel=1e-13, abs=0.0)
                    assert row.rel_err_up == pytest.approx(err_up, rel=0.0, abs=1e-13)
                    assert row.rel_err_down == pytest.approx(err_down, rel=0.0, abs=1e-13)

    def test_gapless_mode_still_raises(self):
        # With V = 0 the ring's band closes at k = pi/2, a mode when L = 2 mod 4.
        ring = QuenchSpec.xx_ring(V_i=-1.0, V_f=0.0, t=1.0)
        with pytest.raises(GaplessMode):
            _complex_log_rates(ring, RING_COUP, [(94, 0.02)], "lorentzian_point")
        with pytest.raises(GaplessMode):
            discrete_rates(ring, RING_COUP, L=96, eta=0.02,
                           convergence=((96, 0.02), (94, 0.02)))
        with pytest.raises(GaplessMode):
            chi_spectrum(ring, RING_COUP, 94, 0.02, np.array([1.0, 2.0]))
        # L = 96 has no mode at pi/2.
        discrete_rates(ring, RING_COUP, L=96, eta=0.02, convergence=((96, 0.02),))



def _rung_modes_unmemoized(quench, sizes):
    """The stacked mode data built from scratch on every call."""
    counts = [(L + 2) // 4 for L in sizes]
    grids, modes, offset = [], [], 0
    for L, count in zip(sizes, counts):
        grid = np.arange(2 * count + 1) * (math.pi / L)
        grid[-1] = min(grid[-1], 0.5 * math.pi)
        grids.append(grid)
        modes.append(np.arange(offset + 1, offset + 2 * count, 2))
        offset += len(grid)
    k = np.concatenate(grids)
    mode = np.concatenate(modes)
    km = k[mode]
    final, initial = quench.final, quench.initial
    c, s = np.cos(k), np.sin(k)
    eps = _energy(final, *_components(final, c, s))
    _check_gapped(km, eps[mode])
    eps_i, _, _, th_f, _, n_k = _mode_fields(initial, final, c[mode], s[mode])
    _check_gapped(km, eps_i)
    e_a = 2.0 * eps[mode - 1]
    e_b = 2.0 * eps[mode + 1]
    weight = (k[mode + 1] - k[mode - 1]) * np.sin(2.0 * th_f) ** 2
    if quench.kind is ModelKind.XX_RING:
        weight = weight * (final.t * s[mode]) ** 2
    return (2.0 * eps[mode], np.minimum(e_a, e_b), np.maximum(e_a, e_b),
            weight, n_k, counts)


class TestRungGridMemo:
    # Default rungs; L = 2 mod 4 (a mode at pi/2); L % 8 != 0 and sizes
    # that do not nest, in falling order too; one rung.
    SIZES = ((512, 2048, 4096), (94, 510, 1030), (100, 252, 700), (1030, 94, 300), (64,))

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

    def test_numpy_sizes_share_the_entry(self):
        _rung_grid.cache_clear()
        _rung_modes(ISING, [512, 2048])
        _rung_modes(ISING, np.array([512, 2048]))
        info = _rung_grid.cache_info()
        assert (info.hits, info.currsize) == (1, 1)

    def test_arrays_refuse_writes(self):
        grid = _rung_grid((94, 512))
        arrays = [a for a in grid if isinstance(a, np.ndarray)]
        assert len(arrays) == len(grid) - 1
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
        gapless = QuenchSpec.xx_ring(V_i=-1.0, V_f=0.0, t=1.0)
        rungs = ((94, 0.02), (510, 0.01))
        for _ in range(2):
            discrete_rates(RING, RING_COUP, L=510, eta=0.01, convergence=rungs)
            with pytest.raises(GaplessMode):
                discrete_rates(gapless, RING_COUP, L=510, eta=0.01, convergence=rungs)
            with pytest.raises(GaplessMode):
                chi_spectrum(gapless, RING_COUP, 94, 0.02, np.array([1.0, 2.0]))


# Every ConvergenceRow field of discrete_rates, recorded before the mode
# sums shared one cos and one sin per momentum, at two chain and two ring
# points drawn as _draw_*_point draws them.  Keys are (point, rungs,
# kernel); rows are (L, eta, gamma_up, gamma_down, rel_err_up,
# rel_err_down), and every float literal is the recorded repr.
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
    (0, 0, "lorentzian"): (
        (128, 0.04, 1.3461853685061242e-06, 1.0144510203799093e-05,
         0.002110187899848602, 0.014365539435117841),
        (512, 0.012649110640673518, 3.3736322307672545e-07, 2.561356026318172e-06,
         0.00031193671082748315, 0.004560805954227377),
        (1024, 0.004, 1.6860433966125899e-07, 1.284693542723201e-06,
         0.00014629925415998802, 0.0014396346122523597),
    ),
    (0, 0, "lorentzian_point"): (
        (128, 0.04, 1.3695772659576766e-06, 1.0385235825968154e-05,
         0.01522957577511921, 0.009023216057669899),
        (512, 0.012649110640673518, 2.816814655503866e-07, 2.1384586410734654e-06,
         0.16478942259758547, 0.1689146201083564),
        (1024, 0.004, 2.572302385646645e-07, 1.962302766671493e-06,
         0.5254210329896476, 0.5252491761850955),
    ),
    (0, 0, "gaussian"): (
        (128, 0.04, 1.5832924638689072e-06, 1.23796800303009e-05,
         0.17365071425714418, 0.20280220567592455),
        (512, 0.012649110640673518, 2.8005045132968043e-07, 2.1525697593177407e-06,
         0.16962552470450193, 0.16343050933740766),
        (1024, 0.004, 3.2550538587961793e-07, 2.487491314653368e-06,
         0.9303047913138659, 0.9334651832949216),
    ),
    (0, 1, "lorentzian"): (
        (94, 0.02, 1.9061520176453118e-06, 1.3904051891499616e-05,
         0.037655374580318035, 0.007926018466172231),
        (510, 0.008, 3.4006153309075084e-07, 2.575618674814976e-06,
         0.004373944341416866, 0.0029278915333094176),
        (1030, 0.004, 1.6756924740395439e-07, 1.2772128339481345e-06,
         0.0004620290227793496, 0.001437333742682043),
    ),
    (0, 1, "lorentzian_point"): (
        (94, 0.02, 4.906840025686009e-07, 3.5446452779538893e-06,
         0.7328854741004011, 0.747084491523318),
        (510, 0.008, 1.8465797545564795e-07, 1.394018691096779e-06,
         0.45461147140980745, 0.46034823820583987),
        (1030, 0.004, 2.0229364354038648e-07, 1.5432854937321203e-06,
         0.20666638502295628, 0.2065861197570519),
    ),
    (0, 1, "gaussian"): (
        (94, 0.02, 1.1334158924074158e-11, 8.071015629230802e-11,
         0.9999938300036854, 0.9999942412149546),
        (510, 0.008, 6.570795235838777e-08, 4.956685938200973e-07,
         0.8059311363888373, 0.8081170420243101),
        (1030, 0.004, 2.594208416758875e-07, 1.9839317757437753e-06,
         0.5474258298292046, 0.5510963803388842),
    ),
    (1, 0, "lorentzian"): (
        (128, 0.04, 2.6834968564252692e-06, 1.7241811380451584e-06,
         0.015159915278292697, 0.017990206358474564),
        (512, 0.012649110640673518, 6.77614346621278e-07, 4.368606318227833e-07,
         0.005265433514804597, 0.0047416493773015855),
        (1024, 0.004, 3.3981519161791176e-07, 2.1945732721274355e-07,
         0.0023059015660084913, 6.216352118537614e-05),
    ),
    (1, 0, "lorentzian_point"): (
        (128, 0.04, 3.2819253573268216e-06, 2.0951412333641967e-06,
         0.20446261720824074, 0.19329063798860485),
        (512, 0.012649110640673518, 8.737244378923427e-07, 5.6254201340178e-07,
         0.28262322704350623, 0.28158638162970456),
        (1024, 0.004, 2.294196357559426e-07, 1.4823882845005205e-07,
         0.32642618015752367, 0.32456293309904244),
    ),
    (1, 0, "gaussian"): (
        (128, 0.04, 3.884394316027007e-06, 2.452244617171996e-06,
         0.4255679927960035, 0.39667937279368465),
        (512, 0.012649110640673518, 9.047466290026669e-07, 5.811779409442795e-07,
         0.32816365277300524, 0.3240428566635918),
        (1024, 0.004, 1.7824804357918103e-07, 1.1545960034826413e-07,
         0.4766654772270634, 0.4739185770679172),
    ),
    (1, 1, "lorentzian"): (
        (94, 0.02, 3.638683355882148e-06, 2.432040566315389e-06,
         0.019321228967283017, 0.017235780908694223),
        (510, 0.008, 6.809381916457401e-07, 4.402990825938353e-07,
         0.004290787189439362, 0.0008264790080440225),
        (1030, 0.004, 3.380637158923873e-07, 2.178442926469552e-07,
         0.001632484163905973, 0.001595865965287198),
    ),
    (1, 1, "lorentzian_point"): (
        (94, 0.02, 1.530479849977439e-06, 1.02028305550373e-06,
         0.5875131327544884, 0.5732520069409675),
        (510, 0.008, 7.919079467460601e-07, 5.126424299014095e-07,
         0.15797593371465837, 0.16334274120432835),
        (1030, 0.004, 1.7526368049527298e-07, 1.1299091505316416e-07,
         0.4824124652050634, 0.482150322477035),
    ),
    (1, 1, "gaussian"): (
        (94, 0.02, 7.52576022339022e-08, 5.1027321318537524e-08,
         0.9797169674711308, 0.9786570924152873),
        (510, 0.008, 1.001345143085273e-06, 6.488889619493515e-07,
         0.46422773227534364, 0.47252786679512043),
        (1030, 0.004, 3.6533045332902297e-08, 2.3474131922780534e-08,
         0.8921108536636114, 0.8924154951694675),
    ),
    (2, 0, "lorentzian"): (
        (128, 0.04, 1.851899628689835e-07, 4.933015125232384e-06,
         0.06400623202976936, 0.028240513069121016),
        (512, 0.012649110640673518, 4.441207958233024e-08, 1.2102707795053859e-06,
         0.020675823266572937, 0.00907815255284431),
        (1024, 0.004, 2.1889991515007963e-08, 6.012067898017725e-07,
         0.00614901715920801, 0.0025271154663931176),
    ),
    (2, 0, "lorentzian_point"): (
        (128, 0.04, 1.9245705135163142e-07, 5.13843604595937e-06,
         0.10575918296976974, 0.07105856806413724),
        (512, 0.012649110640673518, 4.5278314818077514e-08, 1.234118215114377e-06,
         0.04058359094382962, 0.028961245390364678),
        (1024, 0.004, 2.0944384608777987e-08, 5.7521863047951e-07,
         0.03731474840095438, 0.040808779675807955),
    ),
    (2, 0, "gaussian"): (
        (128, 0.04, 1.7409624857449398e-07, 4.7931261852882965e-06,
         0.00026745827103490853, 0.0009180181190492437),
        (512, 0.012649110640673518, 4.3523865892153783e-08, 1.1995144792809208e-06,
         0.00026294803120152914, 0.00010995490434557001),
        (1024, 0.004, 2.1441505113598793e-08, 5.911144687637551e-07,
         0.014465159492150182, 0.014302078199134803),
    ),
    (2, 1, "lorentzian"): (
        (94, 0.02, 2.4763119061926656e-07, 6.6852808448005416e-06,
         0.0448404000573846, 0.02333965724403666),
        (510, 0.008, 4.429034208077048e-08, 1.2117642099440697e-06,
         0.013901972935936176, 0.006376743091887196),
        (1030, 0.004, 2.1779396632860283e-08, 5.980845528179438e-07,
         0.006931265918646675, 0.0031643844953597776),
    ),
    (2, 1, "lorentzian_point"): (
        (94, 0.02, 1.4591395699270172e-07, 3.896200679399795e-06,
         0.38433927964828507, 0.4035947388938861),
        (510, 0.008, 4.407769193367608e-08, 1.2056135380454278e-06,
         0.009033949941421199, 0.0012685767486447332),
        (1030, 0.004, 2.163981498996984e-08, 5.941625594994539e-07,
         0.0004779594867035747, 0.003413956300770905),
    ),
    (2, 1, "gaussian"): (
        (94, 0.02, 5.554291074916928e-08, 1.5164424887879574e-06,
         0.765645527357092, 0.7678727681405488),
        (510, 0.008, 4.3934167356067186e-08, 1.2104628027612982e-06,
         0.005748361129822507, 0.005295917374073304),
        (1030, 0.004, 2.1683462042793185e-08, 5.975678100553885e-07,
         0.002495902540585862, 0.0022976543099722706),
    ),
    (3, 0, "lorentzian"): (
        (128, 0.04, 5.161738515268622e-07, 2.364078345187971e-06,
         0.3185575023530381, 0.013763036455396364),
        (512, 0.012649110640673518, 1.0675633916898015e-07, 5.828342298387906e-07,
         0.09082915780113884, 0.0002771273732301025),
        (1024, 0.004, 5.042420034168844e-08, 2.917265628806743e-07,
         0.03046223614798299, 0.000784451336256121),
    ),
    (3, 0, "lorentzian_point"): (
        (128, 0.04, 4.3776730176290837e-07, 1.9036690078395615e-06,
         0.11826927752517133, 0.18366949313601574),
        (512, 0.012649110640673518, 1.0716074097652965e-07, 5.86369022488904e-07,
         0.09496130851533877, 0.005786025546406756),
        (1024, 0.004, 8.265382980433593e-08, 4.835033477418919e-07,
         0.6891026473245775, 0.6586855437879209),
    ),
    (3, 0, "gaussian"): (
        (128, 0.04, 3.2912171789412656e-07, 1.8826150034287654e-06,
         0.15926405602892743, 0.19269786204962586),
        (512, 0.012649110640673518, 1.0022033158292935e-07, 6.003339475059494e-07,
         0.02404466794346021, 0.029739757567121525),
        (1024, 0.004, 9.127560399064116e-08, 5.432142786152871e-07,
         0.865296075229825, 0.8635272647571246),
    ),
    (3, 1, "lorentzian"): (
        (94, 0.02, 5.784754370312543e-07, 3.070967402658648e-06,
         0.08519024413081154, 0.03290825173972226),
        (510, 0.008, 1.0436023858571522e-07, 5.865693846659661e-07,
         0.06218054783995894, 0.002199508278953116),
        (1030, 0.004, 5.016947111620986e-08, 2.9014361878307235e-07,
         0.03126398668320091, 0.0011862249679845207),
    ),
    (3, 1, "lorentzian_point"): (
        (94, 0.02, 2.773142597519453e-07, 1.222435731692048e-06,
         0.4797726749028594, 0.6150374283118686),
        (510, 0.008, 1.5429202065787404e-07, 8.827708573942731e-07,
         0.57038720158836, 0.5082828090445735),
        (1030, 0.004, 7.138447938802802e-08, 4.161913729908018e-07,
         0.4673513824868087, 0.436133840670266),
    ),
    (3, 1, "gaussian"): (
        (94, 0.02, 7.3320232962813036e-09, 4.655276262769235e-08,
         0.9862455004283365, 0.9853398663375638),
        (510, 0.008, 1.7314490320252086e-07, 1.027919666835067e-06,
         0.7622722085700938, 0.7562808622189288),
        (1030, 0.004, 8.217250951846147e-08, 4.885509880865822e-07,
         0.6891059019833213, 0.6858220818996726),
    ),
}
# Rungs 0: the default rungs of (L, eta) = (1024, 4e-3); rungs 1: custom
# rungs with L % 4 = 2, whose last mode sits at pi/2.
_ANCHOR_RUNGS = ((1024, None), (1030, ((94, 0.02), (510, 0.008), (1030, 0.004))))


@pytest.mark.parametrize("point, rungs, kernel", list(_ANCHORS))
def test_convergence_rows_match_frozen_anchors(point, rungs, kernel):
    quench, epsilon0 = _ANCHOR_POINTS[point]
    L, convergence = _ANCHOR_RUNGS[rungs]
    rep = discrete_rates(quench, QubitCoupling(epsilon0, 0.1, 512), L=L, eta=4e-3,
                         kernel=kernel, convergence=convergence)
    fields = ("L", "eta", "gamma_up", "gamma_down", "rel_err_up", "rel_err_down")
    got = [tuple(repr(getattr(row, f)) for f in fields) for row in rep.convergence_table]
    assert got == [tuple(map(repr, row)) for row in _ANCHORS[point, rungs, kernel]]


class TestChiSpectrum:
    def test_matches_rate_difference_at_the_gap(self):
        L, eta = 1024, 5e-3
        grid = np.array([-2.5, 1.0, 2.5])
        spec = chi_spectrum(ISING, COUP, L, eta, grid)
        rep = discrete_rates(ISING, COUP, L, eta, convergence=((L, eta),))
        assert spec.values[2].imag == pytest.approx(rep.chi2_oracle, rel=1e-12)

    def test_odd_imaginary_even_real(self):
        # mirrored pairs must be exact bitwise negatives for exact oddness
        pos = np.linspace(0.05, 6.0, 120)
        grid = np.concatenate((-pos[::-1], [0.0], pos))
        spec = chi_spectrum(ISING, COUP, 256, 0.02, grid)
        assert np.array_equal(spec.values.imag, -spec.values.imag[::-1])
        assert np.array_equal(spec.values.real, spec.values.real[::-1])
        assert spec.values.imag[120] == 0.0

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            chi_spectrum(ISING, COUP, 256, 0.02, np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            SpectralFunction(omega_grid=np.array([1.0]), values=np.array([0j]),
                             eta=0.1, L=64)


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
        quench = QuenchSpec.ising(h_i=0.3, h_f=1.7, kappa=0.8)
        h_i, _ = _pauli_chain_hamiltonian(0.3, 0.8)
        h_f, mag = _pauli_chain_hamiltonian(1.7, 0.8)
        w_i, v_i = np.linalg.eigh(h_i)
        psi0 = v_i[:, 0]
        w_f, v_f = np.linalg.eigh(h_f)
        coeff = v_f.T @ psi0
        op = v_f.T @ mag @ v_f
        eta = 0.1
        grid = np.linspace(-8.0, 8.0, 81)
        expected = np.zeros(len(grid), dtype=complex)
        for m in range(4):
            for n in range(4):
                w = (coeff[m] * op[m, n]) ** 2
                expected += w / (math.pi * (w_f[m] - w_f[n] - grid - 1j * eta))
        got = dense_ed_correlator(quench, QubitCoupling(2.0, 1.0, 2), L=2,
                                  omega_grid=grid, eta=eta)
        assert np.allclose(got.values, expected, rtol=1e-10, atol=1e-12)

    def test_chain_peaks_sit_at_pair_energies(self):
        # the coupling operator is a fermion bilinear: it moves exactly one
        # (k, -k) pair, so every emission line lands on 2 eps_k
        L, eta = 8, 0.05
        quench = QuenchSpec.ising(h_i=0.5, h_f=1.5, kappa=1.0)
        for n in range(L // 2):
            k = (2 * n + 1) * math.pi / L
            e_pair = 2.0 * dispersion(quench.final, k)
            window = np.linspace(e_pair - 3.0 * eta, e_pair + 3.0 * eta, 61)
            spec = dense_ed_correlator(quench, QubitCoupling(2.0, 1.0, L), L,
                                       omega_grid=window, eta=eta)
            peak = window[np.argmax(spec.values.imag)]
            assert abs(peak - e_pair) < 2.0 * (window[1] - window[0])

    @pytest.mark.parametrize("L", [4, 8])
    def test_ring_peaks_sit_at_pair_energies(self, L):
        # the current is a fermion bilinear too: its emission lines land on
        # 2 eps_k of the antiperiodic modes k = (2n+1) pi/L, |k| < pi/2
        eta = 0.05
        for n in range(L // 4):
            k = (2 * n + 1) * math.pi / L
            e_pair = 2.0 * dispersion(RING.final, k)
            window = np.linspace(e_pair - 3.0 * eta, e_pair + 3.0 * eta, 61)
            spec = dense_ed_correlator(RING, QubitCoupling(2.0, 1.0, L), L,
                                       omega_grid=window, eta=eta)
            peak = window[np.argmax(spec.values.imag)]
            assert abs(peak - e_pair) < 2.0 * (window[1] - window[0])

    def test_ring_smoke(self):
        spec = dense_ed_correlator(RING, QubitCoupling(2.0, 1.0, 8), L=8)
        assert np.all(np.isfinite(spec.values))
        assert spec.omega_grid[0] == -spec.omega_grid[-1]

    def test_size_and_input_guards(self):
        with pytest.raises(TooLarge):
            dense_ed_correlator(ISING, COUP, L=12)
        with pytest.raises(ValueError):
            dense_ed_correlator(RING, RING_COUP, L=5)  # ring needs even sites
        with pytest.raises(ValueError, match="L % 4 == 0"):
            # half filling at L = 2 mod 4 is odd: periodic fermions
            dense_ed_correlator(RING, RING_COUP, L=6)
        with pytest.raises(ValueError):
            dense_ed_correlator(ISING, COUP, L=4, kernel="lorentzian")
        with pytest.raises(BadBroadening):
            dense_ed_correlator(ISING, COUP, L=4, eta=0.0)
