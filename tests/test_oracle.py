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
    ModelSpec,
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

    def test_flux_still_raises(self):
        ring = QuenchSpec(ModelSpec.xx_ring(1.0, -1.0, phi=0.3),
                          ModelSpec.xx_ring(1.0, 1.0, phi=0.3))
        with pytest.raises(ValueError, match="zero flux"):
            discrete_rates(ring, RING_COUP, L=256, eta=1e-2)
        with pytest.raises(ValueError, match="zero flux"):
            chi_spectrum(ring, RING_COUP, 256, 1e-2, np.array([1.0, 2.0]))

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

    def test_ring_smoke(self):
        spec = dense_ed_correlator(RING, QubitCoupling(2.0, 1.0, 6), L=6)
        assert np.all(np.isfinite(spec.values))
        assert spec.omega_grid[0] == -spec.omega_grid[-1]

    def test_size_and_input_guards(self):
        with pytest.raises(TooLarge):
            dense_ed_correlator(ISING, COUP, L=12)
        with pytest.raises(ValueError):
            dense_ed_correlator(RING, RING_COUP, L=5)  # ring needs even sites
        with pytest.raises(ValueError):
            dense_ed_correlator(ISING, COUP, L=4, kernel="lorentzian")
        with pytest.raises(BadBroadening):
            dense_ed_correlator(ISING, COUP, L=4, eta=0.0)
