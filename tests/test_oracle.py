"""Mode-sum and dense-diagonalization checks of the closed-form rates.

The dense cross-check rebuilds the two-spin problem with explicit Pauli
matrices and the textbook Lehmann sum, so it shares no code with the
module under test, and pins every line of larger chains to a pair
energy.  The differential test rebuilds the rung-by-rung
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
    TooLarge,
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
# points drawn as _draw_*_point draws them: rungs 0 recorded before the
# mode sums shared one cos and one sin per momentum, rungs 1 before the
# rungs came to follow from (L, eta) alone, each through this same call.
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
        (128, 0.04, 1.3461853685061242e-06, 1.0144510203799093e-05,
         0.002110187899848602, 0.014365539435117841),
        (512, 0.012649110640673518, 3.3736322307672545e-07, 2.561356026318172e-06,
         0.00031193671082748315, 0.004560805954227377),
        (1024, 0.004, 1.6860433966125899e-07, 1.284693542723201e-06,
         0.00014629925415998802, 0.0014396346122523597),
    ),
    (0, 1): (
        (128, 0.04, 1.3461853685061242e-06, 1.0144510203799093e-05,
         0.0021101878998487584, 0.014365539435117841),
        (516, 0.012649110640673518, 3.359101575309088e-07, 2.5414248511120895e-06,
         0.0037847453342483408, 0.004590456497096366),
        (1030, 0.004, 1.6756924740395439e-07, 1.2772128339481345e-06,
         0.0004620290227793496, 0.001437333742682043),
    ),
    (1, 0): (
        (128, 0.04, 2.6834968564252692e-06, 1.7241811380451584e-06,
         0.015159915278292697, 0.017990206358474564),
        (512, 0.012649110640673518, 6.77614346621278e-07, 4.368606318227833e-07,
         0.005265433514804597, 0.0047416493773015855),
        (1024, 0.004, 3.3981519161791176e-07, 2.1945732721274355e-07,
         0.0023059015660084913, 6.216352118537614e-05),
    ),
    (1, 1): (
        (128, 0.04, 2.6834968564252692e-06, 1.7241811380451584e-06,
         0.015159915278292697, 0.017990206358474682),
        (516, 0.012649110640673518, 6.71885556759794e-07, 4.341546349824216e-07,
         0.005969607220296553, 0.003179173382190155),
        (1030, 0.004, 3.380637158923873e-07, 2.178442926469552e-07,
         0.001632484163905973, 0.001595865965287198),
    ),
    (2, 0): (
        (128, 0.04, 1.851899628689835e-07, 4.933015125232384e-06,
         0.06400623202976936, 0.028240513069121016),
        (512, 0.012649110640673518, 4.441207958233024e-08, 1.2102707795053859e-06,
         0.020675823266572937, 0.00907815255284431),
        (1024, 0.004, 2.1889991515007963e-08, 6.012067898017725e-07,
         0.00614901715920801, 0.0025271154663931176),
    ),
    (2, 1): (
        (128, 0.04, 1.851899628689835e-07, 4.933015125232384e-06,
         0.06400623202976968, 0.02824051306912138),
        (516, 0.012649110640673518, 4.4057817026724413e-08, 1.2006640523846402e-06,
         0.020444605166765006, 0.008889272698118964),
        (1030, 0.004, 2.1779396632860283e-08, 5.980845528179438e-07,
         0.006931265918646675, 0.0031643844953597776),
    ),
    (3, 0): (
        (128, 0.04, 5.161738515268622e-07, 2.364078345187971e-06,
         0.3185575023530381, 0.013763036455396364),
        (512, 0.012649110640673518, 1.0675633916898015e-07, 5.828342298387906e-07,
         0.09082915780113884, 0.0002771273732301025),
        (1024, 0.004, 5.042420034168844e-08, 2.917265628806743e-07,
         0.03046223614798299, 0.000784451336256121),
    ),
    (3, 1): (
        (128, 0.04, 5.161738515268622e-07, 2.364078345187971e-06,
         0.3185575023530385, 0.01376303645539655),
        (516, 0.012649110640673518, 1.0641566821636625e-07, 5.797847668147101e-07,
         0.09584311256403412, 0.0022616653283048815),
        (1030, 0.004, 5.016947111620986e-08, 2.9014361878307235e-07,
         0.03126398668320091, 0.0011862249679845207),
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
