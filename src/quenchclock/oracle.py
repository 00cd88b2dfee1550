"""Brute-force validation of the closed-form rates.

Everything in :mod:`quenchclock.rates` rests on resolving one delta
function analytically.  This module recomputes the same quantities the
slow way, twice over:

* **Mode sums** (:func:`discrete_rates`): the pre-continuum sums over
  the antiperiodic momentum grid ``k = (2n+1) pi / L`` of a finite
  chain, with the delta replaced by a normalized broadening.  These
  converge to the closed forms as ``L`` grows and ``eta`` shrinks, as
  long as ``eta`` stays well above the local level spacing
  ``~ 2 pi |d(2 eps)/dk| / L``.  A refinement table sums all its rungs
  in one pass, with the final model evaluated once on the union of their
  momentum grids, each distinct momentum once.  Each mode's occupation
  and matrix element come from the unit vectors ``(x, y)/|(x, y)|`` of
  its pair components, with no angle and no sine (:func:`_rung_modes`).
  The broadening is the Lorentzian averaged over the energy image of
  each momentum cell, which keeps the sum smooth even when ``eta`` dips
  below the level spacing, and is unit normalized; :func:`_density`
  evaluates it as the angle the cell subtends, one ``atan2``.  A cell of
  zero width takes the point Lorentzian, its limit.

* **Dense diagonalization** (:func:`dense_ed_correlator`): for tiny
  chains, the exact lines of the stationary correlator of the coupling
  operator, computed literally in the ``2**L``-dimensional many-body
  basis, with the steady state taken as the diagonal ensemble of the
  final Hamiltonian.  Each line is a frequency and its weight; nothing
  is broadened.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadBroadening, TooLarge
from .rates import QubitCoupling, transition_rates
from .spectra import (
    ModelKind,
    QuenchSpec,
    _check_gapped,
    _components,
    band_edges,
)

DENSE_MAX_SITES = 10

# Eigenvalues closer than this are merged into one degenerate level.
DEGENERACY_TOL = 1e-9

@dataclass(frozen=True)
class ConvergenceRow:
    """One refinement rung: finite-size rates and their closed-form error."""

    L: int
    eta: float
    gamma_up: float
    gamma_down: float
    rel_err_up: float
    rel_err_down: float


@dataclass(frozen=True)
class OracleReport:
    """Mode-sum rates of every refinement rung, finest last, and the
    finest rung's largest relative error against the closed form."""

    relative_error_vs_closed_form: float
    convergence_table: tuple[ConvergenceRow, ...]


def _check_settings(L: int) -> None:
    """The rule on a chain size, which holds at any point."""
    if L % 2 or L < 64:
        raise ValueError(f"lattice size must be even and >= 64, got {L!r}")


class _RungGrid(NamedTuple):
    """Quench-independent part of :func:`_rung_modes`, read-only."""

    cos: np.ndarray  # cos k on the union of the rungs' grids k = j pi/L, ascending
    sin: np.ndarray  # sin k
    mode: np.ndarray  # union index of each mode, rung after rung
    below: np.ndarray  # union index of its lower cell edge
    above: np.ndarray  # and of its upper one
    k_mode: np.ndarray  # k at the modes
    cos_mode: np.ndarray
    sin_mode: np.ndarray
    width: np.ndarray  # cell width k[above] - k[below]
    starts: np.ndarray  # index of each rung's first mode
    counts: tuple[int, ...]  # modes per rung


# Chain sizes L whose rung grids a process keeps (the rungs follow from
# L); one entry at L = 4096, rungs (512, 2048, 4096) on a union of 2049
# momenta, holds about 123 KiB.
_GRID_MEMO = 8


@functools.lru_cache(maxsize=_GRID_MEMO)
def _rung_grid(sizes: tuple[int, ...]) -> _RungGrid:
    counts = tuple((L + 2) // 4 for L in sizes)
    grids, modes, offset = [], [], 0
    for L, count in zip(sizes, counts):
        grid = np.arange(2 * count + 1) * (math.pi / L)
        grid[-1] = min(grid[-1], 0.5 * math.pi)
        grids.append(grid)
        modes.append(np.arange(offset + 1, offset + 2 * count, 2))
        offset += len(grid)
    # Each distinct double of the stacked grids once, ascending: the rungs
    # of L = 4096 nest, and their 3331 grid points are 2049 momenta.
    k, union = np.unique(np.concatenate(grids), return_inverse=True)
    stacked = np.concatenate(modes)
    mode, below, above = union[stacked], union[stacked - 1], union[stacked + 1]
    c, s = np.cos(k), np.sin(k)
    starts = np.cumsum(counts) - counts
    arrays = (c, s, mode, below, above, k[mode], c[mode], s[mode], k[above] - k[below],
              starts)
    for a in arrays:
        a.flags.writeable = False
    return _RungGrid(*arrays, counts)


def _rung_modes(quench: QuenchSpec, sizes) -> tuple[np.ndarray, ...]:
    """Mode data of chains of the given sizes, stacked rung after rung.

    A chain of size ``L`` has ``count = (L + 2) // 4`` antiperiodic
    momenta ``(2n+1) pi/L`` in ``(0, pi/2]``.  On the grid ``j pi/L``,
    ``j = 0 .. 2 count``, the odd ``j`` are those modes and the even
    ``j`` their cell edges, the last edge clipped to the reduced zone.
    The union of the rungs' grids, each distinct momentum once, its cos
    and sin, the index arrays into it, the cell widths and the rung
    starts do not depend on the quench: :func:`_rung_grid` builds them
    once per tuple of sizes and keeps the last :data:`_GRID_MEMO` of
    them, read-only.  Per quench, the final model's pair components
    ``(x, y)`` over the union give ``r = sqrt(x**2 + y**2)`` and the pair
    energies, ``2 eps_k = 4 r`` on the chain and ``2 r`` on the ring, each
    momentum once however many rungs share it.  At the modes, the unit
    vectors ``u = (x, y)/r = (cos 2 theta, sin 2 theta)`` of the initial
    and the final model give the occupation and the matrix element
    without an angle:

        n_k = sin(theta_f - theta_i)**2 = |u_f - u_i|**2 / 4,
        1 - n_k = |u_f + u_i|**2 / 4,    sin(2 theta_f)**2 = (y_f/r_f)**2,

    each a sum of squares, so neither occupation cancels.  Returns the
    pair energies ``E``, the pair energies at each cell's lower and upper
    momentum edge (either may be the larger; :func:`_density` takes them
    in either order), the rate weight (cell width times squared matrix
    element), ``n_k``, ``1 - n_k`` and each rung's mode count.
    """
    g = _rung_grid(tuple(int(L) for L in sizes))
    final, initial = quench.final, quench.initial
    ring = quench.kind is ModelKind.XX_RING
    x, y = _components(final, g.cos, g.sin)
    E = x * x
    E += y * y
    np.sqrt(E, out=E)
    r_f = E[g.mode]
    scale = 2.0 if ring else 4.0
    E *= scale
    E_mode = r_f * scale
    _check_gapped(g.k_mode, r_f if ring else 2.0 * r_f)
    x_i, y_i = _components(initial, g.cos_mode, g.sin_mode)
    r_i = x_i * x_i
    r_i += y_i * y_i
    np.sqrt(r_i, out=r_i)
    _check_gapped(g.k_mode, r_i if ring else 2.0 * r_i)
    ux_f, uy_f = _unit_vector(*_components(final, g.cos_mode, g.sin_mode), r_f)
    ux_i, uy_i = _unit_vector(x_i, y_i, r_i)
    weight = uy_f * uy_f
    weight *= g.width
    if ring:
        ts = final.t * g.sin_mode
        ts *= ts
        weight *= ts
    n_k = _quarter_square(ux_f - ux_i, uy_f - uy_i)
    m_k = _quarter_square(np.add(ux_f, ux_i, out=ux_f), np.add(uy_f, uy_i, out=uy_i))
    return E_mode, E[g.below], E[g.above], weight, n_k, m_k, g.counts


def _unit_vector(x, y, r):
    """``(x, y)/r``, written over ``x`` and ``r``.  Where ``r``, the norm of
    finite components, overflowed, they are first scaled by the larger of
    them, so that the unit vector stays finite as their angle does."""
    big = np.isinf(r) if r.max() == math.inf else None
    if big is not None:
        xb, yb = x[big], np.broadcast_to(y, x.shape)[big]
        m = np.maximum(np.abs(xb), np.abs(yb))
        xb /= m
        yb /= m
        rb = np.sqrt(xb * xb + yb * yb)
        xb /= rb
        yb /= rb
    x /= r
    y = np.divide(y, r, out=r)
    if big is not None:
        x[big] = xb
        y[big] = yb
    return x, y


def _quarter_square(a, b):
    """``(a**2 + b**2) / 4``, written over ``a`` and ``b``."""
    a *= a
    b *= b
    a += b
    a *= 0.25
    return a


def _density(eta, omega, E, e_a, e_b):
    """Broadened density of the modes at energies ``E`` seen at
    frequencies ``omega``; each mode's cell spans the energies ``e_a`` and
    ``e_b`` at its two ends, in either order.  The arguments broadcast.
    """
    shape = np.broadcast(eta, omega, E, e_a, e_b).shape
    val, buf, width = np.empty(shape), np.empty(shape), np.empty(shape)
    np.subtract(e_b, e_a, out=width)
    np.abs(width, out=width)
    # |Im[log(b - i eta) - log(a - i eta)]| with a = e_a - omega and b =
    # e_b - omega, the angle the cell subtends, as one atan2 of (eta width,
    # a b + eta**2): the difference of the two angles cancels in narrow
    # cells.  Neither term depends on the order of the ends.
    np.subtract(e_a, omega, out=val)
    np.subtract(e_b, omega, out=buf)
    val *= buf
    np.multiply(eta, eta, out=buf)
    val += buf
    np.multiply(eta, width, out=buf)
    np.arctan2(buf, val, out=val)
    # Cells an extremum fold has collapsed take the point form, their limit.
    np.abs(E, out=buf)
    np.maximum(buf, 1.0, out=buf)
    buf *= 1e-12
    narrow = width < buf
    some_narrow = narrow.any()
    if some_narrow:
        width[narrow] = 1.0
    width *= np.pi
    val /= width
    if some_narrow:
        np.subtract(E, omega, out=buf)
        buf *= buf
        np.multiply(eta, eta, out=width)
        buf += width
        buf *= np.pi
        np.divide(eta, buf, out=buf)
        val[narrow] = buf[narrow]
    return val[()]


def _rel(value: float, ref: float) -> float:
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / abs(ref)


def discrete_rates(quench: QuenchSpec, coupling: QubitCoupling, L: int,
                   eta: float) -> OracleReport:
    """Finite-chain mode-sum rates with a refinement table.

    Each rung evaluates the discrete sums for a chain of the given size
    and compares them against the closed forms at that same size, so the
    reported errors are pure quadrature errors.  The rungs follow from
    ``(L, eta)``: chains of ``max(64, L//8)`` and ``max(64, L//2)`` sites,
    each rounded up to even, with widths ``max(eta, min(f eta, 0.999
    cap))`` for ``f = 10`` and ``sqrt(10)``, where ``cap`` is a tenth of
    the pair band's width, then ``(L, eta)`` itself: a monotone refinement
    path.  All rungs' modes are summed in one pass, and the closed forms
    are evaluated once: they depend on the chain size only through the
    ``1/L`` of their prefactor.

    Raises :class:`BadBroadening` for ``eta`` outside
    ``(0, bandwidth/10)`` and :class:`ValueError` for an odd ``L`` or one
    below 64; domain failures of the closed forms (no resonance,
    degenerate root, gapless mode) propagate unchanged.
    """
    _check_settings(L)
    band_lo, band_hi = band_edges(quench.final)
    cap = (2.0 * band_hi - 2.0 * band_lo) / 10.0
    if not (math.isfinite(eta) and 0.0 < eta < cap):
        raise BadBroadening(f"eta={eta!r} outside (0, bandwidth/10) = (0, {cap:.6g})")
    rungs = []
    for div, factor in ((8, 10.0), (2, math.sqrt(10.0))):
        L_r = max(64, L // div)
        rungs.append((L_r + L_r % 2, max(eta, min(eta * factor, 0.999 * cap))))
    rungs.append((L, eta))
    sizes = [L_r for L_r, _ in rungs]
    # At the ends of the double range the mode grid overflows to inf and
    # nan; the closed forms below then raise their domain error, or the
    # table carries the non-finite rates, without numpy's warnings.
    with np.errstate(all="ignore"):
        E, e_a, e_b, weight, n_k, m_k, counts = _rung_modes(quench, sizes)
        eta_k = np.array([eta_r for _, eta_r in rungs]).repeat(counts)
        base = _density(eta_k, coupling.epsilon0, E, e_a, e_b)
        base *= weight
        n_k *= base
        m_k *= base
        starts = _rung_grid(tuple(sizes)).starts
        ups = np.add.reduceat(n_k, starts)
        downs = np.add.reduceat(m_k, starts)
    L_ref = sizes[-1]
    closed = transition_rates(
        quench, QubitCoupling(coupling.epsilon0, coupling.g_obs, L_ref))
    rows = []
    for (L_r, eta_r), up, down in zip(rungs, ups.tolist(), downs.tolist()):
        pref = 4.0 * (coupling.g_obs * coupling.g_obs) / (math.pi * L_r)
        up, down = pref * up, pref * down
        scale = L_ref / L_r
        rows.append(ConvergenceRow(
            L=L_r, eta=eta_r, gamma_up=up, gamma_down=down,
            rel_err_up=_rel(up, closed.gamma_up * scale),
            rel_err_down=_rel(down, closed.gamma_down * scale)))
    last = rows[-1]
    return OracleReport(
        relative_error_vs_closed_form=max(last.rel_err_up, last.rel_err_down),
        convergence_table=tuple(rows))


# --- dense many-body cross-check ---------------------------------------


def _bits(L: int) -> np.ndarray:
    """Row ``s``: the ``L`` bits of basis state ``s``, lowest first."""
    return (np.arange(1 << L)[:, None] >> np.arange(L)) & 1


def _add_bond_flips(mat: np.ndarray, bits: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Add to ``mat``, for each bond ``(j, j+1)`` of the ring, the operator
    flipping both spins, with amplitude ``amp[b_j, b_{j+1}]`` set by the
    two bits of the state it acts on."""
    L = bits.shape[1]
    s = np.arange(len(mat))
    for j in range(L):
        l = (j + 1) % L
        np.add.at(mat, (s ^ ((1 << j) | (1 << l)), s), amp[bits[:, j], bits[:, l]])
    return mat


def _dense_ising(L: int, h: float, kappa: float) -> np.ndarray:
    """Transverse-field chain on ``L`` spins, periodic, real symmetric."""
    bits = _bits(L)
    jx = (1.0 + kappa) / 2.0
    jy = (1.0 - kappa) / 2.0
    # -jx XX - jy YY on a bond: YY flips both spins with -(-1)**(b_j + b_l).
    amp = -jx + jy * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return _add_bond_flips(np.diag(-h * (L - 2.0 * bits.sum(axis=1))), bits, amp)


def _dense_xx(L: int, t: float, V: float) -> np.ndarray:
    """Hard-core bosons on an ``L``-site ring with staggered potential."""
    bits = _bits(L)
    stag = ((-1.0) ** np.arange(L) * bits).sum(axis=1)
    # A hop moves a particle across the bond: the two bits differ.
    return _add_bond_flips(np.diag(V * stag), bits, np.array([[0.0, t], [t, 0.0]]))


def _dense_xx_current(L: int, t: float) -> np.ndarray:
    """Ĵ = -i t Σ_j (b†_j b_{j+1} - b†_{j+1} b_j), complex Hermitian."""
    dim = 1 << L
    # b†_j b_l moves a particle from l to j, amplitude -i t; its partner +i t.
    amp = np.array([[0.0, -1j * t], [1j * t, 0.0]])
    return _add_bond_flips(np.zeros((dim, dim), dtype=complex), _bits(L), amp)


def _group_starts(energies: np.ndarray) -> np.ndarray:
    gaps = np.diff(energies) > DEGENERACY_TOL
    return np.concatenate(([0], np.flatnonzero(gaps) + 1))


def dense_ed_correlator(quench: QuenchSpec, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact lines ``(omega, weight)`` of the stationary correlator of the
    coupling operator, by full diagonalization.

    The chain starts in the ground state of the initial Hamiltonian; the
    steady state is its diagonal ensemble in the final eigenbasis, with
    levels grouped to tolerance ``1e-9``.  Each pair of level groups
    gives one line, at their energy difference, with weight
    ``sum_n |sum_m <psi0|m><m|O|n>|**2`` over the levels ``m`` of the
    first group and ``n`` of the second; lines lighter than ``1e-15`` of
    the total weight are dropped, and a state with no line gives two
    empty arrays.  The coupling operator ``O`` is the total transverse
    magnetization (chain) or the total current (ring), which needs
    ``L % 4 == 0``.  Positive frequencies are emissions, the processes
    feeding the upward probe rate.  No continuum normalization is
    attempted: the lines carry the weights of a chain of ``L`` sites.
    """
    if L > DENSE_MAX_SITES:
        raise TooLarge(f"dense diagonalization limited to {DENSE_MAX_SITES} "
                       f"sites, got L={L!r}")
    if L < 2:
        raise ValueError(f"need at least 2 sites, got {L!r}")
    if quench.kind is ModelKind.ISING_XY:
        h_i = _dense_ising(L, quench.initial.h, quench.initial.kappa)
        h_f = _dense_ising(L, quench.final.h, quench.final.kappa)
        op = np.diag(L - 2.0 * _bits(L).sum(axis=1))
    else:
        if L % 4:
            # At L = 2 mod 4 half filling is odd, so the fermions are periodic.
            raise ValueError(f"the staggered ring needs L % 4 == 0, got L={L!r}: only "
                             "then do its lines sit at the pair energies 2 eps_k")
        h_i = _dense_xx(L, quench.initial.t, quench.initial.V)
        h_f = _dense_xx(L, quench.final.t, quench.final.V)
        op = _dense_xx_current(L, quench.final.t)
    w_i, v_i = np.linalg.eigh(h_i)
    psi0 = v_i[:, 0]
    w_f, v_f = np.linalg.eigh(h_f)
    coeff = v_f.conj().T @ psi0.astype(complex)
    op_eig = v_f.conj().T @ (op @ v_f)
    starts = _group_starts(w_f)
    counts = np.diff(np.concatenate((starts, [len(w_f)])))
    e_group = np.add.reduceat(w_f, starts) / counts
    rows = np.add.reduceat(coeff.conj()[:, None] * op_eig, starts, axis=0)
    weight = np.add.reduceat(np.abs(rows) ** 2, starts, axis=1)
    delta_e = e_group[:, None] - e_group[None, :]
    keep = weight > weight.sum() * 1e-15
    return delta_e[keep], weight[keep]
