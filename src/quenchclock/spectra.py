"""Single-mode physics of the two integrable battery chains.

Both chains reduce, after a Jordan-Wigner map and a momentum-space
Bogoliubov rotation, to independent two-level problems labelled by a
momentum ``k``.  Everything downstream (transition rates, clock bias,
battery lifetime) is assembled from the four single-mode quantities
computed here: the dispersion, the Bogoliubov angle, the angle mismatch
between the two endpoints of a quench, and the resulting quasiparticle
occupation.

Two models are supported:

``ISING_XY``
    Anisotropic XY chain in a transverse field, exchange set to one, so
    the couplings along x and y are ``(1 + kappa)/2`` and
    ``(1 - kappa)/2``.  Dispersion
    ``eps_k = 2*sqrt((h - cos k)**2 + (kappa*sin k)**2)`` and rotation
    angle ``tan(2 theta_k) = kappa*sin k / (h - cos k)``.  The quenched
    parameter is the field ``h``.

``XX_RING``
    Hard-core bosons on a ring with hopping ``t`` and staggered
    potential ``V``.  Dispersion ``eps_k = sqrt((2 t cos k)**2 + V**2)``
    on the reduced zone ``|k| < pi/2`` and angle
    ``tan(2 theta_k) = V / (2 t cos k)``.  The quenched parameter is
    ``V``.

Every mode quantity comes from one path: ``cos k`` and ``sin k`` give
the pair components ``(x, y)``, which give the energy and the angle.
The chain's band edges take the same path at their candidate ``cos k``.

Units: ``hbar = k_B = 1`` everywhere.

The grid scan evaluates whole rows of parameters at once through the
array twins :class:`ModelArrays` and :func:`energy_roots_array`.  The
scalar functions and their twins share one formula per quantity, and
every square is an explicit product: Python's ``x ** 2`` and numpy's
float scalar ``** 2`` call libm ``pow``, which can miss the correctly
rounded ``x * x`` that numpy arrays compute, so only products give the
same bits in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .errors import DegenerateRoot, GaplessMode

# A mode below this energy counts as gapless and has no well defined
# Bogoliubov angle.
GAPLESS_TOL = 1e-10

# Group velocities below this magnitude are treated as a van Hove point.
DERIVATIVE_TOL = 1e-6


class ModelKind(Enum):
    ISING_XY = "ising_xy"
    XX_RING = "xx_ring"


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one chain Hamiltonian.

    Only the fields relevant to ``kind`` are meaningful; the others stay
    at zero.  Use :meth:`ising` or :meth:`xx_ring` instead of the raw
    constructor.
    """

    kind: ModelKind
    h: float = 0.0
    kappa: float = 0.0
    t: float = 0.0
    V: float = 0.0

    def __post_init__(self):
        for name in ("h", "kappa", "t", "V"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kind is ModelKind.XX_RING and self.t <= 0.0:
            raise ValueError(f"hopping t must be positive, got {self.t!r}")

    @classmethod
    def ising(cls, h: float, kappa: float = 1.0) -> "ModelSpec":
        return cls(ModelKind.ISING_XY, h=float(h), kappa=float(kappa))

    @classmethod
    def xx_ring(cls, t: float, V: float) -> "ModelSpec":
        return cls(ModelKind.XX_RING, t=float(t), V=float(V))


@dataclass(frozen=True)
class QuenchSpec:
    """A sudden switch between two Hamiltonians of the same chain.

    Only the quenched parameter (``h`` for the transverse-field chain,
    ``V`` for the ring) may differ between ``initial`` and ``final``.
    """

    initial: ModelSpec
    final: ModelSpec

    def __post_init__(self):
        a, b = self.initial, self.final
        if a.kind is not b.kind:
            raise ValueError("both endpoints must describe the same model")
        if a.kind is ModelKind.ISING_XY:
            if a.kappa != b.kappa:
                raise ValueError("anisotropy kappa must not change across the quench")
        elif a.t != b.t:
            raise ValueError("hopping t must not change across the quench")

    @classmethod
    def ising(cls, h_i: float, h_f: float, kappa: float = 1.0) -> "QuenchSpec":
        return cls(ModelSpec.ising(h_i, kappa), ModelSpec.ising(h_f, kappa))

    @classmethod
    def xx_ring(cls, V_i: float, V_f: float, t: float = 1.0) -> "QuenchSpec":
        return cls(ModelSpec.xx_ring(t, V_i), ModelSpec.xx_ring(t, V_f))

    @property
    def kind(self) -> ModelKind:
        return self.initial.kind


@dataclass(frozen=True)
class ModelArrays:
    """Array twin of :class:`ModelSpec`: one chain kind, parameters per row.

    Each parameter is a float or a 1-D array over grid rows.  The
    functions that take a model duck-type over both classes wherever
    they only do arithmetic (:func:`dispersion`, :func:`group_velocity`).
    """

    kind: ModelKind
    h: Any = 0.0
    kappa: Any = 0.0
    t: Any = 0.0
    V: Any = 0.0

    def valid(self) -> np.ndarray:
        """Rows the checks of :meth:`ModelSpec.__post_init__` accept."""
        ok = (np.isfinite(self.h) & np.isfinite(self.kappa) & np.isfinite(self.t)
              & np.isfinite(self.V))
        if self.kind is ModelKind.XX_RING:
            ok = ok & (self.t > 0.0)
        return ok

    def take(self, index) -> "ModelArrays":
        """The model at rows ``index`` (any numpy index) of each array."""
        def pick(value):
            return np.asarray(value)[index] if np.ndim(value) else value

        return ModelArrays(self.kind, pick(self.h), pick(self.kappa),
                           pick(self.t), pick(self.V))


@dataclass(frozen=True)
class ModeState:
    """Quench data of a single momentum mode."""

    k: float
    eps_i: float
    eps_f: float
    theta_i: float
    theta_f: float
    dtheta: float
    n_k: float


@dataclass(frozen=True)
class EnergyRoot:
    """One solution of ``eps_k == eps`` in the model's half zone."""

    k: float
    u: float  # cos(k)
    velocity: float  # d eps_k / dk at the root, signed


def dispersion(model: ModelSpec, k):
    """Quasiparticle energy ``eps_k`` (scalar in, scalar out).

    Arrays of ``k``, or a :class:`ModelArrays` model, give an array.
    """
    karr = np.asarray(k, dtype=float)
    e = _energy(model, *_components(model, np.cos(karr), np.sin(karr)))
    return e if np.ndim(e) else float(e)


def _components(model, cos_k, sin_k):
    """Pair components ``(x, y)`` of the modes with ``cos k`` and ``sin k``.

    ``eps_k`` is ``2 sqrt(x**2 + y**2)`` on the chain and
    ``sqrt(x**2 + y**2)`` on the ring (:func:`_energy`), and
    ``2 theta_k = atan2(y, x)`` (:func:`_half_angle`).  The ring ignores
    ``sin_k``.
    """
    if model.kind is ModelKind.ISING_XY:
        return model.h - cos_k, model.kappa * sin_k
    return 2.0 * model.t * cos_k, model.V


def _energy(model, x, y):
    e = np.sqrt(x * x + y * y)
    return 2.0 * e if model.kind is ModelKind.ISING_XY else e


def _half_angle(x, y):
    return 0.5 * np.arctan2(y, x)


def _velocity_parts(model, c, s):
    # eps_k and eps_k * d eps_k/dk, whose quotient is the group velocity,
    # from cos k and sin k.
    if model.kind is ModelKind.ISING_XY:
        num = 4.0 * s * (model.h - (1.0 - model.kappa * model.kappa) * c)
    else:
        num = -4.0 * (model.t * model.t) * s * c
    return _energy(model, *_components(model, c, s)), num


def group_velocity(model: ModelSpec, k):
    """Analytic ``d eps_k / dk``.

    At a gapless point the velocity is a 0/0 limit; this returns ``nan``
    there and the callers guard against it.
    """
    if isinstance(model, ModelSpec) and np.ndim(k) == 0:
        k = float(k)
        eps, num = map(float, _velocity_parts(model, np.cos(k), np.sin(k)))
        return num / eps if eps > 0.0 else math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.asarray(k, dtype=float)
        v = _velocity(model, np.cos(k), np.sin(k))
    return v if v.ndim else float(v)


def _velocity(model, c, s):
    # group_velocity of arrays, from cos k and sin k.
    eps, num = _velocity_parts(model, c, s)
    return np.where(eps > 0.0, num / eps, np.nan)


def _check_gapped(k, eps) -> None:
    """Raise :class:`GaplessMode` unless every mode at momenta ``k``, of
    energies ``eps``, is gapped."""
    low = np.asarray(eps) < GAPLESS_TOL
    if low.any():
        bad = np.asarray(k)[low][0]
        raise GaplessMode(f"mode k={bad!r} is gapless (eps < {GAPLESS_TOL})")


def _occupation(dtheta):
    # sin(dtheta)**2 of a scalar or an array.
    s = np.sin(dtheta)
    return s * s


def _mode_fields(initial, final, cos_k, sin_k):
    """Energies, angles and occupation of the modes with ``cos k`` and
    ``sin k`` in the quench ``initial`` to ``final``."""
    x_i, y_i = _components(initial, cos_k, sin_k)
    x_f, y_f = _components(final, cos_k, sin_k)
    theta_i = _half_angle(x_i, y_i)
    theta_f = _half_angle(x_f, y_f)
    dtheta = theta_f - theta_i
    return (_energy(initial, x_i, y_i), _energy(final, x_f, y_f), theta_i,
            theta_f, dtheta, _occupation(dtheta))


def mode_state(quench: QuenchSpec, k: float) -> ModeState:
    """Single-mode summary of a quench at momentum ``k``.

    The occupation ``n_k = sin(dtheta)**2`` equals
    ``(1 - cos(2 dtheta)) / 2``; both endpoint Hamiltonians must be
    gapped at ``k``.
    """
    k = float(k)
    initial, final = quench.initial, quench.final
    eps_i, eps_f, theta_i, theta_f, dtheta, n_k = map(
        float, _mode_fields(initial, final, np.cos(k), np.sin(k)))
    if not (eps_i >= GAPLESS_TOL and eps_f >= GAPLESS_TOL):
        _check_gapped(k, eps_i)
        _check_gapped(k, eps_f)
    return ModeState(k=k, eps_i=eps_i, eps_f=eps_f, theta_i=theta_i,
                     theta_f=theta_f, dtheta=dtheta, n_k=n_k)


def band_edges(model: ModelSpec, reduced: bool = False) -> tuple[float, float]:
    """Extrema of ``eps_k`` over the model's momentum domain.

    With ``reduced=True`` the transverse-field chain is restricted to
    ``cos k >= 0``, the domain the rate integrals live on; the ring's
    zone is already reduced.  The chain's candidates, the zone ends and
    the stationary ``cos k``, go through the dispersion's own
    :func:`_components` and :func:`_energy`'s formula, so they overflow to
    inf as the band does, and ``sin k`` is exactly 0 at the zone ends;
    ``math.sqrt`` gives the bits of its ``np.sqrt``.
    """
    if model.kind is ModelKind.XX_RING:
        return abs(model.V), math.hypot(2.0 * model.t, model.V)
    us = [1.0, 0.0 if reduced else -1.0]
    a = 1.0 - model.kappa * model.kappa
    if abs(a) > 1e-12:
        u_star = model.h / a
        lo_u = 0.0 if reduced else -1.0
        if lo_u < u_star < 1.0:
            us.append(u_star)
    vals = []
    for u in us:
        x, y = _components(model, u, math.sqrt(1.0 - u * u))
        vals.append(2.0 * math.sqrt(x * x + y * y))
    return min(vals), max(vals)


# sigma = (1, -1) along a first axis, and whether each of the two roots,
# along an axis before it, takes q/A where sign(b) is sigma.
_SIGMA = np.array([[1.0], [-1.0]])
_NEGATIVE = _SIGMA < 0.0
_FIRST_ROOT = np.array([[[True]], [[False]]])


def _half_angle_roots(h, kappa, eps):
    """The chain's roots ``k`` of ``eps_k = eps`` (arrays), along a last
    axis of two in ascending ``cos k``, nan where absent; the caller sets
    ``np.errstate``.

    With ``sigma = +-1``, ``g = h - sigma`` and ``e = eps/2``, the root
    equation in ``x = sin(k/2)**2`` (``sigma = +1``) or ``cos(k/2)**2``
    (``sigma = -1``) is

        4 (1 - kappa**2) x**2 + 4 sigma (g + sigma kappa**2) x + (g - e)(g + e) = 0,

    ``A x**2 + 4 b x + C = 0``.  Its stable solutions ``C/q`` and ``q/A``,
    ``q = -2 (b + sign(b) sq)``, keep every digit of a small ``x``, near
    the zone end ``cos k = sigma``, where ``arccos`` of a root in ``cos k``
    keeps none.  The discriminant over 16, ``sq**2 = (1 - kappa**2) e**2
    + kappa**2 ((h - 1)(h + 1) + kappa**2)``, is the same for both signs
    and cancels only at the band's interior extremum, where the van Hove
    guard takes over.

    Each root ``cos k = (h + s sq)/(1 - kappa**2)``, ``s = +-1``, has an
    ``x`` in both quadratics, the two summing to one, and it is ``q/A``
    in the quadratic of ``sigma`` where ``s = sigma sign(b)``.  The root
    takes the smaller of its two, so no branch tests the seam ``x = 1/2``
    and no root comes twice, and it is a root where that ``x >= 0``.  A
    ``C/q`` at most 0 is the zone end ``x = 0`` where ``e`` is within one
    rounding unit of its ``|g|``.  A double root (``sq = 0``) is one root.
    """
    h, kappa, e = (np.asarray(v, dtype=float) for v in (h, kappa, 0.5 * eps))
    kap2 = kappa * kappa
    a = 1.0 - kap2
    g = h - _SIGMA
    # (h - 1)(h + 1), with h + 1 as h - (-1).
    d = a * (e * e) + kap2 * (g[0] * g[1] + kap2)
    sq = np.sqrt(np.where(d < np.inf, d, np.nan))
    b = _SIGMA * (g + _SIGMA * kap2)
    q = -2.0 * (b + np.copysign(sq, b))
    small = (g - e) * (g + e) / q
    small[(small <= 0.0) & (np.abs(e - np.abs(g)) <= np.spacing(e))] = 0.0
    large = q / (4.0 * a)
    # Where sign(b) is sigma, and for both roots of a double root, which
    # take the well-defined q/A.
    first = (np.signbit(b) == _NEGATIVE) | (sq == 0.0)
    x = np.where(first == _FIRST_ROOT, large, small)
    x_p, x_m = x[:, 0], x[:, 1]
    half = 2.0 * np.arcsin(np.sqrt(np.minimum(x_p, x_m)))
    k = np.where(x_p <= x_m, half, math.pi - half)
    k[1, ~(sq > 0.0)] = np.nan
    # Descending k is ascending cos k; nan sorts last.
    return -np.sort(-k, axis=0).T


def _half_angle_roots_float(h: float, kappa: float, eps: float) -> list[float]:
    """Scalar twin of :func:`_half_angle_roots` in Python floats, with
    numpy's ``arcsin``: the list of the roots in ascending ``cos k``."""
    e = 0.5 * eps
    kap2 = kappa * kappa
    a = 1.0 - kap2
    d = a * (e * e) + kap2 * ((h - 1.0) * (h + 1.0) + kap2)
    if not 0.0 <= d < math.inf:
        return []
    sq = math.sqrt(d)
    xs = []
    for sigma in (1.0, -1.0):
        g = h - sigma
        b = sigma * (g + sigma * kap2)
        q = -2.0 * (b + math.copysign(sq, b))
        small = (g - e) * (g + e) / q if q else math.nan
        if small <= 0.0 and abs(e - abs(g)) <= math.ulp(e):
            small = 0.0
        large = q / (4.0 * a) if a else math.nan
        first = sigma * math.copysign(1.0, b) > 0.0 or sq == 0.0
        xs.append((large, small) if first else (small, large))
    ks = []
    for x_p, x_m in list(zip(*xs))[:2 if sq > 0.0 else 1]:
        r = math.sqrt(min(x_p, x_m)) if x_p >= 0.0 and x_m >= 0.0 else math.nan
        if r <= 1.0:
            half = 2.0 * float(np.arcsin(r))
            ks.append(half if x_p <= x_m else math.pi - half)
    return sorted(ks, reverse=True)


def _ring_root(t, V, eps):
    """The ring's root ``k`` of ``eps_k = eps`` (arrays), nan where absent:
    ``atan2(2t sin k, 2t cos k)`` with ``(2t sin k)**2 = (top - eps)(top +
    eps)``, ``top = hypot(2t, V)``, and ``(2t cos k)**2 = (eps - |V|)(eps +
    |V|)``, every energy scaled by the power of two that brings ``top``
    into [1/2, 1) so that no product overflows or underflows.  The root
    exists where both differences are nonnegative; an ``eps`` within one
    rounding unit above ``top``, as :func:`dispersion` returns, is ``top``.
    """
    v = np.abs(V)
    top = np.hypot(2.0 * t, V)
    ok = (v <= eps) & (eps - top <= np.spacing(eps)) & (top < np.inf)
    top = np.maximum(top, eps)
    scale = np.ldexp(1.0, -np.frexp(top)[1])
    top, e, v = top * scale, eps * scale, v * scale
    return np.where(ok, np.arctan2(np.sqrt((top - e) * (top + e)),
                                   np.sqrt((e - v) * (e + v))), np.nan)


def _ring_root_float(t: float, V: float, eps: float) -> list[float]:
    """Scalar twin of :func:`_ring_root` in Python floats, with numpy's
    ``hypot`` and ``arctan2``: the list of at most one root."""
    v = abs(V)
    top = float(np.hypot(2.0 * t, V))
    if not (v <= eps and eps - top <= math.ulp(eps) and top < math.inf):
        return []
    top = max(top, eps)
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    top, e, v = top * scale, eps * scale, v * scale
    return [float(np.arctan2(math.sqrt((top - e) * (top + e)),
                             math.sqrt((e - v) * (e + v))))]


def _flat_band(model, eps):
    """Where ``eps`` meets a flat band (scalars or arrays): the chain at
    ``|kappa| = 1`` and ``h = 0``, whose ``eps_k`` is 2 at every ``k``."""
    return ((model.kind is ModelKind.ISING_XY) & (model.kappa * model.kappa == 1.0)
            & (model.h == 0.0) & (eps == 2.0))


def energy_roots(model: ModelSpec, eps: float) -> tuple[EnergyRoot, ...]:
    """All momenta in the half zone with ``eps_k == eps``.

    For the transverse-field chain the half zone is ``k in [0, pi]``
    (``u = cos k in [-1, 1]``); for the ring it is ``k in [0, pi/2]``.
    Returns an empty tuple when ``eps`` lies outside the band; raises
    :class:`DegenerateRoot` on a flat band.  The roots come from closed
    forms only, :func:`_half_angle_roots` and :func:`_ring_root`, each
    solution in a form's domain is a root, and the arithmetic is in
    Python floats with numpy's transcendentals, so the bits are those
    of :func:`energy_roots_array`.
    """
    eps = float(eps)
    if eps < 0.0:
        return ()
    if _flat_band(model, eps):
        raise DegenerateRoot("flat band: the density of states is not defined")
    if model.kind is ModelKind.XX_RING:
        ks = _ring_root_float(model.t, model.V, eps)
    else:
        ks = _half_angle_roots_float(model.h, model.kappa, eps)
    return tuple(EnergyRoot(k=k, u=float(np.cos(k)), velocity=group_velocity(model, k))
                 for k in ks)


@dataclass(frozen=True)
class RootArrays:
    """Array twin of :func:`energy_roots` over grid rows.

    Row ``i`` holds at most two roots, in the ascending ``u`` order of
    the scalar twin, with the single root of a row in column 0; absent
    roots are nan.  ``degenerate`` marks the rows on which
    :func:`energy_roots` raises, a flat band, and they hold no root.
    """

    k: np.ndarray  # (n, 2)
    u: np.ndarray  # (n, 2), cos(k)
    velocity: np.ndarray  # (n, 2), d eps_k / dk
    present: np.ndarray  # (n, 2) bool
    degenerate: np.ndarray  # (n,) bool


def energy_roots_array(model: ModelArrays, eps: np.ndarray) -> RootArrays:
    """Array twin of :func:`energy_roots`: the roots of ``eps_k = eps[i]``
    of every row ``i``, from the same closed forms."""
    eps = np.asarray(eps, dtype=float)
    with np.errstate(all="ignore"):
        if model.kind is ModelKind.XX_RING:
            k = np.full((eps.shape[0], 2), np.nan)
            k[:, 0] = _ring_root(model.t, model.V, eps)
        else:
            k = _half_angle_roots(model.h, model.kappa, eps)
        degenerate = _flat_band(model, eps)
        # No energy below zero is reached, and a flat band has no roots.
        k[(eps < 0.0) | degenerate] = np.nan
        u = np.cos(k)
        velocity = _velocity(model.take((slice(None), None)), u, np.sin(k))
    return RootArrays(k=k, u=u, velocity=velocity, present=~np.isnan(k),
                      degenerate=degenerate)


def van_hove(velocity):
    """Where a root of band slope ``velocity`` (scalar or array) is a van
    Hove point: the slope is nan, infinite or below :data:`DERIVATIVE_TOL`."""
    return ~(np.isfinite(velocity) & (np.abs(velocity) >= DERIVATIVE_TOL))


def check_slope(root: EnergyRoot) -> float:
    """``|d eps_k/dk|`` at ``root``; :class:`DegenerateRoot` at a van Hove point."""
    if van_hove(root.velocity):
        raise DegenerateRoot(f"band slope {root.velocity!r} at k={root.k!r} is below "
                             f"{DERIVATIVE_TOL}; the density of states diverges")
    return abs(root.velocity)
