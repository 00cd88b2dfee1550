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

# Residual tolerance on eps_k - eps, i.e. half the tolerance on the pair
# energy 2 eps_k used by the resonance solvers.
_ROOT_RESIDUAL_TOL = 5e-13

# Polishing of a root that misses the residual bound (:func:`_polish_roots`):
# the half-widths of the brackets tried around it (1e-9, growing 4x, up to
# 1e-3), the step tolerances of the solve inside a bracket, and its most
# Newton or bisection steps.
_BRACKET_DELTAS = tuple(1e-9 * 4.0**i for i in range(10))
_POLISH_XTOL = 1e-15
_POLISH_RTOL = 8.9e-16
_POLISH_STEPS = 100


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


def _velocity_parts(model, k):
    # eps_k and eps_k * d eps_k/dk, whose quotient is the group velocity,
    # from one cos and one sin of k.
    c, s = np.cos(k), np.sin(k)
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
        eps, num = map(float, _velocity_parts(model, float(k)))
        return num / eps if eps > 0.0 else math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        eps, num = _velocity_parts(model, np.asarray(k, dtype=float))
        v = np.where(eps > 0.0, num / np.where(eps > 0.0, eps, 1.0), np.nan)
    return v if v.ndim else float(v)


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


def mode_state_array(initial: ModelArrays, final: ModelArrays,
                     k: np.ndarray) -> tuple[ModeState, np.ndarray]:
    """Array twin of :func:`mode_state`: mode data at momenta ``k``.

    ``k`` broadcasts against the models' parameters.  Returns the
    :class:`ModeState` with array fields and the mask of modes on which
    :func:`mode_state` raises :class:`GaplessMode`.
    """
    eps_i, eps_f, theta_i, theta_f, dtheta, n_k = _mode_fields(
        initial, final, np.cos(k), np.sin(k))
    state = ModeState(k=k, eps_i=eps_i, eps_f=eps_f, theta_i=theta_i,
                      theta_f=theta_f, dtheta=dtheta, n_k=n_k)
    return state, (eps_i < GAPLESS_TOL) | (eps_f < GAPLESS_TOL)


def _domain_max(model: ModelSpec) -> float:
    # Half zone carrying one representative of each +-k pair.
    return math.pi if model.kind is ModelKind.ISING_XY else 0.5 * math.pi


def band_edges(model: ModelSpec, reduced: bool = False) -> tuple[float, float]:
    """Extrema of ``eps_k`` over the model's momentum domain.

    With ``reduced=True`` the transverse-field chain is restricted to
    ``cos k >= 0``, the domain the rate integrals live on; the ring's
    zone is already reduced.  The chain's candidates, the zone ends and
    the stationary ``cos k``, go through the dispersion's own
    :func:`_components` and :func:`_energy`, so they overflow to inf as
    the band does, and ``sin k`` is exactly 0 at the zone ends.
    """
    if model.kind is ModelKind.XX_RING:
        lo = abs(model.V)
        hi = math.hypot(2.0 * model.t, model.V)
        return lo, hi
    us = [1.0, 0.0 if reduced else -1.0]
    a = 1.0 - model.kappa * model.kappa
    if abs(a) > 1e-12:
        u_star = model.h / a
        lo_u = 0.0 if reduced else -1.0
        if lo_u < u_star < 1.0:
            us.append(u_star)
    vals = [float(_energy(model, *_components(model, u, math.sqrt(1.0 - u * u))))
            for u in us]
    return min(vals), max(vals)


def _ring_cos2(model, eps):
    """``cos**2 k`` at the ring's energy ``eps`` (scalars or arrays), by
    numpy's division: where ``t*t`` underflows to 0 it is inf or nan,
    which no root's range admits."""
    with np.errstate(all="ignore"):
        return np.divide(eps * eps - model.V * model.V, 4.0 * (model.t * model.t))


def energy_roots(model: ModelSpec, eps: float) -> tuple[EnergyRoot, ...]:
    """All momenta in the half zone with ``eps_k == eps``.

    For the transverse-field chain the half zone is ``k in [0, pi]``
    (``u = cos k in [-1, 1]``); for the ring it is ``k in [0, pi/2]``.
    Returns an empty tuple when ``eps`` lies outside the band; raises
    :class:`DegenerateRoot` on a flat band or a root that does not polish.
    """
    eps = float(eps)
    if eps < 0.0:
        return ()
    us: list[float] = []
    if model.kind is ModelKind.XX_RING:
        c2 = _ring_cos2(model, eps)
        if -1e-14 <= c2 <= 1.0 + 1e-12:
            us.append(math.sqrt(min(max(c2, 0.0), 1.0)))
    else:
        h, kap = model.h, model.kappa
        a = 1.0 - kap * kap
        b = -2.0 * h
        c = h * h + kap * kap - eps * eps / 4.0
        if abs(a) < 1e-12:
            if abs(b) < 1e-12:
                # Flat band (|kappa| = 1, h = 0): eps_k identically 2.
                if abs(c) < 1e-12:
                    raise DegenerateRoot(
                        "flat band: the density of states is not defined")
            else:
                us.append(-c / b)
        else:
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                if disc == 0.0:
                    us.append(-b / (2.0 * a))
                else:
                    sq = math.sqrt(disc)
                    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else sq / 2.0
                    u1 = q / a
                    us.append(u1)
                    if q != 0.0:
                        u2 = c / q
                        if abs(u2 - u1) > 1e-12:
                            us.append(u2)
        us = [min(1.0, max(-1.0, u)) for u in us if -1.0 - 1e-12 <= u <= 1.0 + 1e-12]
    roots = []
    for u in sorted(set(us)):
        k = float(np.arccos(u))  # in the half zone: u is clipped to it
        if not abs(dispersion(model, k) - eps) <= _ROOT_RESIDUAL_TOL * max(1.0, eps):
            polished, unpolished = _polish_roots(model, np.array([eps]), np.array([k]),
                                                 _domain_max(model))
            k1 = float(polished[0])
            if unpolished[0]:
                raise DegenerateRoot(
                    f"root of eps_k={eps!r} near k={k!r} did not polish: "
                    f"residual {dispersion(model, k1) - eps!r} at k={k1!r}")
            k = k1
        roots.append(EnergyRoot(k=k, u=float(np.cos(k)), velocity=group_velocity(model, k)))
    return tuple(roots)


@dataclass(frozen=True)
class RootArrays:
    """Array twin of :func:`energy_roots` over grid rows.

    Row ``i`` holds at most two roots, in the ascending ``u`` order of
    the scalar twin, with the single root of a row in column 0; absent
    roots are nan.  ``degenerate`` marks the rows on which
    :func:`energy_roots` raises (a flat band, or a root that cannot be
    polished to the residual bound).
    """

    k: np.ndarray  # (n, 2)
    u: np.ndarray  # (n, 2), cos(k)
    velocity: np.ndarray  # (n, 2), d eps_k / dk
    present: np.ndarray  # (n, 2) bool
    degenerate: np.ndarray  # (n,) bool


def _band_u(u: np.ndarray) -> np.ndarray:
    # A quadratic root inside [-1, 1] up to rounding, clipped; nan otherwise.
    inside = (u >= -1.0 - 1e-12) & (u <= 1.0 + 1e-12)
    return np.where(inside, np.clip(u, -1.0, 1.0), np.nan)


def energy_roots_array(model: ModelArrays, eps: np.ndarray) -> RootArrays:
    """Array twin of :func:`energy_roots`: the roots of ``eps_k = eps[i]``
    of every row ``i``, from the same masked quadratic in ``u = cos k``."""
    eps = np.asarray(eps, dtype=float)
    n = eps.shape[0]
    degenerate = np.zeros(n, dtype=bool)
    u = np.full((n, 2), np.nan)
    with np.errstate(all="ignore"):
        if model.kind is ModelKind.XX_RING:
            c2 = _ring_cos2(model, eps)
            hit = (c2 >= -1e-14) & (c2 <= 1.0 + 1e-12)
            u[:, 0] = np.where(hit, np.sqrt(np.clip(c2, 0.0, 1.0)), np.nan)
        else:
            h = np.broadcast_to(model.h, (n,))
            kap = np.broadcast_to(model.kappa, (n,))
            a = 1.0 - kap * kap
            b = -2.0 * h
            c = h * h + kap * kap - eps * eps / 4.0
            linear = np.abs(a) < 1e-12
            flat = linear & (np.abs(b) < 1e-12)
            degenerate |= flat & (np.abs(c) < 1e-12)
            disc = b * b - 4.0 * a * c
            double = ~linear & (disc == 0.0)
            split = ~linear & (disc > 0.0)
            sq = np.sqrt(disc)
            q = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), sq / 2.0)
            u1 = np.where(linear & ~flat, -c / b, np.nan)
            u1 = np.where(double, -b / (2.0 * a), np.where(split, q / a, u1))
            u2 = np.where(split & (q != 0.0), c / q, np.nan)
            u2 = np.where(np.abs(u2 - u1) > 1e-12, u2, np.nan)
            u1, u2 = _band_u(u1), _band_u(u2)
            u2 = np.where(u2 == u1, np.nan, u2)
            u[:, 0] = np.fmin(u1, u2)
            u[:, 1] = np.where(np.isnan(u1) | np.isnan(u2), np.nan, np.fmax(u1, u2))
        # Both quadratics see eps only squared; no energy below zero is reached.
        u[eps < 0.0] = np.nan
        present = ~np.isnan(u)
        k0 = np.arccos(u)
        model2 = model.take((slice(None), None))
        eps2 = eps[:, None]
        residual = dispersion(model2, k0) - eps2
        rough = present & ~(np.abs(residual) <= _ROOT_RESIDUAL_TOL * np.maximum(1.0, eps2))
        k = k0
        if rough.any():
            rows, cols = np.nonzero(rough)
            polished, unpolished = _polish_roots(model.take(rows), eps[rows],
                                                 k0[rows, cols], _domain_max(model))
            k = k0.copy()
            k[rows, cols] = polished
            degenerate[rows[unpolished]] = True
        velocity = np.where(present, group_velocity(model2, k), np.nan)
    return RootArrays(k=k, u=np.cos(k), velocity=velocity, present=present,
                      degenerate=degenerate)


def _polish_roots(model, eps: np.ndarray, k0: np.ndarray,
                  k_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Polish the roots ``k0`` of ``eps_k = eps`` that miss the residual
    bound, for a :class:`ModelSpec` or a :class:`ModelArrays` of rows.

    Each root gets the first bracket of :data:`_BRACKET_DELTAS` around it
    with a sign change, and Newton steps inside it, with a bisection
    whenever a step leaves the bracket.  Returns the roots and the mask
    of those still off the bound, on which :func:`energy_roots` raises
    :class:`DegenerateRoot`.
    """

    def f(k):
        return dispersion(model, k) - eps

    tol = _ROOT_RESIDUAL_TOL * np.maximum(1.0, eps)
    k = k0.copy()
    lo, hi, f_lo = k0.copy(), k0.copy(), np.zeros_like(k0)
    searching = np.ones(k0.shape, dtype=bool)
    bracketed = np.zeros(k0.shape, dtype=bool)
    for delta in _BRACKET_DELTAS:
        a = np.maximum(0.0, k0 - delta)
        b = np.minimum(k_max, k0 + delta)
        fa, fb = f(a), f(b)
        at_a = searching & (fa == 0.0)
        at_b = searching & ~at_a & (fb == 0.0)
        k = np.where(at_a, a, np.where(at_b, b, k))
        found = searching & ~at_a & ~at_b & (fa * fb < 0.0)
        lo, hi, f_lo = (np.where(found, a, lo), np.where(found, b, hi),
                        np.where(found, fa, f_lo))
        bracketed |= found
        searching &= ~(at_a | at_b | found)
    # Roots without a sign change nearby keep k0: it sits at an extremum
    # touching eps, and the velocity guard downstream classifies it.
    x = k0
    fx = f(x)
    going = bracketed.copy()
    for _ in range(_POLISH_STEPS):
        going &= fx != 0.0
        if not going.any():
            break
        left = np.sign(fx) == np.sign(f_lo)
        lo = np.where(going & left, x, lo)
        f_lo = np.where(going & left, fx, f_lo)
        hi = np.where(going & ~left, x, hi)
        x_next = x - fx / group_velocity(model, x)
        x_next = np.where((x_next > lo) & (x_next < hi), x_next, 0.5 * (lo + hi))
        settled = np.abs(x_next - x) <= _POLISH_XTOL + _POLISH_RTOL * np.abs(x_next)
        x = np.where(going, x_next, x)
        fx = f(x)
        going &= ~settled
    k = np.where(bracketed, x, k)
    return k, bracketed & (np.abs(f(k)) > tol)


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
