"""The abstract's claims as gates over dense phase diagrams.

(b) Crossing a phase transition is what lets a quench invert the probe.
The ring's printed condition, eps0**2/4 - V_f**2 + V_i V_f < 0, cannot
hold at a resonant gap (eps0/2 >= |V_f|) when V_i V_f > 0, and no chain
with kappa >= 1 inverts while both fields stay on one side of h = 1.
Chains with kappa < 1 do invert without crossing, when one endpoint
lies inside the disorder circle h**2 + kappa**2 < 1.  Wherever the
printed condition is defined, its sign is the verdict.  The transitions
crossed are read off the Bogoliubov angle: 2 theta_k winds once round
the zone below h = 1 and not above it, and on the ring the sign of
sin 2 theta_k is the sign of V.

(c) The battery lifetime is extensive: ``t_star`` doubles with ``L``.

Each grid is tens of thousands of rows through :func:`run_scan`.
"""

import numpy as np
import pytest

from quenchclock import RunConfig, apply_overrides, run_scan


def _axes(*axes):
    return "scan.axes=[" + ", ".join(
        f"{{name: {name}, min: {lo}, max: {hi}, steps: {steps}}}"
        for name, lo, hi, steps in axes) + "]"


def _scan(command, *sets):
    """Column name -> array of the ``command`` table of the grid."""
    table = run_scan(apply_overrides(RunConfig(), list(sets)), command)
    return dict(zip(table.columns, table.values))


def _active(cols):
    """Rows with a verdict, and the active ones among them."""
    verdict = cols["verdict"]
    return int((verdict != "").sum()), verdict == "active"


_RING = "model.kind=xx_ring"
_RING_GAPS = ("epsilon0", 0.2, 6.0, 30)
_POSITIVE = (0.05, 2.0, 40)
_NEGATIVE = (-2.0, -0.05, 40)


def _ring_axes(initial, final):
    return _axes(("v_i", *initial), ("v_f", *final), _RING_GAPS)


@pytest.mark.parametrize("initial, final", [(_POSITIVE, _POSITIVE), (_NEGATIVE, _NEGATIVE)],
                         ids=["positive", "negative"])
def test_ring_without_crossing_never_inverts(initial, final):
    # (b1) 48 000 rows per quadrant, 20 160 of them with rates.
    rated, active = _active(_scan("rates", _RING, _ring_axes(initial, final)))
    assert rated > 10_000
    assert not active.any()


_RING_ACROSS = (_RING, _ring_axes(_NEGATIVE, _POSITIVE))


def test_ring_across_the_sign_change_inverts():
    # The control of (b1): the same grid with opposite signs has active rows.
    _, active = _active(_scan("rates", *_RING_ACROSS))
    assert active.sum() > 1000


_KAPPA = ("kappa", 1.0, 2.0, 11)
_CHAIN_GAPS = ("epsilon0", 0.2, 8.0, 16)
_BELOW = (0.0, 0.99, 25)
_ABOVE = (1.01, 3.0, 25)


@pytest.mark.parametrize("fields", [_BELOW, _ABOVE], ids=["below", "above"])
def test_chain_on_one_side_of_h1_never_inverts(fields):
    # (b2) kappa in [1, 2], both fields below or both above h = 1.
    rated, active = _active(_scan("rates", _axes(
        _KAPPA, ("h_i", *fields), ("h_f", *fields), _CHAIN_GAPS)))
    assert rated > 10_000
    assert not active.any()


_CHAIN_ACROSS = (_axes(_KAPPA, ("h_i", *_BELOW), ("h_f", *_ABOVE), _CHAIN_GAPS),)
_DISORDERED = ("kappa", 0.05, 0.95, 11)
_CHAIN_DISORDERED = (_axes(_DISORDERED, ("h_i", *_BELOW), ("h_f", *_BELOW), _CHAIN_GAPS),)


def test_chain_crossing_h1_inverts():
    # The control of (b2): quenches from below h = 1 to above it.
    _, active = _active(_scan("rates", *_CHAIN_ACROSS))
    assert active.sum() > 1000


def test_chain_below_kappa_1_inverts_inside_the_disorder_circle():
    # Not crossing h = 1 does not forbid inversion at kappa < 1: every
    # active same-side quench has an endpoint with h**2 + kappa**2 < 1.
    cols = _scan("rates", *_CHAIN_DISORDERED)
    _, active = _active(cols)
    assert active.sum() > 1000
    h = np.minimum(cols["h_i"], cols["h_f"])[active]
    assert (h * h + cols["kappa"][active] ** 2 < 1.0).all()


@pytest.mark.parametrize("sets", [_RING_ACROSS, _CHAIN_ACROSS, _CHAIN_DISORDERED],
                         ids=["ring", "chain", "disordered"])
def test_printed_condition_is_the_verdict(sets):
    # The abstract states (b) through the printed condition: wherever it
    # is defined, it is negative on exactly the active rows.
    cols = _scan("rates", *sets)
    rated, active = _active(cols)
    lhs = cols["condition_lhs"]
    defined = (cols["verdict"] != "") & np.isfinite(lhs)
    assert defined.sum() > 0.8 * rated
    assert active[defined].any() and not active[defined].all()
    assert np.array_equal(lhs[defined] < 0.0, active[defined])


def _winding(h, kappa):
    # Signed turns of 2 theta_k as k goes once round the zone, from the
    # printed angle tan 2 theta_k = kappa sin k / (h - cos k).
    k = np.linspace(-np.pi, np.pi, 4001)
    turns = np.unwrap(np.arctan2(kappa * np.sin(k), h - np.cos(k)))
    return (turns[-1] - turns[0]) / (2.0 * np.pi)


def test_crossing_h1_changes_the_chain_winding():
    # The chain's transition is topological: for kappa > 0, 2 theta_k
    # winds once clockwise round the zone below h = 1, and not above it.
    for kappa in np.r_[np.linspace(*_KAPPA[1:]), np.linspace(*_DISORDERED[1:])]:
        below = [_winding(h, kappa) for h in np.linspace(*_BELOW)]
        above = [_winding(h, kappa) for h in np.linspace(*_ABOVE)]
        assert np.allclose(below, -1.0, atol=1e-9)
        assert np.allclose(above, 0.0, atol=1e-9)


def test_the_sign_of_v_is_the_ring_phase():
    # The ring's two phases are the two signs of V: with the printed angle
    # tan 2 theta_k = V / (2 t cos k), sin 2 theta_k = V / eps_k keeps the
    # sign of V at every k (t = 1).
    k = np.linspace(-np.pi, np.pi, 401)
    for v in np.r_[np.linspace(*_NEGATIVE), np.linspace(*_POSITIVE)]:
        side = np.sign(np.sin(np.arctan2(v, 2.0 * np.cos(k))))
        assert (side == np.sign(v)).all()


@pytest.mark.parametrize("sets", [
    [_axes(("kappa", 0.3, 2.0, 6), ("h_i", 0.0, 3.0, 15), ("h_f", 0.0, 3.0, 15),
           ("epsilon0", 0.5, 8.0, 10), ("L", 256, 512, 2))],
    [_RING, _axes(("v_i", -2.0, 2.0, 25), ("v_f", -2.0, 2.0, 25),
                  ("epsilon0", 0.5, 6.0, 12), ("L", 256, 512, 2))],
], ids=["chain", "ring"])
def test_lifetime_doubles_with_the_chain(sets):
    # (c) L is the last axis, so rows alternate L = 256 and L = 512.  The
    # rates scale by exactly 1/2 and the mode density by exactly 2.
    t_star = _scan("lifetime", *sets)["t_star"]
    short, long = t_star[0::2], t_star[1::2]
    finite = np.isfinite(short)
    assert finite.sum() > 400
    assert np.array_equal(np.isfinite(long), finite)
    assert np.array_equal(long[finite], 2.0 * short[finite])
