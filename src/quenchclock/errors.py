"""Exception types shared across the package.

All domain failures derive from :class:`QuenchClockError` so callers can
distinguish physics/numerics problems from programming errors.  The scan
driver maps these onto row flags instead of crashing.
"""

from typing import Any

# How an array twin reports the errors its scalar twin raises: (error
# class, boolean rows) pairs in the order the scalar twin checks them.
# A row raises the first pair that holds it.
Raises = tuple[tuple[type[Exception], Any], ...]


class QuenchClockError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(QuenchClockError):
    """Invalid or inconsistent run configuration."""


class GaplessMode(QuenchClockError):
    """A requested mode sits at (or numerically below) zero energy."""


class NoResonance(QuenchClockError):
    """No momentum satisfies the resonance condition for the requested
    qubit frequency."""


class DegenerateRoot(QuenchClockError):
    """A root sits at a van Hove point, where the band's slope vanishes
    and the density of states diverges, or the whole band is flat."""


class ZeroRates(QuenchClockError):
    """Both qubit transition rates vanish; the steady state is undefined."""


class PassiveState(QuenchClockError):
    """The chain does not pump the probe (no population inversion at the
    probe frequency), so it has no battery lifetime."""


class BadBroadening(QuenchClockError):
    """Broadening width outside the usable range for the discrete sums."""


class TooLarge(QuenchClockError):
    """Problem size exceeds what the dense solver is meant for."""


class NotReachable(QuenchClockError):
    """The emitting level cannot be reached from the reset level."""
