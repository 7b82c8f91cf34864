"""Exception types shared across the package, the one-line text of an error, and
numpy's float faults raised as errors."""

import numpy as np


class SatCvqkdError(Exception):
    """Base class for all errors raised by this package."""


class GeometryError(SatCvqkdError, ValueError):
    """Link geometry is inconsistent (elevation, altitudes, path through the atmosphere)."""


class FarFieldViolation(SatCvqkdError):
    """The receiver is not in the far field of the transmitter.

    The diffraction-limited loss formula does not apply; callers are
    expected to skip the configuration rather than extrapolate.
    """

    def __init__(self, link_distance_m: float, bound_m: float):
        self.link_distance_m = link_distance_m
        self.bound_m = bound_m
        super().__init__(
            f"far-field condition violated: link distance {link_distance_m:.1f} m "
            f"is below D_r*D_t/wavelength = {bound_m:.1f} m"
        )


class UnphysicalCovariance(SatCvqkdError):
    """A symplectic eigenvalue dropped below 1 or a discriminant went negative."""


class CutoffTooSmall(SatCvqkdError):
    """A Fock-space cutoff is too small to represent the requested state."""


class ConvergenceError(SatCvqkdError):
    """An iterative numerical procedure failed to converge."""


class NumericsError(SatCvqkdError):
    """A numerical result violated a sanity bound (e.g. a negative variance)."""


class ProfileError(SatCvqkdError, ValueError):
    """A pass profile could not be parsed or validated."""


class ConfigError(SatCvqkdError, ValueError):
    """A run configuration is invalid."""


def message(exc: Exception) -> str:
    """``exc`` as words: a float ``**`` that overflows raises ``OverflowError(errno,
    text)``, whose ``str`` is a tuple."""
    if isinstance(exc, OverflowError) and len(exc.args) == 2:
        return f"float overflow: {exc.args[1]}"
    return str(exc)


def evaluating() -> np.errstate:
    """numpy's overflow, division by zero and invalid operations as
    ``FloatingPointError``: resolve's key constants and a run's evaluation end
    in one line instead of a warning and a bad value."""
    return np.errstate(over="raise", divide="raise", invalid="raise")
