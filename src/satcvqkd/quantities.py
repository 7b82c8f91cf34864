"""Unit conventions and conversions.

Conventions used throughout the package:

* lengths are metres internally (km only at the CLI/config boundaries, the
  CSV row ``pipeline.PointResult`` included, and in the visibility
  parameter, which is conventionally quoted in km),
* attenuations are decibels (positive = loss),
* transmittances are dimensionless fractions in [0, 1],
* all noise variances are in shot-noise units (vacuum variance = 1).

The closed-form functions of the package take a float or an ndarray and
check every element; an error message names the first offending value.
"""

from __future__ import annotations

import numpy as np


def offending(values, bad):
    """The first element of ``values`` (float or array) at which the mask ``bad`` holds."""
    return np.broadcast_to(values, np.shape(bad))[bad].flat[0]


def reject(values, bad, message: str) -> None:
    """Raise ``ValueError`` with ``message`` and the offending value, if ``bad`` holds anywhere."""
    if np.any(bad):
        raise ValueError(f"{message}, got {offending(values, bad)}")


def square(x):
    """``x ** 2`` of a float or an array, rounded as a float's ``**`` rounds it
    (C ``pow``).  numpy's ``**`` forms x * x, which differs from ``pow`` in the
    last bit for about one value in a thousand; the key stage squares the
    protocol constants this way, so that constants stacked into column arrays
    give the key rates of the same constants as floats, bit for bit."""
    return np.float_power(x, 2.0)


def check_transmittance(transmittance) -> None:
    """Reject a transmittance (float or array) outside (0, 1]: no formula of the
    package holds for a blocked channel, whose line noise 1/T - 1 diverges."""
    t = np.asarray(transmittance)
    reject(t, ~((0.0 < t) & (t <= 1.0)), "transmittance must be in (0, 1]")


def check_cap(what: str, count, cap: int) -> None:
    """Reject ``count`` rows, samples or states (inf if it overflowed) over ``cap``."""
    if count > cap:  # every count is whole; past 1e15 it prints with an exponent
        raise ValueError(f"{what} would be {count:.15g}, over the cap of {cap}")


def validating(record: type) -> type:
    """Class decorator: each instance of the NamedTuple ``record``, built by the
    constructor, ``_make`` or ``_replace``, passes ``record._check``, which raises on
    a bad field value and returns None or a normalized record to keep instead."""
    build = record.__new__

    def __new__(cls, *args, **kwargs):
        built = build(cls, *args, **kwargs)
        normalized = built._check()
        return built if normalized is None else normalized

    record.__new__ = __new__
    # the stock _make (which _replace calls) builds through tuple.__new__
    record._make = classmethod(lambda cls, values: cls(*values))
    return record


def db_to_transmittance(attenuation_db):
    """Convert an attenuation in dB to a power transmittance in [0, 1]."""
    reject(attenuation_db, ~np.isfinite(attenuation_db), "attenuation must be finite")
    reject(attenuation_db, attenuation_db < 0.0, "attenuation must be >= 0 dB")
    return 10.0 ** (-np.asarray(attenuation_db) / 10.0)
