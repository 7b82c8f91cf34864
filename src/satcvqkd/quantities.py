"""Unit conventions and conversions.

Conventions used throughout the package:

* lengths are metres internally (km only at CLI/config boundaries and in
  the visibility parameter, which is conventionally quoted in km),
* attenuations are decibels (positive = loss),
* transmittances are dimensionless fractions in [0, 1],
* all noise variances are in shot-noise units (vacuum variance = 1).

The closed-form functions of the package take a float or an ndarray and
check every element; an error message names the first offending value.
"""

from __future__ import annotations

import math

import numpy as np


def offending(values, bad):
    """The first element of ``values`` (float or array) at which the mask ``bad`` holds."""
    return np.broadcast_to(values, np.shape(bad))[bad].flat[0]


def db_to_transmittance(attenuation_db):
    """Convert an attenuation in dB to a power transmittance in [0, 1]."""
    infinite = ~np.isfinite(attenuation_db)
    if np.any(infinite):
        raise ValueError(f"attenuation must be finite, got {offending(attenuation_db, infinite)}")
    negative = attenuation_db < 0.0
    if np.any(negative):
        raise ValueError(f"attenuation must be >= 0 dB, got {offending(attenuation_db, negative)}")
    return 10.0 ** (-np.asarray(attenuation_db) / 10.0)


def transmittance_to_db(transmittance: float) -> float:
    """Convert a power transmittance in (0, 1] to an attenuation in dB."""
    if not transmittance > 0.0:
        raise ValueError(
            f"transmittance must be > 0 (got {transmittance}); "
            "a fully blocked channel has no finite dB value"
        )
    if transmittance > 1.0:
        raise ValueError(f"transmittance must be <= 1, got {transmittance}")
    return -10.0 * math.log10(transmittance)
