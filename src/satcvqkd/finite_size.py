"""Finite-size key rate: SNR, fitted reconciliation efficiency and frame
error rate, the privacy penalty, and the amended finite-size SKR.

The efficiency/FER fits were obtained at a 10^6 block length; FER falls
with block length, so using them at the default 10^11 symbols is a
conservatism that downstream reports should carry as metadata.  SNRs,
transmittances and rates may be arrays of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class ReconciliationModel:
    """Two-exponential efficiency fit and arctan FER fit coefficients."""

    name: str
    c1: float
    c2: float
    c3: float
    c4: float
    m1: float = 0.8218
    m2: float = -19.46
    m3: float = -298.1


MD = ReconciliationModel("MD", c1=-0.0825, c2=0.1834, c3=0.9821, c4=-0.00002815)
MLC_MSD = ReconciliationModel("MLC-MSD", c1=0.9655, c2=0.0001507, c3=-0.04696, c4=-0.2238)


@dataclass(frozen=True)
class FiniteSizeParams:
    """Block-size and security parameters of the finite-size analysis."""

    repetition_rate_hz: float = 50e6
    discretisation: int = 5
    smoothing: float = 2e-10
    security: float = 1e-9
    total_symbols: float = 1e11

    def __post_init__(self) -> None:
        if self.repetition_rate_hz <= 0.0 or self.total_symbols <= 0.0:
            raise ValueError("repetition rate and symbol count must be positive")
        if self.discretisation <= 0:
            raise ValueError("discretisation parameter must be positive")
        if not 0.0 < self.smoothing < 1.0 or not 0.0 < self.security < 1.0:
            raise ValueError("smoothing and security parameters must be in (0, 1)")


def snr_db(alpha: float, transmittance, chi_total):
    """Signal-to-noise ratio in dB for coherent amplitude ``alpha``."""
    photons = abs(alpha) ** 2
    if photons <= 0.0:
        raise ValueError("signal amplitude must be non-zero")
    t = np.asarray(transmittance)
    if np.any(~((0.0 < t) & (t <= 1.0))) or np.any(chi_total < 0.0):
        raise ValueError("need transmittance in (0, 1] and noise >= 0")
    return 10.0 * np.log10(
        transmittance * photons / (photons + (1.0 - transmittance) * chi_total)
    )


class BetaFit(NamedTuple):
    value: float | np.ndarray
    valid: bool | np.ndarray  # the fit only holds for values inside [0, 1]


class FerFit(NamedTuple):
    value: float | np.ndarray  # clamped to [0, 1]
    raw: float | np.ndarray
    clamped: bool | np.ndarray


def beta(snr, model: ReconciliationModel) -> BetaFit:
    """Reconciliation efficiency at the given SNR (dB)."""
    value = model.c1 * np.exp(model.c2 * snr) + model.c3 * np.exp(model.c4 * snr)
    valid = np.isfinite(value) & (0.0 <= value) & (value <= 1.0)
    return BetaFit(value=value, valid=valid)


def fer(snr, model: ReconciliationModel) -> FerFit:
    """Frame error rate at the given SNR (dB), clamped to [0, 1].

    The arctan fit saturates outside the transition region; the clamp flag
    is informational, clamped values remain usable.
    """
    raw = 0.5 * (1.0 + model.m1 * np.arctan(model.m2 * snr + model.m3))
    value = np.clip(raw, 0.0, 1.0)
    return FerFit(value=value, raw=raw, clamped=value != raw)


def privacy_penalty(params: FiniteSizeParams) -> float:
    """Finite-size privacy penalty in bits per pulse.

    The last term keeps the fitted double 1/sqrt(N) scaling (net 1/N).
    """
    d = float(params.discretisation)
    eps_s = params.smoothing
    eps = params.security
    sqrt_n = math.sqrt(params.total_symbols)

    first = (d + 1.0) ** 2 / sqrt_n
    second = 4.0 * (d + 1.0) * math.sqrt(math.log2(2.0 / eps_s)) / sqrt_n
    third = 2.0 * math.log2(2.0 / (eps**2 * eps_s)) / sqrt_n
    last = 4.0 * eps_s * d / (eps * sqrt_n) / sqrt_n
    return first + second + third + last


def skr_finite(
    repetition_rate_hz: float,
    frame_error_rate,
    reconciliation_efficiency,
    mutual_information,
    holevo,
    privacy: float,
):
    """Finite-size secret key rate in bits per second (may be negative).

    Frame losses are charged against the corrected information only.
    """
    rate = np.asarray(frame_error_rate)
    if np.any(~((0.0 <= rate) & (rate <= 1.0))):
        raise ValueError("frame error rate must be in [0, 1]")
    return repetition_rate_hz * (
        (1.0 - frame_error_rate) * reconciliation_efficiency * mutual_information
        - holevo
        - privacy
    )
