"""Gaussian-modulated CV-QKD security under collective attacks.

Mutual information and the Holevo bound are evaluated from the two-mode
covariance matrix in closed form; the symplectic eigenvalues come out of
the usual quadratic in A, B (channel) and C, D (after Bob's measurement).
Transmittances (and the quantities derived from them) may be arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalCovariance
from .quantities import offending

# Eigenvalues may undershoot 1 by this much before the state is called unphysical.
_EIGENVALUE_TOL = 1e-9
_DISCRIMINANT_TOL = 1e-9


class Detection(str, enum.Enum):
    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"


@dataclass(frozen=True)
class NoiseBudget:
    """Channel/detector excess noise (SNU) and detector efficiency."""

    channel_excess: float = 0.0
    detector_excess: float = 0.0
    detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.channel_excess < 0.0 or self.detector_excess < 0.0:
            raise ValueError("excess noise must be >= 0 SNU")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError(
                f"detector efficiency must be in (0, 1], got {self.detector_efficiency}"
            )


# Daylight totals: sums of the individual channel and detection contributions
# (time-of-arrival 0.0060, LO atmospheric RIN 0.0100, LO RIN 0.0018, modulation
# 0.0005, background 0.0002, signal RIN 0.0001; electronics 0.0130, ADC 0.0002,
# detector overlap 0.0001, LO subtraction 0.0001, LO leakage 0.0001).
DAYLIGHT_CHANNEL_EXCESS = 0.0186
DAYLIGHT_DETECTOR_EXCESS = 0.0135
DAYLIGHT_NOISE = NoiseBudget(
    channel_excess=DAYLIGHT_CHANNEL_EXCESS,
    detector_excess=DAYLIGHT_DETECTOR_EXCESS,
    detector_efficiency=1.0,
)


@dataclass(frozen=True)
class ChannelNoiseState:
    """Channel-referred noise terms for one transmittance/detector pairing."""

    chi_line: float | np.ndarray
    chi_detector: float
    chi_total: float | np.ndarray


def gaussian_correlation(modulation_variance: float) -> float:
    """Alice-Bob correlation coefficient of the Gaussian ensemble."""
    if modulation_variance <= 0.0:
        raise ValueError("modulation variance must be positive")
    return math.sqrt(modulation_variance**2 + 2.0 * modulation_variance)


def channel_noise(transmittance, budget: NoiseBudget, kind: Detection) -> ChannelNoiseState:
    """Line, detector and total added noise in shot-noise units."""
    t = np.asarray(transmittance)
    bad = ~((0.0 < t) & (t <= 1.0))
    if np.any(bad):
        raise ValueError(
            f"transmittance must be in (0, 1], got {offending(t, bad)}; "
            "the line noise diverges for a fully blocked channel"
        )
    eta = budget.detector_efficiency
    chi_line = 1.0 / transmittance - 1.0 + budget.channel_excess
    if kind is Detection.HOMODYNE:
        chi_det = ((1.0 - eta) + budget.detector_excess) / eta
    else:
        chi_det = (1.0 + (1.0 - eta) + 2.0 * budget.detector_excess) / eta
    return ChannelNoiseState(
        chi_line=chi_line,
        chi_detector=chi_det,
        chi_total=chi_line + chi_det / transmittance,
    )


def g_function(x):
    """Bosonic entropy function (x+1)log2(x+1) - x log2 x, with G(0) = 0."""
    x = np.asarray(x)
    negative = x < 0.0
    if np.any(negative):
        raise ValueError(f"entropy argument must be >= 0, got {offending(x, negative)}")
    positive = x > 0.0
    x_log = np.where(positive, x, 1.0)  # log2(1) = 0 keeps G(0) = 0 without a log2(0)
    return np.where(positive, (x + 1.0) * np.log2(x + 1.0) - x_log * np.log2(x_log), 0.0)[()]


def mutual_information_gm(modulation_variance: float, chi_total, kind: Detection):
    """Alice-Bob mutual information in bits per pulse."""
    if modulation_variance < 0.0 or np.any(chi_total < 0.0):
        raise ValueError("modulation variance and total noise must be >= 0")
    half = 0.5 * np.log2(
        (modulation_variance + 1.0 + chi_total) / (1.0 + chi_total)
    )
    return half if kind is Detection.HOMODYNE else 2.0 * half


def _sqrt_eigenvalue(mean, product_root, label: str, disc_tol: float = _DISCRIMINANT_TOL):
    """Eigenvalue pair from lam^2 quadratic with sum `mean`, product `product_root`^2.

    The smaller eigenvalue comes from the product identity
    lam+ * lam- = product_root instead of the subtractive discriminant,
    which loses half the digits near degeneracy.
    """
    bad = mean <= 0.0
    if np.any(bad):
        raise UnphysicalCovariance(f"non-positive eigenvalue sum {offending(mean, bad)} in {label}")
    disc = mean**2 - 4.0 * product_root**2
    bad = disc < -disc_tol
    if np.any(bad):
        raise UnphysicalCovariance(
            f"negative discriminant in {label} eigenvalues: {offending(disc, bad)}"
        )
    # below the rounding floor of the discriminant the +/- split is noise;
    # the degenerate point is the faithful value
    degenerate = disc < 1e-13 * mean**2
    lam_plus = np.where(
        degenerate, np.sqrt(mean / 2.0), np.sqrt((mean + np.sqrt(np.maximum(disc, 0.0))) / 2.0)
    )[()]
    lam_minus = np.where(degenerate, lam_plus, product_root / lam_plus)[()]
    for lam in (lam_plus, lam_minus):
        bad = lam < 1.0 - _EIGENVALUE_TOL
        if np.any(bad):
            raise UnphysicalCovariance(
                f"symplectic eigenvalue {offending(lam, bad)} < 1 in {label} "
                f"(sum {offending(mean, bad)}, product {offending(product_root, bad)**2})"
            )
    return lam_plus, lam_minus


def _entropy(lam):
    """G((lam - 1) / 2): the entropy one symplectic eigenvalue contributes."""
    return g_function(np.maximum(0.0, (lam - 1.0) / 2.0))


def holevo_bound(
    modulation_variance: float,
    transmittance,
    chi_line,
    chi_detector: float,
    correlation: float,
    kind: Detection,
):
    """Holevo information bound S_BE and the four symplectic eigenvalues.

    ``correlation`` is the Z term of the covariance matrix: the Gaussian
    value sqrt(V_A^2 + 2 V_A) or a discrete-modulation Z_M.
    """
    v = modulation_variance + 1.0
    t = transmittance
    z_sq = correlation**2
    chi_tot = chi_line + chi_detector / t

    a_term = v**2 + t**2 * (v + chi_line) ** 2 - 2.0 * t * z_sq
    sqrt_b = abs(t * v**2 + t * v * chi_line - t * z_sq)
    b_term = sqrt_b**2
    lam1, lam2 = _sqrt_eigenvalue(a_term, sqrt_b, "channel")

    denom = t * (v + chi_tot)
    if kind is Detection.HOMODYNE:
        c_term = (a_term * chi_detector + v * sqrt_b + t * (v + chi_line)) / denom
        sqrt_d = np.sqrt(sqrt_b * (v + sqrt_b * chi_detector) / denom)
    else:
        c_term = (
            a_term * chi_detector**2
            + b_term
            + 1.0
            + 2.0 * t * z_sq
            + 2.0 * chi_detector * (v * sqrt_b + t * (v + chi_line))
        ) / denom**2
        sqrt_d = (v + sqrt_b * chi_detector) / denom
    lam3, lam4 = _sqrt_eigenvalue(c_term, sqrt_d, "conditional")

    s_be = _entropy(lam1) + _entropy(lam2) - _entropy(lam3) - _entropy(lam4)
    return s_be, (lam1, lam2, lam3, lam4)


def skr_asymptotic(reconciliation_efficiency, mutual_information, holevo):
    """Asymptotic secret key rate in bits per pulse (may be negative)."""
    efficiency = np.asarray(reconciliation_efficiency)
    if np.any(~((0.0 <= efficiency) & (efficiency <= 1.0))):
        raise ValueError("reconciliation efficiency must be in [0, 1]")
    return efficiency * mutual_information - holevo


@dataclass(frozen=True)
class SecurityResult:
    """A protocol evaluated at the channel transmittance(s) it was given."""

    mutual_information: float | np.ndarray  # bits/pulse
    holevo: float | np.ndarray  # bits/pulse
    skr_asymptotic: float | np.ndarray  # bits/pulse, negative means no key


def covariance_security(
    modulation_variance: float,
    correlation: float,
    transmittance,
    budget: NoiseBudget,
    kind: Detection,
    reconciliation_efficiency,
) -> SecurityResult:
    """Key rate of an ensemble of variance V_A and correlation Z at the given
    transmittance(s), through the two-mode covariance matrix."""
    noise = channel_noise(transmittance, budget, kind)
    i_ab = mutual_information_gm(modulation_variance, noise.chi_total, kind)
    s_be, _ = holevo_bound(
        modulation_variance, transmittance, noise.chi_line, noise.chi_detector, correlation, kind
    )
    return SecurityResult(
        mutual_information=i_ab,
        holevo=s_be,
        skr_asymptotic=skr_asymptotic(reconciliation_efficiency, i_ab, s_be),
    )


def gm_security(
    modulation_variance: float,
    transmittance,
    budget: NoiseBudget,
    kind: Detection,
    reconciliation_efficiency,
) -> SecurityResult:
    """Full Gaussian-modulation pipeline at the given link transmittance(s)."""
    return covariance_security(
        modulation_variance, gaussian_correlation(modulation_variance), transmittance,
        budget, kind, reconciliation_efficiency,
    )
