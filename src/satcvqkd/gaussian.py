"""Gaussian-modulated CV-QKD security under collective attacks.

Mutual information and the Holevo bound are evaluated from the two-mode
covariance matrix in closed form; the symplectic eigenvalues come out of
the usual quadratic in A, B (channel) and C, D (after Bob's measurement).
Transmittances (and the quantities derived from them) may be arrays.

Every protocol's key rate is this matrix's, given its ``KeyConstants``: GM's
from ``gm_security``, PSK's and QAM's from ``psk.psk_security`` and
``qam.qam_security``; ``covariance_security`` evaluates them at a transmittance.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import UnphysicalCovariance
from .quantities import check_transmittance, offending, reject, square, validating

# Eigenvalues may undershoot 1, and an eigenvalue quadratic's discriminant 0, by
# this much before the state is called unphysical; up to _PURE_TOL above 1 a mode
# is pure, as G's slope at 0 would turn the rounding there into ~1e-14 bits.
_EIGENVALUE_TOL = 1e-9
_DISCRIMINANT_TOL = 1e-10
_PURE_TOL = 1e-14


class Detection(str, enum.Enum):
    HOMODYNE = "homodyne"
    HETERODYNE = "heterodyne"


@validating
class NoiseBudget(NamedTuple):
    """Channel/detector excess noise (SNU) and detector efficiency."""

    channel_excess: float = 0.0
    detector_excess: float = 0.0
    detector_efficiency: float = 1.0

    def _check(self) -> None:
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


class ChannelNoiseState(NamedTuple):
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
    check_transmittance(transmittance)
    eta = budget.detector_efficiency
    chi_line = 1.0 / transmittance - 1.0 + budget.channel_excess
    if kind is Detection.HOMODYNE:
        chi_det = ((1.0 - eta) + budget.detector_excess) / eta
    else:
        chi_det = (1.0 + (1.0 - eta) + 2.0 * budget.detector_excess) / eta
    return ChannelNoiseState(chi_line, chi_det, chi_line + chi_det / transmittance)


def g_function(x):
    """Bosonic entropy function (x+1)log2(x+1) - x log2 x, with G(0) = 0."""
    x = np.asarray(x)
    reject(x, x < 0.0, "entropy argument must be >= 0")
    positive = x > 0.0
    x_log = np.where(positive, x, 1.0)  # log2(1) = 0 keeps G(0) = 0 without a log2(0)
    return np.where(positive, (x + 1.0) * np.log2(x + 1.0) - x_log * np.log2(x_log), 0.0)[()]


def mutual_information_gm(modulation_variance: float, chi_total, kind: Detection):
    """Alice-Bob mutual information in bits per pulse."""
    reject(modulation_variance, modulation_variance < 0.0, "modulation variance must be >= 0")
    reject(chi_total, chi_total < 0.0, "total noise must be >= 0")
    half = 0.5 * np.log2(
        (modulation_variance + 1.0 + chi_total) / (1.0 + chi_total)
    )
    return half if kind is Detection.HOMODYNE else 2.0 * half


def _sqrt_eigenvalue(mean, product_root, label: str):
    """Eigenvalue pair from lam^2 quadratic with sum `mean`, product `product_root`^2.

    The smaller eigenvalue comes from the product identity
    lam+ * lam- = product_root instead of the subtractive discriminant,
    which loses half the digits near degeneracy.
    """
    bad = mean <= 0.0
    if np.any(bad):
        raise UnphysicalCovariance(f"non-positive eigenvalue sum {offending(mean, bad)} in {label}")
    disc = mean**2 - 4.0 * product_root**2
    bad = disc < -_DISCRIMINANT_TOL
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
    return g_function(np.where(lam - 1.0 > _PURE_TOL, (lam - 1.0) / 2.0, 0.0))


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
    value sqrt(V_A^2 + 2 V_A), a PSK ring's Z_M or a QAM bound Z*(1).
    """
    v = modulation_variance + 1.0
    t = transmittance
    v_sq, z_sq = square(v), square(correlation)
    chi_tot = chi_line + chi_detector / t

    a_term = v_sq + t**2 * (v + chi_line) ** 2 - 2.0 * t * z_sq
    sqrt_b = abs(t * v_sq + t * v * chi_line - t * z_sq)
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
    reject(efficiency, ~((0.0 <= efficiency) & (efficiency <= 1.0)),
           "reconciliation efficiency must be in [0, 1]")
    return efficiency * mutual_information - holevo


class SecurityResult(NamedTuple):
    """A protocol evaluated at the channel transmittance(s) it was given."""

    mutual_information: float | np.ndarray  # bits/pulse
    holevo: float | np.ndarray  # bits/pulse
    skr_asymptotic: float | np.ndarray  # bits/pulse, negative means no key


class KeyConstants(NamedTuple):
    """What a protocol's covariance-matrix key rate takes that no transmittance
    enters: the ensemble's variance V and correlation Z, the noise budget and
    detection of the matrix, and whether I_AB is ``mutual_information_qam``."""

    modulation_variance: float
    correlation: float
    budget: NoiseBudget
    detection: Detection
    qam_information: bool = False


def mutual_information_qam(
    modulation_variance: float,
    transmittance,
    excess_noise: float,
    kind: Detection,
):
    """Alice-Bob mutual information of the arbitrary-modulation bound.

    It is GM's information with an ideal heterodyne detector, but not to the
    last bit, and it takes the heterodyne SNR for either detection.
    """
    if np.any(modulation_variance < 0.0) or excess_noise < 0.0:
        raise ValueError("modulation variance and excess noise must be >= 0")
    check_transmittance(transmittance)
    half = 0.5 * np.log2(
        1.0
        + transmittance * modulation_variance / (2.0 + transmittance * excess_noise)
    )
    return half if kind is Detection.HOMODYNE else 2.0 * half


def covariance_security(
    constants: KeyConstants, transmittance, reconciliation_efficiency
) -> SecurityResult:
    """Key rate of a protocol's ``constants`` at the given transmittance(s), through
    the two-mode covariance matrix: the one key stage of every protocol.

    For a group of protocols that share the budget, detection and I_AB flag,
    V and Z may be column arrays, one row per protocol, broadcast against the
    transmittances into one (protocols x points) result.
    """
    v, kind = constants.modulation_variance, constants.detection
    noise = channel_noise(transmittance, constants.budget, kind)
    if constants.qam_information:
        i_ab = mutual_information_qam(v, transmittance, constants.budget.channel_excess, kind)
    else:
        i_ab = mutual_information_gm(v, noise.chi_total, kind)
    s_be, _ = holevo_bound(
        v, transmittance, noise.chi_line, noise.chi_detector, constants.correlation, kind
    )
    return SecurityResult(i_ab, s_be, skr_asymptotic(reconciliation_efficiency, i_ab, s_be))


def gm_security(modulation_variance: float, budget: NoiseBudget, kind: Detection) -> KeyConstants:
    """The key constants of Gaussian modulation: V_A and the Gaussian Z."""
    return KeyConstants(
        modulation_variance, gaussian_correlation(modulation_variance), budget, kind
    )
