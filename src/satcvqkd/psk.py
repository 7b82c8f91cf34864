"""M-PSK discrete modulation (M = 2, 4, 8) under the Gaussian-optimality proof.

The modulation density matrix of an equal-probability PSK ring is diagonal
in photon-number sectors mod M; its spectral weights are the Poisson sums
over each sector, summed term by term.  The secret key rate is the
Gaussian covariance-matrix rate with the ring correlation Z_M in place of
the Gaussian Z.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import Detection, KeyConstants, NoiseBudget

PSK_STATE_COUNTS = (2, 4, 8)
_MAX_SERIES_TERMS = 1_000_000  # about 0.7 s of sector sums


def _sector_series(x: float, sector: int, states: int) -> float:
    """exp(-x) * sum over n = sector (mod states) of x^n / n!.

    Every term is positive, so each weight, however small, keeps full
    relative precision; the series ends once its terms fall below 1e-18 of
    the sum past the Poisson peak.
    """
    if x == 0.0:
        return 1.0 if sector == 0 else 0.0
    total = 0.0
    n = sector
    while True:
        term = math.exp(-x + n * math.log(x) - math.lgamma(n + 1.0))
        total += term
        if n > x and (term < total * 1e-18 or term == 0.0):
            break
        n += states
    return total


def series_terms(alpha: float) -> int | float:
    """About how many terms the sector series of ``zeta_weights`` sum in all, for
    large alpha: every n up to nine Poisson deviations past the peak alpha^2.
    inf when that overflows a float."""
    x = alpha * alpha
    try:
        return math.ceil(x + 9.0 * math.sqrt(x))
    except OverflowError:
        return math.inf


def zeta_weights(states: int, alpha: float) -> np.ndarray:
    """Spectral weights of the PSK modulation density matrix, indexed by sector."""
    if states not in PSK_STATE_COUNTS:
        raise ValueError(f"states must be one of {PSK_STATE_COUNTS}, got {states}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    terms = series_terms(alpha)
    if terms > _MAX_SERIES_TERMS:
        raise ValueError(f"{states}-PSK at alpha = {alpha:g} needs about {terms:.15g} "
                         f"sector-series terms, over the cap of {_MAX_SERIES_TERMS}")
    x = alpha**2
    return np.array([_sector_series(x, k, states) for k in range(states)])


def correlation_z(states: int, alpha: float) -> float:
    """Ring correlation coefficient Z_M.

    The 2-PSK coefficient carries an alpha^2 prefactor, 4- and 8-PSK a
    2*alpha^2 prefactor; the k-1 index wraps cyclically around the ring.
    The 2-PSK prefactor is this code's own choice, half of the ring's
    2 Tr(tau^1/2 a tau^1/2 a^dag): the paper's abstract, the only part of
    it held here, does not give the coefficient.
    """
    zeta = zeta_weights(states, alpha)
    if np.any(zeta <= 0.0):
        raise ValueError(
            "correlation coefficient undefined: a spectral weight underflowed "
            f"to zero at alpha={alpha}"
        )
    prefactor = alpha**2 if states == 2 else 2.0 * alpha**2
    total = sum(zeta[(k - 1) % states] ** 1.5 / math.sqrt(zeta[k]) for k in range(states))
    return prefactor * float(total)


def psk_security(
    states: int, modulation_variance: float, budget: NoiseBudget, kind: Detection
) -> KeyConstants:
    """The key constants of an M-PSK ring of ``states`` points at amplitude
    alpha = sqrt(V_A/2): V_A and the ring correlation Z_M."""
    z = correlation_z(states, math.sqrt(modulation_variance / 2.0))
    return KeyConstants(modulation_variance, z, budget, kind)
