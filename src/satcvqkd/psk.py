"""M-PSK discrete modulation (M = 2, 4, 8) under the Gaussian-optimality proof.

The modulation density matrix of an equal-probability PSK ring is diagonal
in photon-number sectors mod M; its spectral weights are the Poisson sums
over each sector, summed term by term.  The secret key rate reuses the
Gaussian covariance pipeline with the ring correlation Z_M in place of the
Gaussian Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import Detection, NoiseBudget, SecurityResult, covariance_security

PSK_STATE_COUNTS = (2, 4, 8)


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


@dataclass(frozen=True)
class PskConfig:
    """Number of ring states and the common coherent amplitude."""

    states: int
    alpha: float

    def __post_init__(self) -> None:
        if self.states not in PSK_STATE_COUNTS:
            raise ValueError(f"states must be one of {PSK_STATE_COUNTS}, got {self.states}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @classmethod
    def from_modulation_variance(cls, states: int, modulation_variance: float) -> "PskConfig":
        return cls(states=states, alpha=math.sqrt(modulation_variance / 2.0))

    @property
    def modulation_variance(self) -> float:
        return 2.0 * self.alpha**2


def zeta_weights(config: PskConfig) -> np.ndarray:
    """Spectral weights of the PSK modulation density matrix, indexed by sector."""
    x = config.alpha**2
    return np.array([_sector_series(x, k, config.states) for k in range(config.states)])


def correlation_z(config: PskConfig) -> float:
    """Ring correlation coefficient Z_M.

    The 2-PSK coefficient carries an alpha^2 prefactor, 4- and 8-PSK a
    2*alpha^2 prefactor; the k-1 index wraps cyclically around the ring.
    """
    zeta = zeta_weights(config)
    if np.any(zeta <= 0.0):
        raise ValueError(
            "correlation coefficient undefined: a spectral weight underflowed "
            f"to zero at alpha={config.alpha}"
        )
    a_sq = config.alpha**2
    if config.states == 2:
        return a_sq * float(
            zeta[0] ** 1.5 / math.sqrt(zeta[1]) + zeta[1] ** 1.5 / math.sqrt(zeta[0])
        )
    total = sum(
        zeta[(k - 1) % config.states] ** 1.5 / math.sqrt(zeta[k])
        for k in range(config.states)
    )
    return 2.0 * a_sq * float(total)


def psk_security(
    config: PskConfig,
    transmittance,
    budget: NoiseBudget,
    kind: Detection,
    reconciliation_efficiency,
) -> SecurityResult:
    """Asymptotic M-PSK key rate via the shared covariance pipeline.

    Z_M depends on the ring alone, so one call over an array of
    transmittances computes it once.
    """
    return covariance_security(
        config.modulation_variance, correlation_z(config), transmittance,
        budget, kind, reconciliation_efficiency,
    )
