import cmath
import math

import numpy as np
import pytest

from satcvqkd import (
    DAYLIGHT_NOISE,
    Constellation,
    Detection,
    PskConfig,
    correlation_z,
    gm_security,
    modulation_density_matrix,
    psk_security,
    zeta_weights,
)
from satcvqkd.gaussian import gaussian_correlation

from oracles import psk_weights_dft


def _ring_constellation(states: int, alpha: float) -> Constellation:
    """The M-PSK ring built from exact quarter turns, so that turning it by
    pi/2 (pi for M = 2) maps each point exactly onto another."""
    if states == 2:
        amps = (complex(alpha), complex(-alpha))
    else:
        q = states // 4
        amps = tuple(alpha * 1j ** (k // q) * cmath.exp(2j * math.pi * (k % q) / states)
                     for k in range(states))
    return Constellation(amps, (1.0 / states,) * states)


@pytest.mark.parametrize("states, sectors", [(2, 2), (4, 4), (8, 4)])
def test_exact_ring_is_built_in_the_most_sectors(states, sectors):
    ws = modulation_density_matrix(_ring_constellation(states, 0.5), 40)
    assert len(ws.sectors) == sectors


def _fock_sector_weights(states: int, alpha: float, cutoff: int = 40) -> np.ndarray:
    """Oracle: diagonalize the ring density matrix and label eigenvalues by
    their photon-number sector mod M."""
    ws = modulation_density_matrix(_ring_constellation(states, alpha), cutoff)
    weights = np.zeros(states)
    order = np.argsort(ws.eigenvalues)[::-1]
    n_mod = np.arange(cutoff + 1) % states
    for idx in order[:states]:
        vec = ws.eigenvectors[:, idx]
        sector_mass = [np.sum(np.abs(vec[n_mod == k]) ** 2) for k in range(states)]
        weights[int(np.argmax(sector_mass))] = ws.eigenvalues[idx]
    return weights


# --- spectral weights --------------------------------------------------------


def test_two_state_weights_at_small_amplitude():
    w = zeta_weights(PskConfig(2, 1e-6))
    assert w[0] == pytest.approx(1.0, abs=1e-11)
    assert w[1] == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("states", [2, 4, 8])
def test_weights_sum_to_one(states):
    for alpha in np.linspace(0.05, 3.0, 30):
        w = zeta_weights(PskConfig(states, float(alpha)))
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("states", [2, 4, 8])
def test_weights_nonnegative(states):
    for alpha in np.linspace(0.05, 3.0, 60):
        assert np.all(zeta_weights(PskConfig(states, float(alpha))) >= 0.0)


@pytest.mark.parametrize("states", [2, 4, 8])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_weights_match_fock_eigenvalue_oracle(states, alpha):
    weights = zeta_weights(PskConfig(states, alpha))
    oracle = _fock_sector_weights(states, alpha)
    assert np.max(np.abs(weights - oracle)) < 1e-10


@pytest.mark.parametrize("states", [2, 4, 8])
def test_every_weight_matches_mpmath_to_full_relative_precision(states):
    # 0.1607 at M = 8 puts sector 4 just above 1e-8, where trigonometric
    # closed forms had lost all but about eight digits to cancellation
    for alpha in [*np.geomspace(1e-3, 6.0, 41), 0.1607]:
        weights = zeta_weights(PskConfig(states, float(alpha)))
        oracle = psk_weights_dft(states, float(alpha))
        assert np.max(np.abs(weights - oracle) / oracle) <= 1e-12, alpha


# --- ring correlation ---------------------------------------------------------


def test_correlation_two_state_structure():
    config = PskConfig(2, 0.5)
    w = zeta_weights(config)
    expected = 0.25 * (w[0] ** 1.5 / math.sqrt(w[1]) + w[1] ** 1.5 / math.sqrt(w[0]))
    assert correlation_z(config) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("states", [4, 8])
def test_correlation_small_amplitude_limit(states):
    assert correlation_z(PskConfig(states, 1e-4)) < 1e-3


def test_correlation_four_state_against_fock_oracle():
    alpha = 0.5
    oracle_w = _fock_sector_weights(4, alpha)
    expected = 2.0 * alpha**2 * sum(
        oracle_w[(k - 1) % 4] ** 1.5 / math.sqrt(oracle_w[k]) for k in range(4)
    )
    assert correlation_z(PskConfig(4, alpha)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("states", [2, 4, 8])
def test_correlation_below_gaussian_ceiling(states):
    for alpha in np.linspace(0.05, 2.0, 40):
        config = PskConfig(states, float(alpha))
        assert correlation_z(config) <= gaussian_correlation(
            config.modulation_variance
        ) * (1.0 + 1e-12)


def test_zero_amplitude_rejected():
    with pytest.raises(ValueError):
        PskConfig(4, 0.0)


def test_from_modulation_variance_mapping():
    config = PskConfig.from_modulation_variance(4, 0.5)
    assert config.alpha == pytest.approx(0.5, rel=1e-15)
    assert config.modulation_variance == pytest.approx(0.5, rel=1e-15)


# --- key rates ----------------------------------------------------------------


def _table_transmittances():
    # representative LEO links, good conditions, from the channel model
    return (0.132, 0.0656, 0.0284)  # ~ 300/500/800 km at zenith


def test_two_state_never_positive_on_leo_grid():
    for t in _table_transmittances():
        result = psk_security(
            PskConfig.from_modulation_variance(2, 0.5),
            t, DAYLIGHT_NOISE, Detection.HOMODYNE, 0.9,
        )
        assert result.skr_asymptotic <= 0.0


def test_more_states_give_higher_rates():
    t = 0.132  # ~300 km zenith, good conditions
    rates = [
        psk_security(
            PskConfig.from_modulation_variance(m, 0.5),
            t, DAYLIGHT_NOISE, Detection.HOMODYNE, 0.9,
        ).skr_asymptotic
        for m in (2, 4, 8)
    ]
    assert rates[2] >= rates[1] >= rates[0]


def test_psk_never_beats_gaussian_modulation():
    for t in _table_transmittances():
        gm = gm_security(5.0, t, DAYLIGHT_NOISE, Detection.HOMODYNE, 0.9)
        for m in (2, 4, 8):
            psk = psk_security(
                PskConfig.from_modulation_variance(m, 0.5),
                t, DAYLIGHT_NOISE, Detection.HOMODYNE, 0.9,
            )
            assert psk.skr_asymptotic <= gm.skr_asymptotic
