import cmath
import math
import re

import numpy as np
import pytest

from satcvqkd import (
    DAYLIGHT_NOISE,
    Constellation,
    Detection,
    KeyConstants,
    correlation_z,
    covariance_security,
    gm_security,
    modulation_density_matrix,
    psk_security,
    zeta_weights,
)
from satcvqkd.gaussian import gaussian_correlation
from satcvqkd.psk import series_terms

from oracles import psk_weights_dft, sector_eigenvectors


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
    vectors = sector_eigenvectors(ws)
    for idx in order[:states]:
        vec = vectors[:, idx]
        sector_mass = [np.sum(np.abs(vec[n_mod == k]) ** 2) for k in range(states)]
        weights[int(np.argmax(sector_mass))] = ws.eigenvalues[idx]
    return weights


# --- spectral weights --------------------------------------------------------


def test_two_state_weights_at_small_amplitude():
    w = zeta_weights(2, 1e-6)
    assert w[0] == pytest.approx(1.0, abs=1e-11)
    assert w[1] == pytest.approx(0.0, abs=1e-11)


@pytest.mark.parametrize("states", [2, 4, 8])
def test_weights_sum_to_one(states):
    for alpha in np.linspace(0.05, 3.0, 30):
        w = zeta_weights(states, float(alpha))
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("states", [2, 4, 8])
def test_weights_nonnegative(states):
    for alpha in np.linspace(0.05, 3.0, 60):
        assert np.all(zeta_weights(states, float(alpha)) >= 0.0)


@pytest.mark.parametrize("states", [2, 4, 8])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 1.0])
def test_weights_match_fock_eigenvalue_oracle(states, alpha):
    weights = zeta_weights(states, alpha)
    oracle = _fock_sector_weights(states, alpha)
    assert np.max(np.abs(weights - oracle)) < 1e-10


@pytest.mark.parametrize("states", [2, 4, 8])
def test_every_weight_matches_mpmath_to_full_relative_precision(states):
    # 0.1607 at M = 8 puts sector 4 just above 1e-8, where trigonometric
    # closed forms had lost all but about eight digits to cancellation
    for alpha in [*np.geomspace(1e-3, 6.0, 41), 0.1607]:
        weights = zeta_weights(states, float(alpha))
        oracle = psk_weights_dft(states, float(alpha))
        assert np.max(np.abs(weights - oracle) / oracle) <= 1e-12, alpha


# --- ring correlation ---------------------------------------------------------


def test_correlation_two_state_structure():
    w = zeta_weights(2, 0.5)
    expected = 0.25 * (w[0] ** 1.5 / math.sqrt(w[1]) + w[1] ** 1.5 / math.sqrt(w[0]))
    assert correlation_z(2, 0.5) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("states", [4, 8])
def test_correlation_small_amplitude_limit(states):
    assert correlation_z(states, 1e-4) < 1e-3


def test_correlation_four_state_against_fock_oracle():
    alpha = 0.5
    oracle_w = _fock_sector_weights(4, alpha)
    expected = 2.0 * alpha**2 * sum(
        oracle_w[(k - 1) % 4] ** 1.5 / math.sqrt(oracle_w[k]) for k in range(4)
    )
    assert correlation_z(4, alpha) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("states", [2, 4, 8])
def test_correlation_below_gaussian_ceiling(states):
    for alpha in np.linspace(0.05, 2.0, 40):
        assert correlation_z(states, float(alpha)) <= gaussian_correlation(
            2.0 * alpha**2
        ) * (1.0 + 1e-12)


def test_zero_amplitude_rejected():
    for reject in (lambda: zeta_weights(4, 0.0), lambda: correlation_z(4, 0.0),
                   lambda: psk_security(4, 0.0, DAYLIGHT_NOISE, Detection.HOMODYNE)):
        with pytest.raises(ValueError, match=r"^alpha must be positive, got 0\.0$"):
            reject()


def test_state_count_outside_the_rings_rejected():
    for reject in (lambda: zeta_weights(3, 0.5), lambda: correlation_z(16, 0.5),
                   lambda: psk_security(6, 0.5, DAYLIGHT_NOISE, Detection.HOMODYNE)):
        with pytest.raises(ValueError, match=r"^states must be one of \(2, 4, 8\), got \d+$"):
            reject()


@pytest.mark.parametrize("alpha", [100.0, 300.0])
def test_series_terms_count_the_sector_sums(monkeypatch, alpha):
    lgamma, calls = math.lgamma, []  # one lgamma per term
    monkeypatch.setattr(math, "lgamma", lambda n: calls.append(n) or lgamma(n))
    zeta_weights(8, alpha)
    assert len(calls) == pytest.approx(series_terms(alpha), rel=0.01)


def test_a_series_over_the_cap_is_refused_before_it_is_summed(monkeypatch):
    monkeypatch.setattr(math, "lgamma", lambda n: pytest.fail("a term was summed"))
    for reject, alpha, terms in (
        (lambda: zeta_weights(8, 1e200), "1e+200", "inf"),  # alpha^2 overflows
        (lambda: psk_security(8, 2e300, DAYLIGHT_NOISE, Detection.HOMODYNE), "1e+150", "1e+300"),
    ):
        with pytest.raises(ValueError, match=re.escape(
                f"8-PSK at alpha = {alpha} needs about {terms} sector-series terms, "
                "over the cap of 1000000")):
            reject()


def test_from_modulation_variance_mapping():
    # the ring has alpha = sqrt(V_A / 2); the covariance matrix takes V_A itself
    for states, v_a in ((4, 0.5), (8, 0.3), (2, 7.0)):
        ring = psk_security(states, v_a, DAYLIGHT_NOISE, Detection.HOMODYNE)
        z = correlation_z(states, math.sqrt(v_a / 2.0))
        assert ring == KeyConstants(v_a, z, DAYLIGHT_NOISE, Detection.HOMODYNE)


# --- key rates ----------------------------------------------------------------


def _table_transmittances():
    # representative LEO links, good conditions, from the channel model
    return (0.132, 0.0656, 0.0284)  # ~ 300/500/800 km at zenith


def test_two_state_never_positive_on_leo_grid():
    for t in _table_transmittances():
        constants = psk_security(2, 0.5, DAYLIGHT_NOISE, Detection.HOMODYNE)
        result = covariance_security(constants, t, 0.9)
        assert result.skr_asymptotic <= 0.0


def test_more_states_give_higher_rates():
    t = 0.132  # ~300 km zenith, good conditions
    rates = [
        covariance_security(
            psk_security(m, 0.5, DAYLIGHT_NOISE, Detection.HOMODYNE), t, 0.9
        ).skr_asymptotic
        for m in (2, 4, 8)
    ]
    assert rates[2] >= rates[1] >= rates[0]


def test_psk_never_beats_gaussian_modulation():
    for t in _table_transmittances():
        gm = covariance_security(gm_security(5.0, DAYLIGHT_NOISE, Detection.HOMODYNE), t, 0.9)
        for m in (2, 4, 8):
            constants = psk_security(m, 0.5, DAYLIGHT_NOISE, Detection.HOMODYNE)
            psk = covariance_security(constants, t, 0.9)
            assert psk.skr_asymptotic <= gm.skr_asymptotic
