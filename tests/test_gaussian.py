import math

import numpy as np
import pytest

from satcvqkd import (
    DAYLIGHT_NOISE,
    Detection,
    NoiseBudget,
    UnphysicalCovariance,
    channel_noise,
    covariance_security,
    g_function,
    gm_security,
    holevo_bound,
    mutual_information_gm,
    skr_asymptotic,
)
from satcvqkd.gaussian import gaussian_correlation

from oracles import gm_matrix_oracle

IDEAL = NoiseBudget(0.0, 0.0, 1.0)


# --- channel noise -----------------------------------------------------------


def test_ideal_channel_has_no_noise():
    state = channel_noise(1.0, IDEAL, Detection.HOMODYNE)
    assert state.chi_line == 0.0
    assert state.chi_detector == 0.0
    assert state.chi_total == 0.0


def test_heterodyne_detector_noise_daylight():
    # eta = 1, eps_det = 0.0135: chi_het = 1 + 2*0.0135
    state = channel_noise(1.0, DAYLIGHT_NOISE, Detection.HETERODYNE)
    assert state.chi_detector == pytest.approx(1.027, rel=1e-12)


def test_line_noise_at_half_transmittance():
    state = channel_noise(0.5, NoiseBudget(0.0186, 0.0, 1.0), Detection.HOMODYNE)
    assert state.chi_line == pytest.approx(1.0186, rel=1e-12)


def test_inefficient_homodyne_detector():
    state = channel_noise(1.0, NoiseBudget(0.0, 0.01, 0.8), Detection.HOMODYNE)
    assert state.chi_detector == pytest.approx((0.2 + 0.01) / 0.8, rel=1e-12)


def test_blocked_channel_rejected():
    with pytest.raises(ValueError):
        channel_noise(0.0, IDEAL, Detection.HOMODYNE)


# --- entropy function --------------------------------------------------------


def test_g_limits_and_values():
    assert g_function(0.0) == 0.0
    assert g_function(1.0) == pytest.approx(2.0, rel=1e-15)
    assert g_function(0.5) == pytest.approx(1.3774438, abs=1e-7)


def test_g_rejects_negative():
    with pytest.raises(ValueError):
        g_function(-1e-6)


# --- mutual information ------------------------------------------------------


def test_mutual_information_vanishing_modulation():
    assert mutual_information_gm(1e-15, 0.8, Detection.HOMODYNE) == pytest.approx(
        0.0, abs=1e-12
    )


def test_mutual_information_is_zero_without_modulation_and_refuses_a_negative_one():
    for kind in Detection:
        assert mutual_information_gm(0.0, 0.8, kind) == 0.0
    with pytest.raises(ValueError, match=r"^modulation variance must be >= 0, got -1e-300$"):
        mutual_information_gm(-1e-300, 0.8, Detection.HOMODYNE)


def test_heterodyne_doubles_homodyne_at_equal_noise():
    for v_a, chi in ((0.5, 0.3), (5.0, 2.0), (12.0, 27.0)):
        hom = mutual_information_gm(v_a, chi, Detection.HOMODYNE)
        het = mutual_information_gm(v_a, chi, Detection.HETERODYNE)
        assert het == pytest.approx(2.0 * hom, rel=1e-14)


def test_mutual_information_reference_value():
    assert mutual_information_gm(5.0, 1.0, Detection.HOMODYNE) == pytest.approx(
        0.5 * math.log2(3.5), rel=1e-14
    )


# --- Holevo bound ------------------------------------------------------------


@pytest.mark.parametrize("kind", [Detection.HOMODYNE, Detection.HETERODYNE])
@pytest.mark.parametrize("v_a", [0.5, 2.0, 5.0, 40.0])
def test_lossless_noiseless_channel_leaks_nothing(kind, v_a):
    state = channel_noise(1.0, IDEAL, kind)
    s_be, lambdas = holevo_bound(
        v_a, 1.0, state.chi_line, state.chi_detector, gaussian_correlation(v_a), kind
    )
    assert abs(s_be) <= 1e-9
    assert all(abs(lam - 1.0) <= 1e-7 for lam in lambdas)


def test_channel_eigenvalue_inputs_forced_at_null_point():
    # T=1, no noise: A = 2 and B = 1, hence unit eigenvalues
    v_a = 5.0
    z = gaussian_correlation(v_a)
    a = (v_a + 1.0) ** 2 + (v_a + 1.0) ** 2 - 2.0 * z**2
    b = ((v_a + 1.0) ** 2 - z**2) ** 2
    assert a == pytest.approx(2.0, rel=1e-12)
    assert b == pytest.approx(1.0, rel=1e-12)


def _random_configs(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (
            rng.uniform(0.1, 20.0),  # v_a
            10.0 ** rng.uniform(-4.0, 0.0),  # transmittance
            rng.uniform(0.0, 0.2),  # eps_ch
            rng.uniform(0.0, 0.1),  # eps_det
            rng.uniform(0.3, 0.98),  # eta
            rng.uniform(0.2, 1.0),  # correlation fraction
            Detection.HOMODYNE if rng.random() < 0.5 else Detection.HETERODYNE,
        )


def test_holevo_matches_matrix_oracle():
    checked = 0
    for v_a, t, eps_ch, eps_det, eta, zfrac, kind in _random_configs(300, seed=11):
        z = zfrac * gaussian_correlation(v_a)
        noise = channel_noise(t, NoiseBudget(eps_ch, eps_det, eta), kind)
        try:
            s_be, lambdas = holevo_bound(
                v_a, t, noise.chi_line, noise.chi_detector, z, kind
            )
        except UnphysicalCovariance:
            continue
        s_be_ref, nus = gm_matrix_oracle(v_a, t, eps_ch, eps_det, eta, z, kind.value)
        assert s_be == pytest.approx(s_be_ref, abs=1e-8)
        got = sorted(lambdas[:2], reverse=True)
        assert got[0] == pytest.approx(nus[0], abs=1e-8)
        assert got[1] == pytest.approx(nus[1], abs=1e-8)
        checked += 1
    assert checked > 250


def test_zero_correlation_matches_product_state_oracle():
    v_a, t = 3.0, 0.2
    budget = NoiseBudget(0.05, 0.02, 0.7)
    for kind in Detection:
        noise = channel_noise(t, budget, kind)
        s_be, _ = holevo_bound(v_a, t, noise.chi_line, noise.chi_detector, 0.0, kind)
        s_ref, _ = gm_matrix_oracle(v_a, t, 0.05, 0.02, 0.7, 0.0, kind.value)
        assert s_be == pytest.approx(s_ref, abs=1e-8)


def test_eigenvalues_physical_on_random_grid():
    for v_a, t, eps_ch, eps_det, eta, _zfrac, kind in _random_configs(200, seed=23):
        noise = channel_noise(t, NoiseBudget(eps_ch, eps_det, eta), kind)
        s_be, lambdas = holevo_bound(
            v_a, t, noise.chi_line, noise.chi_detector, gaussian_correlation(v_a), kind
        )
        assert all(lam >= 1.0 - 1e-9 for lam in lambdas)
        assert s_be >= -1e-12


def test_unphysical_covariance_detected():
    # Correlation beyond the Gaussian ceiling is not a physical state.
    v_a, t = 5.0, 0.5
    noise = channel_noise(t, IDEAL, Detection.HOMODYNE)
    with pytest.raises(UnphysicalCovariance):
        holevo_bound(
            v_a, t, noise.chi_line, noise.chi_detector,
            1.5 * gaussian_correlation(v_a), Detection.HOMODYNE,
        )


# --- asymptotic rate ---------------------------------------------------------


def test_skr_reduces_to_mutual_information():
    assert skr_asymptotic(1.0, 0.7, 0.0) == pytest.approx(0.7)


def test_skr_break_even():
    assert skr_asymptotic(0.9, 1.0, 0.9) == pytest.approx(0.0, abs=1e-15)


def test_skr_monotone_in_channel_excess():
    rates = []
    for eps_ch in np.linspace(0.0, 0.1, 11):
        constants = gm_security(5.0, NoiseBudget(eps_ch, 0.0135, 1.0), Detection.HOMODYNE)
        result = covariance_security(constants, 0.1, 0.9)
        rates.append(result.skr_asymptotic)
    assert all(r1 >= r2 for r1, r2 in zip(rates, rates[1:]))


def test_positive_key_at_reference_link():
    # good conditions, 500 km zenith: T ~ 0.0656
    constants = gm_security(5.0, DAYLIGHT_NOISE, Detection.HOMODYNE)
    result = covariance_security(constants, 0.0656, 0.9)
    assert result.skr_asymptotic > 0.0


# --- a group of protocols as column arrays ------------------------------------------

# V_A values whose float squares, C pow's, differ from numpy's x * x in the last
# bit: (V_A + 1)^2 at 1.759 and 3.536, Z^2 at 2.184; the PSK Z_M of the ring
# differs from the Gaussian Z, so it tries other squares again
_POW_SENSITIVE = (1.759, 2.184, 3.536, 5.0)


@pytest.mark.parametrize("kind", list(Detection))
def test_stacked_constants_give_each_protocols_float_key_rate_bit_for_bit(kind):
    from satcvqkd.psk import psk_security

    group = [gm_security(v, DAYLIGHT_NOISE, kind) for v in _POW_SENSITIVE] + \
        [psk_security(m, 0.5, DAYLIGHT_NOISE, kind) for m in (2, 4, 8)]
    stacked = group[0]._replace(
        modulation_variance=np.array([[c.modulation_variance] for c in group]),
        correlation=np.array([[c.correlation] for c in group]))
    t = np.array([0.5, 0.0656, 1e-3, 1e-12])
    rows = covariance_security(stacked, t, 0.95)
    for row, constants in enumerate(group):
        alone = covariance_security(constants, t, 0.95)
        for got, want in zip(rows, alone):
            assert got.shape == (len(group), t.size)
            assert np.array_equal(got[row], want)
