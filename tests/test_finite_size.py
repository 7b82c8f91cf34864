import math

import mpmath
import numpy as np
import pytest

from satcvqkd import MD, MLC_MSD, FiniteSizeParams, beta, fer, privacy_penalty, \
    skr_finite, snr_db


# --- SNR ----------------------------------------------------------------------


def test_snr_unit_transmittance_is_zero_db():
    assert snr_db(1.2, 1.0, 57.0) == 0.0


def test_snr_noiseless_channel():
    assert snr_db(0.7, 0.25, 0.0) == pytest.approx(10.0 * math.log10(0.25), rel=1e-14)


def test_snr_reference_value():
    # |alpha|^2 = 2.5, T = 0.01, chi = 100, evaluated independently
    expected = 10.0 * math.log10(0.01 * 2.5 / (2.5 + 0.99 * 100.0))
    assert snr_db(math.sqrt(2.5), 0.01, 100.0) == pytest.approx(expected, rel=1e-14)


def test_snr_rejects_dark_signal():
    with pytest.raises(ValueError):
        snr_db(0.0, 0.5, 1.0)


# --- efficiency fit --------------------------------------------------------------


def test_beta_at_zero_snr():
    assert beta(0.0, MLC_MSD).value == pytest.approx(0.9655 - 0.04696, abs=1e-12)
    assert beta(0.0, MLC_MSD).value == pytest.approx(0.9185, abs=1e-4)
    assert beta(0.0, MD).value == pytest.approx(-0.0825 + 0.9821, abs=1e-12)
    assert beta(0.0, MD).value == pytest.approx(0.8996, abs=1e-4)


def test_beta_md_low_snr_limit():
    # the decaying term vanishes, leaving the slowly growing 0.9821 branch
    fit = beta(-100.0, MD)
    assert fit.value == pytest.approx(0.9821 * math.exp(0.00002815 * 100.0), abs=1e-8)
    assert fit.valid
    assert 0.98 < fit.value < 1.0


def test_beta_invalid_outside_unit_interval():
    assert not beta(20.0, MD).valid  # negative at high SNR
    assert not beta(-16.0, MLC_MSD).valid  # negative at low SNR
    assert beta(-5.0, MLC_MSD).valid


def test_beta_validity_windows():
    # MLC-MSD usable only above ~ -13.5 dB; MD from very low SNR up to ~13.5 dB
    assert not beta(-14.0, MLC_MSD).valid
    assert beta(-13.0, MLC_MSD).valid
    assert beta(-14.0, MD).valid
    assert beta(13.0, MD).valid
    assert not beta(14.0, MD).valid


# --- frame error rate -------------------------------------------------------------


def test_fer_midpoint():
    snr = -298.1 / 19.46  # arctan argument crosses zero
    fit = fer(snr, MD)
    assert fit.value == pytest.approx(0.5, abs=1e-6)
    assert not fit.clamped


def test_fer_saturation_and_clamping():
    high = fer(50.0, MD)
    assert high.value == 0.0
    assert high.raw < 0.0
    assert high.clamped
    low = fer(-80.0, MD)
    assert low.value == 1.0
    assert low.raw > 1.0
    assert low.clamped


def test_fer_monotone_nonincreasing():
    values = [fer(snr, MD).value for snr in np.linspace(-40.0, 10.0, 301)]
    assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))


# --- privacy penalty ----------------------------------------------------------------


def _penalty_terms(d, eps_s, eps, n):
    mpmath.mp.dps = 40
    sqrt_n = mpmath.sqrt(n)
    return (
        (d + 1) ** 2 / sqrt_n,
        4 * (d + 1) * mpmath.sqrt(mpmath.log(2 / mpmath.mpf(eps_s), 2)) / sqrt_n,
        2 * mpmath.log(2 / (mpmath.mpf(eps) ** 2 * mpmath.mpf(eps_s)), 2) / sqrt_n,
        (4 * mpmath.mpf(eps_s) * d / (mpmath.mpf(eps) * sqrt_n)) / sqrt_n,
    )


def test_privacy_penalty_reference_value():
    params = FiniteSizeParams()
    expected = float(sum(_penalty_terms(5, 2e-10, 1e-9, 1e11)))
    assert privacy_penalty(params) == pytest.approx(expected, rel=1e-12)
    assert privacy_penalty(params) == pytest.approx(1.1395e-3, abs=1e-6)


def test_privacy_penalty_block_size_scaling():
    base = FiniteSizeParams(total_symbols=1e10)
    quad = FiniteSizeParams(total_symbols=4e10)
    t = _penalty_terms(5, 2e-10, 1e-9, 1e10)
    expected = float((t[0] + t[1] + t[2]) / 2 + t[3] / 4)
    assert privacy_penalty(quad) == pytest.approx(expected, rel=1e-12)
    assert privacy_penalty(quad) < privacy_penalty(base)


def test_privacy_penalty_vanishes_for_large_blocks():
    assert privacy_penalty(FiniteSizeParams(total_symbols=1e30)) < 1e-12


def test_privacy_penalty_strictly_decreasing():
    values = [
        privacy_penalty(FiniteSizeParams(total_symbols=n))
        for n in (1e8, 1e9, 1e10, 1e11, 1e12)
    ]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


# --- finite-size rate -----------------------------------------------------------------


def test_all_frames_lost():
    rate = skr_finite(50e6, 1.0, 0.95, 0.4, 0.1, 1e-3)
    assert rate == pytest.approx(50e6 * (-0.1 - 1e-3), rel=1e-12)
    assert rate < 0.0


def test_reduces_to_scaled_asymptotic():
    rate = skr_finite(50e6, 0.0, 0.9, 0.5, 0.2, 0.0)
    assert rate == pytest.approx(50e6 * (0.9 * 0.5 - 0.2), rel=1e-12)


def test_amended_bounded_by_asymptotic():
    for fer_value in (0.0, 0.2, 0.9):
        amended = skr_finite(50e6, fer_value, 0.9, 0.5, 0.2, 1e-3)
        assert amended <= 50e6 * (0.9 * 0.5 - 0.2) + 1e-9


def test_md_usable_wherever_mlc_msd_is():
    # over the operating SNR range, every SNR where MLC-MSD yields a valid
    # efficiency also admits MD
    for snr in np.linspace(-20.0, 5.0, 251):
        if beta(snr, MLC_MSD).valid:
            assert beta(snr, MD).valid


def test_a_column_of_amplitudes_gives_each_amplitudes_float_snr_bit_for_bit():
    # the first amplitude's float square, C pow's, is one bit off numpy's x * x
    alphas = [math.sqrt(1.074 / 2.0), math.sqrt(2.5), 0.7]
    t = np.geomspace(1e-3, 0.5, 40)  # some SNRs carry that bit to the result
    chi = 1.0 / t - 1.0 + 0.05
    stacked = snr_db(np.array(alphas)[:, None], t, chi)
    for row, alpha in enumerate(alphas):
        assert np.array_equal(stacked[row], snr_db(alpha, t, chi))
