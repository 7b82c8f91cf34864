import math
import re

import numpy as np
import pytest

import satcvqkd as s
from satcvqkd import db_to_transmittance
from satcvqkd.quantities import check_transmittance


def test_zero_loss_is_unit_transmittance():
    assert db_to_transmittance(0.0) == 1.0


def test_ten_db_is_factor_ten():
    assert db_to_transmittance(10.0) == pytest.approx(0.1, rel=1e-15)


def test_half_power_point():
    # 10^(-3.0103/10) evaluates to one half to five digits
    assert db_to_transmittance(3.0103) == pytest.approx(0.5, abs=5e-6)


def test_round_trip_over_working_range():
    for a in np.linspace(0.0, 100.0, 401):
        back = -10.0 * math.log10(db_to_transmittance(a))
        assert back == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_negative_attenuation_rejected():
    with pytest.raises(ValueError):
        db_to_transmittance(-0.1)


def test_blocked_channel_rejected():
    with pytest.raises(ValueError):
        check_transmittance(0.0)
    with pytest.raises(ValueError):
        check_transmittance(-0.5)


def test_super_unity_transmittance_rejected():
    with pytest.raises(ValueError):
        check_transmittance(1.0 + 1e-9)


_HOMODYNE = s.Detection.HOMODYNE

# Each closed-form check, given two elements of which the second is bad.
OFFENDING_CASES = {
    "qam_mutual_information_T": (
        lambda v: s.mutual_information_qam(2.0, np.array([0.5, v]), 0.02, _HOMODYNE), 1.5),
    "gm_mutual_information_chi": (
        lambda v: s.mutual_information_gm(5.0, np.array([0.1, v]), _HOMODYNE), -0.5),
    "skr_asymptotic_beta": (
        lambda v: s.skr_asymptotic(np.array([0.9, v]), 1.0, 0.5), 1.25),
    "skr_finite_FER": (
        lambda v: s.skr_finite(50e6, np.array([0.1, v]), 0.9, 1.0, 0.5, 1e-3), 1.5),
    "snr_db_T": (lambda v: s.snr_db(1.0, np.array([0.5, v]), 0.1), 0.0),
    "snr_db_chi": (lambda v: s.snr_db(1.0, 0.5, np.array([0.1, v])), -0.5),
    "rytov_variance_path": (
        lambda v: s.rytov_variance(np.array([1e4, v]), 1e-16, 1550e-9), -1.0),
    "scintillation_index_path": (
        lambda v: s.scintillation_index(1.0, 1550e-9, np.array([1e4, v]), 0.1), 0.0),
    "scintillation_index_rytov": (
        lambda v: s.scintillation_index(1.0, 1550e-9, 1e4, np.array([0.1, v])), -0.2),
    "scintillation_loss_index": (
        lambda v: s.scintillation_loss_db(np.array([0.1, v]), 1e-6), -0.2),
}


@pytest.mark.parametrize("call, bad", OFFENDING_CASES.values(), ids=OFFENDING_CASES)
def test_check_names_the_offending_value(call, bad):
    with pytest.raises(ValueError, match=f"got {re.escape(str(bad))}$"):
        call(bad)


def test_square_rounds_as_a_floats_power_does():
    from satcvqkd.quantities import square

    # each x * x is one bit off x ** 2, as numpy's ** rounds an array's squares
    values = [2.759, 4.536, math.sqrt(2.184**2 + 2.0 * 2.184), math.sqrt(1.074 / 2.0)]
    assert all(x * x != x**2 for x in values)
    assert square(np.array(values)).tolist() == [x**2 for x in values]
    assert [float(square(x)) for x in values] == [x**2 for x in values]
