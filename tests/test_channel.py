import math
import re
from statistics import NormalDist

import mpmath
import pytest

from satcvqkd import (
    AtmosphericConditions,
    FarFieldViolation,
    GeometryError,
    OpticalTerminals,
    Site,
    link_budget,
    slant_path,
)
from satcvqkd.channel import (
    far_field_bound_m,
    geometric_loss_db,
    rytov_variance,
    scattering_coefficient_db_per_km,
    scintillation_index,
    scintillation_loss_db,
    SlantPath,
)

from oracles import rytov_variance_quad, slant_range_2d

GOOD = AtmosphericConditions(visibility_km=200.0, cn2=1e-16)
BAD = AtmosphericConditions(visibility_km=20.0, cn2=1e-13)


# --- slant-path geometry ---------------------------------------------------


def test_zenith_reduces_to_altitude_difference():
    path = slant_path(Site(), 500e3, 90.0)
    assert path.total_distance_m == 500e3
    assert path.effective_atmosphere_m == 20e3


def test_slant_matches_vector_geometry_oracle():
    for theta in range(5, 91, 5):
        path = slant_path(Site(), 500e3, float(theta))
        expected = slant_range_2d(6_371_000.0, 6_371_000.0 + 500e3, float(theta))
        assert path.total_distance_m == pytest.approx(expected, rel=1e-9)
        expected_atm = slant_range_2d(6_371_000.0, 6_371_000.0 + 20e3, float(theta))
        assert path.effective_atmosphere_m == pytest.approx(expected_atm, rel=1e-9)


def test_slant_oracle_with_raised_ogs():
    path = slant_path(Site(ogs_altitude_m=1029.0), 417.5e3, 37.0)
    expected = slant_range_2d(6_371_000.0 + 1029.0, 6_371_000.0 + 417.5e3, 37.0)
    assert path.total_distance_m == pytest.approx(expected, rel=1e-9)


def test_total_distance_decreases_with_elevation():
    distances = [
        slant_path(Site(), 500e3, float(theta)).total_distance_m
        for theta in range(5, 91, 5)
    ]
    assert all(d1 > d2 for d1, d2 in zip(distances, distances[1:]))


def test_atmosphere_shorter_than_total_path():
    for theta in (5.0, 20.0, 45.0, 77.0, 90.0):
        path = slant_path(Site(), 300e3, theta)
        assert path.effective_atmosphere_m <= path.total_distance_m


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(satellite_altitude_m=500e3, elevation_deg=0.0,
             match="elevation must be in (0, 90] degrees, got 0.0"),
        dict(satellite_altitude_m=500e3, elevation_deg=90.5,
             match="elevation must be in (0, 90] degrees, got 90.5"),
        dict(satellite_altitude_m=500e3, elevation_deg=45.0, ogs_altitude_m=25e3,
             match="altitudes must satisfy atmosphere thickness > OGS >= 0, got 20000.0, 25000.0"),
        dict(satellite_altitude_m=15e3, elevation_deg=45.0,
             match="satellite altitude must be above the 20000.0 m atmosphere, got 15000.0"),
        # 1 mm below the top: the law of cosines cancels the path to exactly 0
        dict(satellite_altitude_m=500e3, elevation_deg=30.0, ogs_altitude_m=19_999.999,
             match="path through the atmosphere must be positive, got 0.0"),
    ],
)
def test_invalid_geometry_rejected(kwargs):
    kwargs = dict(kwargs)
    match = f"^{re.escape(kwargs.pop('match'))}$"
    position = kwargs.pop("satellite_altitude_m"), kwargs.pop("elevation_deg")
    with pytest.raises(GeometryError, match=match):
        slant_path(Site(**kwargs), *position)


# --- geometric loss ----------------------------------------------------------


def test_geometric_loss_reference_value():
    # 10*log10((0.775/0.3)^2 / 0.729) evaluated independently
    path = SlantPath(total_distance_m=500e3, effective_atmosphere_m=20e3)
    loss = geometric_loss_db(path, OpticalTerminals())
    assert loss == pytest.approx(9.6165, abs=1e-3)


def test_geometric_loss_distance_doubling():
    t = OpticalTerminals()
    l1 = geometric_loss_db(SlantPath(400e3, 20e3), t)
    l2 = geometric_loss_db(SlantPath(800e3, 20e3), t)
    assert l2 - l1 == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)


def test_geometric_loss_splits_into_distance_and_optics():
    t = OpticalTerminals()
    path = SlantPath(600e3, 20e3)
    distance_db = 10.0 * math.log10(
        (path.total_distance_m * t.wavelength_m
         / (t.transmitter_aperture_m * t.receiver_aperture_m)) ** 2
    )
    optics_db = -10.0 * math.log10(0.9 * 0.9 * 0.9)
    assert geometric_loss_db(path, t) == pytest.approx(distance_db + optics_db, rel=1e-12)


def test_far_field_bound_and_violation():
    t = OpticalTerminals()  # D_r = 1 m, D_t = 0.3 m, 1550 nm
    assert far_field_bound_m(t) == pytest.approx(193548.4, abs=0.1)
    with pytest.raises(FarFieldViolation) as err:
        geometric_loss_db(SlantPath(100e3, 20e3), t)
    assert err.value.bound_m == pytest.approx(193548.4, abs=0.1)

    wide = OpticalTerminals(receiver_aperture_m=2.0)
    assert far_field_bound_m(wide) == pytest.approx(387096.8, abs=0.1)


# --- scattering --------------------------------------------------------------


def test_scattering_reference_values():
    # independent scalar evaluations with the exponent written out
    expected_good = 10.0 * math.log10(math.e) * (3.912 / 200.0) * (1550.0 / 550.0) ** -1.6
    expected_bad = 10.0 * math.log10(math.e) * (3.912 / 20.0) * (1550.0 / 550.0) ** -1.3
    assert expected_good == pytest.approx(0.0162, abs=1e-4)
    assert expected_bad == pytest.approx(0.221, abs=1e-3)
    assert scattering_coefficient_db_per_km(1550e-9, 200.0) == pytest.approx(
        expected_good, rel=1e-12
    )
    assert scattering_coefficient_db_per_km(1550e-9, 20.0) == pytest.approx(
        expected_bad, rel=1e-12
    )


def test_scattering_branch_continuity():
    for v_boundary in (6.0, 1.0, 0.5):
        below = scattering_coefficient_db_per_km(1550e-9, v_boundary - 1e-9)
        at = scattering_coefficient_db_per_km(1550e-9, v_boundary)
        assert below == pytest.approx(at, rel=1e-5)


def test_scattering_discontinuity_at_50km_preserved():
    below = scattering_coefficient_db_per_km(1550e-9, 50.0 - 1e-9)
    at = scattering_coefficient_db_per_km(1550e-9, 50.0)
    # exponent jumps 1.3 -> 1.6, so the coefficient drops by (1550/550)^0.3
    assert at / below == pytest.approx((1550.0 / 550.0) ** (-0.3), rel=1e-6)


# --- scintillation -----------------------------------------------------------


def test_rytov_zero_turbulence():
    assert rytov_variance(20e3, 0.0, 1550e-9) == 0.0


def test_rytov_matches_closed_form():
    for length, cn2 in ((20e3, 1e-16), (47e3, 1e-13), (35e3, 5e-15)):
        expected = rytov_variance_quad(length, cn2, 1550e-9)
        assert rytov_variance(length, cn2, 1550e-9) == pytest.approx(expected, rel=1e-12)


def test_scintillation_index_zero_without_turbulence():
    assert scintillation_index(1.0, 1550e-9, 20e3, 0.0) == 0.0


def test_scintillation_index_reference_point():
    # sigma_R^2 = 1 and d = 1: evaluate the printed expression at high precision
    mpmath.mp.dps = 40
    first = mpmath.mpf("0.20") / (1 + mpmath.mpf("0.18") + mpmath.mpf("0.20")) ** (
        mpmath.mpf(7) / 6
    )
    second = (
        mpmath.mpf("0.21")
        * (1 + mpmath.mpf("0.24")) ** (-mpmath.mpf(5) / 6)
        / (1 + mpmath.mpf("0.90") + mpmath.mpf("0.21"))
    )
    expected = float(mpmath.exp(first + second) - 1)
    # choose D_r so that d^2 = 1
    length = 20e3
    wavelength = 1550e-9
    d_r = math.sqrt(2.0 * wavelength * length / math.pi)
    assert scintillation_index(d_r, wavelength, length, 1.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_scintillation_index_aperture_averaging_monotone():
    sigma_r2 = 1.3
    values = [
        scintillation_index(d_r, 1550e-9, 20e3, sigma_r2)
        for d_r in (0.1, 0.3, 0.5, 1.0, 2.0, 4.0)
    ]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


def test_scintillation_loss_zero_index():
    assert scintillation_loss_db(0.0, 1e-6) == 0.0


def test_scintillation_loss_median_outage_limit():
    sigma_i2 = 0.4
    value = scintillation_loss_db(sigma_i2, 0.5 - 1e-13)
    assert value == pytest.approx(-4.343 * 0.5 * math.log(1.0 + sigma_i2), abs=1e-9)


def test_scintillation_loss_cross_checked_erfinv():
    # the standard-normal quantile against sqrt(2) * mpmath's erfinv, then the
    # full expression
    mpmath.mp.dps = 30
    p = 1e-6
    mp_inv = float(mpmath.erfinv(2.0 * p - 1.0))
    assert NormalDist().inv_cdf(p) == pytest.approx(math.sqrt(2.0) * mp_inv, abs=1e-10)
    sigma_i2 = 0.5
    log_term = math.log(1.0 + sigma_i2)
    expected = 4.343 * (mp_inv * math.sqrt(2.0 * log_term) - 0.5 * log_term)
    assert scintillation_loss_db(sigma_i2, p) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 0.5, 0.7, 1.0])
def test_scintillation_loss_outage_domain(p):
    with pytest.raises(ValueError):
        scintillation_loss_db(0.1, p)


def test_conditions_refuse_an_outage_of_one_half_exactly():
    assert GOOD._replace(outage_probability=0.4999).outage_probability == 0.4999
    with pytest.raises(ValueError, match=r"^outage probability must be in \(0, 0.5\), got 0.5$"):
        GOOD._replace(outage_probability=0.5)


# --- total budget ------------------------------------------------------------


def test_total_transmittance_is_product_of_mechanisms():
    path = slant_path(Site(), 500e3, 60.0)
    budget = link_budget(path, OpticalTerminals(), GOOD)
    product = (
        10.0 ** (-budget.geometric_db / 10.0)
        * 10.0 ** (-budget.scattering_db / 10.0)
        * 10.0 ** (-budget.scintillation_db / 10.0)
    )
    assert budget.transmittance == pytest.approx(product, rel=1e-12)


def test_total_db_additivity():
    path = slant_path(Site(), 700e3, 35.0)
    budget = link_budget(path, OpticalTerminals(), BAD)
    assert -10 * math.log10(budget.transmittance) == pytest.approx(
        budget.geometric_db + budget.scattering_db + budget.scintillation_db,
        abs=1e-10,
    )


def test_component_sum_reference():
    # good conditions at zenith, 500 km: the three frozen component values
    path = slant_path(Site(), 500e3, 90.0)
    budget = link_budget(path, OpticalTerminals(), GOOD)
    assert budget.geometric_db == pytest.approx(9.6165, abs=1e-3)
    assert budget.scattering_db == pytest.approx(0.0161866 * 20.0, abs=1e-4)
    assert budget.scintillation_db == pytest.approx(1.893, abs=2e-3)
    assert budget.transmittance == pytest.approx(
        10.0 ** (-(9.6165 + 0.323732 + 1.893) / 10.0), rel=1e-3
    )


def test_bad_conditions_strictly_worse():
    path = slant_path(Site(), 500e3, 90.0)
    t_good = link_budget(path, OpticalTerminals(), GOOD).transmittance
    t_bad = link_budget(path, OpticalTerminals(), BAD).transmittance
    assert t_bad < t_good


def test_far_field_propagates_from_budget():
    path = slant_path(Site(), 300e3, 90.0)
    with pytest.raises(FarFieldViolation):
        link_budget(path, OpticalTerminals(receiver_aperture_m=2.0), GOOD)
