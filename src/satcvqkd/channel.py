"""Slant-path geometry and atmospheric link budget for a satellite downlink.

Three attenuation mechanisms are modelled: diffraction-limited geometric
loss, Mie scattering (Kruse/Kim visibility model) and scintillation with
aperture averaging.  Clouds and precipitation are intentionally absent:
they block the channel outright instead of attenuating it.  Altitudes,
elevations and path lengths may be floats or arrays of points.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import FarFieldViolation, GeometryError
from .quantities import db_to_transmittance, offending, reject, validating

EARTH_RADIUS_M = 6_371_000.0
ATMOSPHERE_THICKNESS_M = 20_000.0

# Tolerated floating-point overshoot of |arcsin argument| beyond 1 (noise at zenith).
_ASIN_CLAMP_TOL = 1e-9


@validating
class LinkGeometry(NamedTuple):
    """Positions defining satellite-to-ground lines of sight.

    ``satellite_altitude_m`` is the orbit altitude at zenith; the elevation
    angle is measured at the ground station from the local horizon.  Both
    may be arrays that broadcast together, one line of sight per element.
    """

    satellite_altitude_m: float
    elevation_deg: float
    ogs_altitude_m: float = 0.0
    atmosphere_thickness_m: float = ATMOSPHERE_THICKNESS_M
    earth_radius_m: float = EARTH_RADIUS_M

    def _check(self) -> None:
        elevation = np.asarray(self.elevation_deg)
        bad = ~((0.0 < elevation) & (elevation <= 90.0))
        if np.any(bad):
            raise GeometryError(
                f"elevation must be in (0, 90] degrees, got {offending(elevation, bad)}"
            )
        satellite = np.asarray(self.satellite_altitude_m)
        bad = ~(
            (satellite > self.atmosphere_thickness_m)
            & (self.atmosphere_thickness_m > self.ogs_altitude_m >= 0.0)
        )
        if np.any(bad):
            raise GeometryError(
                "altitudes must satisfy satellite > atmosphere thickness "
                f"> OGS >= 0, got {offending(satellite, bad)}, "
                f"{self.atmosphere_thickness_m}, {self.ogs_altitude_m}"
            )
        if self.earth_radius_m <= 0.0:
            raise GeometryError("earth radius must be positive")


class SlantPath(NamedTuple):
    """Total line-of-sight distance and the portion inside the atmosphere."""

    total_distance_m: float | np.ndarray
    effective_atmosphere_m: float | np.ndarray


@validating
class OpticalTerminals(NamedTuple):
    """Transmitter/receiver optics entering the geometric-loss estimate."""

    wavelength_m: float = 1550e-9
    transmitter_aperture_m: float = 0.3
    receiver_aperture_m: float = 1.0
    transmitter_efficiency: float = 0.9
    receiver_efficiency: float = 0.9
    pointing_loss: float = 0.1

    def _check(self) -> None:
        if self.wavelength_m <= 0.0 or self.transmitter_aperture_m <= 0.0 \
                or self.receiver_aperture_m <= 0.0:
            raise ValueError("wavelength and apertures must be positive")
        # each factor of the optics product passes some power
        for name in ("transmitter_efficiency", "receiver_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not 0.0 <= self.pointing_loss < 1.0:
            raise ValueError(f"pointing_loss must be in [0, 1), got {self.pointing_loss}")


@validating
class AtmosphericConditions(NamedTuple):
    """Visibility, turbulence strength and the tolerated outage fraction."""

    visibility_km: float
    cn2: float  # refractive-index structure parameter, m^(-2/3)
    outage_probability: float = 1e-6

    def _check(self) -> None:
        if self.visibility_km <= 0.0:
            raise ValueError(f"visibility must be positive, got {self.visibility_km}")
        if self.cn2 <= 0.0:
            raise ValueError(f"Cn^2 must be positive, got {self.cn2}")
        if not 0.0 < self.outage_probability < 0.5:
            raise ValueError(
                f"outage probability must be in (0, 0.5), got {self.outage_probability}"
            )


def _oblique_range(r_ogs_m, r_shell_m, elevation_deg):
    """Distance from the ground station to a spherical shell along the line of sight.

    Triangle (Earth centre, OGS, shell intersection): the angle at the shell
    follows from the sine rule; the central angle closes the triangle and the
    law of cosines yields the range.
    """
    theta = np.radians(elevation_deg)
    arg = np.cos(theta) * r_ogs_m / r_shell_m
    overshoot = np.abs(arg) - 1.0 > _ASIN_CLAMP_TOL
    if np.any(overshoot):
        raise GeometryError(
            f"arcsin argument {offending(arg, overshoot)} outside [-1, 1]: line of "
            "sight does not reach the target shell"
        )
    central = (np.pi / 2.0 - theta) - np.arcsin(np.clip(arg, -1.0, 1.0))
    return np.sqrt(
        r_shell_m**2 + r_ogs_m**2 - 2.0 * r_shell_m * r_ogs_m * np.cos(central)
    )


def slant_path(geometry: LinkGeometry) -> SlantPath:
    """Total link distance and effective atmosphere thickness along the path."""
    r_ogs = geometry.earth_radius_m + geometry.ogs_altitude_m
    total = _oblique_range(
        r_ogs,
        geometry.earth_radius_m + geometry.satellite_altitude_m,
        geometry.elevation_deg,
    )
    in_atmosphere = _oblique_range(
        r_ogs,
        geometry.earth_radius_m + geometry.atmosphere_thickness_m,
        geometry.elevation_deg,
    )
    return SlantPath(total_distance_m=total, effective_atmosphere_m=in_atmosphere)


def far_field_bound_m(terminals: OpticalTerminals) -> float:
    """Minimum link distance for which the diffraction-limited loss form holds."""
    return (
        terminals.receiver_aperture_m
        * terminals.transmitter_aperture_m
        / terminals.wavelength_m
    )


def geometric_loss_db(path: SlantPath, terminals: OpticalTerminals):
    """Diffraction-limited geometric loss of the link in dB.

    Raises :class:`FarFieldViolation` when a receiver is closer than
    D_r*D_t/wavelength; callers must skip such configurations.
    """
    bound = far_field_bound_m(terminals)
    near = path.total_distance_m < bound
    if np.any(near):
        raise FarFieldViolation(float(offending(path.total_distance_m, near)), bound)
    spread = (
        path.total_distance_m
        * terminals.wavelength_m
        / (terminals.transmitter_aperture_m * terminals.receiver_aperture_m)
    ) ** 2
    optics = (
        terminals.transmitter_efficiency
        * (1.0 - terminals.pointing_loss)
        * terminals.receiver_efficiency
    )
    if optics <= 0.0:  # each factor is positive, but their product can underflow
        raise ValueError("terminal efficiencies leave no transmitted power")
    return 10.0 * np.log10(spread / optics)


def _kruse_kim_exponent(visibility_km: float) -> float:
    # Piecewise exponent of the (wavelength/550nm) term; the V = 50 km branch
    # boundary is discontinuous on purpose (1.3 vs 1.6).
    v = visibility_km
    if v >= 50.0:
        return 1.6
    if v >= 6.0:
        return 1.3
    if v >= 1.0:
        return 0.16 * v + 0.34
    if v >= 0.5:
        return v - 0.5
    return 0.0


def scattering_coefficient_db_per_km(wavelength_m: float, visibility_km: float) -> float:
    """Mie-scattering attenuation coefficient in dB/km (Kruse/Kim model)."""
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    if visibility_km <= 0.0:
        raise ValueError("visibility must be positive")
    wavelength_nm = wavelength_m * 1e9
    p = _kruse_kim_exponent(visibility_km)
    return (
        10.0
        * math.log10(math.e)
        * (3.912 / visibility_km)
        * (wavelength_nm / 550.0) ** (-p)
    )


def rytov_variance(effective_atmosphere_m, cn2: float, wavelength_m: float):
    """Rytov variance over the in-atmosphere path for a constant Cn^2.

    The path integral of Cn^2 (L - z)^(5/6) over [0, L] is (6/11) Cn^2 L^(11/6).
    """
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    reject(effective_atmosphere_m, effective_atmosphere_m <= 0.0, "path length must be positive")
    k = 2.0 * math.pi / wavelength_m
    with np.errstate(over="ignore"):  # an overflow is rejected below, not printed
        variance = 2.25 * k ** (7.0 / 6.0) * cn2 * (6.0 / 11.0) \
            * effective_atmosphere_m ** (11.0 / 6.0)
    reject(variance, np.isinf(variance), "Rytov variance must be finite")
    return variance


def scintillation_index(
    receiver_aperture_m: float,
    wavelength_m: float,
    effective_atmosphere_m,
    rytov_var,
):
    """Aperture-averaged scintillation index for a spherical wave (0 without turbulence)."""
    if receiver_aperture_m <= 0.0 or wavelength_m <= 0.0:
        raise ValueError("aperture and wavelength must be positive")
    reject(effective_atmosphere_m, effective_atmosphere_m <= 0.0, "path length must be positive")
    reject(rytov_var, rytov_var < 0.0, "Rytov variance must be >= 0")
    d_sq = receiver_aperture_m**2 * math.pi / (2.0 * wavelength_m * effective_atmosphere_m)
    with np.errstate(over="ignore"):  # an overflow is rejected below, not printed
        s65 = rytov_var ** (6.0 / 5.0)
        first = 0.20 * rytov_var / (1.0 + 0.18 * d_sq + 0.20 * s65) ** (7.0 / 6.0)
        second = (
            0.21 * rytov_var * (1.0 + 0.24 * s65) ** (-5.0 / 6.0)
            / (1.0 + 0.90 * d_sq + 0.21 * d_sq * s65)
        )
        # s65, or its product with d_sq, past the largest double makes both terms read 0
        reject(rytov_var, np.isinf(d_sq * s65),
               "Rytov variance too large for the scintillation index")
    return np.expm1(first + second)


def scintillation_loss_db(scint_index, outage_probability: float):
    """Scintillation fade in dB at the given outage probability.

    The value is negative for small outage probabilities (a fade margin);
    the link budget applies its magnitude as attenuation.
    """
    reject(scint_index, scint_index < 0.0, "scintillation index must be >= 0")
    if not 0.0 < outage_probability < 0.5:
        raise ValueError(
            f"outage probability must be in (0, 0.5), got {outage_probability}"
        )
    log_term = np.log1p(scint_index)
    return 4.343 * (
        NormalDist().inv_cdf(outage_probability) * np.sqrt(log_term)
        - 0.5 * log_term
    )


class LinkBudget(NamedTuple):
    """Per-mechanism attenuations (dB) and the resulting transmittance."""

    geometric_db: float | np.ndarray
    scattering_db: float | np.ndarray  # per-km coefficient times the in-atmosphere path
    scintillation_db: float | np.ndarray  # magnitude of the scintillation fade, as loss

    @property
    def total_db(self):
        return self.geometric_db + self.scattering_db + self.scintillation_db

    @property
    def transmittance(self):
        return db_to_transmittance(self.total_db)


def link_budget(
    path: SlantPath,
    terminals: OpticalTerminals,
    conditions: AtmosphericConditions,
) -> LinkBudget:
    """Full attenuation budget along the slant paths of a link's lines of sight."""
    a_geo = geometric_loss_db(path, terminals)
    a_scat = (
        scattering_coefficient_db_per_km(terminals.wavelength_m, conditions.visibility_km)
        * path.effective_atmosphere_m
        / 1000.0
    )
    sigma_r2 = rytov_variance(path.effective_atmosphere_m, conditions.cn2, terminals.wavelength_m)
    sigma_i2 = scintillation_index(terminals.receiver_aperture_m, terminals.wavelength_m,
                                   path.effective_atmosphere_m, sigma_r2)
    a_sci = np.abs(scintillation_loss_db(sigma_i2, conditions.outage_probability))
    return LinkBudget(a_geo, a_scat, a_sci)


def total_transmittance(
    geometry: LinkGeometry,
    terminals: OpticalTerminals,
    conditions: AtmosphericConditions,
):
    """Overall power transmittance of the link."""
    return link_budget(slant_path(geometry), terminals, conditions).transmittance
