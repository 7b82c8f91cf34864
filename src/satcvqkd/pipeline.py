"""End-to-end evaluation of link configurations, in two stages.

The link stage (``link_columns``) runs the channel model once per grid of
points; the key stage (``evaluate_point``) runs the protocol security
calculations and the finite-size layer on it once per protocol and
reconciliation, producing flat records (or columns of them, for a grid of
points) suitable for CSV emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import qam
from .channel import ATMOSPHERE_THICKNESS_M, EARTH_RADIUS_M, AtmosphericConditions, \
    LinkGeometry, OpticalTerminals, far_field_bound_m, link_budget, slant_path
from .errors import ConfigError
from .finite_size import FiniteSizeParams, ReconciliationModel, beta, fer, \
    privacy_penalty, skr_finite, snr_db
from .gaussian import Detection, NoiseBudget, SecurityResult, channel_noise, \
    gm_security
from .psk import PskConfig, psk_security


@dataclass(frozen=True)
class LinkSetup:
    """Everything about the link that is not the satellite position."""

    terminals: OpticalTerminals
    conditions: AtmosphericConditions
    noise: NoiseBudget
    ogs_altitude_m: float = 0.0
    atmosphere_thickness_m: float = ATMOSPHERE_THICKNESS_M
    earth_radius_m: float = EARTH_RADIUS_M

    def geometry(self, satellite_altitude_m, elevation_deg) -> LinkGeometry:
        return LinkGeometry(
            satellite_altitude_m=satellite_altitude_m,
            elevation_deg=elevation_deg,
            ogs_altitude_m=self.ogs_altitude_m,
            atmosphere_thickness_m=self.atmosphere_thickness_m,
            earth_radius_m=self.earth_radius_m,
        )


@dataclass(frozen=True)
class ProtocolSpec:
    """Protocol selection with its modulation settings."""

    kind: str  # "gm" | "psk" | "qam"
    detection: Detection
    modulation_variance: float
    psk_states: int | None = None
    qam_side: int | None = None
    qam_distribution: qam.QamDistribution | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("gm", "psk", "qam"):
            raise ConfigError(f"unknown protocol kind {self.kind!r}")
        if self.modulation_variance <= 0.0:
            raise ConfigError("modulation variance must be positive")
        if self.kind == "psk" and self.psk_states not in (2, 4, 8):
            raise ConfigError("psk protocol needs states in {2, 4, 8}")
        if self.kind == "qam":
            if self.qam_side is None or self.qam_side < 2:
                raise ConfigError("qam protocol needs a grid side >= 2")
            if self.qam_distribution is None:
                raise ConfigError("qam protocol needs a point distribution")

    @property
    def label(self) -> str:
        if self.kind == "gm":
            return "GM"
        if self.kind == "psk":
            return f"{self.psk_states}-PSK"
        dist = "binomial" if isinstance(self.qam_distribution, qam.Binomial) \
            else f"gaussian(nu={self.qam_distribution.nu:g})"
        return f"{self.qam_side ** 2}-QAM[{dist}]"


@dataclass(frozen=True)
class ReconciliationSpec:
    """Either a fixed asymptotic efficiency or a fitted finite-size model."""

    kind: str  # "asymptotic" | "finite"
    beta_asymptotic: float = 0.9
    model: ReconciliationModel | None = None

    def __post_init__(self) -> None:
        if self.kind == "asymptotic":
            if not 0.0 <= self.beta_asymptotic <= 1.0:
                raise ConfigError("asymptotic beta must be in [0, 1]")
        elif self.kind == "finite":
            if self.model is None:
                raise ConfigError("finite-size reconciliation needs a fitted model")
        else:
            raise ConfigError(f"unknown reconciliation kind {self.kind!r}")


@dataclass
class PointResult:
    """Flat record for one (protocol, altitude, elevation) evaluation.

    For a grid of points each per-point field holds an array over the grid,
    with NaN (numbers) or None (flags) where a point has no value.
    """

    protocol: str
    detection: str
    modulation_variance: float
    altitude_m: float
    elevation_deg: float
    status: str = "ok"
    l_tot_m: float | None = None
    l_atm_eff_m: float | None = None
    a_geo_db: float | None = None
    a_scat_db: float | None = None
    a_sci_db: float | None = None
    a_tot_db: float | None = None
    transmittance: float | None = None
    far_field_ok: bool = True
    mutual_information: float | None = None
    holevo: float | None = None
    skr_asymptotic_per_pulse: float | None = None
    snr_db: float | None = None
    beta_value: float | None = None
    beta_valid: bool | None = None
    fer_value: float | None = None
    fer_raw: float | None = None
    privacy: float | None = None
    skr_bits_per_second: float | None = None


# CSV layout: (column, PointResult field, divisor); the divisor turns metres
# into the kilometres the column names promise.
CSV_COLUMNS = (
    ("protocol", "protocol", None),
    ("detection", "detection", None),
    ("modulation_variance_snu", "modulation_variance", None),
    ("altitude_km", "altitude_m", 1000.0),
    ("elevation_deg", "elevation_deg", None),
    ("l_tot_km", "l_tot_m", 1000.0),
    ("l_atm_eff_km", "l_atm_eff_m", 1000.0),
    ("a_geo_db", "a_geo_db", None),
    ("a_scat_db", "a_scat_db", None),
    ("a_sci_db", "a_sci_db", None),
    ("a_tot_db", "a_tot_db", None),
    ("transmittance", "transmittance", None),
    ("snr_db", "snr_db", None),
    ("beta", "beta_value", None),
    ("beta_valid", "beta_valid", None),
    ("fer", "fer_value", None),
    ("fer_raw", "fer_raw", None),
    ("i_ab_bits_per_pulse", "mutual_information", None),
    ("s_be_bits_per_pulse", "holevo", None),
    ("privacy_bits_per_pulse", "privacy", None),
    ("skr_bits_per_pulse", "skr_asymptotic_per_pulse", None),
    ("skr_bits_per_second", "skr_bits_per_second", None),
    ("far_field_ok", "far_field_ok", None),
    ("status", "status", None),
)


def protocol_security(
    spec: ProtocolSpec,
    transmittance: float,
    noise: NoiseBudget,
    reconciliation_efficiency: float,
) -> SecurityResult:
    """Dispatch to the protocol-specific asymptotic pipeline."""
    if spec.kind == "gm":
        return gm_security(
            spec.modulation_variance, transmittance, noise,
            spec.detection, reconciliation_efficiency,
        )
    if spec.kind == "psk":
        config = PskConfig.from_modulation_variance(spec.psk_states, spec.modulation_variance)
        return psk_security(
            config, transmittance, noise, spec.detection, reconciliation_efficiency
        )
    # The arbitrary-modulation proof has no detector model; detection noise
    # is folded into the channel term with an ideal detector.
    excess = noise.channel_excess + noise.detector_excess
    return qam.qam_security(
        spec.qam_side,
        spec.modulation_variance,
        spec.qam_distribution,
        transmittance,
        excess,
        spec.detection,
        reconciliation_efficiency,
    )


def _column(values, rows: np.ndarray | None, size: int, shape: tuple[int, ...]):
    """A ``PointResult`` field over a grid of ``size`` points of ``shape``.

    ``values`` holds the field at the flat ``rows`` (every point when None);
    the other points hold the mark of a missing value, NaN for numbers and
    None for flags.  A grid of one point (shape ``()``) gives a plain value,
    None where it is missing.
    """
    if values is None:
        return None
    values = np.asarray(values)
    if rows is None or rows.size == size:  # every point has a value
        out = np.full(size, values) if values.ndim == 0 else values
    else:
        out = np.full(size, np.nan) if values.dtype.kind == "f" \
            else np.full(size, None, dtype=object)
        out[rows] = values
    if shape:
        return out.reshape(shape)
    value = out.item()
    return None if value != value else value  # NaN marks a missing number


@dataclass(frozen=True)
class LinkColumns:
    """The link stage of a grid: everything that depends on position alone.

    ``columns`` holds the link fields of a ``PointResult`` (position, slant
    path, losses, transmittance, far-field flag) in their final form; their
    arrays are read-only, because every protocol's result shares them.
    ``far_field_ok`` is flat over the grid, and ``transmittance`` holds the
    ``linked`` (far-field) points only, the ones with a link budget.
    """

    noise: NoiseBudget
    shape: tuple[int, ...]
    far_field_ok: np.ndarray
    linked: np.ndarray
    transmittance: np.ndarray
    columns: dict[str, Any]

    def column(self, values, rows: np.ndarray | None = None):
        """A key-stage field in its final form; see ``_column``."""
        return _column(values, rows, self.far_field_ok.size, self.shape)


def link_columns(setup: LinkSetup, altitude_m, elevation_deg) -> LinkColumns:
    """Geometry, slant path, far-field mask and link budget of a grid, once.

    ``altitude_m`` and ``elevation_deg`` are floats, or arrays that broadcast
    together into a grid.  A far-field point has no link budget.
    """
    altitudes, elevations = np.broadcast_arrays(
        np.asarray(altitude_m, dtype=float), np.asarray(elevation_deg, dtype=float)
    )
    shape, size = altitudes.shape, altitudes.size
    altitudes, elevations = altitudes.ravel(), elevations.ravel()
    geometry = setup.geometry(altitudes, elevations)
    path = slant_path(geometry)
    far_field_ok = ~(path.total_distance_m < far_field_bound_m(setup.terminals))
    linked = np.flatnonzero(far_field_ok)
    if linked.size < size:
        geometry = setup.geometry(altitudes[linked], elevations[linked])
    budget = link_budget(geometry, setup.terminals, setup.conditions)
    transmittance = budget.transmittance
    every_point = dict(
        altitude_m=altitudes, elevation_deg=elevations, l_tot_m=path.total_distance_m,
        l_atm_eff_m=path.effective_atmosphere_m, far_field_ok=far_field_ok,
    )
    linked_points = dict(
        a_geo_db=budget.geometric_db, a_scat_db=budget.scattering_db,
        a_sci_db=budget.scintillation_db, a_tot_db=budget.total_db, transmittance=transmittance,
    )
    columns = {name: _column(v, None, size, shape) for name, v in every_point.items()}
    columns.update({name: _column(v, linked, size, shape) for name, v in linked_points.items()})
    for value in columns.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return LinkColumns(setup.noise, shape, far_field_ok, linked, transmittance, columns)


def evaluate_point(
    link: LinkColumns,
    spec: ProtocolSpec,
    reconciliation: ReconciliationSpec,
    finite_params: FiniteSizeParams | None = None,
) -> PointResult:
    """The key stage: security and (optionally) finite-size layer on a grid's link.

    Each per-point field has the grid's shape: a far-field point has no key,
    and a point whose fitted beta is invalid has no key; those values are
    NaN, or None for a flag.  For one point the fields hold plain values and
    a missing one is None.
    """
    if reconciliation.kind == "finite":
        if spec.kind != "gm":
            raise ConfigError(
                "finite-size rates are only established for Gaussian modulation; "
                f"got protocol {spec.label}"
            )
        if finite_params is None:
            raise ConfigError("finite-size reconciliation needs finite-size parameters")

    transmittance, linked = link.transmittance, link.linked
    snr = fer_value = fer_raw = privacy = None
    if spec.kind != "qam":
        noise_state = channel_noise(transmittance, link.noise, spec.detection)
        snr = snr_db(
            math.sqrt(spec.modulation_variance / 2.0), transmittance, noise_state.chi_total
        )
    if reconciliation.kind == "asymptotic":
        efficiency = np.full(linked.size, reconciliation.beta_asymptotic)
        beta_valid = np.full(linked.size, True)
    else:
        # Finite-size: the fitted efficiency replaces the configured beta.
        efficiency, beta_valid = beta(snr, reconciliation.model)
        fer_value, fer_raw, _ = fer(snr, reconciliation.model)
        privacy = privacy_penalty(finite_params)

    if np.any(beta_valid):
        security = protocol_security(
            spec, transmittance[beta_valid], link.noise, efficiency[beta_valid]
        )
    else:  # no point to secure: no protocol constants are computed either
        security = SecurityResult(*[np.empty(0)] * 3)
    skr_per_second = None
    if reconciliation.kind == "finite":
        skr_per_second = skr_finite(
            finite_params.repetition_rate_hz,
            fer_value[beta_valid],
            efficiency[beta_valid],
            security.mutual_information,
            security.holevo,
            privacy,
        )
    elif finite_params is not None:
        skr_per_second = finite_params.repetition_rate_hz * security.skr_asymptotic

    status = np.full(link.far_field_ok.size, "far_field_excluded", dtype=object)
    status[linked] = "ok"
    status[linked[~beta_valid]] = "no_key_beta_invalid"
    linked_values = dict(snr_db=snr, beta_value=efficiency, beta_valid=beta_valid,
                         fer_value=fer_value, fer_raw=fer_raw, privacy=privacy)
    key_values = dict(
        mutual_information=security.mutual_information, holevo=security.holevo,
        skr_asymptotic_per_pulse=security.skr_asymptotic, skr_bits_per_second=skr_per_second,
    )
    return PointResult(
        protocol=spec.label,
        detection=spec.detection.value,
        modulation_variance=spec.modulation_variance,
        status=link.column(status),
        **link.columns,
        **{name: link.column(v, linked) for name, v in linked_values.items()},
        **{name: link.column(v, linked[beta_valid]) for name, v in key_values.items()},
    )
