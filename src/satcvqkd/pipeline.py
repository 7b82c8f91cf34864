"""End-to-end evaluation of one link configuration.

Bridges the channel model to the protocol security calculations and the
finite-size layer, producing flat records suitable for CSV emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import qam
from .channel import ATMOSPHERE_THICKNESS_M, EARTH_RADIUS_M, AtmosphericConditions, \
    LinkGeometry, OpticalTerminals, link_budget, slant_path
from .errors import ConfigError, FarFieldViolation
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

    def geometry(self, satellite_altitude_m: float, elevation_deg: float) -> LinkGeometry:
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
    """Flat record for one (protocol, altitude, elevation) evaluation."""

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
    symplectic_eigenvalues: tuple[float, ...] = field(default_factory=tuple)


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


def evaluate_point(
    setup: LinkSetup,
    spec: ProtocolSpec,
    altitude_m: float,
    elevation_deg: float,
    reconciliation: ReconciliationSpec,
    finite_params: FiniteSizeParams | None = None,
) -> PointResult:
    """Channel + security + (optionally) finite-size layer for one point."""
    if reconciliation.kind == "finite":
        if spec.kind != "gm":
            raise ConfigError(
                "finite-size rates are only established for Gaussian modulation; "
                f"got protocol {spec.label}"
            )
        if finite_params is None:
            raise ConfigError("finite-size reconciliation needs finite-size parameters")

    result = PointResult(
        protocol=spec.label,
        detection=spec.detection.value,
        modulation_variance=spec.modulation_variance,
        altitude_m=altitude_m,
        elevation_deg=elevation_deg,
    )
    geometry = setup.geometry(altitude_m, elevation_deg)
    try:
        budget = link_budget(geometry, setup.terminals, setup.conditions)
        path = budget.slant
    except FarFieldViolation:
        budget, path = None, slant_path(geometry)
    result.l_tot_m = path.total_distance_m
    result.l_atm_eff_m = path.effective_atmosphere_m
    if budget is None:
        result.far_field_ok = False
        result.status = "far_field_excluded"
        return result

    result.a_geo_db = budget.geometric_db
    result.a_scat_db = budget.scattering_db
    result.a_sci_db = budget.scintillation_db
    result.a_tot_db = budget.total_db
    transmittance = budget.transmittance
    result.transmittance = transmittance

    if spec.kind != "qam":
        noise_state = channel_noise(transmittance, setup.noise, spec.detection)
        result.snr_db = snr_db(
            math.sqrt(spec.modulation_variance / 2.0), transmittance, noise_state.chi_total
        )
    if reconciliation.kind == "asymptotic":
        result.beta_value, result.beta_valid = reconciliation.beta_asymptotic, True
    else:
        # Finite-size: the fitted efficiency replaces the configured beta.
        result.beta_value, result.beta_valid = beta(result.snr_db, reconciliation.model)
        fer_fit = fer(result.snr_db, reconciliation.model)
        result.fer_value, result.fer_raw = fer_fit.value, fer_fit.raw
        result.privacy = privacy_penalty(finite_params)
        if not result.beta_valid:
            result.status = "no_key_beta_invalid"
            return result

    security = protocol_security(spec, transmittance, setup.noise, result.beta_value)
    result.mutual_information = security.mutual_information
    result.holevo = security.holevo
    result.skr_asymptotic_per_pulse = security.skr_asymptotic
    result.symplectic_eigenvalues = security.symplectic_eigenvalues
    if reconciliation.kind == "finite":
        result.skr_bits_per_second = skr_finite(
            finite_params.repetition_rate_hz,
            result.fer_value,
            result.beta_value,
            security.mutual_information,
            security.holevo,
            result.privacy,
        )
    elif finite_params is not None:
        result.skr_bits_per_second = finite_params.repetition_rate_hz * security.skr_asymptotic
    return result
