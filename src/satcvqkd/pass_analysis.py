"""Key budgeting over a satellite pass.

A pass is a time series of elevation angles.  Dwell time is binned per
elevation degree, the finite-size SKR is evaluated once per occupied bin,
and the total key is the dwell-weighted sum with negative rates clamped
to zero (no key is distilled from a negative bound).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, TextIO

from .channel import EARTH_RADIUS_M
from .errors import ProfileError
from .finite_size import FiniteSizeParams
from .pipeline import LinkSetup, PointResult, ProtocolSpec, ReconciliationSpec, \
    evaluate_point

_MU_EARTH = 3.986004418e14  # m^3/s^2


@dataclass(frozen=True)
class PassProfile:
    """Strictly increasing sample times with elevations in (0, 90] degrees."""

    times_s: tuple[float, ...]
    elevations_deg: tuple[float, ...]
    ogs_altitude_m: float = 0.0

    def __post_init__(self) -> None:
        if len(self.times_s) != len(self.elevations_deg) or not self.times_s:
            raise ProfileError("profile must contain at least one (time, elevation) sample")
        for i in range(1, len(self.times_s)):
            if self.times_s[i] <= self.times_s[i - 1]:
                raise ProfileError(
                    f"sample times must be strictly increasing (index {i})"
                )
        for i, elevation in enumerate(self.elevations_deg):
            if not 0.0 < elevation <= 90.0:
                raise ProfileError(
                    f"elevation {elevation} out of (0, 90] at sample {i}"
                )

    @property
    def duration_s(self) -> float:
        return self.times_s[-1] - self.times_s[0]


def load_profile(source: str | Path | TextIO, ogs_altitude_m: float = 0.0) -> PassProfile:
    """Parse a two-column comma-separated time_s, elevation_deg stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_profile(handle, ogs_altitude_m)

    times: list[float] = []
    elevations: list[float] = []
    reader = csv.reader(source)
    for line_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ProfileError(f"line {line_no}: expected two columns, got {len(row)}")
        try:
            t = float(row[0])
            e = float(row[1])
        except ValueError:
            if line_no == 1:
                continue  # header
            raise ProfileError(f"line {line_no}: cannot parse {row[:2]!r} as numbers")
        if not 0.0 < e <= 90.0:
            raise ProfileError(f"line {line_no}: elevation {e} out of (0, 90]")
        if times and t <= times[-1]:
            raise ProfileError(f"line {line_no}: time {t} not after {times[-1]}")
        times.append(t)
        elevations.append(e)
    if not times:
        raise ProfileError("profile stream contains no samples")
    return PassProfile(
        times_s=tuple(times),
        elevations_deg=tuple(elevations),
        ogs_altitude_m=ogs_altitude_m,
    )


def _elevation_from_central_angle(gamma: float, radius_ratio: float) -> float:
    # radius_ratio = r_ogs / r_sat; gamma is the OGS-satellite central angle.
    return math.degrees(math.atan2(math.cos(gamma) - radius_ratio, math.sin(gamma)))


def circular_pass_arc(
    altitude_m: float, max_elevation_deg: float, ogs_altitude_m: float, earth_radius_m: float
) -> tuple[float, float, float, float]:
    """(r_ogs/r_sat, peak central angle, orbital rate in rad/s, half duration in s) of a pass."""
    r_ogs = earth_radius_m + ogs_altitude_m
    r_sat = earth_radius_m + altitude_m
    ratio = r_ogs / r_sat

    if max_elevation_deg == 90.0:
        gamma_min = 0.0
    else:
        t = math.tan(math.radians(max_elevation_deg))
        gamma_min = math.acos(ratio / math.sqrt(1.0 + t * t)) - math.atan(t)
    gamma_horizon = math.acos(ratio)

    omega = math.sqrt(_MU_EARTH / r_sat**3)
    half_arc = math.acos(
        min(1.0, math.cos(gamma_horizon) / math.cos(gamma_min))
    )
    return ratio, gamma_min, omega, half_arc / omega


def synthesize_circular_pass(
    altitude_m: float,
    max_elevation_deg: float,
    sample_dt_s: float,
    ogs_altitude_m: float = 0.0,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> PassProfile:
    """Elevation profile of a circular-orbit pass over a spherical Earth.

    The orbit plane is chosen so the peak elevation equals
    ``max_elevation_deg``; Earth rotation is ignored, so real pass durations
    are reproduced only approximately.
    """
    if altitude_m <= 0.0 or sample_dt_s <= 0.0:
        raise ValueError("altitude and sample step must be positive")
    if not 0.0 < max_elevation_deg <= 90.0:
        raise ValueError("peak elevation must be in (0, 90] degrees")
    ratio, gamma_min, omega, half_duration = circular_pass_arc(
        altitude_m, max_elevation_deg, ogs_altitude_m, earth_radius_m
    )
    steps = int(math.floor(half_duration / sample_dt_s))
    times: list[float] = []
    elevations: list[float] = []
    for k in range(-steps, steps + 1):
        offset = k * sample_dt_s
        gamma = math.acos(
            min(1.0, math.cos(gamma_min) * math.cos(omega * offset))
        )
        elevation = _elevation_from_central_angle(gamma, ratio)
        if elevation <= 0.0:
            continue
        times.append(offset + half_duration)
        elevations.append(min(elevation, 90.0))
    return PassProfile(
        times_s=tuple(times),
        elevations_deg=tuple(elevations),
        ogs_altitude_m=ogs_altitude_m,
    )


@dataclass(frozen=True)
class ModelPassResult:
    """Per-reconciliation-model outcome of a pass."""

    total_key_bits: float
    skr_series: tuple[tuple[float, float], ...]  # (time_s, skr_bits_per_s), raw sign
    excluded_bins_deg: tuple[float, ...]  # far-field or keyhole exclusions


@dataclass(frozen=True)
class PassResult:
    """Pass totals per reconciliation model."""

    models: dict[str, ModelPassResult]


def _dwell_map(profile: PassProfile, bin_width_deg: float) -> dict[int, float]:
    dwell: dict[int, float] = {}
    for i in range(len(profile.times_s) - 1):
        dt = profile.times_s[i + 1] - profile.times_s[i]
        index = int(profile.elevations_deg[i] // bin_width_deg)
        dwell[index] = dwell.get(index, 0.0) + dt
    return dwell


def integrate_key_bits(
    profile: PassProfile,
    setup: LinkSetup,
    spec: ProtocolSpec,
    reconciliations: Sequence[ReconciliationSpec],
    finite_params: FiniteSizeParams,
    satellite_altitude_m: float,
    bin_width_deg: float = 1.0,
    keyhole_ceiling_deg: float | None = None,
) -> PassResult:
    """Accumulate secret key bits over a pass for each reconciliation model.

    The link setup's OGS altitude is overridden by the profile's.
    """
    if bin_width_deg <= 0.0:
        raise ValueError("bin width must be positive")
    setup = replace(setup, ogs_altitude_m=profile.ogs_altitude_m)
    dwell = _dwell_map(profile, bin_width_deg)

    models: dict[str, ModelPassResult] = {}
    for reconciliation in reconciliations:
        name = (
            reconciliation.model.name
            if reconciliation.kind == "finite"
            else f"asymptotic(beta={reconciliation.beta_asymptotic:g})"
        )
        skr_by_bin: dict[int, float] = {}
        excluded: list[float] = []
        for index in sorted(dwell):
            centre = min((index + 0.5) * bin_width_deg, 90.0)
            if keyhole_ceiling_deg is not None and centre > keyhole_ceiling_deg:
                skr_by_bin[index] = 0.0
                excluded.append(centre)
                continue
            point: PointResult = evaluate_point(
                setup, spec, satellite_altitude_m, centre, reconciliation, finite_params
            )
            if not point.far_field_ok:
                skr_by_bin[index] = 0.0
                excluded.append(centre)
            elif point.skr_bits_per_second is None:
                skr_by_bin[index] = 0.0  # no key at this bin (invalid beta)
            else:
                skr_by_bin[index] = point.skr_bits_per_second

        total = math.fsum(
            max(skr_by_bin[index], 0.0) * seconds for index, seconds in dwell.items()
        )
        if len(profile.times_s) < 2:
            series: tuple[tuple[float, float], ...] = ()
        else:
            series = tuple(
                (t, skr_by_bin.get(int(e // bin_width_deg), 0.0))
                for t, e in zip(profile.times_s, profile.elevations_deg)
            )
        models[name] = ModelPassResult(
            total_key_bits=total,
            skr_series=series,
            excluded_bins_deg=tuple(excluded),
        )
    return PassResult(models=models)
