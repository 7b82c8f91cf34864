"""Key budgeting over a satellite pass.

A pass is a time series of elevation angles.  Dwell time is binned per
elevation degree, the finite-size SKR is evaluated once per occupied bin,
and the total key is the dwell-weighted sum with negative rates clamped
to zero (no key is distilled from a negative bound).
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import ProfileError
from .finite_size import FiniteSizeParams, ReconciliationModel
from .pipeline import LinkSetup, ProtocolSpec, Reconciliation, evaluate_point, link_columns
from .quantities import validating

_MU_EARTH = 3.986004418e14  # m^3/s^2


@validating
class PassProfile(NamedTuple):
    """Finite, strictly increasing sample times with elevations in (0, 90] degrees.

    Both series are held as read-only float64 arrays.  Profiles compare and
    hash by identity, as tuple equality on arrays raises.  The ground station
    a profile is seen from is the ``LinkSetup``'s.
    """

    times_s: np.ndarray
    elevations_deg: np.ndarray

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def _check(self) -> PassProfile:
        times = np.array(self.times_s, dtype=float)
        elevations = np.array(self.elevations_deg, dtype=float)
        if times.ndim != 1 or times.shape != elevations.shape or not times.size:
            raise ProfileError("profile must contain at least one (time, elevation) sample")
        times.flags.writeable = elevations.flags.writeable = False
        bad_elevation = ~((0.0 < elevations) & (elevations <= 90.0))
        bad_time = ~np.isfinite(times)
        bad_order = np.insert(times[1:] <= times[:-1], 0, False)
        bad = np.flatnonzero(bad_elevation | bad_time | bad_order)
        if bad.size:
            i = int(bad[0])
            t = float(times[i])
            raise _BadSample(i, f"elevation {float(elevations[i])} out of (0, 90]"
                             if bad_elevation[i] else f"time {t} not finite" if bad_time[i]
                             else f"time {t} not after {float(times[i - 1])}")
        return tuple.__new__(type(self), (times, elevations))


class _BadSample(ProfileError):
    """The sample at ``index`` is out of range, not finite or out of order."""

    def __init__(self, index: int, what: str):
        self.index, self.what = index, what
        super().__init__(f"sample {index}: {what}")


def _is_header(row: list[str]) -> bool:
    """Whether a first CSV record is a header: two or more cells, not two numbers."""
    if len(row) < 2:
        return False
    try:
        float(row[0])
        float(row[1])
    except ValueError:
        return True
    return False


def load_profile(path: str | Path) -> PassProfile:
    """Parse a comma-separated time_s, elevation_deg file.

    Line 1 is a header when it is not two numbers; blank lines are skipped
    and columns after the second are ignored; a UTF-8 byte-order mark is
    not part of line 1.  One numpy call parses the file; only when it or
    the validation fails does a line-by-line scan run, to name the
    offending CSV line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            header = _is_header(next(csv.reader(handle), []))
        try:
            with warnings.catch_warnings():  # an empty file is reported by the scan
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                samples = np.loadtxt(path, delimiter=",", usecols=(0, 1), comments=None,
                                     ndmin=2, quotechar='"', skiprows=int(header),
                                     encoding="utf-8-sig")
            return PassProfile(samples[:, 0], samples[:, 1])
        except ValueError:  # a line numpy cannot parse, or a bad sample
            with open(path, "r", encoding="utf-8-sig") as handle:
                return _scan_profile(handle)
    except UnicodeDecodeError as exc:
        raise ProfileError(f"profile is not UTF-8 text: {exc}") from None


def _scan_profile(source: TextIO) -> PassProfile:
    """``load_profile`` one CSV line at a time, so that an error names its line."""
    times: list[float] = []
    elevations: list[float] = []
    skipped: list[int] = []  # blank lines and the header, to name a sample's line
    for line_no, row in enumerate(csv.reader(source), start=1):
        if all(not cell.strip() for cell in row) or (line_no == 1 and _is_header(row)):
            skipped.append(line_no)
            continue
        if len(row) < 2:
            raise ProfileError(f"line {line_no}: expected two columns, got {len(row)}")
        try:
            t = float(row[0])
            e = float(row[1])
        except ValueError:
            raise ProfileError(f"line {line_no}: cannot parse {row[:2]!r} as numbers")
        times.append(t)
        elevations.append(e)
    if not times:
        raise ProfileError("profile contains no samples")
    try:
        return PassProfile(times, elevations)
    except _BadSample as bad:
        line_no = bad.index + 1
        for skipped_no in skipped:  # ascending
            line_no += skipped_no <= line_no
        raise ProfileError(f"line {line_no}: {bad.what}") from None


def _elevation_from_central_angle(gamma: float, radius_ratio: float) -> float:
    # radius_ratio = r_ogs / r_sat; gamma is the OGS-satellite central angle.
    return math.degrees(math.atan2(math.cos(gamma) - radius_ratio, math.sin(gamma)))


def circular_pass_arc(
    setup: LinkSetup, altitude_m: float, max_elevation_deg: float
) -> tuple[float, float, float, float]:
    """(r_ogs/r_sat, peak central angle, orbital rate in rad/s, half duration in s) of a
    pass seen from the ground station of ``setup``."""
    r_ogs = setup.earth_radius_m + setup.ogs_altitude_m
    r_sat = setup.earth_radius_m + altitude_m
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
    setup: LinkSetup, altitude_m: float, max_elevation_deg: float, sample_dt_s: float
) -> PassProfile:
    """Elevation profile of a circular-orbit pass over a spherical Earth.

    The Earth radius and the ground station are those of ``setup``.  The
    orbit plane is chosen so the peak elevation equals ``max_elevation_deg``;
    Earth rotation is ignored, so real pass durations are reproduced only
    approximately.
    """
    if altitude_m <= 0.0 or sample_dt_s <= 0.0:
        raise ValueError("altitude and sample step must be positive")
    if not 0.0 < max_elevation_deg <= 90.0:
        raise ValueError("peak elevation must be in (0, 90] degrees")
    ratio, gamma_min, omega, half_duration = circular_pass_arc(
        setup, altitude_m, max_elevation_deg
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
    return PassProfile(times, elevations)


class ModelPassResult(NamedTuple):
    """Per-reconciliation-model outcome of a pass."""

    total_key_bits: float
    bin_rates: np.ndarray  # skr_bits_per_s per elevation bin a sample falls in, raw sign


class PassResult(NamedTuple):
    """The pass's samples and bins, and its totals per reconciliation model."""

    times_s: np.ndarray  # the profile's own array
    sample_bins: np.ndarray  # each sample's index into bin_rates; empty for one sample
    excluded_bins_deg: tuple[float, ...]  # far-field or keyhole exclusions
    models: dict[str, ModelPassResult]

    def skr_series(self, name: str) -> tuple[tuple[float, float], ...]:
        """(time_s, skr_bits_per_s) per sample for model ``name``, raw sign."""
        rates = self.models[name].bin_rates[self.sample_bins]
        return tuple(zip(self.times_s.tolist(), rates.tolist()))


def integrate_key_bits(
    profile: PassProfile,
    setup: LinkSetup,
    spec: ProtocolSpec,
    reconciliations: Sequence[Reconciliation],
    finite_params: FiniteSizeParams,
    satellite_altitude_m: float,
    bin_width_deg: float = 1.0,
    keyhole_ceiling_deg: float | None = None,
) -> PassResult:
    """Accumulate secret key bits over a pass for each reconciliation model.

    A sample's dwell (the time to the next sample) goes to its elevation bin.
    One link stage covers all occupied bins at their centres, seen from the
    ground station of ``setup``, and each model runs one key stage on it.
    """
    if bin_width_deg <= 0.0:
        raise ValueError("bin width must be positive")
    bins, sample_bins = np.unique(
        (profile.elevations_deg // bin_width_deg).astype(int), return_inverse=True
    )
    dwell = np.bincount(
        sample_bins[:-1], weights=np.diff(profile.times_s), minlength=bins.size
    )
    occupied = np.bincount(sample_bins[:-1], minlength=bins.size) > 0
    centres = np.minimum((bins + 0.5) * bin_width_deg, 90.0)
    keyhole = centres > keyhole_ceiling_deg if keyhole_ceiling_deg is not None \
        else np.zeros(bins.size, dtype=bool)
    evaluated = np.flatnonzero(occupied & ~keyhole)
    if len(profile.times_s) < 2:
        sample_bins = sample_bins[:0]
    link = link_columns(setup, satellite_altitude_m, centres[evaluated])
    excluded = occupied & keyhole
    excluded[evaluated[~link.far_field_ok]] = True

    models: dict[str, ModelPassResult] = {}
    for reconciliation in reconciliations:
        name = reconciliation.name if isinstance(reconciliation, ReconciliationModel) \
            else f"asymptotic(beta={reconciliation:g})"
        point = evaluate_point(link, spec, reconciliation, finite_params)
        rates = np.asarray(point.skr_bits_per_second, dtype=float)  # NaN: no key (invalid beta)
        bin_rates = np.zeros(bins.size)
        bin_rates[evaluated] = np.where(link.far_field_ok & ~np.isnan(rates), rates, 0.0)
        models[name] = ModelPassResult(
            total_key_bits=math.fsum((np.maximum(bin_rates, 0.0) * dwell).tolist()),
            bin_rates=bin_rates,
        )
    return PassResult(profile.times_s, sample_bins, tuple(centres[excluded].tolist()), models)
