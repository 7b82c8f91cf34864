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

from .channel import Site
from .errors import ProfileError
from .finite_size import FiniteSizeParams, ReconciliationModel
from .gaussian import KeyConstants
from .pipeline import LinkSetup, ProtocolSpec, Reconciliation, evaluate_point, link_columns
from .quantities import check_cap, validating

_MU_EARTH = 3.986004418e14  # m^3/s^2
_MAX_PASS_SAMPLES = 1_000_000


@validating
class PassProfile(NamedTuple):
    """Finite, strictly increasing sample times with elevations in (0, 90] degrees.

    Both series are held as read-only float64 arrays.  Profiles compare and
    hash by identity, as tuple equality on arrays raises.  The ground station
    a profile is seen from is the ``LinkSetup``'s ``site``.
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


def circular_pass_arc(
    site: Site, altitude_m: float, max_elevation_deg: float
) -> tuple[float, float, float, float]:
    """(r_ogs/r_sat, peak central angle, orbital rate in rad/s, half duration in s) of a
    pass seen from ``site``."""
    r_ogs = site.earth_radius_m + site.ogs_altitude_m
    r_sat = site.earth_radius_m + altitude_m
    ratio = r_ogs / r_sat

    if max_elevation_deg == 90.0:
        gamma_min = 0.0
    else:
        t = math.tan(math.radians(max_elevation_deg))
        gamma_min = math.acos(ratio / math.sqrt(1.0 + t * t)) - math.atan(t)
    gamma_horizon = math.acos(ratio)

    omega = math.sqrt(_MU_EARTH / r_sat**3)
    if not _elevations_deg(ratio, gamma_min, omega, np.zeros(1))[0] > 0.0:
        raise ValueError(f"a pass peaking at {max_elevation_deg!r} deg has no sample "
                         "above the horizon")
    half_arc = math.acos(
        min(1.0, math.cos(gamma_horizon) / math.cos(gamma_min))
    )
    return ratio, gamma_min, omega, half_arc / omega


def _elevations_deg(ratio: float, gamma_min: float, omega: float,
                    offsets_s: np.ndarray) -> np.ndarray:
    """Elevations of a circular pass at ``offsets_s`` from its peak, in degrees."""
    # gamma is the station-satellite central angle; ratio is r_ogs / r_sat
    gamma = np.arccos(np.minimum(1.0, math.cos(gamma_min) * np.cos(omega * offsets_s)))
    return np.degrees(np.arctan2(np.cos(gamma) - ratio, np.sin(gamma)))


def synthesize_circular_pass(
    site: Site, altitude_m: float, max_elevation_deg: float, sample_dt_s: float
) -> PassProfile:
    """Elevation profile of a circular-orbit pass over a spherical Earth.

    The Earth radius and the ground station are those of ``site``.  The
    orbit plane is chosen so the peak elevation equals ``max_elevation_deg``;
    Earth rotation is ignored, so real pass durations are reproduced only
    approximately.  The samples are computed as numpy arrays: numpy's
    ``arccos`` and ``arctan2`` can differ from ``math``'s in the last bit, so
    elevations agree with a per-sample ``math`` evaluation (kept as
    ``tests/oracles.synthesized_pass``) within 1e-14 relative, and times
    exactly.  More than ``_MAX_PASS_SAMPLES`` samples are refused before any is
    computed.
    """
    if altitude_m <= 0.0 or sample_dt_s <= 0.0:
        raise ValueError("altitude and sample step must be positive")
    if not 0.0 < max_elevation_deg <= 90.0:
        raise ValueError("peak elevation must be in (0, 90] degrees")
    ratio, gamma_min, omega, half_duration = circular_pass_arc(
        site, altitude_m, max_elevation_deg
    )
    steps = np.floor(half_duration / sample_dt_s)  # inf when the quotient overflows
    check_cap("pass samples", 2 * steps + 1, _MAX_PASS_SAMPLES)
    offsets = np.arange(-int(steps), int(steps) + 1) * sample_dt_s
    elevations = _elevations_deg(ratio, gamma_min, omega, offsets)
    above = elevations > 0.0
    return PassProfile(offsets[above] + half_duration, np.minimum(elevations[above], 90.0))


def check_bin_width(bin_width_deg: float, name: str = "bin_width_deg") -> None:
    """Reject an elevation bin width that is not positive, or so small that a
    bin index (elevation // width) would not fit an int64."""
    if not bin_width_deg > 0.0:
        raise ValueError(f"{name} must be positive, got {bin_width_deg!r}")
    if 90.0 // bin_width_deg >= 2.0**63:
        raise ValueError(f"{name} {bin_width_deg!r} cuts 90 degrees into 2**63 or more bins")


class ModelPassResult(NamedTuple):
    """Per-reconciliation-model outcome of a pass."""

    total_key_bits: float
    bin_rates: np.ndarray  # skr_bits_per_s per elevation bin a sample falls in, raw sign


class PassResult(NamedTuple):
    """The pass's bins and its totals per reconciliation model."""

    sample_bins: np.ndarray  # each sample's index into bin_rates; empty for one sample
    excluded_bins_deg: tuple[float, ...]  # far-field or keyhole exclusions
    models: dict[str, ModelPassResult]


def integrate_key_bits(
    profile: PassProfile,
    setup: LinkSetup,
    spec: ProtocolSpec,
    constants: KeyConstants,
    reconciliations: Sequence[Reconciliation],
    finite_params: FiniteSizeParams,
    satellite_altitude_m: float,
    bin_width_deg: float = 1.0,
    keyhole_ceiling_deg: float | None = None,
) -> PassResult:
    """Accumulate secret key bits over a pass for each reconciliation model.

    A sample's dwell (the time to the next sample) goes to its elevation bin.
    One link stage covers all occupied bins at their centres, seen from the
    ground station of ``setup``, and each model runs one key stage on it with
    ``spec``'s key ``constants``.
    """
    check_bin_width(bin_width_deg)
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
        point, = evaluate_point(link, [spec], {spec: constants}, reconciliation, finite_params)
        rates = np.asarray(point.skr_bits_per_second, dtype=float)  # NaN: no key (invalid beta)
        bin_rates = np.zeros(bins.size)
        bin_rates[evaluated] = np.where(link.far_field_ok & ~np.isnan(rates), rates, 0.0)
        models[name] = ModelPassResult(
            total_key_bits=math.fsum((np.maximum(bin_rates, 0.0) * dwell).tolist()),
            bin_rates=bin_rates,
        )
    return PassResult(sample_bins, tuple(centres[excluded].tolist()), models)
