"""End-to-end evaluation of link configurations.

``key_constants`` builds each protocol's transmittance-free key constants
once, when a configuration is resolved.  A run then has two stages: the
link stage (``link_columns``) runs the channel model once per grid of
points, and the key stage (``evaluate_point``) evaluates the protocols'
constants and the finite-size layer on it once per group of protocols and
reconciliation, each group as one (protocols x points) array, producing
flat records (or columns of them, for a grid of points) suitable for CSV
emission.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import qam
from .channel import AtmosphericConditions, OpticalTerminals, Site, SlantPath, \
    far_field_bound_m, link_budget, slant_path
from .errors import ConfigError
from .finite_size import FiniteSizeParams, ReconciliationModel, beta, fer, \
    privacy_penalty, skr_finite, snr_db
from .gaussian import Detection, KeyConstants, NoiseBudget, channel_noise, covariance_security, \
    gm_security
from .psk import PSK_STATE_COUNTS, psk_security
from .quantities import check_cap, validating

_MAX_QAM_STATES = 4096  # side 64, 16x the paper's 256-QAM; builds grow steeply past it
# Largest GM V_A: `holevo_bound` cancels V^2 against Z^2 = V^2 - 1, so its S_BE
# error grows as about 2e-15 V_A bits.  Measured against 80-digit arithmetic over
# T from 0.5 down to 1e-153: at most 4.6e-9 bits at 1e6, 0.5 bits at 1e14.
_MAX_GM_VARIANCE = 1e6


class LinkSetup(NamedTuple):
    """Everything about the link that is not the satellite position."""

    terminals: OpticalTerminals
    conditions: AtmosphericConditions
    noise: NoiseBudget
    site: Site = Site()


@validating
class ProtocolSpec(NamedTuple):
    """Protocol selection with its modulation settings.

    ``states`` is the constellation's point count M, for PSK and QAM; a QAM
    constellation is a square grid, so M is a square number.  ``_check`` holds
    the protocol rules that need no modulation state built: the caps on GM V_A
    and QAM states.  The rules that do (the caps on PSK series terms and QAM
    start cutoff, and the PSK and QAM weights that must not underflow) are
    ``key_constants``'s.
    """

    kind: str  # "gm" | "psk" | "qam"
    detection: Detection
    modulation_variance: float
    states: int | None = None
    distribution: qam.QamDistribution | None = None

    def _check(self) -> None:
        if self.kind not in ("gm", "psk", "qam"):
            raise ConfigError(f"unknown protocol kind {self.kind!r}")
        v_a = self.modulation_variance
        if not v_a > 0.0:  # NaN too, which every comparison below would let through
            raise ConfigError("modulation variance must be positive")
        if self.kind == "gm" and v_a > _MAX_GM_VARIANCE:
            raise ConfigError(f"gm modulation_variance_snu {v_a!r} is over the cap of "
                              f"{_MAX_GM_VARIANCE:g}, past which S_BE loses its digits")
        if self.kind == "psk":
            if self.states not in PSK_STATE_COUNTS:
                raise ConfigError(f"psk protocol needs states in {PSK_STATE_COUNTS}")
        if self.kind == "qam":
            if not isinstance(self.states, int) or self.states < 4 \
                    or math.isqrt(self.states) ** 2 != self.states:
                raise ConfigError(f"qam protocol needs states a square >= 4, got {self.states!r}")
            check_cap("QAM states", self.states, _MAX_QAM_STATES)
            if self.distribution is None:
                raise ConfigError("qam protocol needs a point distribution")

    @property
    def label(self) -> str:
        if self.kind == "gm":
            return "GM"
        if self.kind == "psk":
            return f"{self.states}-PSK"
        dist = "binomial" if isinstance(self.distribution, qam.Binomial) \
            else f"gaussian(nu={self.distribution.nu:g})"
        return f"{self.states}-QAM[{dist}]"


# A fitted finite-size model, or the asymptotic reconciliation efficiency beta.
Reconciliation = Union[ReconciliationModel, float]


class PointResult(NamedTuple):
    """One CSV row: the evaluation of a protocol at one (altitude, elevation).

    The fields are the CSV columns, in header order and in the units their
    names state; this is the one record whose lengths are in km.  For a grid
    of points each per-point field holds an array over the grid, with NaN
    (numbers) or None (flags) where a point has no value.
    """

    protocol: str
    detection: str
    modulation_variance_snu: float
    altitude_km: float
    elevation_deg: float
    l_tot_km: float | None = None
    l_atm_eff_km: float | None = None
    a_geo_db: float | None = None
    a_scat_db: float | None = None
    a_sci_db: float | None = None
    a_tot_db: float | None = None
    transmittance: float | None = None
    snr_db: float | None = None
    beta: float | None = None
    beta_valid: bool | None = None
    fer: float | None = None
    fer_raw: float | None = None
    i_ab_bits_per_pulse: float | None = None
    s_be_bits_per_pulse: float | None = None
    privacy_bits_per_pulse: float | None = None
    skr_bits_per_pulse: float | None = None
    skr_bits_per_second: float | None = None
    far_field_ok: bool = True
    status: str = "ok"


def check_reconciliation(spec: ProtocolSpec, reconciliation: Reconciliation) -> None:
    """Reject a beta outside [0, 1], and a protocol the reconciliation has no key
    rate for: finite size is GM-only."""
    if not isinstance(reconciliation, ReconciliationModel):
        if not 0.0 <= reconciliation <= 1.0:
            raise ConfigError(f"asymptotic beta must be in [0, 1], got {reconciliation!r}")
    elif spec.kind != "gm":
        raise ConfigError(
            "finite-size reconciliation is only established for the GM "
            f"protocol; remove {spec.label} or use asymptotic"
        )


def key_constants(
    specs: Sequence[ProtocolSpec], noise: NoiseBudget
) -> dict[ProtocolSpec, KeyConstants]:
    """Each protocol's key constants under the setup's ``noise``, keyed by its spec.

    The protocols of one point count and V_A are a grid: its QAM protocols,
    which differ only in their point probabilities, share the grid-only work
    of the first cutoff-gate round (see ``qam.qam_security``), which is
    dropped after the grid's last protocol.  A protocol listed twice is built once.
    """
    specs = list(dict.fromkeys(specs))
    grids = [(spec.states, spec.modulation_variance) for spec in specs]
    last = {grid: index for index, grid in enumerate(grids)}
    shared: dict = {}  # grid -> the gate rounds its QAM protocols share
    constants = {}
    for index, spec in enumerate(specs):
        v_a, kind = spec.modulation_variance, spec.detection
        if spec.kind == "gm":
            constants[spec] = gm_security(v_a, noise, kind)
        elif spec.kind == "psk":
            constants[spec] = psk_security(spec.states, v_a, noise, kind)
        else:
            constants[spec] = qam.qam_security(math.isqrt(spec.states), v_a, spec.distribution,
                                               noise, kind, shared.setdefault(grids[index], {}))
        if last[grids[index]] == index:
            shared.pop(grids[index], None)
    return constants


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


def _read_only(columns: dict[str, Any]) -> dict[str, Any]:
    """``columns`` with their arrays made read-only, as the results that share them
    must not change one another's."""
    for value in columns.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return columns


class LinkColumns(NamedTuple):
    """The link stage of a grid: everything that depends on position alone.

    ``columns`` holds the link fields of a ``PointResult`` (position, slant
    path, losses, transmittance, far-field flag) in their final form; their
    arrays are read-only, because every protocol's result shares them.
    ``far_field_ok`` is flat over the grid, and ``transmittance`` holds the
    ``linked`` (far-field) points only, the ones with a link budget.
    """

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
    path = slant_path(setup.site, altitudes, elevations)
    far_field_ok = ~(path.total_distance_m < far_field_bound_m(setup.terminals))
    linked = np.flatnonzero(far_field_ok)
    linked_path = path if linked.size == size else \
        SlantPath(path.total_distance_m[linked], path.effective_atmosphere_m[linked])
    budget = link_budget(linked_path, setup.terminals, setup.conditions)
    transmittance = budget.transmittance
    every_point = dict(  # the one place metres become the columns' km
        altitude_km=altitudes / 1000.0, elevation_deg=elevations,
        l_tot_km=path.total_distance_m / 1000.0,
        l_atm_eff_km=path.effective_atmosphere_m / 1000.0, far_field_ok=far_field_ok,
    )
    linked_points = dict(
        a_geo_db=budget.geometric_db, a_scat_db=budget.scattering_db,
        a_sci_db=budget.scintillation_db, a_tot_db=budget.total_db, transmittance=transmittance,
    )
    columns = {name: _column(v, None, size, shape) for name, v in every_point.items()}
    columns.update({name: _column(v, linked, size, shape) for name, v in linked_points.items()})
    return LinkColumns(shape, far_field_ok, linked, transmittance, _read_only(columns))


def evaluate_point(
    link: LinkColumns,
    specs: Sequence[ProtocolSpec],
    constants: Mapping[ProtocolSpec, KeyConstants],
    reconciliation: Reconciliation,
    finite_params: FiniteSizeParams,
) -> list[PointResult]:
    """The key stage: the key ``constants`` of each of ``specs`` and the
    finite-size layer on a grid's link, one ``PointResult`` per spec, in order.

    The protocols that share a noise budget, a detection and an I_AB formula
    are a group, evaluated as one (protocols x points) array by one
    ``covariance_security`` call.  Under a fitted reconciliation each protocol
    is a group of one, because its beta-valid points are its own.  Each
    per-point field has the grid's shape: a far-field point has no key, and a
    point whose fitted beta is invalid has no key; those values are NaN, or
    None for a flag.  For one point the fields hold plain values and a missing
    one is None.
    """
    for spec in specs:
        check_reconciliation(spec, reconciliation)
    fitted = isinstance(reconciliation, ReconciliationModel)
    groups: dict = {}  # group key -> the indices of its specs
    for index, spec in enumerate(specs):
        c = constants[spec]
        key = index if fitted else (c.budget, c.detection, c.qam_information)
        groups.setdefault(key, []).append(index)
    results: list = [None] * len(specs)
    for members in groups.values():
        points = _group_key_stage(link, [specs[index] for index in members], constants,
                                  reconciliation, finite_params)
        for index, point in zip(members, points):
            results[index] = point
    return results


def _group_key_stage(
    link: LinkColumns,
    specs: list[ProtocolSpec],
    constants: Mapping[ProtocolSpec, KeyConstants],
    reconciliation: Reconciliation,
    finite_params: FiniteSizeParams,
) -> list[PointResult]:
    """``evaluate_point`` for one group: V, Z and V_A are column arrays, one row
    per protocol, broadcast against the grid's transmittances."""
    fitted = isinstance(reconciliation, ReconciliationModel)
    group = [constants[spec] for spec in specs]

    def stack(values) -> np.ndarray:  # a column array, one row per protocol
        return np.array(list(values), dtype=float)[:, None]

    stacked = group[0]._replace(modulation_variance=stack(c.modulation_variance for c in group),
                                correlation=stack(c.correlation for c in group))
    transmittance, linked = link.transmittance, link.linked
    snr = fer_value = fer_raw = privacy = None
    if not stacked.qam_information:
        noise_state = channel_noise(transmittance, stacked.budget, stacked.detection)
        amplitudes = np.sqrt(stack(spec.modulation_variance for spec in specs) / 2.0)
        snr = snr_db(amplitudes, transmittance, noise_state.chi_total)
    if fitted:
        # Finite-size: the fitted efficiency of the group's one protocol
        # replaces the configured beta.
        efficiency, beta_valid = beta(snr[0], reconciliation)
        fer_value, fer_raw, _ = fer(snr[0], reconciliation)
        privacy = privacy_penalty(finite_params)
    else:
        efficiency = np.full(linked.size, reconciliation)
        beta_valid = np.full(linked.size, True)

    security = covariance_security(stacked, transmittance[beta_valid], efficiency[beta_valid])
    if fitted:
        skr_per_second = skr_finite(
            finite_params.repetition_rate_hz,
            fer_value[beta_valid],
            efficiency[beta_valid],
            security.mutual_information,
            security.holevo,
            privacy,
        )
    else:
        skr_per_second = finite_params.repetition_rate_hz * security.skr_asymptotic

    status = np.full(link.far_field_ok.size, "far_field_excluded", dtype=object)
    status[linked] = "ok"
    status[linked[~beta_valid]] = "no_key_beta_invalid"
    linked_values = dict(beta=efficiency, beta_valid=beta_valid, fer=fer_value,
                         fer_raw=fer_raw, privacy_bits_per_pulse=privacy)
    shared = _read_only({"status": link.column(status),
                         **{name: link.column(v, linked) for name, v in linked_values.items()}})
    keyed = linked[beta_valid]
    key_values = dict(
        i_ab_bits_per_pulse=security.mutual_information, s_be_bits_per_pulse=security.holevo,
        skr_bits_per_pulse=security.skr_asymptotic, skr_bits_per_second=skr_per_second,
    )
    return [
        PointResult(
            protocol=spec.label,
            detection=spec.detection.value,
            modulation_variance_snu=spec.modulation_variance,
            snr_db=link.column(None if snr is None else snr[row], linked),
            **link.columns,
            **shared,
            **{name: link.column(v[row], keyed) for name, v in key_values.items()},
        )
        for row, spec in enumerate(specs)
    ]
