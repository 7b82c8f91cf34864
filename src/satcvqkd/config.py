"""JSON run-configuration schema with the reference link parameters baked in.

A minimal config only picks a protocol and a sweep; every other knob
defaults to the reference values held by the library's dataclasses (1550
nm, 0.3 m / 1 m apertures, 0.9 optics efficiencies, 0.1 pointing loss,
20 km atmosphere, daylight noise budget, 50 MHz repetition rate, N = 1e11,
good atmosphere).  Each section is read through one key table and echoed
through the same table, so a default or a unit is written once.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from .channel import AtmosphericConditions, OpticalTerminals
from .errors import ConfigError
from .finite_size import MD, MLC_MSD, FiniteSizeParams
from .gaussian import DAYLIGHT_NOISE, Detection, NoiseBudget
from .pass_analysis import circular_pass_arc
from .pipeline import LinkSetup, ProtocolSpec, ReconciliationSpec
from .qam import Binomial, DiscreteGaussian

SCHEMA_VERSION = 1

GOOD_CONDITIONS = AtmosphericConditions(visibility_km=200.0, cn2=1e-16)
BAD_CONDITIONS = AtmosphericConditions(visibility_km=20.0, cn2=1e-13)

DEFAULT_MODULATION_VARIANCE = {"gm": 5.0, "psk": 0.5, "qam": 2.0}
DEFAULT_DETECTION = {
    "gm": Detection.HOMODYNE,
    "psk": Detection.HOMODYNE,
    "qam": Detection.HETERODYNE,
}

_PROTOCOL_SHORTHAND = re.compile(r"^(gm|psk(2|4|8)|qam(16|64|256))$")
_FITTED_MODELS = {"md": MD, "mlc_msd": MLC_MSD}
_ALTITUDE_RANGE = {"start": 200.0, "stop": 1000.0, "step": 50.0}
# Work caps, checked before anything of that size is built.
_MAX_ROWS = 1_000_000  # altitudes x elevations x protocols of a sweep or compare
_MAX_PASS_SAMPLES = 1_000_000
_MAX_QAM_STATES = 4096  # side 64, 16x the paper's 256-QAM; builds grow steeply past it


@dataclass(frozen=True)
class SweepSpec:
    altitudes_m: tuple[float, ...]
    elevations_deg: tuple[float, ...]


@dataclass(frozen=True)
class PassSpec:
    satellite_altitude_m: float = 417_500.0
    profile_path: str | None = None
    synth_max_elevation_deg: float = 87.6
    synth_sample_dt_s: float = 1.0
    ogs_altitude_m: float = 0.0
    keyhole_ceiling_deg: float | None = None
    bin_width_deg: float = 1.0

    def __post_init__(self) -> None:
        if self.synth_sample_dt_s <= 0.0 or self.bin_width_deg <= 0.0:
            raise ConfigError("pass needs synthesize.sample_dt_s > 0 and bin_width_deg > 0")

    @property
    def synthesized(self) -> bool:
        return self.profile_path is None


@dataclass(frozen=True)
class RunPlan:
    """A fully resolved configuration, ready to execute."""

    protocols: tuple[ProtocolSpec, ...]
    setup: LinkSetup
    reconciliation: ReconciliationSpec
    finite: FiniteSizeParams
    sweep: SweepSpec | None = None
    pass_spec: PassSpec | None = None

    @property
    def resolved(self) -> dict[str, Any]:
        """Canonical JSON-ready echo, read back through the resolve tables."""
        return _echo(self)


class _Unit(NamedTuple):
    to_si: Callable[[float], float]
    from_si: Callable[[float], float]


_KM = _Unit(lambda km: km * 1000.0, lambda m: m / 1000.0)
# Dividing maps 1550 nm exactly onto the library's 1550e-9; 1550 * 1e-9 does not.
_NM = _Unit(lambda nm: nm / 1e9, lambda m: m * 1e9)


def _keys(cls: type, *renamed: tuple[str, str, _Unit | None]) -> dict:
    """Config key -> (field, unit) for each float/int field; ``renamed`` lists
    the keys whose name or unit differ from their field."""
    table = {f.name: (f.name, None) for f in fields(cls) if f.type in ("float", "int")}
    for key, name, unit in renamed:
        del table[name]
        table[key] = (name, unit)
    return table


_TERMINALS = _keys(OpticalTerminals, ("wavelength_nm", "wavelength_m", _NM))
_CONDITIONS = _keys(AtmosphericConditions)
_NOISE = _keys(
    NoiseBudget,
    ("channel_excess_snu", "channel_excess", None),
    ("detector_excess_snu", "detector_excess", None),
)
_GEOMETRY = _keys(
    LinkSetup,
    ("ogs_altitude_km", "ogs_altitude_m", _KM),
    ("atmosphere_thickness_km", "atmosphere_thickness_m", _KM),
    ("earth_radius_km", "earth_radius_m", _KM),
)
_FINITE = _keys(FiniteSizeParams)
_PASS = {
    "altitude_km": ("satellite_altitude_m", _KM),
    "ogs_altitude_km": ("ogs_altitude_m", _KM),
    "keyhole_ceiling_deg": ("keyhole_ceiling_deg", None),
    "bin_width_deg": ("bin_width_deg", None),
}
# synthesize also accepts altitude_km; the echo keeps it at pass level.
_SYNTHESIZE = {
    "max_elevation_deg": ("synth_max_elevation_deg", None),
    "sample_dt_s": ("synth_sample_dt_s", None),
}


def _expect_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, known, where: str) -> None:
    unknown = set(mapping) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _number(value: Any, where: str, integer: bool = False) -> float | int:
    """The checked reader for every numeric leaf: finite, not bool, integral if asked."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if not integer:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _cap(what: str, count: float, cap: int) -> None:
    """Reject a run of ``count`` rows or samples (inf if it overflowed) over ``cap``."""
    if count > cap:
        raise ConfigError(f"{what} would be {count:.0f}, over the cap of {cap}")


def _section(base: Any, raw: Any, keys: dict, where: str) -> Any:
    """``base`` with the values of config section ``raw`` written over it."""
    if raw is None:
        return base
    mapping = _expect_mapping(raw, where)
    _reject_unknown(mapping, keys, where)
    overrides = {}
    for key, value in mapping.items():
        name, unit = keys[key]
        default = getattr(base, name)
        if value is None and default is None:
            continue  # optional field left unset
        number = _number(value, f"{where}.{key}", isinstance(default, int))
        overrides[name] = number if unit is None else unit.to_si(number)
    return replace(base, **overrides)


def _echo_section(obj: Any, keys: dict) -> dict[str, Any]:
    out = {}
    for key, (name, unit) in keys.items():
        value = getattr(obj, name)
        out[key] = value if unit is None or value is None else unit.from_si(value)
    return out


def _parse_protocol(raw: Any) -> ProtocolSpec:
    if isinstance(raw, str):
        token = raw.strip().lower().replace("-", "")
        if not _PROTOCOL_SHORTHAND.match(token):
            raise ConfigError(
                f"unknown protocol {raw!r}; use gm, psk2/psk4/psk8, "
                "qam16/qam64/qam256 or an object"
            )
        if token == "gm":
            raw = {"kind": "gm"}
        else:
            raw = {"kind": token[:3], "states": int(token[3:])}
    mapping = _expect_mapping(raw, "protocol")
    _reject_unknown(
        mapping,
        ("kind", "detection", "modulation_variance_snu", "states", "side", "distribution"),
        "protocol",
    )
    kind = mapping.get("kind")
    if kind not in ("gm", "psk", "qam"):
        raise ConfigError(f"protocol.kind must be gm/psk/qam, got {kind!r}")

    detection_raw = mapping.get("detection")
    try:
        detection = DEFAULT_DETECTION[kind] if detection_raw is None else Detection(detection_raw)
    except ValueError:
        raise ConfigError(f"protocol.detection must be homodyne/heterodyne, got {detection_raw!r}")
    v_a = _number(
        mapping.get("modulation_variance_snu", DEFAULT_MODULATION_VARIANCE[kind]),
        "protocol.modulation_variance_snu",
    )

    if kind == "gm":
        return ProtocolSpec(kind="gm", detection=detection, modulation_variance=v_a)
    if kind == "psk":
        states = _number(mapping.get("states"), "protocol.states", integer=True)
        return ProtocolSpec(
            kind="psk", detection=detection, modulation_variance=v_a, psk_states=states
        )
    if mapping.get("states") is not None:
        states = _number(mapping["states"], "protocol.states", integer=True)
        if states < 4 or math.isqrt(states) ** 2 != states:
            raise ConfigError(f"protocol.states must be a square >= 4 for qam, got {states!r}")
        side = math.isqrt(states)
    else:
        side = _number(mapping.get("side"), "protocol.side", integer=True)
    dist_raw = mapping.get("distribution", "binomial")
    if dist_raw == "binomial":
        distribution: Any = Binomial()
    elif isinstance(dist_raw, dict) and dist_raw.get("kind") == "discrete_gaussian":
        _reject_unknown(dist_raw, ("kind", "nu"), "protocol.distribution")
        distribution = DiscreteGaussian(
            nu=_number(dist_raw.get("nu", 1.0), "protocol.distribution.nu")
        )
    else:
        raise ConfigError(
            f"protocol.distribution must be 'binomial' or "
            f"{{kind: discrete_gaussian, nu: ...}}, got {dist_raw!r}"
        )
    spec = ProtocolSpec(
        kind="qam",
        detection=detection,
        modulation_variance=v_a,
        qam_side=side,
        qam_distribution=distribution,
    )
    _cap("QAM states", float(side) * side, _MAX_QAM_STATES)  # a float product overflows to inf
    return spec


def _parse_conditions(raw: Any) -> AtmosphericConditions:
    if raw == "bad":
        return BAD_CONDITIONS
    return _section(GOOD_CONDITIONS, None if raw == "good" else raw, _CONDITIONS, "conditions")


def _parse_reconciliation(raw: Any) -> ReconciliationSpec:
    if isinstance(raw, str):
        raw = {"kind": raw}
    mapping = _expect_mapping({} if raw is None else raw, "reconciliation")
    _reject_unknown(mapping, ("kind", "beta"), "reconciliation")
    kind = str(mapping.get("kind", "asymptotic")).lower().replace("-", "_")
    if kind == "asymptotic":
        spec = ReconciliationSpec(kind="asymptotic")
        if "beta" in mapping:
            spec = replace(spec, beta_asymptotic=_number(mapping["beta"], "reconciliation.beta"))
        return spec
    if kind in _FITTED_MODELS:
        return ReconciliationSpec(kind="finite", model=_FITTED_MODELS[kind])
    raise ConfigError(
        f"reconciliation.kind must be asymptotic/md/mlc_msd, got {mapping.get('kind')!r}"
    )


def _parse_sweep(raw: Any) -> SweepSpec:
    mapping = _expect_mapping(raw, "sweep")
    _reject_unknown(mapping, ("altitude_km", "elevation_deg"), "sweep")
    alt_raw = mapping.get("altitude_km")
    if isinstance(alt_raw, list) and alt_raw:
        altitudes_km = [_number(a, "sweep.altitude_km[]") for a in alt_raw]
    elif isinstance(alt_raw, dict):
        _reject_unknown(alt_raw, _ALTITUDE_RANGE, "sweep.altitude_km")
        start, stop, step = (
            _number(alt_raw.get(key, default), f"sweep.altitude_km.{key}")
            for key, default in _ALTITUDE_RANGE.items()
        )
        if step <= 0.0 or stop < start:
            raise ConfigError("sweep.altitude_km needs step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9  # inf when the range overflows
        _cap("sweep.altitude_km count", np.floor(span) + 1, _MAX_ROWS)
        altitudes_km = [start + i * step for i in range(int(span) + 1)]
    else:
        raise ConfigError("sweep.altitude_km must be a non-empty list or {start, stop, step}")
    elevations = mapping.get("elevation_deg", [90.0])
    if not isinstance(elevations, list) or not elevations:
        raise ConfigError("sweep.elevation_deg must be a non-empty list")
    return SweepSpec(
        altitudes_m=tuple(_KM.to_si(a) for a in altitudes_km),
        elevations_deg=tuple(_number(e, "sweep.elevation_deg[]") for e in elevations),
    )


def _parse_pass(raw: Any) -> PassSpec:
    mapping = _expect_mapping(raw, "pass")
    profile_path = mapping.get("profile_csv")
    synth = mapping.get("synthesize")
    if (profile_path is None) == (synth is None):
        raise ConfigError("pass needs exactly one of profile_csv or synthesize")
    own = {k: v for k, v in mapping.items() if k not in ("profile_csv", "synthesize")}
    spec = _section(PassSpec(), own, _PASS, "pass")
    if synth is not None:
        keys = {**_SYNTHESIZE, "altitude_km": _PASS["altitude_km"]}
        return _section(spec, _expect_mapping(synth, "pass.synthesize"), keys, "pass.synthesize")
    if "altitude_km" not in mapping:
        raise ConfigError("pass over a measured profile needs pass.altitude_km")
    if not isinstance(profile_path, str):
        raise ConfigError(f"pass.profile_csv must be a path, got {profile_path!r}")
    if not os.path.isfile(profile_path):
        what = "is not a regular file" if os.path.exists(profile_path) else "does not exist"
        raise ConfigError(f"pass.profile_csv {profile_path!r} {what}")
    return replace(spec, profile_path=profile_path)


def _run_type(config: Any) -> str:
    """The run a config describes: compare, pass or sweep."""
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    if "protocols" in config:
        return "compare"
    return "pass" if "pass" in config and "sweep" not in config else "sweep"


def resolve(config: dict[str, Any], need: str | None = None) -> RunPlan:
    """Validate a configuration mapping and fill in all defaults.

    ``need`` is "sweep", "pass" or "compare" and controls which sections are
    required; ``None`` takes the run type from the keys present.  Every grid
    corner and pass peak is checked against the link geometry here, so a
    plan that resolves does not fail on its configuration at run time.
    """
    try:
        return _resolve(config, need or _run_type(config))
    except ValueError as exc:  # a library dataclass or the link geometry refused a value
        raise ConfigError(str(exc)) from None


def _resolve(config: dict[str, Any], need: str) -> RunPlan:
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION or isinstance(version, bool):
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    known = {
        "schema_version", "protocol", "protocols", "conditions", "terminals",
        "noise", "geometry", "reconciliation", "finite_size", "sweep", "pass",
    }
    _reject_unknown(config, known, "configuration")

    if need == "compare":
        raw_protocols = config.get("protocols")
        if not isinstance(raw_protocols, list) or not raw_protocols:
            raise ConfigError("compare needs a non-empty 'protocols' list")
        protocols = tuple(_parse_protocol(p) for p in raw_protocols)
    else:
        if "protocol" not in config:
            raise ConfigError("configuration needs a 'protocol'")
        protocols = (_parse_protocol(config["protocol"]),)

    link = LinkSetup(
        terminals=_section(OpticalTerminals(), config.get("terminals"), _TERMINALS, "terminals"),
        conditions=_parse_conditions(config.get("conditions")),
        noise=_section(DAYLIGHT_NOISE, config.get("noise"), _NOISE, "noise"),
    )
    setup = _section(link, config.get("geometry"), _GEOMETRY, "geometry")
    reconciliation = _parse_reconciliation(config.get("reconciliation"))
    finite = _section(FiniteSizeParams(), config.get("finite_size"), _FINITE, "finite_size")

    if reconciliation.kind == "finite":
        for protocol in protocols:
            if protocol.kind != "gm":
                raise ConfigError(
                    "finite-size reconciliation is only established for the GM "
                    f"protocol; remove {protocol.label} or use asymptotic"
                )

    sweep = None
    pass_spec = None
    if need in ("sweep", "compare"):
        if "sweep" not in config:
            raise ConfigError(f"{need} needs a 'sweep' section")
        sweep = _parse_sweep(config["sweep"])
        rows = len(sweep.altitudes_m) * len(sweep.elevations_deg) * len(protocols)
        _cap(f"{need} rows", rows, _MAX_ROWS)
        for elevation in sweep.elevations_deg:
            setup.geometry(min(sweep.altitudes_m), elevation)
    if need == "pass":
        if "pass" not in config:
            raise ConfigError("pass needs a 'pass' section")
        pass_spec = _parse_pass(config["pass"])
        if len(protocols) != 1:
            raise ConfigError("pass supports a single protocol")
        replace(setup, ogs_altitude_m=pass_spec.ogs_altitude_m).geometry(
            pass_spec.satellite_altitude_m, pass_spec.synth_max_elevation_deg
        )
        if pass_spec.synthesized:
            half_duration_s = circular_pass_arc(
                pass_spec.satellite_altitude_m, pass_spec.synth_max_elevation_deg,
                pass_spec.ogs_altitude_m, setup.earth_radius_m,
            )[-1]
            steps = np.floor(half_duration_s / pass_spec.synth_sample_dt_s)  # as synthesized
            _cap("pass samples", 2 * steps + 1, _MAX_PASS_SAMPLES)

    return RunPlan(protocols, setup, reconciliation, finite, sweep, pass_spec)


def _echo_distribution(distribution: Any) -> Any:
    """The QAM distribution in the form _parse_protocol reads."""
    if isinstance(distribution, DiscreteGaussian):
        return {"kind": "discrete_gaussian", "nu": distribution.nu}
    return "binomial"


def _echo(plan: RunPlan) -> dict[str, Any]:
    setup, reconciliation, pass_spec = plan.setup, plan.reconciliation, plan.pass_spec
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "protocols": [
            {
                "kind": p.kind,
                "label": p.label,
                "detection": p.detection.value,
                "modulation_variance_snu": p.modulation_variance,
                "states": p.psk_states if p.kind == "psk" else (
                    p.qam_side**2 if p.kind == "qam" else None
                ),
                **({"distribution": _echo_distribution(p.qam_distribution)}
                   if p.kind == "qam" else {}),
            }
            for p in plan.protocols
        ],
        "terminals": _echo_section(setup.terminals, _TERMINALS),
        "conditions": _echo_section(setup.conditions, _CONDITIONS),
        "noise": _echo_section(setup.noise, _NOISE),
        "geometry": _echo_section(setup, _GEOMETRY),
        "reconciliation": (
            {"kind": "asymptotic", "beta": reconciliation.beta_asymptotic}
            if reconciliation.kind == "asymptotic"
            else {"kind": reconciliation.model.name}
        ),
        "finite_size": {
            **_echo_section(plan.finite, _FINITE),
            "fit_block_length_note": "efficiency/FER fits obtained at N=1e6",
        },
    }
    if plan.sweep is not None:
        out["sweep"] = {
            "altitude_km": [_KM.from_si(a) for a in plan.sweep.altitudes_m],
            "elevation_deg": list(plan.sweep.elevations_deg),
        }
    if pass_spec is not None:
        out["pass"] = {
            "profile_csv": pass_spec.profile_path,
            **_echo_section(pass_spec, _PASS),
            "synthesize": (
                _echo_section(pass_spec, _SYNTHESIZE) if pass_spec.synthesized else None
            ),
        }
    return out


def load(path: str, need: str | None = None) -> RunPlan:
    """Read and resolve a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except ValueError as exc:  # bad JSON, bad UTF-8 or an over-long integer
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    return resolve(raw, need)
