"""JSON run-configuration schema with the reference link parameters baked in.

A minimal config only picks a protocol and a sweep; every other knob
defaults to the reference values held by the library's input records (1550
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
from typing import Any, Callable, NamedTuple

import numpy as np

from .channel import AtmosphericConditions, OpticalTerminals
from .errors import ConfigError
from .finite_size import MD, MLC_MSD, FiniteSizeParams, ReconciliationModel
from .gaussian import DAYLIGHT_NOISE, Detection
from .pass_analysis import circular_pass_arc
from .pipeline import LinkSetup, ProtocolSpec, Reconciliation, check_reconciliation
from .psk import _MAX_SERIES_TERMS, series_terms
from .qam import _MAX_CUTOFF, Binomial, DiscreteGaussian, start_cutoff
from .quantities import validating

SCHEMA_VERSION = 1

GOOD_CONDITIONS = AtmosphericConditions(visibility_km=200.0, cn2=1e-16)
BAD_CONDITIONS = AtmosphericConditions(visibility_km=20.0, cn2=1e-13)

DEFAULT_MODULATION_VARIANCE = {"gm": 5.0, "psk": 0.5, "qam": 2.0}
DEFAULT_BETA = 0.9  # asymptotic reconciliation efficiency
DEFAULT_DETECTION = {
    "gm": Detection.HOMODYNE,
    "psk": Detection.HOMODYNE,
    "qam": Detection.HETERODYNE,
}

_PROTOCOL_SHORTHAND = re.compile(r"^(gm|psk(2|4|8)|qam(16|64|256))$")
_FITTED_MODELS = {"md": MD, "mlc_msd": MLC_MSD}
# protocol keys a kind does not use; null passes, as a gm echo writes "states": null
_KEYS_UNUSED_BY_KIND = {"gm": ("states", "distribution"), "psk": ("distribution",), "qam": ()}
_ALTITUDE_RANGE = {"start": 200.0, "stop": 1000.0, "step": 50.0}
# Work caps, checked before anything of that size is built.
_MAX_ROWS = 1_000_000  # altitudes x elevations x protocols of a sweep or compare
_MAX_PASS_SAMPLES = 1_000_000
_MAX_QAM_STATES = 4096  # side 64, 16x the paper's 256-QAM; builds grow steeply past it
# Largest GM V_A: `holevo_bound` cancels V^2 against Z^2 = V^2 - 1, so its S_BE
# error grows as about 2e-15 V_A bits.  Measured against 80-digit arithmetic over
# T from 0.5 down to 1e-153: at most 4.6e-9 bits at 1e6, 0.5 bits at 1e14.
_MAX_GM_VARIANCE = 1e6


class SweepSpec(NamedTuple):
    altitudes_m: tuple[float, ...]
    elevations_deg: tuple[float, ...]


@validating
class PassSpec(NamedTuple):
    satellite_altitude_m: float = 417_500.0
    profile_path: str | None = None
    synth_max_elevation_deg: float = 87.6
    synth_sample_dt_s: float = 1.0
    keyhole_ceiling_deg: float | None = None
    bin_width_deg: float = 1.0

    def _check(self) -> None:
        if self.synth_sample_dt_s <= 0.0 or self.bin_width_deg <= 0.0:
            raise ConfigError("pass needs synthesize.sample_dt_s > 0 and bin_width_deg > 0")

    @property
    def synthesized(self) -> bool:
        return self.profile_path is None


class RunPlan(NamedTuple):
    """A fully resolved configuration, ready to execute."""

    protocols: tuple[ProtocolSpec, ...]
    setup: LinkSetup
    reconciliation: Reconciliation
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


def _keys(default: tuple, *renamed: tuple[str, str, _Unit | None]) -> dict:
    """Config key -> (field, unit) for each field of the record ``default`` that
    holds a number; ``renamed`` lists the keys whose name or unit differ from
    their field."""
    table = {name: (name, None) for name, value in zip(default._fields, default)
             if isinstance(value, (int, float))}
    for key, name, unit in renamed:
        del table[name]
        table[key] = (name, unit)
    return table


_TERMINALS = _keys(OpticalTerminals(), ("wavelength_nm", "wavelength_m", _NM))
_CONDITIONS = _keys(GOOD_CONDITIONS)
_NOISE = _keys(
    DAYLIGHT_NOISE,
    ("channel_excess_snu", "channel_excess", None),
    ("detector_excess_snu", "detector_excess", None),
)
_GEOMETRY = _keys(
    LinkSetup(OpticalTerminals(), GOOD_CONDITIONS, DAYLIGHT_NOISE),
    ("ogs_altitude_km", "ogs_altitude_m", _KM),
    ("atmosphere_thickness_km", "atmosphere_thickness_m", _KM),
    ("earth_radius_km", "earth_radius_m", _KM),
)
_FINITE = _keys(FiniteSizeParams())
_PASS = {
    "altitude_km": ("satellite_altitude_m", _KM),
    "keyhole_ceiling_deg": ("keyhole_ceiling_deg", None),
    "bin_width_deg": ("bin_width_deg", None),
}
# pass also accepts the station's key, which sets plan.setup and is echoed there.
_STATION = {"ogs_altitude_km": _GEOMETRY["ogs_altitude_km"]}
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
    """Reject ``count`` rows, samples or Fock levels (inf if it overflowed) over ``cap``."""
    if count > cap:  # every count is whole; past 1e15 it prints with an exponent
        raise ConfigError(f"{what} would be {count:.15g}, over the cap of {cap}")


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
    return base._replace(**overrides)


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
        ("kind", "detection", "modulation_variance_snu", "states", "distribution"),
        "protocol",
    )
    kind = mapping.get("kind")
    if kind not in ("gm", "psk", "qam"):
        raise ConfigError(f"protocol.kind must be gm/psk/qam, got {kind!r}")
    for key in _KEYS_UNUSED_BY_KIND[kind]:
        if mapping.get(key) is not None:
            raise ConfigError(f"protocol.{key} does not apply to a {kind} protocol")

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
        if v_a > _MAX_GM_VARIANCE:
            raise ConfigError(f"gm modulation_variance_snu {v_a!r} is over the cap of "
                              f"{_MAX_GM_VARIANCE:g}, past which S_BE loses its digits")
        return ProtocolSpec(kind="gm", detection=detection, modulation_variance=v_a)
    states = _number(mapping.get("states"), "protocol.states", integer=True)
    if kind == "psk":
        spec = ProtocolSpec(kind="psk", detection=detection, modulation_variance=v_a,
                            states=states)
        _cap(f"the sector-series terms of {states}-PSK at modulation_variance_snu {v_a:g}",
             series_terms(math.sqrt(v_a / 2.0)), _MAX_SERIES_TERMS)
        return spec
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
    _cap("QAM states", states, _MAX_QAM_STATES)
    spec = ProtocolSpec(kind="qam", detection=detection, modulation_variance=v_a,
                        states=states, distribution=distribution)
    _cap(f"the start cutoff of {states}-QAM at modulation_variance_snu {v_a:g}",
         start_cutoff(math.isqrt(states), v_a), _MAX_CUTOFF)
    return spec


def _parse_conditions(raw: Any) -> AtmosphericConditions:
    if raw == "bad":
        return BAD_CONDITIONS
    return _section(GOOD_CONDITIONS, None if raw == "good" else raw, _CONDITIONS, "conditions")


def _parse_reconciliation(raw: Any) -> Reconciliation:
    if isinstance(raw, str):
        raw = {"kind": raw}
    mapping = _expect_mapping({} if raw is None else raw, "reconciliation")
    _reject_unknown(mapping, ("kind", "beta"), "reconciliation")
    kind = str(mapping.get("kind", "asymptotic")).lower().replace("-", "_")
    if kind == "asymptotic":
        return _number(mapping.get("beta", DEFAULT_BETA), "reconciliation.beta")
    if kind in _FITTED_MODELS:
        if mapping.get("beta") is not None:
            raise ConfigError(f"reconciliation.beta does not apply to the fitted model {kind}")
        return _FITTED_MODELS[kind]
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
    own = {k: v for k, v in mapping.items()
           if k not in ("profile_csv", "synthesize", *_STATION)}
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
    return spec._replace(profile_path=profile_path)


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
    except ValueError as exc:  # a library record or the link geometry refused a value
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

    for protocol in protocols:
        check_reconciliation(protocol, reconciliation)

    sweep = None
    pass_spec = None
    if need in ("sweep", "compare"):
        if "sweep" not in config:
            raise ConfigError(f"{need} needs a 'sweep' section")
        sweep = _parse_sweep(config["sweep"])
        rows = len(sweep.altitudes_m) * len(sweep.elevations_deg) * len(protocols)
        _cap(f"{need} rows", rows, _MAX_ROWS)
        setup.geometry(min(sweep.altitudes_m), np.array(sweep.elevations_deg))
    if need == "pass":
        if "pass" not in config:
            raise ConfigError("pass needs a 'pass' section")
        pass_spec = _parse_pass(config["pass"])
        # pass.ogs_altitude_km, when given, overrides the geometry's OGS altitude.
        station = {k: v for k, v in config["pass"].items() if k in _STATION}
        setup = _section(setup, station, _STATION, "pass")
        if len(protocols) != 1:
            raise ConfigError("pass supports a single protocol")
        setup.geometry(pass_spec.satellite_altitude_m, pass_spec.synth_max_elevation_deg)
        if pass_spec.synthesized:
            half_duration_s = circular_pass_arc(
                setup, pass_spec.satellite_altitude_m, pass_spec.synth_max_elevation_deg
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
                "states": p.states,
                **({"distribution": _echo_distribution(p.distribution)}
                   if p.kind == "qam" else {}),
            }
            for p in plan.protocols
        ],
        "terminals": _echo_section(setup.terminals, _TERMINALS),
        "conditions": _echo_section(setup.conditions, _CONDITIONS),
        "noise": _echo_section(setup.noise, _NOISE),
        "geometry": _echo_section(setup, _GEOMETRY),
        "reconciliation": (
            {"kind": reconciliation.name} if isinstance(reconciliation, ReconciliationModel)
            else {"kind": "asymptotic", "beta": reconciliation}
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
