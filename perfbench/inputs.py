"""Seeded input generator for the benchmark workloads.

Every workload is a function of one integer seed.  It returns the CLI
command, the JSON config and (for ``pass_budget``) a measured-style
elevation profile; :func:`write_inputs` puts them in a directory so the
CLI receives only those files.  Nothing here imports the library.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Reference outputs exist for the default seed only; a performance claim
# must also hold on the holdout seed, which is never used while tuning.
DEFAULT_SEED = 1
HOLDOUT_SEED = 20221130

EARTH_RADIUS_KM = 6371.0
_MU_EARTH = 3.986004418e14  # m^3/s^2, circular-orbit angular rate


@dataclass(frozen=True)
class Workload:
    """One generated operation: ``satcvqkd <command> --config ...``."""

    name: str
    command: str  # "sweep", "compare" or "pass"
    config: dict
    expected_rows: int
    qam_constellations: int  # distinct QAM constellations in the config
    profile: tuple[tuple[float, float], ...] | None = None


def _distinct(values: list[float]) -> list[float]:
    return list(dict.fromkeys(values))


def gm_md_sweep(rng: random.Random) -> Workload:
    """GM with MD reconciliation over 500 altitudes x 8 elevations."""
    start = round(rng.uniform(200.0, 210.0), 3)
    altitudes = _distinct([round(start + 1.6 * i, 3) for i in range(500)])
    elevations = _distinct([round(rng.uniform(15.0, 90.0), 3) for _ in range(8)])
    config = {
        "protocol": "gm",
        "terminals": {"receiver_aperture_m": 1.0},
        "reconciliation": {"kind": "md"},
        "sweep": {"altitude_km": altitudes, "elevation_deg": elevations},
    }
    return Workload("gm_md_sweep", "sweep", config,
                    len(altitudes) * len(elevations), 0)


def protocol_compare(rng: random.Random) -> Workload:
    """Ten protocols (GM, three PSK, six QAM) on 30 x 5 points."""
    nus = [round(rng.uniform(0.1, 1.0), 4) for _ in range(3)]
    protocols: list = ["gm", "psk2", "psk4", "psk8", "qam16", "qam64", "qam256"]
    protocols += [
        {"kind": "qam", "states": states, "distribution":
            {"kind": "discrete_gaussian", "nu": nu}}
        for states, nu in zip((16, 64, 256), nus)
    ]
    altitudes = sorted(_distinct(
        [round(rng.uniform(300.0, 1200.0), 3) for _ in range(30)]))
    elevations = _distinct([round(rng.uniform(20.0, 90.0), 3) for _ in range(5)])
    config = {
        "protocols": protocols,
        "reconciliation": {"kind": "asymptotic",
                           "beta": round(rng.uniform(0.9, 0.98), 4)},
        "sweep": {"altitude_km": altitudes, "elevation_deg": elevations},
    }
    return Workload("protocol_compare", "compare", config,
                    len(altitudes) * len(elevations) * len(protocols), 6)


def qam_shaping(rng: random.Random) -> Workload:
    """20 distinct discrete-Gaussian QAM64/QAM256 shapes on 6 points."""
    nus = _distinct([round(rng.uniform(0.05, 2.0), 6) for _ in range(20)])
    protocols = [
        {"kind": "qam", "states": 64 if i % 2 == 0 else 256,
         "distribution": {"kind": "discrete_gaussian", "nu": nu}}
        for i, nu in enumerate(nus)
    ]
    altitudes = sorted(_distinct(
        [round(rng.uniform(300.0, 1000.0), 3) for _ in range(3)]))
    elevations = _distinct([round(rng.uniform(30.0, 90.0), 3) for _ in range(2)])
    config = {
        "protocols": protocols,
        "reconciliation": {"kind": "asymptotic", "beta": 0.95},
        "sweep": {"altitude_km": altitudes, "elevation_deg": elevations},
    }
    return Workload("qam_shaping", "compare", config,
                    len(altitudes) * len(elevations) * len(protocols), len(protocols))


def _elevation_deg(gamma: float, ratio: float) -> float:
    return math.degrees(math.atan2(math.cos(gamma) - ratio, math.sin(gamma)))


def pass_profile(rng: random.Random, samples: int = 60_000
                 ) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Altitude (km) and a jittered (time_s, elevation_deg) series of one pass.

    The geometry is a circular orbit over a spherical, non-rotating Earth,
    restricted to the arc above 10 degrees; sample times carry +-20% jitter
    of the nominal spacing and elevations 0.005 degree noise, as a tracking
    log would.
    """
    altitude_km = round(rng.uniform(450.0, 650.0), 3)
    peak_deg = rng.uniform(45.0, 88.0)
    floor_deg = 10.0
    ratio = EARTH_RADIUS_KM / (EARTH_RADIUS_KM + altitude_km)
    omega = math.sqrt(_MU_EARTH / ((EARTH_RADIUS_KM + altitude_km) * 1e3) ** 3)

    def central_angle(elevation_deg: float) -> float:
        e = math.radians(elevation_deg)
        return math.acos(ratio * math.cos(e)) - e

    gamma_min = central_angle(peak_deg)
    half_s = math.acos(math.cos(central_angle(floor_deg)) / math.cos(gamma_min)) / omega
    dt = 2.0 * half_s / samples
    rows = []
    for i in range(samples):
        t = -half_s + (i + 0.5 + rng.uniform(-0.2, 0.2)) * dt
        gamma = math.acos(min(1.0, math.cos(gamma_min) * math.cos(omega * t)))
        elevation = _elevation_deg(gamma, ratio) + rng.gauss(0.0, 0.005)
        rows.append((round(t + half_s + 1000.0, 6), round(min(elevation, 90.0), 6)))
    return altitude_km, tuple(rows)


def pass_budget(rng: random.Random) -> Workload:
    """GM pass budget (2 m receiver) with MD and MLC-MSD over a 60k-sample profile."""
    altitude_km, profile = pass_profile(rng)
    config = {
        "protocol": "gm",
        # A 1 m receiver yields no finite-size key above ~375 km; 2 m keeps
        # the totals positive so the pass oracle compares non-zero sums.
        "terminals": {"receiver_aperture_m": 2.0},
        "reconciliation": {"kind": "md"},
        "pass": {"profile_csv": None, "altitude_km": altitude_km},
    }
    return Workload("pass_budget", "pass", config, len(profile), 0, profile)


GENERATORS = {
    "gm_md_sweep": gm_md_sweep,
    "protocol_compare": protocol_compare,
    "qam_shaping": qam_shaping,
    "pass_budget": pass_budget,
}


def generate(name: str, seed: int) -> Workload:
    """The workload's inputs for ``seed``; equal seeds give equal inputs."""
    return GENERATORS[name](random.Random(f"{name}:{seed}"))


def write_inputs(workload: Workload, directory: Path) -> Path:
    """Write the config (and profile CSV) into ``directory``; return the config path."""
    config = json.loads(json.dumps(workload.config))
    if workload.profile is not None:
        profile_path = directory / "profile.csv"
        with open(profile_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("time_s,elevation_deg\n")
            handle.writelines(f"{t:.6f},{e:.6f}\n" for t, e in workload.profile)
        config["pass"]["profile_csv"] = profile_path.name
    config_path = directory / "config.json"
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump(config, handle, sort_keys=True, indent=1)
    return config_path
