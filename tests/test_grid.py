"""The grid evaluator and the CSV it writes, against the per-point reference."""

import json
import random

import pytest

import satcvqkd.pipeline as pipeline
from satcvqkd import UnphysicalCovariance
from satcvqkd import config as config_mod
from satcvqkd.cli import main
from satcvqkd.pipeline import CSV_COLUMNS

from oracles import reference_point

RTOL = 1e-12  # relative to the column's largest magnitude

_rng = random.Random(20221130)
# a 2 m receiver is in the near field of the 0.3 m transmitter below ~387 km
ALTITUDES_KM = sorted(
    [round(_rng.uniform(200.0, 380.0), 3) for _ in range(3)]
    + [round(_rng.uniform(390.0, 1500.0), 3) for _ in range(7)]
)
ELEVATIONS_DEG = [round(_rng.uniform(10.0, 89.0), 3) for _ in range(3)] + [90.0]

GM_BOTH = [{"kind": "gm", "detection": "homodyne"}, {"kind": "gm", "detection": "heterodyne"}]
CASES = {
    "asymptotic": (
        GM_BOTH + [
            "psk2",
            {"kind": "psk", "states": 4, "detection": "heterodyne"},
            "psk8",
            {"kind": "qam", "states": 16, "distribution": "binomial"},
            {"kind": "qam", "states": 16, "detection": "homodyne",
             "distribution": {"kind": "discrete_gaussian", "nu": round(_rng.uniform(0.1, 1.0), 4)}},
        ],
        {"kind": "asymptotic", "beta": 0.93},
    ),
    "md": (GM_BOTH, {"kind": "md"}),
    "mlc_msd": (GM_BOTH, {"kind": "mlc_msd"}),
}


def _config(tmp_path, protocols, reconciliation):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "protocols": protocols,
        "terminals": {"receiver_aperture_m": 2.0},
        "reconciliation": reconciliation,
        "sweep": {"altitude_km": ALTITUDES_KM, "elevation_deg": ELEVATIONS_DEG},
    }), encoding="utf-8")
    return str(path)


def _field(value, divisor):
    """A reference value as the float a numeric CSV field holds, else as its text."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return value / divisor if divisor else value
    return str(value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_csv_matches_per_point_reference(tmp_path, case):
    protocols, reconciliation = CASES[case]
    config_path = _config(tmp_path, protocols, reconciliation)
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", config_path, "--output", str(out)]) == 0
    lines = [line for line in out.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    assert lines[0] == ",".join(column for column, _, _ in CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]

    plan = config_mod.load(config_path, "compare")
    expected = [
        [_field(point[name], divisor) for _, name, divisor in CSV_COLUMNS]
        for altitude in plan.sweep.altitudes_m
        for elevation in plan.sweep.elevations_deg
        for spec in plan.protocols
        for point in [reference_point(plan.setup, spec, altitude, elevation,
                                      plan.reconciliation, plan.finite)]
    ]
    assert len(rows) == len(expected)
    status = [column for column, _, _ in CSV_COLUMNS].index("status")
    statuses = {row[status] for row in expected}
    assert "far_field_excluded" in statuses and "ok" in statuses
    if case == "mlc_msd":
        assert "no_key_beta_invalid" in statuses

    for j, (column, _, _) in enumerate(CSV_COLUMNS):
        scale = max((abs(row[j]) for row in expected if isinstance(row[j], float)), default=0.0)
        for got, want in zip(rows, expected):
            assert len(got) == len(CSV_COLUMNS)
            if isinstance(want[j], float):  # the field must parse as a number
                assert abs(float(got[j]) - want[j]) <= RTOL * scale, (column, got, want)
            else:
                assert got[j] == want[j], (column, got, want)


def test_numerical_failure_writes_no_output(tmp_path, monkeypatch, capsys):
    def unphysical(*args):
        raise UnphysicalCovariance("injected")

    monkeypatch.setattr(pipeline, "gm_security", unphysical)
    protocols, reconciliation = CASES["md"]
    out = tmp_path / "out.csv"
    code = main(["compare", "--config", _config(tmp_path, protocols, reconciliation),
                 "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "numerical failure: injected" in capsys.readouterr().err
