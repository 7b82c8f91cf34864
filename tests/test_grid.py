"""The grid evaluator and the CSV it writes, against the per-point reference."""

import json
import math
import random

import numpy as np
import pytest

import satcvqkd.cli as cli
import satcvqkd.pipeline as pipeline
from satcvqkd import UnphysicalCovariance
from satcvqkd import config as config_mod
from satcvqkd.cli import main
from satcvqkd.pipeline import PointResult, evaluate_point, link_columns

from oracles import grid_csv_rows, reference_point

# The CSV format, written out: the header comes from PointResult's field names,
# so a renamed or reordered field fails here instead of changing the files.
CSV_HEADER = (
    "protocol,detection,modulation_variance_snu,altitude_km,elevation_deg,l_tot_km,"
    "l_atm_eff_km,a_geo_db,a_scat_db,a_sci_db,a_tot_db,transmittance,snr_db,beta,beta_valid,"
    "fer,fer_raw,i_ab_bits_per_pulse,s_be_bits_per_pulse,privacy_bits_per_pulse,"
    "skr_bits_per_pulse,skr_bits_per_second,far_field_ok,status"
)
COLUMNS = PointResult._fields

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


def _field(value):
    """A reference value as the float a numeric CSV field holds, else as its text."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, float) else str(value)


def test_point_result_fields_are_the_csv_header():
    assert ",".join(COLUMNS) == CSV_HEADER
    assert len(COLUMNS) == 24


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_csv_matches_per_point_reference(tmp_path, case):
    protocols, reconciliation = CASES[case]
    config_path = _config(tmp_path, protocols, reconciliation)
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", config_path, "--output", str(out)]) == 0
    lines = [line for line in out.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]

    plan = config_mod.load(config_path)
    expected = [
        [_field(point[column]) for column in COLUMNS]
        for altitude in plan.sweep.altitudes_m
        for elevation in plan.sweep.elevations_deg
        for spec in plan.protocols
        for point in [reference_point(plan.setup, spec, altitude, elevation,
                                      plan.reconciliation, plan.finite)]
    ]
    assert len(rows) == len(expected)
    status = COLUMNS.index("status")
    statuses = {row[status] for row in expected}
    assert "far_field_excluded" in statuses and "ok" in statuses
    if case == "mlc_msd":
        assert "no_key_beta_invalid" in statuses

    for j, column in enumerate(COLUMNS):
        scale = max((abs(row[j]) for row in expected if isinstance(row[j], float)), default=0.0)
        for got, want in zip(rows, expected):
            assert len(got) == len(COLUMNS)
            if isinstance(want[j], float):  # the field must parse as a number
                assert abs(float(got[j]) - want[j]) <= RTOL * scale, (column, got, want)
            else:
                assert got[j] == want[j], (column, got, want)


def _records(plan):
    """Each protocol's ``evaluate_point`` result over the CLI's flat grid."""
    altitudes_m, elevations_deg = plan.sweep.altitudes_m, plan.sweep.elevations_deg
    link = link_columns(plan.setup, np.repeat(altitudes_m, len(elevations_deg)),
                        np.tile(elevations_deg, len(altitudes_m)))
    return evaluate_point(link, plan.protocols, plan.key_constants, plan.reconciliation,
                          plan.finite)


@pytest.mark.parametrize("blocks", ["default", "short_last"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_csv_is_byte_identical_to_the_row_formatter(tmp_path, monkeypatch, case, blocks):
    protocols, reconciliation = CASES[case]
    points = len(ALTITUDES_KM) * len(ELEVATIONS_DEG)
    if blocks == "short_last":  # three points a block: 40 points leave a last block of one
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 3 * len(protocols))
        assert points % 3 == 1
    config_path = _config(tmp_path, protocols, reconciliation)
    out = tmp_path / "out.csv"
    assert main(["compare", "--config", config_path, "--output", str(out)]) == 0
    echo, header, rows = out.read_bytes().decode("utf-8").split("\n", 2)
    assert echo.startswith("# satcvqkd config ")
    assert header == CSV_HEADER
    assert rows == grid_csv_rows(_records(config_mod.load(config_path)))
    assert rows.count("\n") == points * len(protocols)


NEGATIVE_NAN = float(np.copysign(np.nan, -1.0))


@pytest.mark.parametrize("values, block", [
    ([np.array([-0.0, 0.0, 0.0, -0.0, 1.5])], slice(0, 5)),
    ([np.array([np.nan, NEGATIVE_NAN, 2.0, NEGATIVE_NAN, np.nan])], slice(0, 5)),
    ([np.array([NEGATIVE_NAN, 0.5])], slice(0, 2)),  # a NaN in an all-distinct block
    ([5.0, np.array([1.0, 2.0, 1.0, 5.0]), None], slice(0, 4)),
    ([None, np.array([0.25, np.nan, 0.25, -0.0])], slice(1, 4)),
    ([np.array([1.0, 2.0, 3.0, 4.0]), np.array([-1.0, -2.0, -3.0, -4.0])], slice(0, 4)),
    ([np.array([7.0, 8.0, 9.0]), 7.0, None], slice(2, 3)),  # one point
])
def test_column_formatter_fields_are_each_values_repr(values, block):
    rows = [v[i].item() if isinstance(v, np.ndarray) else v
            for i in range(block.start, block.stop) for v in values]
    expected = ["" if x is None or math.isnan(x) else repr(x) for x in rows]
    assert cli._texts(values, block) == expected


def test_each_distinct_number_is_formatted_once_per_block(tmp_path, monkeypatch):
    """The floats a compare formats are the distinct bit patterns of each number column.

    Every protocol shares the link columns, so adding protocols must not add
    their formatting: per extra protocol, the combined run formats the link
    columns' distinct values fewer times than separate runs do.
    """
    protocols = GM_BOTH + ["psk4", {"kind": "qam", "states": 16, "distribution": "binomial"}]
    points, step = len(ALTITUDES_KM) * len(ELEVATIONS_DEG), 7  # a last block of 5 points
    blocks = [slice(start, min(start + step, points)) for start in range(0, points, step)]
    assert blocks[-1].stop - blocks[-1].start == 5
    formatted, totals = [], []
    monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x) or repr(x), raising=False)

    def count_per_block(output, head, blocks):
        for _ in blocks:  # a block's fields are formatted as it is yielded
            totals.append(len(formatted))

    monkeypatch.setattr(cli, "_write", count_per_block)

    def run(protocols):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", step * len(protocols))
        formatted.clear()
        totals.clear()
        path = _config(tmp_path, protocols, {"kind": "asymptotic", "beta": 0.93})
        assert main(["compare", "--config", path]) == 0
        return np.diff([0] + totals).tolist(), _records(config_mod.load(path))

    def distinct(records, block, names):
        """Distinct bit patterns of each number column ``names`` holds, over the block's rows."""
        total = 0
        for name, values in zip(COLUMNS, zip(*records)):
            if name not in names or not any(
                isinstance(v, float) or isinstance(v, np.ndarray) and v.dtype.kind == "f"
                for v in values
            ):
                continue
            numbers = np.array([[np.nan if v is None else v[i] if isinstance(v, np.ndarray) else v
                                 for v in values] for i in range(block.start, block.stop)])
            total += len(set(numbers.view(np.int64).ravel().tolist()))
        return total

    combined, records = run(protocols)
    assert combined == [distinct(records, block, set(COLUMNS)) for block in blocks]

    link = {"altitude_km", "elevation_deg", "l_tot_km", "l_atm_eff_km", "a_geo_db", "a_scat_db",
            "a_sci_db", "a_tot_db", "transmittance"}
    link_count = sum(distinct(records, block, link) for block in blocks)
    separate = sum(sum(run([protocol])[0]) for protocol in protocols)
    assert 0 < link_count
    assert sum(combined) <= separate - (len(protocols) - 1) * link_count


def test_numerical_failure_writes_no_output(tmp_path, monkeypatch, capsys):
    def unphysical(*args):
        raise UnphysicalCovariance("injected")

    monkeypatch.setattr(pipeline, "covariance_security", unphysical)
    protocols, reconciliation = CASES["md"]
    out = tmp_path / "out.csv"
    code = main(["compare", "--config", _config(tmp_path, protocols, reconciliation),
                 "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert "numerical failure: injected" in capsys.readouterr().err
