import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import satcvqkd
from satcvqkd import DAYLIGHT_NOISE, Binomial, ConfigError, Detection, DiscreteGaussian, \
    ProtocolSpec, key_constants, synthesize_circular_pass
from satcvqkd import cli, config as config_mod, pass_analysis, psk, qam
from satcvqkd.cli import main
from satcvqkd.pass_analysis import circular_pass_arc, integrate_key_bits, load_profile
from satcvqkd.psk import series_terms

DATA = Path(__file__).parent / "data"


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in data[1:]]


SWEEP_CONFIG = {
    "protocol": "gm",
    "reconciliation": {"kind": "asymptotic", "beta": 0.9},
    "sweep": {
        "altitude_km": {"start": 200, "stop": 1000, "step": 50},
        "elevation_deg": [30, 60, 90],
    },
}


def test_validate_config_ok(tmp_path, capsys):
    path = _write_config(tmp_path, "ok.json", SWEEP_CONFIG)
    assert main(["validate-config", "--config", path]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["protocols"][0]["label"] == "GM"
    assert echoed["protocols"][0]["modulation_variance_snu"] == 5.0
    assert echoed["finite_size"]["total_symbols"] == 1e11


@pytest.mark.parametrize("name", ["minimal_sweep", "full_pass"])
def test_validate_config_matches_golden(name, capsys):
    # The golden files pin the echo of a minimal config and of one that sets
    # every section, so a change to defaults or units shows up here.
    assert main(["validate-config", "--config", str(DATA / f"{name}.json")]) == 0
    golden = (DATA / f"{name}.resolved.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def _assert_reruns_from_echo(tmp_path, command, first):
    """The echo of result file ``first``, turned back into a config, reproduces its bytes."""
    echo_line = first.read_text(encoding="utf-8").splitlines()[0]
    echo = json.loads(echo_line.removeprefix("# satcvqkd config "))
    protocols = [
        {key: value for key, value in protocol.items() if key != "label" and value is not None}
        for protocol in echo.pop("protocols")
    ]
    if command == "compare":
        echo["protocols"] = protocols
    else:
        (echo["protocol"],) = protocols
    del echo["finite_size"]["fit_block_length_note"]
    rerun = _write_config(tmp_path, "rerun.json", echo)
    second = tmp_path / "second.csv"
    assert main([command, "--config", rerun, "--output", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("command, name", [
    ("sweep", "minimal_sweep"), ("pass", "full_pass"), ("compare", "shaped_compare"),
])
def test_rerun_from_echo_is_byte_identical(tmp_path, command, name):
    # A result file must be sufficient to rerun.
    first = tmp_path / "first.csv"
    config = str(DATA / f"{name}.json")
    assert main([command, "--config", config, "--output", str(first)]) == 0
    _assert_reruns_from_echo(tmp_path, command, first)


def test_validate_config_rejects_unknown_key(tmp_path, capsys):
    path = _write_config(tmp_path, "bad.json", {**SWEEP_CONFIG, "typo_key": 1})
    assert main(["validate-config", "--config", path]) == 1


def test_config_error_exit_code(tmp_path):
    path = _write_config(
        tmp_path, "bad2.json", {"protocol": "psk3", "sweep": SWEEP_CONFIG["sweep"]}
    )
    assert main(["sweep", "--config", path]) == 1


def test_finite_size_non_gm_rejected(tmp_path):
    payload = {
        "protocol": "qam64",
        "reconciliation": {"kind": "md"},
        "sweep": SWEEP_CONFIG["sweep"],
    }
    path = _write_config(tmp_path, "bad3.json", payload)
    assert main(["sweep", "--config", path]) == 1


def test_sweep_cardinality_and_columns(tmp_path):
    config = _write_config(tmp_path, "sweep.json", SWEEP_CONFIG)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", config, "--output", str(out)]) == 0
    header, rows = _read_rows(out)
    assert len(rows) == 17 * 3
    assert "skr_bits_per_pulse" in header
    assert rows[0]["protocol"] == "GM"
    # deterministic ordering: altitude major, elevation minor
    assert [r["elevation_deg"] for r in rows[:3]] == ["30.0", "60.0", "90.0"]
    assert rows[3]["altitude_km"] == "250.0"


def test_two_psk_sweep_never_positive(tmp_path):
    payload = {**SWEEP_CONFIG, "protocol": "psk2"}
    config = _write_config(tmp_path, "psk2.json", payload)
    out = tmp_path / "psk2.csv"
    assert main(["sweep", "--config", config, "--output", str(out)]) == 0
    _header, rows = _read_rows(out)
    assert len(rows) == 51
    for row in rows:
        assert float(row["skr_bits_per_pulse"]) <= 0.0


def test_far_field_exclusion_rows(tmp_path):
    payload = {
        **SWEEP_CONFIG,
        "terminals": {"receiver_aperture_m": 2.0},
        "sweep": {"altitude_km": [300, 350, 400, 500], "elevation_deg": [90]},
    }
    config = _write_config(tmp_path, "wide.json", payload)
    out = tmp_path / "wide.csv"
    assert main(["sweep", "--config", config, "--output", str(out)]) == 0
    _header, rows = _read_rows(out)
    by_alt = {row["altitude_km"]: row for row in rows}
    assert by_alt["300.0"]["status"] == "far_field_excluded"
    assert by_alt["350.0"]["status"] == "far_field_excluded"
    assert by_alt["400.0"]["status"] == "ok"
    assert by_alt["300.0"]["far_field_ok"] == "false"
    assert by_alt["300.0"]["skr_bits_per_pulse"] == ""


def test_compare_orderings_and_shared_channel(tmp_path):
    payload = {
        "protocols": ["gm", "qam256", "psk8"],
        "reconciliation": {"kind": "asymptotic", "beta": 0.9},
        "sweep": {"altitude_km": [500], "elevation_deg": [90]},
    }
    config = _write_config(tmp_path, "compare.json", payload)
    out = tmp_path / "compare.csv"
    assert main(["compare", "--config", config, "--output", str(out)]) == 0
    _header, rows = _read_rows(out)
    assert len(rows) == 3
    assert len({row["transmittance"] for row in rows}) == 1
    skr = {row["protocol"]: float(row["skr_bits_per_pulse"]) for row in rows}
    assert skr["GM"] >= skr["256-QAM[binomial]"] >= skr["8-PSK"]


def test_odd_side_qam_compare_reruns_from_its_echo(tmp_path):
    # odd sides put a point at alpha = 0, an orbit of its own under the 90 degree turn
    payload = {
        "protocols": [{"kind": "qam", "states": 9}, {"kind": "qam", "states": 25}],
        "reconciliation": {"kind": "asymptotic", "beta": 0.95},
        "sweep": {"altitude_km": [500], "elevation_deg": [60, 90]},
    }
    first = tmp_path / "first.csv"
    config = _write_config(tmp_path, "odd.json", payload)
    assert main(["compare", "--config", config, "--output", str(first)]) == 0
    _header, rows = _read_rows(first)
    assert [row["status"] for row in rows] == ["ok"] * 4
    _assert_reruns_from_echo(tmp_path, "compare", first)


def test_pass_summary_contains_both_models(tmp_path):
    payload = {
        "protocol": "gm",
        "terminals": {"receiver_aperture_m": 2.0},
        "reconciliation": {"kind": "md"},
        "geometry": {"ogs_altitude_km": 1.029},
        "pass": {
            "altitude_km": 417.5,
            "synthesize": {"max_elevation_deg": 87.6, "sample_dt_s": 2.0},
        },
    }
    config = _write_config(tmp_path, "pass.json", payload)
    out = tmp_path / "pass.csv"
    assert main(["pass", "--config", config, "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "# summary model=MD total_key_bits=" in text
    assert "# summary model=MLC-MSD total_key_bits=" in text
    md_total = float(
        [l for l in text.splitlines() if "model=MD " in l][0]
        .split("total_key_bits=")[1].split()[0]
    )
    mlc_total = float(
        [l for l in text.splitlines() if "model=MLC-MSD " in l][0]
        .split("total_key_bits=")[1].split()[0]
    )
    assert md_total >= mlc_total > 0.0


def test_pass_flies_from_the_geometry_ogs_altitude(tmp_path):
    # geometry.ogs_altitude_km is a pass's station, echo included; without it
    # the station is at sea level.
    base = {
        "protocol": "gm",
        "terminals": {"receiver_aperture_m": 2.0},
        "reconciliation": {"kind": "md"},
        "pass": {"altitude_km": 417.5,
                 "synthesize": {"max_elevation_deg": 87.6, "sample_dt_s": 2.0}},
    }
    outputs = {}
    for name, payload in (
        ("geometry", {**base, "geometry": {"ogs_altitude_km": 1.0}}),
        ("sea_level", base),
    ):
        outputs[name] = tmp_path / f"{name}.csv"
        config = _write_config(tmp_path, f"{name}.json", payload)
        assert main(["pass", "--config", config, "--output", str(outputs[name])]) == 0
    assert outputs["geometry"].read_bytes() != outputs["sea_level"].read_bytes()
    _assert_reruns_from_echo(tmp_path, "pass", outputs["geometry"])


def test_measured_profile_pass(tmp_path):
    profile = tmp_path / "profile.csv"
    profile.write_text("0,30\n60,60\n120,88\n180,60\n240,30\n", encoding="utf-8")
    payload = {
        "protocol": "gm",
        "terminals": {"receiver_aperture_m": 2.0},
        "reconciliation": {"kind": "md"},
        "geometry": {"ogs_altitude_km": 1.029},
        "pass": {"profile_csv": str(profile), "altitude_km": 417.5},
    }
    config = _write_config(tmp_path, "pass2.json", payload)
    out = tmp_path / "pass2.csv"
    assert main(["pass", "--config", config, "--output", str(out)]) == 0
    header_line = [
        l for l in out.read_text(encoding="utf-8").splitlines()
        if l.startswith("time_s")
    ][0]
    assert "skr_bits_per_second[MD]" in header_line


@pytest.mark.parametrize("text", ["0,30\n60,60\n120,88\n",
                                  "time_s,elevation_deg\n0,30\n60,60\n120,88\n"])
def test_profile_byte_order_mark_changes_no_output_byte(tmp_path, text):
    profile = tmp_path / "profile.csv"
    config = _profile_pass(tmp_path, profile)
    outputs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        profile.write_bytes(mark + text.encode("utf-8"))
        out = tmp_path / f"pass{len(outputs)}.csv"
        assert main(["pass", "--config", config, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _series_lines(text):
    lines = text.splitlines()
    return lines[lines.index(next(l for l in lines if l.startswith("time_s,"))) + 1:]


def test_pass_series_is_repr_joined_by_commas(tmp_path, monkeypatch):
    # 17-digit times, a scientific elevation and negative and zero rates: the
    # series rows read as ",".join of each value's repr.
    profile = tmp_path / "profile.csv"
    profile.write_text("0.30000000000000004,10.5\n60.123456789012345,30.25\n"
                       "120.00000000000001,88.0\n180.99999999999997,45.123456789\n"
                       "240.1,0.00005\n", encoding="utf-8")
    config = _write_config(tmp_path, "pass.json", {
        "protocol": "gm", "terminals": {"receiver_aperture_m": 2.0},
        "reconciliation": {"kind": "md"},
        "pass": {"profile_csv": str(profile), "altitude_km": 417.5},
    })
    results = []

    def integrate(*args, **kwargs):
        results.append(integrate_key_bits(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "integrate_key_bits", integrate)
    out = tmp_path / "pass.csv"
    assert main(["pass", "--config", config, "--output", str(out)]) == 0
    (result,) = results
    loaded = load_profile(profile)
    series = [result.models[name].bin_rates[result.sample_bins].tolist()
              for name in sorted(result.models)]
    expected = [",".join(map(repr, (t, e, *(rates[i] for rates in series))))
                for i, (t, e) in enumerate(zip(loaded.times_s.tolist(),
                                               loaded.elevations_deg.tolist()))]
    assert _series_lines(out.read_text(encoding="utf-8")) == expected
    fields = [line.split(",") for line in expected]
    assert fields[4][1] == "5e-05" and fields[1][0] == "60.123456789012344"  # 17 digits
    assert {"0.0", "-998902.8018696125"} <= {f for row in fields for f in row[2:]}


@pytest.mark.parametrize("synthesized", [True, False])
def test_every_pass_block_is_one_matrix(tmp_path, monkeypatch, synthesized):
    # A synthesized pass has mostly 17-digit times and elevations, a measured
    # profile six decimals: either way each 8192-row block is one uint8 matrix.
    payload = _replaced(SYNTH_PASS, ("pass", "synthesize", "sample_dt_s"), 0.05)
    profile = synthesize_circular_pass(config_mod.resolve(payload).setup.site, 417.5e3, 87.6, 0.05)
    if not synthesized:
        rows = zip(profile.times_s.round(6).tolist(), profile.elevations_deg.round(6).tolist())
        path = tmp_path / "profile.csv"
        path.write_text("".join(f"{t},{e}\n" for t, e in rows), encoding="utf-8")
        payload = {"protocol": "gm", "pass": {"profile_csv": str(path), "altitude_km": 417.5}}
    matrices = []
    monkeypatch.setattr(cli, "_csv_lines", lambda fields: matrices.append(fields) or "")
    assert main(["pass", "--config", _write_config(tmp_path, "pass.json", payload),
                 "--output", str(tmp_path / "pass.csv")]) == 0
    rows = profile.times_s.size
    assert rows > 8192  # a full block and a part block
    assert [fields[0].shape[0] for fields in matrices] == \
        [min(8192, rows - start) for start in range(0, rows, 8192)]


def test_one_sample_pass_has_no_series_rows(tmp_path):
    profile = tmp_path / "profile.csv"
    profile.write_text("0,40\n", encoding="utf-8")
    out = tmp_path / "pass.csv"
    assert main(["pass", "--config", _profile_pass(tmp_path, profile), "--output", str(out)]) == 0
    assert _series_lines(out.read_text(encoding="utf-8")) == []


def test_pass_to_stdout_writes_the_file_bytes(tmp_path, capsys):
    config = _write_config(tmp_path, "pass.json", {**SYNTH_PASS, "reconciliation": "md"})
    out = tmp_path / "pass.csv"
    assert main(["pass", "--config", config, "--output", str(out)]) == 0
    assert main(["pass", "--config", config]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_sweep_reruns_are_byte_identical(tmp_path):
    payload = {
        **SWEEP_CONFIG,
        "reconciliation": {"kind": "md"},
        "sweep": {
            "altitude_km": {"start": 200, "stop": 1000, "step": 50},
            "elevation_deg": [30, 60, 90],
        },
    }
    config = _write_config(tmp_path, "det.json", payload)
    outputs = []
    for name in ("a.csv", "b.csv", "c.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", config, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter sees every import.
    src = str(Path(satcvqkd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, satcvqkd.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "satcvqkd.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "sweep" in result.stdout


# --- malformed configurations: exit 1, one line, caught at resolve time ---------

ONE_POINT = {"protocol": "gm", "sweep": {"altitude_km": [500], "elevation_deg": [90]}}
SYNTH_PASS = {
    "protocol": "gm",
    "pass": {"altitude_km": 417.5,
             "synthesize": {"max_elevation_deg": 87.6, "sample_dt_s": 2.0}},
}


def _replaced(base, path, value):
    config = json.loads(json.dumps(base))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


MALFORMED = {
    "qam_states_string": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "qam", "states": "16"}), "protocol.states"),
    "altitude_string": ("sweep", _replaced(
        ONE_POINT, ("sweep", "altitude_km"), ["x"]), "sweep.altitude_km"),
    "elevation_string": ("sweep", _replaced(
        ONE_POINT, ("sweep", "elevation_deg"), ["a"]), "sweep.elevation_deg"),
    "keyhole_string": ("pass", _replaced(
        SYNTH_PASS, ("pass", "keyhole_ceiling_deg"), "x"), "pass.keyhole_ceiling_deg"),
    "peak_elevation_95": ("pass", _replaced(
        SYNTH_PASS, ("pass", "synthesize", "max_elevation_deg"), 95), "elevation"),
    "sample_dt_zero": ("pass", _replaced(
        SYNTH_PASS, ("pass", "synthesize", "sample_dt_s"), 0), "sample_dt_s"),
    "altitude_nan": ("sweep", _replaced(
        ONE_POINT, ("sweep", "altitude_km"), [float("nan")]), "finite number"),
    "elevation_zero": ("sweep", _replaced(
        ONE_POINT, ("sweep", "elevation_deg"), [0]), "elevation"),
    "elevation_95_among_others": ("sweep", _replaced(
        ONE_POINT, ("sweep", "elevation_deg"), [30, 95, 0]), "got 95.0"),
    "altitude_below_atmosphere": ("sweep", _replaced(
        ONE_POINT, ("sweep", "altitude_km"), [15]), "atmosphere"),
    "range_stop_below_start": ("sweep", _replaced(
        ONE_POINT, ("sweep", "altitude_km"), {"start": 500, "stop": 400, "step": 50}),
        "stop >= start"),
    "misspelled_section_key": ("sweep", _replaced(
        ONE_POINT, ("terminals",), {"reciever_aperture_m": 2.0}), "reciever_aperture_m"),
    "discretisation_fraction": ("sweep", _replaced(
        ONE_POINT, ("finite_size",), {"discretisation": 5.7}), "integer"),
    "beta_above_one": ("sweep", _replaced(
        ONE_POINT, ("reconciliation",), {"kind": "asymptotic", "beta": 1.5}),
        "asymptotic beta must be in [0, 1], got 1.5"),
    "beta_negative": ("sweep", _replaced(
        ONE_POINT, ("reconciliation",), {"kind": "asymptotic", "beta": -0.1}),
        "asymptotic beta must be in [0, 1], got -0.1"),
    "qam_states_not_square": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "qam", "states": 15}), "square"),
    "qam_size_by_side": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "qam", "side": 8}),
        "unknown keys in protocol: ['side']"),
    "gm_with_states": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "gm", "states": 8}),
        "protocol.states does not apply to a gm protocol"),
    "gm_with_distribution": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "gm", "distribution": "binomial"}),
        "protocol.distribution does not apply to a gm protocol"),
    "psk_with_distribution": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "psk", "states": 4, "distribution": "binomial"}),
        "protocol.distribution does not apply to a psk protocol"),
    "beta_with_fitted_model": ("sweep", _replaced(
        ONE_POINT, ("reconciliation",), {"kind": "md", "beta": 0.5}),
        "reconciliation.beta does not apply to the fitted model md"),
    "qam_start_cutoff_over_cap": ("compare", {
        "protocols": ["gm", {"kind": "qam", "states": 256, "modulation_variance_snu": 200}],
        "sweep": ONE_POINT["sweep"],
    }, "256-QAM at V_A = 200 needs a start cutoff of 12010, over the cap of 4096"),
    "qam_start_cutoff_past_float_range": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "qam", "states": 4096,
                                   "modulation_variance_snu": 1e308}),
        "4096-QAM at V_A = 1e+308 needs a start cutoff of inf, over the cap of 4096"),
    "profile_missing": ("pass", {
        "protocol": "gm", "pass": {"profile_csv": "no-such-dir/profile.csv", "altitude_km": 417.5},
    }, "pass.profile_csv 'no-such-dir/profile.csv' does not exist"),
    "profile_directory": ("pass", {
        "protocol": "gm", "pass": {"profile_csv": ".", "altitude_km": 417.5},
    }, "pass.profile_csv '.' is not a regular file"),
    "section_not_an_object": ("sweep", _replaced(
        ONE_POINT, ("terminals",), [2.0]), "terminals must be an object, got list"),
    "protocol_kind_unknown": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "fsk"}), "protocol.kind must be gm/psk/qam, got 'fsk'"),
    "protocol_detection_unknown": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "gm", "detection": "balanced"}),
        "protocol.detection must be homodyne/heterodyne, got 'balanced'"),
    "protocol_distribution_unknown": ("sweep", _replaced(
        ONE_POINT, ("protocol",), {"kind": "qam", "states": 16, "distribution": "uniform"}),
        "protocol.distribution must be 'binomial' or {kind: discrete_gaussian, nu: ...}, "
        "got 'uniform'"),
    "reconciliation_kind_unknown": ("sweep", _replaced(
        ONE_POINT, ("reconciliation",), {"kind": "ldpc"}),
        "reconciliation.kind must be asymptotic/md/mlc_msd, got 'ldpc'"),
    "altitude_a_number": ("sweep", _replaced(
        ONE_POINT, ("sweep", "altitude_km"), 500),
        "sweep.altitude_km must be a non-empty list or {start, stop, step}"),
    "elevation_list_empty": ("sweep", _replaced(
        ONE_POINT, ("sweep", "elevation_deg"), []), "sweep.elevation_deg must be a non-empty list"),
    "pass_without_a_profile": ("pass", {"protocol": "gm", "pass": {"altitude_km": 417.5}},
                               "pass needs exactly one of profile_csv or synthesize"),
    "pass_with_two_profiles": ("pass", _replaced(
        SYNTH_PASS, ("pass", "profile_csv"), "profile.csv"),
        "pass needs exactly one of profile_csv or synthesize"),
    "measured_pass_without_altitude": ("pass", {
        "protocol": "gm", "pass": {"profile_csv": "profile.csv"},
    }, "pass over a measured profile needs pass.altitude_km"),
    "profile_not_a_string": ("pass", {
        "protocol": "gm", "pass": {"profile_csv": 5, "altitude_km": 417.5},
    }, "pass.profile_csv must be a path, got 5"),
    "pass_station_alias": ("pass", _replaced(
        SYNTH_PASS, ("pass", "ogs_altitude_km"), 1.029), "unknown keys in pass: ['ogs_altitude_km']"),
    "synthesize_altitude_alias": ("pass", _replaced(
        SYNTH_PASS, ("pass", "synthesize", "altitude_km"), 417.5),
        "unknown keys in pass.synthesize: ['altitude_km']"),
    "station_just_below_the_atmosphere_top": ("sweep", _replaced(
        ONE_POINT, ("geometry",), {"ogs_altitude_km": 19.999999}),
        "path through the atmosphere must be positive, got 0.0"),
    "station_at_the_atmosphere_top": ("pass", _replaced(
        SYNTH_PASS, ("geometry",), {"ogs_altitude_km": 25}),
        "altitudes must satisfy atmosphere thickness > OGS >= 0, got 20000.0, 25000.0"),
    "earth_radius_zero": ("sweep", _replaced(
        ONE_POINT, ("geometry",), {"earth_radius_km": 0}),
        "earth radius must be positive, got 0.0"),
    "atmosphere_below_the_station": ("sweep", _replaced(
        ONE_POINT, ("geometry",), {"ogs_altitude_km": 1.029, "atmosphere_thickness_km": 0.5}),
        "altitudes must satisfy atmosphere thickness > OGS >= 0, got 500.0, 1029.0"),
    "schema_version_2": ("sweep", {**ONE_POINT, "schema_version": 2},
                         "unsupported schema_version 2 (expected 1)"),
    "schema_version_true": ("sweep", {**ONE_POINT, "schema_version": True},
                            "unsupported schema_version True (expected 1)"),
    "config_not_an_object": ("sweep", [ONE_POINT], "configuration must be a JSON object"),
    "protocols_empty": ("compare", {"protocols": [], "sweep": ONE_POINT["sweep"]},
                        "compare needs a non-empty 'protocols' list"),
    "config_path_unreadable": ("sweep", None, "cannot read config "),  # a directory
    "config_not_json": ("sweep", '{"protocol": "gm",', "is not valid JSON: "),
}


def _config_file(tmp_path, payload):
    """A config file holding ``payload`` as JSON, or as text when it is a str;
    None gives a directory, which cannot be read as one."""
    if payload is None:
        return str(tmp_path)
    if isinstance(payload, str):
        (tmp_path / "bad.json").write_text(payload, encoding="utf-8")
        return str(tmp_path / "bad.json")
    return _write_config(tmp_path, "bad.json", payload)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_is_a_one_line_config_error(tmp_path, capsys, case):
    command, payload, message = MALFORMED[case]
    path = _config_file(tmp_path, payload)
    for argv in (["validate-config", "--config", path], [command, "--config", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err


def test_bad_conditions_preset_is_the_bad_atmosphere():
    conditions = config_mod.resolve({**ONE_POINT, "conditions": "bad"}).setup.conditions
    assert conditions == config_mod.BAD_CONDITIONS
    assert (conditions.visibility_km, conditions.cn2) == (20.0, 1e-13)


COMMANDS = ("validate-config", "sweep", "compare", "pass")


def test_pass_reads_one_protocol_never_a_list(tmp_path, capsys):
    # a pass takes one 'protocol', so a 'protocols' list cannot hand it two
    path = _write_config(tmp_path, "pass.json",
                         {"protocols": ["gm", "psk4"], "pass": SYNTH_PASS["pass"]})
    for command in COMMANDS:
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr().err == \
            "config error: a pass takes one 'protocol', not a 'protocols' list\n"


@pytest.mark.parametrize("payload, message", [
    ({**ONE_POINT, "protocols": ["psk4", "qam16"]},
     "configuration needs exactly one of 'protocol' or 'protocols'"),
    ({"sweep": ONE_POINT["sweep"]}, "configuration needs exactly one of 'protocol' or 'protocols'"),
    ({**SYNTH_PASS, "sweep": ONE_POINT["sweep"]},
     "configuration needs exactly one of 'sweep' or 'pass'"),
    ({"protocol": "gm"}, "configuration needs exactly one of 'sweep' or 'pass'"),
    ({"protocols": ["gm", "psk4"], "pass": SYNTH_PASS["pass"]},
     "a pass takes one 'protocol', not a 'protocols' list"),
], ids=["protocol_and_protocols", "no_protocol", "sweep_and_pass", "no_sweep_or_pass",
        "protocols_and_pass"])
def test_a_config_names_one_run(tmp_path, capsys, payload, message):
    # the keys alone decide the run, so every command refuses the config alike
    path = _write_config(tmp_path, "run.json", payload)
    for command in COMMANDS:
        assert main([command, "--config", path]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_command_runs_its_kind_of_plan(tmp_path, capsys):
    # sweep and compare run any grid plan alike; pass runs only a pass plan
    grids = {"sweep": ONE_POINT, "compare": {"protocols": ["gm", "psk4"],
                                             "sweep": ONE_POINT["sweep"]}}
    for name, payload in grids.items():
        path = _write_config(tmp_path, f"{name}.json", payload)
        outputs = []
        for command in ("sweep", "compare"):
            out = tmp_path / f"{name}-{command}.csv"
            assert main([command, "--config", path, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert main(["pass", "--config", path]) == 1
        assert capsys.readouterr().err == "config error: pass needs a 'pass' section\n"
    path = _write_config(tmp_path, "pass.json", SYNTH_PASS)
    for command in ("sweep", "compare"):
        out = tmp_path / "pass.csv"
        assert main([command, "--config", path, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {command} needs a 'sweep' section\n"
        assert not out.exists()


def _profile_pass(tmp_path, profile_csv):
    return _write_config(tmp_path, "pass.json", {
        "protocol": "gm", "pass": {"profile_csv": str(profile_csv), "altitude_km": 417.5},
    })


def test_profile_read_failure_is_one_line(tmp_path, capsys, monkeypatch):
    profile = tmp_path / "profile.csv"
    profile.write_text("0,40\n60,41\n", encoding="utf-8")

    def failing_read(*args):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr("satcvqkd.config.load_profile", failing_read)
    config, out = _profile_pass(tmp_path, profile), tmp_path / "pass.csv"
    for argv in (["validate-config", "--config", config],
                 ["pass", "--config", config, "--output", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "config error: cannot read pass.profile_csv: [Errno 5] Input/output error\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("0,40\nnan,41\n60,42\n", "line 2: time nan not finite"),
    ("time_s,elevation_deg\n0,40\n60,41\ninf,42\n", "line 4: time inf not finite"),
])
def test_non_finite_profile_time_is_one_line_error(tmp_path, capsys, text, message):
    # A NaN time must not reach the key integration, where it gave total_key_bits=nan;
    # resolve reads the profile, so validate-config finds it too.
    profile = tmp_path / "profile.csv"
    profile.write_text(text, encoding="utf-8")
    config, out = _profile_pass(tmp_path, profile), tmp_path / "pass.csv"
    for argv in (["validate-config", "--config", config],
                 ["pass", "--config", config, "--output", str(out)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# --- output errors: one line, never a traceback ------------------------------------


@pytest.mark.parametrize("output, message", [
    ("missing-dir/out.csv", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unopenable_output_is_a_one_line_config_error(tmp_path, capsys, output, message):
    config = _write_config(tmp_path, "sweep.json", ONE_POINT)
    assert main(["sweep", "--config", config, "--output", str(tmp_path / output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot open --output: ") and err.count("\n") == 1
    assert message in err


def test_closed_stdout_pipe_ends_without_traceback(tmp_path):
    # 6,000 rows, far more than a pipe buffers, so the writer meets the closed pipe
    config = _write_config(tmp_path, "sweep.json", {
        "protocol": "gm",
        "sweep": {"altitude_km": {"start": 200, "stop": 1199, "step": 1},
                  "elevation_deg": [30, 40, 50, 60, 70, 90]},
    })
    src = str(Path(satcvqkd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "satcvqkd.cli", "sweep", "--config", config],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
    ) as child:
        assert child.stdout.readline().startswith(b"# satcvqkd config ")
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception" not in err, err


# --- work caps: checked at resolve time, before anything is allocated ------------
# Only validate-config runs these: a run without the caps would try to build
# a million-row grid or about 1e9 pass samples.

OVER_CAP = {
    "altitude_range_1000001": (_replaced(
        ONE_POINT, ("sweep", "altitude_km"), {"start": 200, "stop": 1200, "step": 0.001}),
        "sweep.altitude_km count would be 1000001, over the cap of 1000000"),
    "altitude_step_subnormal": (_replaced(
        ONE_POINT, ("sweep", "altitude_km"), {"start": 200, "stop": 1200, "step": 1e-320}),
        "sweep.altitude_km count would be inf, over the cap of 1000000"),
    "pass_sample_dt_1e-9": (_replaced(
        SYNTH_PASS, ("pass", "synthesize", "sample_dt_s"), 1e-9),
        "pass samples would be "),
}


@pytest.mark.parametrize("case", sorted(OVER_CAP))
def test_work_over_a_cap_is_a_config_error(tmp_path, capsys, case):
    payload, message = OVER_CAP[case]
    path = _write_config(tmp_path, "big.json", payload)
    assert main(["validate-config", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err and err.rstrip().endswith("over the cap of 1000000")


@pytest.mark.parametrize("protocol, message", [
    ({"kind": "qam", "states": 16384}, "QAM states would be 16384, over the cap of 4096"),
    ({"kind": "qam", "states": 4225}, "QAM states would be 4225, over the cap of 4096"),
    ({"kind": "qam", "states": 4096}, None),
])
def test_qam_states_cap(tmp_path, capsys, protocol, message):
    path = _write_config(tmp_path, "qam.json", {**ONE_POINT, "protocol": protocol})
    assert main(["validate-config", "--config", path]) == (0 if message is None else 1)
    if message is not None:
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_gm_modulation_variance_cap(tmp_path, capsys):
    for v_a, code in ((1e6, 0), (math.nextafter(1e6, math.inf), 1)):
        protocol = {"kind": "gm", "modulation_variance_snu": v_a}
        path = _write_config(tmp_path, "gm.json", {**ONE_POINT, "protocol": protocol})
        assert main(["sweep", "--config", path, "--output", str(tmp_path / "gm.csv")]) == code
    assert capsys.readouterr().err == (
        "config error: gm modulation_variance_snu 1000000.0000000001 is over the cap of "
        "1e+06, past which S_BE loses its digits\n")


# Each protocol rule resolve applies, as a config entry and as ProtocolSpec arguments.
# The rules that need a modulation state built are applied by key_constants, which
# resolve calls last; ProtocolSpec applies the others.
BUILDER_RULES = ("psk_over_the_series_cap", "psk_weight_underflow",
                 "qam_over_the_start_cutoff_cap", "qam_weight_underflow")
REFUSED_PROTOCOLS = {
    "gm_over_the_variance_cap": ({"kind": "gm", "modulation_variance_snu": 1e300},
                                 ("gm", Detection.HOMODYNE, 1e300)),
    "psk_over_the_series_cap": ({"kind": "psk", "states": 8, "modulation_variance_snu": 1e8},
                                ("psk", Detection.HOMODYNE, 1e8, 8)),
    "psk_weight_underflow": ({"kind": "psk", "states": 8, "modulation_variance_snu": 1e-50},
                             ("psk", Detection.HOMODYNE, 1e-50, 8)),
    "qam_over_the_states_cap": ({"kind": "qam", "states": 16384},
                                ("qam", Detection.HETERODYNE, 2.0, 16384, Binomial())),
    "qam_over_the_start_cutoff_cap": (
        {"kind": "qam", "states": 256, "modulation_variance_snu": 200},
        ("qam", Detection.HETERODYNE, 200.0, 256, Binomial())),
    "qam_weight_underflow": (
        {"kind": "qam", "states": 16, "distribution": {"kind": "discrete_gaussian", "nu": 1e300}},
        ("qam", Detection.HETERODYNE, 2.0, 16, DiscreteGaussian(1e300))),
}


@pytest.mark.parametrize("case", sorted(REFUSED_PROTOCOLS))
def test_protocol_spec_refuses_what_resolve_refuses(case):
    entry, args = REFUSED_PROTOCOLS[case]
    with pytest.raises(ValueError) as library:
        if case in BUILDER_RULES:
            spec = ProtocolSpec(*args)  # builds nothing, so it cannot apply the rule
            key_constants([spec], DAYLIGHT_NOISE)
        else:
            ProtocolSpec(*args)
    with pytest.raises(ConfigError) as resolved:
        config_mod.resolve({**ONE_POINT, "protocol": entry})
    assert str(resolved.value) == str(library.value)


# --- resolve builds the key constants: the QAM gate's failures are config errors ----


def _refused_by_resolve(tmp_path, capsys, payload):
    """validate-config and compare of ``payload`` both print the one line they
    print, and compare writes nothing; returns that line."""
    path = _write_config(tmp_path, "config.json", payload)
    out = tmp_path / "out.csv"
    errs = []
    for argv in (["validate-config", "--config", path],
                 ["compare", "--config", path, "--output", str(out)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert not out.exists()
    assert errs[0] == errs[1] and errs[0].startswith("config error: ")
    assert errs[0].count("\n") == 1
    return errs[0]


# 4-QAM at V_A = 80: the gate starts at cutoff 331 and settles only at 2648
GATE_QAM = {"protocols": ["gm", {"kind": "qam", "states": 4, "modulation_variance_snu": 80}],
            "sweep": {"altitude_km": [500], "elevation_deg": [90]}}


def test_a_qam_gate_that_does_not_settle_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qam, "_MAX_CUTOFF", 331)
    err = _refused_by_resolve(tmp_path, capsys, GATE_QAM)
    assert err == "config error: Z* did not stabilize below cutoff 331\n"


def test_a_float_overflow_in_the_qam_gate_is_a_config_error(tmp_path, capsys, monkeypatch):
    real = qam._moments

    def overflowing(workspace):  # w overflows to inf
        term1, w = real(workspace)
        return term1, np.float64(1e308) * (w + 10.0)

    monkeypatch.setattr(qam, "_moments", overflowing)
    err = _refused_by_resolve(tmp_path, capsys, GATE_QAM)
    assert err.startswith("config error: overflow encountered in ")


def test_a_compare_over_the_row_cap_builds_no_fock_space(tmp_path, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a Fock space was built")

    monkeypatch.setattr(qam, "modulation_density_matrix", no_build)
    monkeypatch.setattr(config_mod, "_MAX_ROWS", 1)
    payload = {"protocols": [{"kind": "qam", "states": 4096}],
               "sweep": {"altitude_km": [500], "elevation_deg": [60, 90]}}
    err = _refused_by_resolve(tmp_path, capsys, payload)
    assert err == "config error: compare rows would be 2, over the cap of 1\n"


def test_row_cap_counts_altitudes_elevations_and_protocols(monkeypatch):
    monkeypatch.setattr(config_mod, "_MAX_ROWS", 12)
    grid = {"altitude_km": {"start": 500, "stop": 700, "step": 100}, "elevation_deg": [60, 90]}
    config_mod.resolve({"protocols": ["gm", "psk8"], "sweep": grid})  # 3 x 2 x 2 = 12
    with pytest.raises(ConfigError, match="compare rows would be 18, over the cap of 12"):
        config_mod.resolve({"protocols": ["gm", "psk8", "qam16"], "sweep": grid})
    config_mod.resolve({"protocol": "gm", "sweep": {"altitude_km": {
        "start": 500, "stop": 1600, "step": 100}}})  # 12 altitudes
    with pytest.raises(ConfigError, match="altitude_km count would be 13, over the cap of 12"):
        config_mod.resolve({"protocol": "gm", "sweep": {"altitude_km": {
            "start": 500, "stop": 1700, "step": 100}}})


def test_pass_sample_cap_counts_the_synthesized_samples(monkeypatch):
    site = config_mod.resolve(SYNTH_PASS).setup.site
    arc = circular_pass_arc(site, 417.5e3, 87.6)
    count = 2 * math.floor(arc[-1] / 2.0) + 1
    assert len(synthesize_circular_pass(site, 417.5e3, 87.6, 2.0).times_s) == count
    monkeypatch.setattr(pass_analysis, "_MAX_PASS_SAMPLES", count)
    config_mod.resolve(SYNTH_PASS)
    monkeypatch.setattr(pass_analysis, "_MAX_PASS_SAMPLES", count - 1)
    with pytest.raises(ConfigError, match=f"pass samples would be {count}, over the cap"):
        config_mod.resolve(SYNTH_PASS)


def test_psk_series_cap_counts_the_sector_series_terms(monkeypatch):
    at = {"kind": "psk", "states": 8, "modulation_variance_snu": 2e4}  # alpha^2 = 1e4
    assert series_terms(100.0) == 10900
    monkeypatch.setattr(psk, "_MAX_SERIES_TERMS", 10900)
    config_mod.resolve({**ONE_POINT, "protocol": at})
    monkeypatch.setattr(psk, "_MAX_SERIES_TERMS", 10899)
    with pytest.raises(ConfigError, match="^8-PSK at alpha = 100 needs about 10900 "
                       "sector-series terms, over the cap of 10899$"):
        config_mod.resolve({**ONE_POINT, "protocol": at})


# --- a config that resolves never ends in a traceback -----------------------------
# Each config passes or fails validate-config as its run does: a bad value is a
# config error (exit 1) at resolve time, and a float that fails at run time is
# a numerical failure (exit 2).  Either way stderr holds one line.

AT_10_DEG = _replaced(ONE_POINT, ("sweep", "elevation_deg"), [10])
RUN_FAILURES = {
    "transmitter_efficiency_0": (
        {**ONE_POINT, "terminals": {"transmitter_efficiency": 0}}, 1,
        "config error: transmitter_efficiency must be in (0, 1], got 0.0"),
    "pointing_loss_1": (
        {**ONE_POINT, "terminals": {"pointing_loss": 1}}, 1,
        "config error: pointing_loss must be in [0, 1), got 1.0"),
    "fog_at_10_deg": (
        {**AT_10_DEG, "conditions": {"visibility_km": 0.5}}, 2,  # a 3,000+ dB path: T = 0
        "numerical failure: transmittance must be in (0, 1], got 0.0"),
    "cn2_1e300": (
        {**ONE_POINT, "conditions": {"cn2": 1e300}}, 2,
        "numerical failure: Rytov variance must be finite, got inf"),
    "cn2_1e250": (  # the Rytov variance is finite; its 6/5 power is not
        {**ONE_POINT, "conditions": {"cn2": 1e250}}, 2,
        "numerical failure: Rytov variance too large for the scintillation index, "
        "got 4.823018642446752e+265"),
    "gm_modulation_variance_1e300": (
        {**ONE_POINT, "protocol": {"kind": "gm", "modulation_variance_snu": 1e300}}, 1,
        "config error: gm modulation_variance_snu 1e+300 is over the cap of 1e+06, "
        "past which S_BE loses its digits"),
    "gm_modulation_variance_3e15": (  # S_BE would lose bits to cancellation: a false key
        {**ONE_POINT, "protocol": {"kind": "gm", "modulation_variance_snu": 3e15}}, 1,
        "config error: gm modulation_variance_snu 3000000000000000.0 is over the cap of "
        "1e+06, past which S_BE loses its digits"),
    "transmitter_efficiency_1e-300_md": (  # T = 7.3e-302: the SNR in dB is -inf
        {**ONE_POINT, "terminals": {"transmitter_efficiency": 1e-300}, "reconciliation": "md"},
        2, "numerical failure: divide by zero encountered in log10"),
    "transmitter_efficiency_1e-300_asymptotic": (  # and S_BE would read 0 from a NaN
        {**ONE_POINT, "terminals": {"transmitter_efficiency": 1e-300},
         "reconciliation": {"kind": "asymptotic", "beta": 0.9}},
        2, "numerical failure: divide by zero encountered in log10"),
    "md_smoothing_1e-320": (  # resolve's privacy penalty divides by eps^2 eps_s = 0
        {**ONE_POINT, "reconciliation": "md", "finite_size": {"smoothing": 1e-320}}, 1,
        "config error: float division by zero"),
    "psk8_modulation_variance_1e8": (
        {**ONE_POINT, "protocol": {"kind": "psk", "states": 8, "modulation_variance_snu": 1e8}},
        1, "config error: 8-PSK at alpha = 7071.07 needs about 50063640 sector-series terms, "
        "over the cap of 1000000"),
    "psk2_modulation_variance_1e300": (
        {**ONE_POINT, "protocol": {"kind": "psk", "states": 2, "modulation_variance_snu": 1e300}},
        1, "config error: 2-PSK at alpha = 7.07107e+149 needs about 5e+299 sector-series "
        "terms, over the cap of 1000000"),
    "psk8_modulation_variance_1e-50": (
        {**ONE_POINT, "protocol": {"kind": "psk", "states": 8, "modulation_variance_snu": 1e-50}},
        1, "config error: correlation coefficient undefined: a spectral weight underflowed "
        "to zero at alpha=7.071067811865476e-26"),
    "psk4_modulation_variance_1e-250": (
        {**ONE_POINT, "protocol": {"kind": "psk", "states": 4, "modulation_variance_snu": 1e-250}},
        1, "config error: correlation coefficient undefined: a spectral weight underflowed "
        "to zero at alpha=7.071067811865476e-126"),
    "qam16_nu_1e300": (  # every point weight exp(-nu |alpha|^2) underflows
        {**ONE_POINT, "protocol": {"kind": "qam", "states": 16, "distribution":
                                   {"kind": "discrete_gaussian", "nu": 1e300}}},
        1, "config error: every point weight of 16-QAM at DiscreteGaussian(nu=1e+300) "
        "underflowed to zero"),
    "qam9_nu_1e300": (  # only the centre alpha = 0 keeps a weight
        {**ONE_POINT, "protocol": {"kind": "qam", "states": 9, "distribution":
                                   {"kind": "discrete_gaussian", "nu": 1e300}}},
        1, "config error: constellation must carry a positive mean photon number"),
    "altitude_1e300_km": (  # resolve's slant path squares a radius past the float range
        _replaced(ONE_POINT, ("sweep", "altitude_km"), [1e300]), 1,
        "config error: float overflow: Numerical result out of range"),
    "md_discretisation_1e300": (  # resolve's privacy penalty: (d + 1)^2
        {**ONE_POINT, "reconciliation": "md", "finite_size": {"discretisation": 1e300}}, 1,
        "config error: float overflow: Numerical result out of range"),
    "wavelength_1e-300_nm": (  # resolve's scattering coefficient: (wavelength / 550 nm)^-p
        {**ONE_POINT, "terminals": {"wavelength_nm": 1e-300}}, 1,
        "config error: float overflow: Numerical result out of range"),
    "pass_peak_1e-300": (  # the peak rounds to the horizon: no sample is above it
        _replaced(SYNTH_PASS, ("pass", "synthesize", "max_elevation_deg"), 1e-300), 1,
        "config error: a pass peaking at 1e-300 deg has no sample above the horizon"),
    "pass_bin_width_1e-300": (  # a bin index past int64
        _replaced(SYNTH_PASS, ("pass", "bin_width_deg"), 1e-300), 1,
        "config error: pass.bin_width_deg 1e-300 cuts 90 degrees into 2**63 or more bins"),
}


@pytest.mark.parametrize("case", sorted(RUN_FAILURES))
def test_a_config_that_fails_ends_in_one_line(tmp_path, capsys, case):
    payload, code, message = RUN_FAILURES[case]
    path = _write_config(tmp_path, "config.json", payload)
    out = tmp_path / "out.csv"
    command = "pass" if "pass" in payload else "sweep"
    for argv, expected in ((["validate-config", "--config", path], 0 if code == 2 else code),
                           ([command, "--config", path, "--output", str(out)], code)):
        start = time.perf_counter()
        assert main(argv) == expected
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err == ("" if expected == 0 else message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("payload, run", [
    ({"protocols": ["gm", "psk8"], "sweep": ONE_POINT["sweep"]}, "compare"),
    (SYNTH_PASS, "pass"),
    (ONE_POINT, "sweep"),
])
def test_validate_config_infers_run_type(tmp_path, capsys, payload, run):
    path = _write_config(tmp_path, "run.json", payload)
    assert main(["validate-config", "--config", path]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert ("pass" in echoed) == (run == "pass")
    assert len(echoed["protocols"]) == (2 if run == "compare" else 1)


# Every numeric leaf of a one-point config that sets all sections; the fuzz
# below swaps some of them for values no reader may accept.
FUZZ_BASE = {
    "schema_version": 1,
    "protocols": [
        {"kind": "gm", "modulation_variance_snu": 5.0},
        {"kind": "psk", "states": 4, "modulation_variance_snu": 0.5},
        {"kind": "qam", "states": 16, "modulation_variance_snu": 2.0,
         "distribution": {"kind": "discrete_gaussian", "nu": 0.5}},
    ],
    "conditions": {"visibility_km": 200.0, "cn2": 1e-16, "outage_probability": 1e-6},
    "terminals": {"wavelength_nm": 1550, "transmitter_aperture_m": 0.3,
                  "receiver_aperture_m": 1.0, "transmitter_efficiency": 0.9,
                  "receiver_efficiency": 0.9, "pointing_loss": 0.1},
    "noise": {"channel_excess_snu": 0.0186, "detector_excess_snu": 0.0135,
              "detector_efficiency": 1.0},
    "geometry": {"ogs_altitude_km": 0.0, "atmosphere_thickness_km": 20.0,
                 "earth_radius_km": 6371.0},
    "reconciliation": {"kind": "asymptotic", "beta": 0.9},
    "finite_size": {"repetition_rate_hz": 50e6, "discretisation": 5, "smoothing": 2e-10,
                    "security": 1e-9, "total_symbols": 1e11},
    "sweep": {"altitude_km": [500.0], "elevation_deg": [90.0]},
}


def _numeric_leaves(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _numeric_leaves(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


FUZZ_LEAVES = sorted(_numeric_leaves(FUZZ_BASE), key=str)
NOT_A_NUMBER = st.one_of(
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


def test_fuzz_base_config_is_valid(tmp_path, capsys):
    path = _write_config(tmp_path, "base.json", FUZZ_BASE)
    assert main(["validate-config", "--config", path]) == 0
    assert len(json.loads(capsys.readouterr().out)["protocols"]) == 3


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_LEAVES), NOT_A_NUMBER),
                min_size=1, max_size=3))
def test_fuzzed_leaves_are_one_line_config_errors(tmp_path_factory, replacements):
    config = FUZZ_BASE
    for path, value in replacements:
        config = _replaced(config, path, value)
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["compare", "--config", str(path)])
    assert code == 1
    assert err.getvalue().startswith("config error: ")
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


# --- numeric extremes: a config that resolves also runs -----------------------------
# Every numeric leaf of FUZZ_BASE and of a GM + MD variant is set to each extreme.
# validate-config and compare then both exit 0, or both exit 1 with the same
# line, except for the configs below: they resolve, and their run ends in a
# numerical failure (exit 2).  README lists the same cases.  The list may only
# shrink, as resolve learns to refuse them (ROADMAP item 9).

FUZZ_GM_MD = {**FUZZ_BASE, "protocols": FUZZ_BASE["protocols"][:1], "reconciliation": "md"}
EXTREMES = (0, -1, 5e-324, 1e-300, 1e-30, 1e30, 1e300, 2**63)
_BOTH = ("base", "gm_md")
RUN_TIME_FAILURES = {  # (variants, leaf, value): the run's numerical failure
    (_BOTH, "conditions.cn2", 1e300): "Rytov variance must be finite, got inf",
    (_BOTH, "conditions.visibility_km", 1e-30): "transmittance must be in (0, 1], got 0.0",
    (_BOTH, "conditions.visibility_km", 1e-300): "transmittance must be in (0, 1], got 0.0",
    (_BOTH, "conditions.visibility_km", 5e-324): "attenuation must be finite, got inf",
    (("gm_md",), "finite_size.total_symbols", 1e-300): "overflow encountered in multiply",
    (("base",), "noise.channel_excess_snu", 1e300): "overflow encountered in square",
    (_BOTH, "noise.detector_efficiency", 5e-324): "divide by zero encountered in log10",
    (("base",), "noise.detector_excess_snu", 1e300): "overflow encountered in square",
    (_BOTH, "protocols.0.modulation_variance_snu", 5e-324):
        "signal amplitude must be non-zero",
    (_BOTH, "terminals.receiver_aperture_m", 1e300):
        "float overflow: Numerical result out of range",
    (_BOTH, "terminals.receiver_aperture_m", 1e-300): "overflow encountered in square",
    (_BOTH, "terminals.receiver_aperture_m", 5e-324): "divide by zero encountered in divide",
    (_BOTH, "terminals.receiver_efficiency", 1e-300): "divide by zero encountered in log10",
    (_BOTH, "terminals.receiver_efficiency", 5e-324): "overflow encountered in divide",
    (_BOTH, "terminals.transmitter_aperture_m", 1e-300): "overflow encountered in square",
    (_BOTH, "terminals.transmitter_aperture_m", 5e-324): "overflow encountered in divide",
    (_BOTH, "terminals.transmitter_efficiency", 1e-300): "divide by zero encountered in log10",
    (_BOTH, "terminals.transmitter_efficiency", 5e-324): "overflow encountered in divide",
    (_BOTH, "terminals.wavelength_nm", 1e300): "overflow encountered in square",
}


def _quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def test_numeric_extremes_fail_at_resolve_or_not_at_all(tmp_path):
    path, out = tmp_path / "config.json", str(tmp_path / "out.csv")
    failures = {}
    for variant, base in zip(_BOTH, (FUZZ_BASE, FUZZ_GM_MD)):
        for leaf in sorted(_numeric_leaves(base), key=str):
            for value in EXTREMES:
                case = (variant, ".".join(map(str, leaf)), value)
                path.write_text(json.dumps(_replaced(base, leaf, value)), encoding="utf-8")
                check = _quiet_main(["validate-config", "--config", str(path)])
                run = _quiet_main(["compare", "--config", str(path), "--output", out])
                if check == (0, "") and run[0] == 2:
                    failures[case] = run[1]
                else:
                    assert check == run and run[0] in (0, 1), case
    assert failures == {(variant, leaf, value): f"numerical failure: {message}\n"
                        for (variants, leaf, value), message in RUN_TIME_FAILURES.items()
                        for variant in variants}
