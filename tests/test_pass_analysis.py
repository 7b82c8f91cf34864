import io
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import satcvqkd.pass_analysis as pass_analysis
from satcvqkd import (
    AtmosphericConditions,
    Detection,
    DAYLIGHT_NOISE,
    FiniteSizeParams,
    OpticalTerminals,
    ProfileError,
    PassProfile,
    integrate_key_bits,
    load_profile,
    synthesize_circular_pass,
)
from satcvqkd.finite_size import MD, MLC_MSD
from satcvqkd.pipeline import LinkSetup, PointResult, ProtocolSpec, evaluate_point, link_columns

from oracles import reference_profile

GOOD = AtmosphericConditions(visibility_km=200.0, cn2=1e-16)

SEA_LEVEL = LinkSetup(
    terminals=OpticalTerminals(receiver_aperture_m=2.0),
    conditions=GOOD,
    noise=DAYLIGHT_NOISE,
)
ISS_SETUP = SEA_LEVEL._replace(ogs_altitude_m=1029.0)
GM = ProtocolSpec(kind="gm", detection=Detection.HOMODYNE, modulation_variance=5.0)


# --- profile parsing ----------------------------------------------------------


def _written(directory: Path, text: str) -> Path:
    """``text`` as a UTF-8 profile file in ``directory``, line endings kept."""
    path = directory / "profile.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def test_empty_stream_rejected(tmp_path):
    with pytest.raises(ProfileError):
        load_profile(_written(tmp_path, ""))


def test_two_row_profile(tmp_path):
    profile = load_profile(_written(tmp_path, "0,10\n60,20\n"))
    assert profile.times_s.tolist() == [0.0, 60.0]
    assert profile.elevations_deg.tolist() == [10.0, 20.0]


def test_header_row_skipped(tmp_path):
    profile = load_profile(_written(tmp_path, "time_s,elevation_deg\n0,10\n60,20\n"))
    assert len(profile.times_s) == 2


@pytest.mark.parametrize("text", [
    "0,10\n60,20\n120,30",
    "time_s,elevation_deg\n0,10\n60,20\n120,30\n",
    "0,10\n,\n60,20\n120,30\n",  # an empty-cell line: the line scan parses it
])
def test_byte_order_mark_is_not_part_of_line_1(tmp_path, text):
    plain = load_profile(_written(tmp_path, text))
    marked_path = tmp_path / "marked.csv"
    marked_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    marked = load_profile(marked_path)
    assert marked.times_s.tolist() == plain.times_s.tolist() == [0.0, 60.0, 120.0]
    assert marked.elevations_deg.tolist() == plain.elevations_deg.tolist()


def test_byte_order_mark_before_a_bad_first_sample_names_line_1(tmp_path):
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf0,95\n30,20\n")
    with pytest.raises(ProfileError, match="^line 1: elevation 95.0"):
        load_profile(path)


def test_out_of_range_elevation_reports_line(tmp_path):
    with pytest.raises(ProfileError) as err:
        load_profile(_written(tmp_path, "0,10\n30,95\n"))
    assert "line 2" in str(err.value)


def test_non_monotone_time_reports_line(tmp_path):
    with pytest.raises(ProfileError) as err:
        load_profile(_written(tmp_path, "0,10\n30,20\n30,25\n"))
    assert "line 3" in str(err.value)


def test_garbage_mid_file_rejected(tmp_path):
    with pytest.raises(ProfileError):
        load_profile(_written(tmp_path, "0,10\nfoo,bar\n"))


def test_non_finite_time_reports_line(tmp_path):
    for text, line in (("0,40\nnan,41\n60,42\n", 2),
                       ("time_s,elevation_deg\n0,40\n\n60,41\ninf,42\n", 5),
                       ("-inf,40\n60,41\n", 1)):
        with pytest.raises(ProfileError, match=f"^line {line}: time .* not finite$"):
            load_profile(_written(tmp_path, text))


def test_header_only_stream_rejected(tmp_path):
    with pytest.raises(ProfileError, match="no samples"):
        load_profile(_written(tmp_path, "time_s,elevation_deg\n\n"))


def test_profile_arrays_are_read_only(tmp_path):
    profile = load_profile(_written(tmp_path, "0,10\n60,20\n"))
    assert profile.times_s.dtype == profile.elevations_deg.dtype == np.float64
    with pytest.raises(ValueError):
        profile.times_s[0] = 1.0


def test_well_formed_stream_skips_the_line_scan(monkeypatch, tmp_path):
    # A header, CRLF endings, quoted cells and extra columns are all numpy's
    # to parse; the line scan runs only after a failure.
    def no_scan(*args):
        raise AssertionError("line scan ran")

    monkeypatch.setattr(pass_analysis, "_scan_profile", no_scan)
    text = 'time_s,elevation_deg\r\n0,"10",x\r\n\r\n60, 20 ,1\r\n'
    profile = load_profile(_written(tmp_path, text))
    assert profile.times_s.tolist() == [0.0, 60.0]
    assert profile.elevations_deg.tolist() == [10.0, 20.0]


def test_file_matches_reference(tmp_path):
    text = "time_s,elevation_deg\r\n0,10\r\n1_0,20\r\n\r\n60,30\r\n"
    times, elevations = reference_profile(io.StringIO(text))
    profile = load_profile(_written(tmp_path, text))
    assert profile.times_s.tolist() == times == [0.0, 10.0, 60.0]
    assert profile.elevations_deg.tolist() == elevations


def test_non_utf8_file_is_a_profile_error(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_bytes(b"0,10\n60,\xff\n")
    with pytest.raises(ProfileError, match="not UTF-8"):
        load_profile(path)


# Cells and rows the numpy parse and the line scan may disagree on: each must
# come out as the reference reads it.
_NUMBER_FORMATS = ("{!r}", " {!r}", "{!r} ", '"{!r}"', '"{!r}" ', "{:.6f}", "{:e}", "+{!r}")
_EXTRA_COLUMNS = ("", ",", ",x", ",1,2", ',"a,b"')
_BLANK_LINES = ("", " ", "\t", ",", "\t,\t", " , ")
_HEADERS = ("time_s,elevation_deg", "t,e,extra", '"time","elevation"', "time", "# t,e")
_ODD_ROWS = (
    "nan,40", "inf,40", "-inf,40", "1e400,40", "1_0,40", "0,1_0", "\u0661,40", "5", "x",
    "0,95", "0,0", "0,-3", "0,nan", "-1e9,45", "1e9,45", "foo,bar", "1,,", '"1,5",45',
    " +.5,45", "nan(1),45", "1 2,45",
)


@st.composite
def _profile_streams(draw):
    n = draw(st.integers(0, 6))
    start = draw(st.floats(-1e4, 1e4))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    times = list(itertools.accumulate(steps, initial=start))[1:]
    elevations = draw(st.lists(st.floats(0.0, 90.0, exclude_min=True), min_size=n, max_size=n))
    lines = [
        draw(st.sampled_from(_NUMBER_FORMATS)).format(t)
        + "," + draw(st.sampled_from(_NUMBER_FORMATS)).format(e)
        + draw(st.sampled_from(_EXTRA_COLUMNS))
        for t, e in zip(times, elevations)
    ]
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from(_ODD_ROWS + _BLANK_LINES))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    if draw(st.booleans()) and len(lines) > 1:  # swap two samples: out of order
        i = draw(st.integers(0, len(lines) - 2))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    header = draw(st.sampled_from((None, None) + _HEADERS))
    if header is not None:
        lines.insert(draw(st.sampled_from((0, 0, 1))) if lines else 0, header)
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + draw(st.sampled_from((end, "")))


def _outcome(parse, source):
    try:
        times, elevations = parse(source)
    except ProfileError as exc:
        return str(exc)
    return np.asarray(times, dtype=float).tobytes(), np.asarray(elevations, dtype=float).tobytes()


def _load(path):
    profile = load_profile(path)
    return profile.times_s, profile.elevations_deg


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_profile_streams())
def test_load_profile_matches_reference_parser(tmp_path_factory, text):
    path = _written(tmp_path_factory.getbasetemp(), text)
    assert _outcome(_load, path) == _outcome(reference_profile, io.StringIO(text))


# --- synthesized passes ----------------------------------------------------------


def test_overhead_pass_peaks_at_zenith():
    profile = synthesize_circular_pass(SEA_LEVEL, 500e3, 90.0, 1.0)
    assert max(profile.elevations_deg) == pytest.approx(90.0, abs=1e-9)
    n = len(profile.times_s)
    for i in range(n // 2):
        assert profile.elevations_deg[i] == pytest.approx(
            profile.elevations_deg[n - 1 - i], abs=1e-9
        )


def test_peak_matches_requested_elevation():
    profile = synthesize_circular_pass(SEA_LEVEL, 417.5e3, 60.0, 1.0)
    assert max(profile.elevations_deg) == pytest.approx(60.0, abs=1e-9)


def test_reference_pass_duration():
    times = synthesize_circular_pass(ISS_SETUP, 417.5e3, 87.6, 1.0).times_s
    assert times[-1] - times[0] == pytest.approx(663.0, rel=0.25)


# --- key integration ---------------------------------------------------------------


def test_single_bin_total_is_rate_times_dwell(monkeypatch):
    profile = PassProfile(times_s=(0.0, 4.0, 10.0), elevations_deg=(45.2, 45.4, 45.7))

    def fake_evaluate(link, spec, recon, params):
        return PointResult(
            protocol="GM", detection="homodyne", modulation_variance_snu=5.0,
            altitude_km=link.columns["altitude_km"], elevation_deg=link.columns["elevation_deg"],
            skr_bits_per_second=1e6,
        )

    monkeypatch.setattr(pass_analysis, "evaluate_point", fake_evaluate)
    result = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )
    assert result.models["MD"].total_key_bits == pytest.approx(1e7, rel=1e-12)


def test_negative_rates_clamped_in_accumulation_only(monkeypatch):
    profile = PassProfile(times_s=(0.0, 10.0), elevations_deg=(40.0, 40.5))

    def fake_evaluate(link, spec, recon, params):
        return PointResult(
            protocol="GM", detection="homodyne", modulation_variance_snu=5.0,
            altitude_km=link.columns["altitude_km"], elevation_deg=link.columns["elevation_deg"],
            skr_bits_per_second=-5.0,
        )

    monkeypatch.setattr(pass_analysis, "evaluate_point", fake_evaluate)
    result = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )
    assert result.models["MD"].total_key_bits == 0.0
    assert result.skr_series("MD")[0][1] == -5.0


def test_zero_rate_pass_accumulates_nothing():
    # bad-weather equivalent: zero elevation dwell windows below any key
    setup = LinkSetup(
        terminals=OpticalTerminals(),  # 1 m aperture, long link: no key
        conditions=AtmosphericConditions(visibility_km=20.0, cn2=1e-13),
        noise=DAYLIGHT_NOISE,
    )
    profile = synthesize_circular_pass(setup, 1000e3, 10.0, 5.0)
    result = integrate_key_bits(
        profile, setup, GM, [MD], FiniteSizeParams(), satellite_altitude_m=1000e3,
    )
    assert result.models["MD"].total_key_bits == 0.0


def test_iss_pass_reference_totals():
    profile = synthesize_circular_pass(ISS_SETUP, 417.5e3, 87.6, 1.0)
    result = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD, MLC_MSD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )
    md = result.models["MD"].total_key_bits
    mlc = result.models["MLC-MSD"].total_key_bits
    assert 1.235e9 / 2.0 <= md <= 1.235e9 * 2.0
    assert 385e6 / 2.0 <= mlc <= 385e6 * 2.0
    assert md >= mlc
    assert md == pytest.approx(1127131711.684, rel=1e-9)  # the 1029 m station's total


def test_a_pass_is_seen_from_the_setups_station():
    # One 10 s bin at 40.5 degrees: its rate is the setup's link at that centre.
    profile = PassProfile(times_s=(0.0, 10.0), elevations_deg=(40.2, 40.4))
    totals = []
    for setup in (SEA_LEVEL, ISS_SETUP):
        link = link_columns(setup, 417.5e3, 40.5)
        rate = evaluate_point(link, GM, MD, FiniteSizeParams()).skr_bits_per_second
        result = integrate_key_bits(profile, setup, GM, [MD], FiniteSizeParams(),
                                    satellite_altitude_m=417.5e3)
        totals.append(result.models["MD"].total_key_bits)
        assert totals[-1] == pytest.approx(10.0 * rate, rel=1e-12)
    assert totals[1] > totals[0] > 0.0


def test_md_reaches_lower_elevations_than_mlc_msd():
    profile = synthesize_circular_pass(ISS_SETUP, 417.5e3, 87.6, 1.0)
    result = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD, MLC_MSD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )

    def min_positive_elevation(name):
        series = result.skr_series(name)
        elevations = [
            e for (t, v), e in zip(series, profile.elevations_deg) if v > 0.0
        ]
        return min(elevations)

    assert min_positive_elevation("MD") <= min_positive_elevation("MLC-MSD")


def test_symmetric_pass_symmetric_series():
    profile = synthesize_circular_pass(ISS_SETUP, 417.5e3, 80.0, 2.0)
    result = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )
    series = result.skr_series("MD")
    n = len(series)
    for i in range(n // 2):
        assert series[i][1] == pytest.approx(series[n - 1 - i][1], rel=1e-12)


def test_refining_sample_step_changes_little():
    totals = []
    for dt in (2.0, 1.0):
        profile = synthesize_circular_pass(ISS_SETUP, 417.5e3, 87.6, dt)
        result = integrate_key_bits(
            profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
            satellite_altitude_m=417.5e3,
        )
        totals.append(result.models["MD"].total_key_bits)
    assert abs(totals[1] - totals[0]) / totals[1] < 0.005


def test_keyhole_ceiling_reduces_total():
    profile = synthesize_circular_pass(ISS_SETUP, 417.5e3, 87.6, 1.0)
    open_sky = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )
    restricted = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3, keyhole_ceiling_deg=85.0,
    )
    assert (
        restricted.models["MD"].total_key_bits < open_sky.models["MD"].total_key_bits
    )
    assert restricted.excluded_bins_deg


def test_zero_duration_profile_gives_empty_series():
    profile = PassProfile(times_s=(0.0,), elevations_deg=(45.0,))
    result = integrate_key_bits(
        profile, ISS_SETUP, GM, [MD], FiniteSizeParams(),
        satellite_altitude_m=417.5e3,
    )
    assert result.models["MD"].total_key_bits == 0.0
    assert result.skr_series("MD") == ()
