import json

import pytest
from hypothesis import given, settings, strategies as st

from satcvqkd import (
    AtmosphericConditions,
    ConfigError,
    DAYLIGHT_NOISE,
    Detection,
    FiniteSizeParams,
    OpticalTerminals,
)
import satcvqkd.pipeline as pipeline
from satcvqkd.cli import main
from satcvqkd.finite_size import MD
from satcvqkd.pipeline import LinkSetup, ProtocolSpec, ReconciliationSpec, \
    evaluate_point, link_columns
from satcvqkd.qam import Binomial

GOOD = AtmosphericConditions(visibility_km=200.0, cn2=1e-16)
BAD = AtmosphericConditions(visibility_km=20.0, cn2=1e-13)
SETUP = LinkSetup(terminals=OpticalTerminals(), conditions=GOOD, noise=DAYLIGHT_NOISE)
ASY = ReconciliationSpec(kind="asymptotic", beta_asymptotic=0.9)

GM = ProtocolSpec(kind="gm", detection=Detection.HOMODYNE, modulation_variance=5.0)
PSK8 = ProtocolSpec(
    kind="psk", detection=Detection.HOMODYNE, modulation_variance=0.5, psk_states=8
)
QAM256 = ProtocolSpec(
    kind="qam", detection=Detection.HETERODYNE, modulation_variance=2.0,
    qam_side=16, qam_distribution=Binomial(),
)


def test_channel_columns_identical_across_protocols():
    points = [
        evaluate_point(link_columns(SETUP, 500e3, 90.0), spec, ASY, FiniteSizeParams())
        for spec in (GM, PSK8, QAM256)
    ]
    t_values = {p.transmittance for p in points}
    assert len(t_values) == 1
    assert len({p.a_geo_db for p in points}) == 1


def test_reference_ordering_at_500km():
    gm, psk8, qam256 = (
        evaluate_point(link_columns(SETUP, 500e3, 90.0), spec, ASY, FiniteSizeParams())
        for spec in (GM, PSK8, QAM256)
    )
    assert (
        gm.skr_asymptotic_per_pulse
        >= qam256.skr_asymptotic_per_pulse
        >= psk8.skr_asymptotic_per_pulse
    )


def test_bad_conditions_kill_psk():
    setup = LinkSetup(terminals=OpticalTerminals(), conditions=BAD, noise=DAYLIGHT_NOISE)
    for altitude in (200e3, 400e3, 800e3):
        point = evaluate_point(link_columns(setup, altitude, 90.0), PSK8, ASY, FiniteSizeParams())
        assert point.skr_asymptotic_per_pulse <= 0.0


def test_far_field_exclusion_flagged():
    setup = LinkSetup(
        terminals=OpticalTerminals(receiver_aperture_m=2.0),
        conditions=GOOD,
        noise=DAYLIGHT_NOISE,
    )
    point = evaluate_point(link_columns(setup, 300e3, 90.0), GM, ASY, FiniteSizeParams())
    assert not point.far_field_ok
    assert point.status == "far_field_excluded"
    assert point.transmittance is None
    assert point.l_tot_m is not None  # geometry still reported


def test_finite_size_restricted_to_gaussian_modulation():
    finite = ReconciliationSpec(kind="finite", model=MD)
    with pytest.raises(ConfigError):
        evaluate_point(link_columns(SETUP, 400e3, 90.0), PSK8, finite, FiniteSizeParams())
    with pytest.raises(ConfigError):
        evaluate_point(link_columns(SETUP, 400e3, 90.0), QAM256, finite, FiniteSizeParams())


def test_finite_point_carries_fit_diagnostics():
    finite = ReconciliationSpec(kind="finite", model=MD)
    point = evaluate_point(link_columns(SETUP, 300e3, 90.0), GM, finite, FiniteSizeParams())
    assert point.snr_db is not None
    assert point.beta_valid
    assert 0.0 <= point.fer_value <= 1.0
    assert point.privacy == pytest.approx(1.1395e-3, abs=1e-6)
    assert point.skr_bits_per_second is not None and point.skr_bits_per_second > 0.0


def test_invalid_beta_reports_no_key():
    finite = ReconciliationSpec(kind="finite", model=MD)
    # at very high SNR (short link, 2 m aperture) the MD fit exits [0, 1]
    setup = LinkSetup(
        terminals=OpticalTerminals(receiver_aperture_m=2.0),
        conditions=GOOD,
        noise=DAYLIGHT_NOISE,
    )
    point = evaluate_point(link_columns(setup, 390e3, 90.0), GM, finite, FiniteSizeParams())
    if not point.beta_valid:  # depends on where the fit leaves [0, 1]
        assert point.status == "no_key_beta_invalid"
        assert point.skr_bits_per_second is None


def test_md_positive_altitudes_contain_mlc_msd_set():
    from satcvqkd.finite_size import MLC_MSD

    def positive_altitudes(model):
        recon = ReconciliationSpec(kind="finite", model=model)
        out = set()
        for altitude_km in range(200, 1001, 25):
            point = evaluate_point(
                link_columns(SETUP, altitude_km * 1000.0, 90.0), GM, recon, FiniteSizeParams()
            )
            if point.skr_bits_per_second is not None and point.skr_bits_per_second > 0:
                out.add(altitude_km)
        return out

    md_set = positive_altitudes(MD)
    mlc_set = positive_altitudes(MLC_MSD)
    assert mlc_set <= md_set
    assert md_set  # the short links do produce key


def test_asymptotic_rate_scaled_by_repetition_rate():
    point = evaluate_point(link_columns(SETUP, 500e3, 90.0), GM, ASY, FiniteSizeParams())
    assert point.skr_bits_per_second == pytest.approx(
        50e6 * point.skr_asymptotic_per_pulse, rel=1e-12
    )


# --- stage boundary: one link stage per grid ------------------------------------


def _count_link_budgets(monkeypatch):
    calls = []
    original = pipeline.link_budget

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, "link_budget", counting)
    return calls


def _run(tmp_path, command, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), "--output", str(out)]) == 0


def test_compare_runs_one_link_stage_for_every_protocol(tmp_path, monkeypatch):
    calls = _count_link_budgets(monkeypatch)
    _run(tmp_path, "compare", {
        "protocols": ["gm", "psk8", "qam16"],
        "sweep": {"altitude_km": [400, 600], "elevation_deg": [30, 90]},
    })
    assert len(calls) == 1


def test_pass_runs_one_link_stage_for_both_models(tmp_path, monkeypatch):
    calls = _count_link_budgets(monkeypatch)
    _run(tmp_path, "pass", {
        "protocol": "gm",
        "reconciliation": {"kind": "md"},
        "pass": {"synthesize": {"altitude_km": 417.5, "max_elevation_deg": 60.0,
                                "sample_dt_s": 5.0}},
    })
    assert len(calls) == 1


# --- physics properties ------------------------------------------------------------

BETA_95 = ReconciliationSpec(kind="asymptotic", beta_asymptotic=0.95)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    low_km=st.floats(200.0, 1999.0),
    rise_km=st.floats(1.0, 1800.0),
    elevation=st.floats(5.0, 90.0),
)
def test_gm_asymptotic_rate_does_not_increase_with_altitude(low_km, rise_km, elevation):
    # a rise of at least 1 km keeps the change far above float rounding
    high_km = min(low_km + rise_km, 2000.0)
    low, high = (
        evaluate_point(
            link_columns(SETUP, km * 1e3, elevation), GM, BETA_95
        ).skr_asymptotic_per_pulse
        for km in (low_km, high_km)
    )
    assert high <= low
