import json
import tracemalloc
from pathlib import Path

import numpy as np
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
import satcvqkd.config as config_mod
import satcvqkd.pipeline as pipeline
from satcvqkd.cli import main
from satcvqkd.finite_size import MD
from satcvqkd.errors import evaluating
from satcvqkd.pipeline import LinkSetup, PointResult, ProtocolSpec, evaluate_point, \
    key_constants, link_columns
from satcvqkd.qam import Binomial

GOOD = AtmosphericConditions(visibility_km=200.0, cn2=1e-16)
BAD = AtmosphericConditions(visibility_km=20.0, cn2=1e-13)
SETUP = LinkSetup(terminals=OpticalTerminals(), conditions=GOOD, noise=DAYLIGHT_NOISE)
ASY = 0.9

GM = ProtocolSpec(kind="gm", detection=Detection.HOMODYNE, modulation_variance=5.0)
PSK8 = ProtocolSpec(
    kind="psk", detection=Detection.HOMODYNE, modulation_variance=0.5, states=8
)
QAM256 = ProtocolSpec(
    kind="qam", detection=Detection.HETERODYNE, modulation_variance=2.0,
    states=256, distribution=Binomial(),
)


def _evaluate(link, spec, reconciliation, finite_params):
    """``evaluate_point`` with the key constants of ``spec`` under daylight noise."""
    point, = evaluate_point(link, [spec], key_constants([spec], DAYLIGHT_NOISE), reconciliation,
                            finite_params)
    return point


def test_channel_columns_identical_across_protocols():
    points = [
        _evaluate(link_columns(SETUP, 500e3, 90.0), spec, ASY, FiniteSizeParams())
        for spec in (GM, PSK8, QAM256)
    ]
    t_values = {p.transmittance for p in points}
    assert len(t_values) == 1
    assert len({p.a_geo_db for p in points}) == 1


def test_reference_ordering_at_500km():
    gm, psk8, qam256 = (
        _evaluate(link_columns(SETUP, 500e3, 90.0), spec, ASY, FiniteSizeParams())
        for spec in (GM, PSK8, QAM256)
    )
    assert (
        gm.skr_bits_per_pulse
        >= qam256.skr_bits_per_pulse
        >= psk8.skr_bits_per_pulse
    )


def test_bad_conditions_kill_psk():
    setup = LinkSetup(terminals=OpticalTerminals(), conditions=BAD, noise=DAYLIGHT_NOISE)
    for altitude in (200e3, 400e3, 800e3):
        point = _evaluate(link_columns(setup, altitude, 90.0), PSK8, ASY, FiniteSizeParams())
        assert point.skr_bits_per_pulse <= 0.0


def test_far_field_exclusion_flagged():
    setup = LinkSetup(
        terminals=OpticalTerminals(receiver_aperture_m=2.0),
        conditions=GOOD,
        noise=DAYLIGHT_NOISE,
    )
    point = _evaluate(link_columns(setup, 300e3, 90.0), GM, ASY, FiniteSizeParams())
    assert not point.far_field_ok
    assert point.status == "far_field_excluded"
    assert point.transmittance is None
    assert point.l_tot_km is not None  # geometry still reported


def test_finite_size_restricted_to_gaussian_modulation():
    with pytest.raises(ConfigError):
        _evaluate(link_columns(SETUP, 400e3, 90.0), PSK8, MD, FiniteSizeParams())
    with pytest.raises(ConfigError):
        _evaluate(link_columns(SETUP, 400e3, 90.0), QAM256, MD, FiniteSizeParams())


@pytest.mark.parametrize("value", [1.5, -0.1])
def test_asymptotic_beta_outside_unit_interval_rejected(value):
    with pytest.raises(ValueError, match=f"got {value}$"):
        _evaluate(link_columns(SETUP, 400e3, 90.0), GM, value, FiniteSizeParams())


@pytest.mark.parametrize("states", [None, 1, 8, 15])
def test_qam_states_must_be_a_square_of_at_least_four(states):
    with pytest.raises(ConfigError, match="square"):
        ProtocolSpec(kind="qam", detection=Detection.HETERODYNE, modulation_variance=2.0,
                     states=states, distribution=Binomial())


@pytest.mark.parametrize("kind, states, distribution", [
    ("gm", None, None), ("psk", 4, None), ("qam", 16, Binomial())])
def test_a_nan_modulation_variance_is_refused(kind, states, distribution):
    # NaN passes "<= 0" and every cap; before, a GM key read NaN with S_BE 0
    with pytest.raises(ConfigError, match="^modulation variance must be positive$"):
        ProtocolSpec(kind, Detection.HOMODYNE, np.nan, states, distribution)


def test_finite_point_carries_fit_diagnostics():
    point = _evaluate(link_columns(SETUP, 300e3, 90.0), GM, MD, FiniteSizeParams())
    assert point.snr_db is not None
    assert point.beta_valid
    assert 0.0 <= point.fer <= 1.0
    assert point.privacy_bits_per_pulse == pytest.approx(1.1395e-3, abs=1e-6)
    assert point.skr_bits_per_second is not None and point.skr_bits_per_second > 0.0


def test_invalid_beta_reports_no_key():
    # at very high SNR (short link, 2 m aperture) the MD fit exits [0, 1]
    setup = LinkSetup(
        terminals=OpticalTerminals(receiver_aperture_m=2.0),
        conditions=GOOD,
        noise=DAYLIGHT_NOISE,
    )
    point = _evaluate(link_columns(setup, 390e3, 90.0), GM, MD, FiniteSizeParams())
    if not point.beta_valid:  # depends on where the fit leaves [0, 1]
        assert point.status == "no_key_beta_invalid"
        assert point.skr_bits_per_second is None


def test_md_positive_altitudes_contain_mlc_msd_set():
    from satcvqkd.finite_size import MLC_MSD

    def positive_altitudes(model):
        out = set()
        for altitude_km in range(200, 1001, 25):
            point = _evaluate(
                link_columns(SETUP, altitude_km * 1000.0, 90.0), GM, model, FiniteSizeParams()
            )
            if point.skr_bits_per_second is not None and point.skr_bits_per_second > 0:
                out.add(altitude_km)
        return out

    md_set = positive_altitudes(MD)
    mlc_set = positive_altitudes(MLC_MSD)
    assert mlc_set <= md_set
    assert md_set  # the short links do produce key


def test_asymptotic_rate_scaled_by_repetition_rate():
    point = _evaluate(link_columns(SETUP, 500e3, 90.0), GM, ASY, FiniteSizeParams())
    assert point.skr_bits_per_second == pytest.approx(
        50e6 * point.skr_bits_per_pulse, rel=1e-12
    )


# --- stage boundary: one link stage per grid ------------------------------------


def _count_calls(monkeypatch, name, module=pipeline):
    """Record each call of ``<module>.<name>``, which still runs."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _run(tmp_path, command, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), "--output", str(out)]) == 0


def test_compare_runs_one_link_stage_for_every_protocol(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "link_budget")
    _run(tmp_path, "compare", {
        "protocols": ["gm", "psk8", "qam16"],
        "sweep": {"altitude_km": [400, 600], "elevation_deg": [30, 90]},
    })
    assert len(calls) == 1


def test_pass_runs_one_link_stage_for_both_models(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "link_budget")
    _run(tmp_path, "pass", {
        "protocol": "gm",
        "reconciliation": {"kind": "md"},
        "pass": {"altitude_km": 417.5,
                 "synthesize": {"max_elevation_deg": 60.0, "sample_dt_s": 5.0}},
    })
    assert len(calls) == 1


def test_link_stage_builds_one_geometry_and_one_slant_path(monkeypatch):
    paths = _count_calls(monkeypatch, "slant_path")
    # far-field bound 2 m x 0.3 m / 1550 nm = 387 km: the 300 km points are near field
    setup = SETUP._replace(terminals=OpticalTerminals(receiver_aperture_m=2.0))
    link = link_columns(setup, np.array([300e3, 500e3])[:, None], np.array([60.0, 90.0]))
    assert link.far_field_ok.tolist() == [False, False, True, True]
    assert len(paths) == 1


@pytest.mark.parametrize("payload", [
    {"protocols": ["gm", "psk8", "qam16"],
     "sweep": {"altitude_km": [400, 600], "elevation_deg": [30, 90]}},
    {"protocol": "gm", "reconciliation": {"kind": "md"},
     "pass": {"altitude_km": 417.5, "synthesize": {"max_elevation_deg": 60.0, "sample_dt_s": 5.0}}},
], ids=["compare", "pass"])
def test_the_run_builds_no_key_constants(tmp_path, monkeypatch, payload):
    # resolve builds every protocol's key constants; the run only evaluates them
    import satcvqkd.gaussian as gaussian
    import satcvqkd.psk as psk
    import satcvqkd.qam as qam
    from satcvqkd import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    plan = config_mod.load(str(config))

    def built(*args, **kwargs):
        raise AssertionError("the run built a key constant")

    for module, name in ((qam, "build_constellation"), (qam, "modulation_density_matrix"),
                         (psk, "correlation_z"), (gaussian, "gaussian_correlation")):
        monkeypatch.setattr(module, name, built)
    run = cli._run_pass if "pass" in payload else cli._run_sweep
    run(plan, str(tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").stat().st_size > 0


def test_a_protocol_listed_twice_is_built_once(monkeypatch):
    import satcvqkd.qam as qam

    builds = _count_calls(monkeypatch, "qam_security", qam)
    constants = key_constants([QAM256, GM, QAM256], DAYLIGHT_NOISE)
    assert list(constants) == [QAM256, GM]
    assert len(builds) == 1


def test_sweep_resolve_builds_one_geometry(tmp_path, monkeypatch):
    paths = _count_calls(monkeypatch, "slant_path", config_mod)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "protocol": "gm",
        "sweep": {"altitude_km": [400, 600], "elevation_deg": [10, 20, 30, 40, 50, 60, 70, 90]},
    }), encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 0
    assert len(paths) == 1


# --- the key stage of a group of protocols ------------------------------------------

DATA = Path(__file__).parent / "data"


def _plan_link(name, altitude_m=None, elevation_deg=None):
    """The plan of ``tests/data/<name>.json`` and the link of its grid, or of the
    given point of its setup."""
    plan = config_mod.load(str(DATA / f"{name}.json"))
    if altitude_m is None:
        altitude_m = np.repeat(plan.sweep.altitudes_m, len(plan.sweep.elevations_deg))
        elevation_deg = np.tile(plan.sweep.elevations_deg, len(plan.sweep.altitudes_m))
    return plan, link_columns(plan.setup, altitude_m, elevation_deg)


def _assert_identical(grouped, alone):
    """Every field of two ``PointResult``s holds the same bits, and the same
    NaN and None marks, in the same shape and kind of value."""
    for name, a, b in zip(PointResult._fields, grouped, alone):
        assert type(a) is type(b), name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        else:
            assert a == b, name


@pytest.mark.parametrize("name, point, groups", [
    ("mixed_compare", None, 4),  # GM/PSK under each detection, QAM under each
    ("mixed_compare", (500e3, 90.0), 4),  # one point: plain values
    ("md_gm_pair", None, 2),  # fitted: each protocol is a group of one
], ids=["mixed", "one_point", "md_pair"])
def test_the_grouped_key_stage_is_groups_of_one_bit_for_bit(monkeypatch, name, point, groups):
    plan, link = _plan_link(name, *(point or ()))
    calls = _count_calls(monkeypatch, "covariance_security")
    with evaluating():
        grouped = evaluate_point(link, plan.protocols, plan.key_constants, plan.reconciliation,
                                 plan.finite)
        assert len(calls) == groups
        alone = [evaluate_point(link, [spec], plan.key_constants, plan.reconciliation,
                                plan.finite)[0] for spec in plan.protocols]
    assert [p.protocol for p in grouped] == [spec.label for spec in plan.protocols]
    for a, b in zip(grouped, alone):
        _assert_identical(a, b)


def test_the_data_configs_reach_each_kind_of_group():
    plan, link = _plan_link("mixed_compare")
    assert {(spec.kind, spec.detection) for spec in plan.protocols} == \
        {(k, d) for k in ("gm", "psk", "qam") for d in Detection}
    assert not link.far_field_ok.all() and link.far_field_ok.any()
    # the MD pair's beta is valid at different points, so a shared mask would fail
    plan, link = _plan_link("md_gm_pair")
    first, second = evaluate_point(link, plan.protocols, plan.key_constants,
                                   plan.reconciliation, plan.finite)
    assert (first.status != second.status).any()
    assert "no_key_beta_invalid" in set(first.status) & set(second.status)


def _key_stage_peak(specs, points):
    """Traced peak bytes of the key stage of ``specs`` on a grid of ``points``."""
    link = link_columns(SETUP, np.linspace(300e3, 1000e3, points), 60.0)
    constants = key_constants(specs, DAYLIGHT_NOISE)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with evaluating():
            evaluate_point(link, specs, constants, ASY, FiniteSizeParams())
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_a_stacked_group_at_the_row_cap_needs_no_more_memory_than_one_sweep():
    # the row cap counts protocols too, so a group of eight on an eighth of
    # the points stacks (8, N/8) arrays: no larger than one sweep's (N,) ones
    group = [GM._replace(modulation_variance=v) for v in (1.0, 2.0, 5.0, 10.0, 20.0)] + \
        [PSK8._replace(states=m) for m in (2, 4, 8)]
    rows = config_mod._MAX_ROWS
    sweep = _key_stage_peak([GM], rows)
    compare = _key_stage_peak(group, rows // len(group))
    assert compare <= 1.1 * sweep


# --- physics properties ------------------------------------------------------------

BETA_95 = 0.95


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
        _evaluate(
            link_columns(SETUP, km * 1e3, elevation), GM, BETA_95, FiniteSizeParams()
        ).skr_bits_per_pulse
        for km in (low_km, high_km)
    )
    assert high <= low
