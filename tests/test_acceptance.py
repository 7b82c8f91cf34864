"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import math
import time

import numpy as np
import pytest

import satcvqkd as s
from satcvqkd.cli import main as cli_main
from satcvqkd.finite_size import MD, MLC_MSD
from satcvqkd.gaussian import gaussian_correlation
from satcvqkd.pipeline import LinkSetup, ProtocolSpec, evaluate_point, link_columns
from satcvqkd.qam import Binomial

from oracles import gm_matrix_oracle, rytov_variance_quad, slant_range_2d

GOOD = s.AtmosphericConditions(visibility_km=200.0, cn2=1e-16)


class _Criterion:
    def __init__(self, number: int, description: str, budget_s: float):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {verdict} ({elapsed:.2f} s): {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_lossless_noiseless_null():
    with _Criterion(1, "lossless-noiseless GM channel leaks nothing", 1.0):
        beta = 0.9
        for v_a in (0.5, 2.0, 5.0):
            for kind in s.Detection:
                result = s.gm_security(
                    v_a, 1.0, s.NoiseBudget(0.0, 0.0, 1.0), kind, beta
                )
                assert result.holevo <= 1e-9
                assert result.skr_asymptotic == pytest.approx(
                    beta * result.mutual_information, abs=1e-9
                )


def test_criterion_2_symplectic_oracle_equivalence():
    with _Criterion(2, "closed-form eigenvalues match the matrix route (1000 configs)", 10.0):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            v_a = rng.uniform(0.1, 20.0)
            t = 10.0 ** rng.uniform(-4.0, 0.0)
            eps_ch = rng.uniform(0.0, 0.2)
            eps_det = rng.uniform(0.0, 0.1)
            eta = rng.uniform(0.3, 0.98)
            kind = s.Detection.HOMODYNE if rng.random() < 0.5 else s.Detection.HETERODYNE
            z = rng.uniform(0.2, 1.0) * gaussian_correlation(v_a)
            noise = s.channel_noise(t, s.NoiseBudget(eps_ch, eps_det, eta), kind)
            try:
                s_be, lambdas = s.holevo_bound(
                    v_a, t, noise.chi_line, noise.chi_detector, z, kind
                )
            except s.UnphysicalCovariance:
                continue
            s_ref, nus = gm_matrix_oracle(
                v_a, t, eps_ch, eps_det, eta, z, kind.value
            )
            pair = sorted(lambdas[:2], reverse=True)
            assert abs(pair[0] - nus[0]) < 1e-8
            assert abs(pair[1] - nus[1]) < 1e-8
            assert abs(s_be - s_ref) < 1e-8
            checked += 1


def test_criterion_3_psk_spectral_identity():
    with _Criterion(3, "PSK spectral weights match Fock eigenvalues", 10.0):
        for states in (2, 4, 8):
            for alpha in np.linspace(0.1, 1.0, 10):
                weights = s.zeta_weights(states, float(alpha))
                assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
                amps = tuple(
                    alpha * complex(math.cos(2 * math.pi * k / states),
                                    math.sin(2 * math.pi * k / states))
                    for k in range(states)
                )
                ws = s.modulation_density_matrix(
                    s.Constellation(amps, (1.0 / states,) * states), 40
                )
                top = np.sort(ws.eigenvalues)[::-1][:states]
                assert np.max(np.abs(np.sort(weights)[::-1] - top)) < 1e-10


def test_criterion_4_qam_thermal_limit():
    with _Criterion(4, "thermal modulation recovers the Gaussian correlation", 60.0):
        for v_a in (0.5, 2.0, 5.0):
            ws = s.thermal_workspace(v_a / 2.0)
            for t in (1.0, 0.1, 0.01):
                z = s.correlation_lower_bound(ws, t, 0.0)
                expected = math.sqrt(t * (v_a**2 + 2.0 * v_a))
                assert abs(z - expected) < 1e-6


def test_criterion_5_channel_oracles():
    with _Criterion(5, "turbulence quadrature and slant geometry oracles", 5.0):
        for length, cn2 in ((20e3, 1e-16), (47.3e3, 1e-13)):
            expected = rytov_variance_quad(length, cn2, 1550e-9)
            assert s.rytov_variance(length, cn2, 1550e-9) == pytest.approx(expected, rel=1e-12)
        for theta in range(5, 91, 5):
            geo = s.LinkGeometry(satellite_altitude_m=500e3, elevation_deg=float(theta))
            path = s.slant_path(geo)
            assert path.total_distance_m == pytest.approx(
                slant_range_2d(6_371_000.0, 6_871_000.0, float(theta)), rel=1e-9
            )
            assert path.effective_atmosphere_m == pytest.approx(
                slant_range_2d(6_371_000.0, 6_391_000.0, float(theta)), rel=1e-9
            )


def test_criterion_6_protocol_orderings():
    with _Criterion(6, "protocol ordering at 500 km and 2-PSK futility", 120.0):
        noise = s.DAYLIGHT_NOISE
        eps = noise.channel_excess + noise.detector_excess
        geo = s.LinkGeometry(satellite_altitude_m=500e3, elevation_deg=90.0)
        t = s.total_transmittance(geo, s.OpticalTerminals(), GOOD)

        gm = s.gm_security(5.0, t, noise, s.Detection.HOMODYNE, 0.9).skr_asymptotic
        qam256 = s.qam_security(
            16, 2.0, Binomial(), t, eps, s.Detection.HETERODYNE, 0.9
        ).skr_asymptotic
        qam64 = s.qam_security(
            8, 2.0, Binomial(), t, eps, s.Detection.HETERODYNE, 0.9
        ).skr_asymptotic
        psk8 = s.psk_security(
            8, 0.5, t, noise, s.Detection.HOMODYNE, 0.9,
        ).skr_asymptotic
        psk4 = s.psk_security(
            4, 0.5, t, noise, s.Detection.HOMODYNE, 0.9,
        ).skr_asymptotic
        assert gm > qam256 > qam64 > psk8 > psk4

        for altitude_km in range(200, 1001, 50):
            for elevation in (30.0, 60.0, 90.0):
                geo = s.LinkGeometry(
                    satellite_altitude_m=altitude_km * 1000.0,
                    elevation_deg=elevation,
                )
                t_point = s.total_transmittance(geo, s.OpticalTerminals(), GOOD)
                rate = s.psk_security(
                    2, 0.5, t_point, noise, s.Detection.HOMODYNE, 0.9
                ).skr_asymptotic
                assert rate <= 0.0


def _largest_positive_altitude(receiver_aperture_m: float) -> float:
    setup = LinkSetup(
        terminals=s.OpticalTerminals(receiver_aperture_m=receiver_aperture_m),
        conditions=GOOD,
        noise=s.DAYLIGHT_NOISE,
    )
    spec = ProtocolSpec(kind="gm", detection=s.Detection.HOMODYNE, modulation_variance=5.0)
    best = 0.0
    for altitude_km in np.arange(200.0, 1400.1, 5.0):
        point = evaluate_point(
            link_columns(setup, altitude_km * 1000.0, 90.0), spec, MD, s.FiniteSizeParams()
        )
        if point.skr_bits_per_second is not None and point.skr_bits_per_second > 0.0:
            best = altitude_km
    return best


def test_criterion_7_finite_size_altitude_boundaries():
    with _Criterion(7, "finite-size positive-key altitude limits", 60.0):
        boundary_1m = _largest_positive_altitude(1.0)
        boundary_2m = _largest_positive_altitude(2.0)
        assert 375.0 * 0.85 <= boundary_1m <= 375.0 * 1.15, boundary_1m
        assert 850.0 * 0.85 <= boundary_2m <= 850.0 * 1.15, boundary_2m


def test_criterion_8_iss_pass_budget():
    with _Criterion(8, "reference pass key totals and model ordering", 120.0):
        setup = LinkSetup(
            terminals=s.OpticalTerminals(receiver_aperture_m=2.0),
            conditions=GOOD,
            noise=s.DAYLIGHT_NOISE,
            ogs_altitude_m=1029.0,
        )
        profile = s.synthesize_circular_pass(setup, 417.5e3, 87.6, 1.0)
        spec = ProtocolSpec(
            kind="gm", detection=s.Detection.HOMODYNE, modulation_variance=5.0
        )
        result = s.integrate_key_bits(
            profile, setup, spec,
            [MD, MLC_MSD],
            s.FiniteSizeParams(), satellite_altitude_m=417.5e3,
        )
        md = result.models["MD"].total_key_bits
        mlc = result.models["MLC-MSD"].total_key_bits
        assert 1.235e9 / 2.0 <= md <= 1.235e9 * 2.0, md
        assert 385e6 / 2.0 <= mlc <= 385e6 * 2.0, mlc
        assert md >= mlc

        def min_positive(name):
            return min(
                e for (t, v), e in zip(
                    result.skr_series(name), profile.elevations_deg
                ) if v > 0.0
            )

        assert min_positive("MD") <= min_positive("MLC-MSD")


def test_criterion_9_fit_model_sanity():
    with _Criterion(9, "efficiency and frame-error fits at their anchors", 1.0):
        assert abs(s.beta(0.0, MLC_MSD).value - 0.9185) < 1e-4
        assert abs(s.beta(0.0, MD).value - 0.8996) < 1e-4
        transition_snr = -MD.m3 / MD.m2  # -15.32 dB
        assert transition_snr == pytest.approx(-15.32, abs=2e-3)
        assert abs(s.fer(transition_snr, MD).value - 0.5) < 1e-6
        for snr in np.linspace(-40.0, 20.0, 601):
            for model in (MD, MLC_MSD):
                fer_fit = s.fer(snr, model)
                assert 0.0 <= fer_fit.value <= 1.0
                if fer_fit.value != fer_fit.raw:
                    assert fer_fit.clamped
                beta_fit = s.beta(snr, model)
                if beta_fit.valid:
                    assert 0.0 <= beta_fit.value <= 1.0
                else:
                    assert not 0.0 <= beta_fit.value <= 1.0


def test_criterion_10_byte_identical_sweeps(tmp_path):
    with _Criterion(10, "repeat sweeps are byte-identical", 30.0):
        config = {
            "protocol": "gm",
            "reconciliation": {"kind": "md"},
            "sweep": {
                "altitude_km": {"start": 200, "stop": 1000, "step": 50},
                "elevation_deg": [30, 60, 90],
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        payloads = []
        for run in ("one", "two", "three"):
            out = tmp_path / f"{run}.csv"
            assert cli_main(
                ["sweep", "--config", str(config_path), "--output", str(out)]
            ) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]
