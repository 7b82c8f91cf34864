import math

import numpy as np
import pytest

from satcvqkd import (
    Binomial,
    Constellation,
    CutoffTooSmall,
    Detection,
    DiscreteGaussian,
    build_constellation,
    coherent_state_vector,
    correlation_lower_bound,
    gm_security,
    holevo_qam,
    modulation_density_matrix,
    mutual_information_qam,
    optimize_nu,
    qam_security,
    thermal_workspace,
    zeta_weights,
)
from satcvqkd import DAYLIGHT_NOISE, PskConfig
from satcvqkd.qam import _moments, annihilation_operator, default_cutoff

from oracles import gram_moments, qam_matrix_oracle

QAM_EXCESS = DAYLIGHT_NOISE.channel_excess + DAYLIGHT_NOISE.detector_excess


# --- constellation construction ---------------------------------------------


def test_smallest_grid_is_uniform_corners():
    c = build_constellation(2, 0.8, Binomial())
    assert len(c.amplitudes) == 4
    assert all(p == pytest.approx(0.25, rel=1e-14) for p in c.probabilities)
    radius = 0.8 / math.sqrt(2.0)
    for amp in c.amplitudes:
        assert abs(amp.real) == pytest.approx(radius, rel=1e-12)
        assert abs(amp.imag) == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("side", [2, 4, 8, 16])
def test_binomial_mean_photon_number_is_alpha_squared(side):
    for alpha in (0.5, 1.0, 1.8):
        c = build_constellation(side, alpha, Binomial())
        assert c.mean_photon_number == pytest.approx(alpha**2, rel=1e-12)


def test_large_grid_probability_surface_shape():
    side = 16
    c = build_constellation(side, 1.0, Binomial())
    probs = np.asarray(c.probabilities).reshape(side, side)
    # maximal in the centre block, symmetric under k <-> side-1-k
    assert probs.max() == probs[side // 2 - 1, side // 2 - 1]
    assert np.allclose(probs, probs[::-1, :], rtol=1e-12)
    assert np.allclose(probs, probs[:, ::-1], rtol=1e-12)


def test_discrete_gaussian_normalized_and_shaped():
    c = build_constellation(8, 1.0, DiscreteGaussian(nu=0.7))
    assert math.fsum(c.probabilities) == pytest.approx(1.0, abs=1e-12)
    # probability decreases with |amplitude|
    pairs = sorted(zip(c.amplitudes, c.probabilities), key=lambda ap: abs(ap[0]))
    assert pairs[0][1] > pairs[-1][1]


def test_grid_side_validated():
    with pytest.raises(ValueError):
        build_constellation(1, 1.0, Binomial())
    with pytest.raises(ValueError):
        DiscreteGaussian(nu=0.0)


# --- coherent state vectors ---------------------------------------------------


def test_vacuum_vector():
    vec = coherent_state_vector(0.0, 10)
    assert vec[0] == 1.0
    assert np.allclose(vec[1:], 0.0)


def test_overlap_identity():
    cutoff = 60
    for a, b in ((0.5, 1.2), (1.0 + 0.5j, -0.3 + 0.4j), (2.0, 2.0j)):
        va = coherent_state_vector(a, cutoff)
        vb = coherent_state_vector(b, cutoff)
        overlap = abs(np.vdot(va, vb)) ** 2
        assert overlap == pytest.approx(math.exp(-abs(a - b) ** 2), abs=1e-10)


def test_mean_photon_number():
    cutoff = 80
    a_op = annihilation_operator(cutoff)
    number = a_op.conj().T @ a_op
    for amp in (0.3, 1.5, 1.0 + 1.0j):
        vec = coherent_state_vector(amp, cutoff)
        assert np.vdot(vec, number @ vec).real == pytest.approx(abs(amp) ** 2, abs=1e-10)


def test_insufficient_cutoff_names_requirement():
    with pytest.raises(CutoffTooSmall) as err:
        coherent_state_vector(3.0, 8)
    assert err.value.required_cutoff is not None
    coherent_state_vector(3.0, err.value.required_cutoff)  # now succeeds


# --- modulation density matrix -------------------------------------------------


def _tau(ws, power=1.0):
    """tau**power rebuilt from the workspace's eigendecomposition."""
    return (ws.eigenvectors * ws.eigenvalues**power) @ ws.eigenvectors.conj().T


def test_single_point_is_projector():
    c = Constellation((0.7 + 0.2j,), (1.0,))
    ws = modulation_density_matrix(c, 30)
    tau, tau_sqrt = _tau(ws), _tau(ws, power=0.5)
    assert np.allclose(tau, tau @ tau, atol=1e-12)
    assert np.allclose(tau, tau_sqrt, atol=1e-10)


def test_four_point_ring_reproduces_psk_spectrum():
    alpha = 0.5
    amps = tuple(
        alpha * complex(math.cos(k * math.pi / 2.0), math.sin(k * math.pi / 2.0))
        for k in range(4)
    )
    ws = modulation_density_matrix(Constellation(amps, (0.25,) * 4), 40)
    top = np.sort(ws.eigenvalues)[::-1][:4]
    closed = np.sort(zeta_weights(PskConfig(4, alpha)))[::-1]
    assert np.max(np.abs(top - closed)) < 1e-12


def test_rotated_square_matches_ring_spectrum():
    # the 4-point binomial grid is the 4-PSK ring rotated by 45 degrees
    alpha = 0.6
    grid = build_constellation(2, alpha, Binomial())
    ws = modulation_density_matrix(grid, 40)
    top = np.sort(ws.eigenvalues)[::-1][:4]
    closed = np.sort(zeta_weights(PskConfig(4, alpha)))[::-1]
    assert np.max(np.abs(top - closed)) < 1e-12


def test_workspace_invariants():
    for c in (
        build_constellation(8, 1.0, Binomial()),
        build_constellation(4, 1.4, DiscreteGaussian(nu=0.4)),
    ):
        ws = modulation_density_matrix(c)
        tau = _tau(ws)
        assert np.trace(tau).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(tau, tau.conj().T, atol=1e-14)
        assert ws.eigenvalues.min() >= 0.0


def test_trace_deficit_detected():
    with pytest.raises(CutoffTooSmall):
        thermal_workspace(5.0, cutoff=10)


# --- correlation lower bound ----------------------------------------------------


def test_thermal_moment_identity():
    # Tr(tau^1/2 a tau^1/2 a^dag) = sqrt(nbar(nbar+1)) for a thermal state
    for nbar in (0.25, 1.0, 2.5):
        term1, w = _moments(thermal_workspace(nbar))
        assert term1 == pytest.approx(math.sqrt(nbar * (nbar + 1.0)), abs=1e-8)
        assert w == 0.0


@pytest.mark.parametrize("v_a", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("transmittance", [1.0, 0.1, 0.01])
def test_thermal_limit_recovers_gaussian_correlation(v_a, transmittance):
    ws = thermal_workspace(v_a / 2.0)
    z = correlation_lower_bound(ws, None, transmittance, 0.0)
    expected = math.sqrt(transmittance * (v_a**2 + 2.0 * v_a))
    assert z == pytest.approx(expected, abs=1e-6)


def test_zero_transmittance_zero_correlation():
    c = build_constellation(4, 1.0, Binomial())
    ws = modulation_density_matrix(c)
    assert correlation_lower_bound(ws, c, 0.0, 0.05) == 0.0


def test_moments_match_high_precision_gram_oracle():
    c = build_constellation(4, 1.0, Binomial())
    term1, w = _moments(modulation_density_matrix(c))
    term1_ref, w_ref = gram_moments(c.amplitudes, c.probabilities)
    assert term1 == pytest.approx(term1_ref, abs=1e-10)
    assert w == pytest.approx(w_ref, abs=1e-8)


def test_moments_match_psk_closed_form():
    # ring ensembles admit exact spectral expressions for both moments
    alpha = 0.5
    amps = tuple(
        alpha * complex(math.cos(k * math.pi / 2.0), math.sin(k * math.pi / 2.0))
        for k in range(4)
    )
    c = Constellation(amps, (0.25,) * 4)
    term1, w = _moments(modulation_density_matrix(c, 40))
    zeta = zeta_weights(PskConfig(4, alpha))
    s_sum = sum(zeta[(k - 1) % 4] ** 1.5 / math.sqrt(zeta[k]) for k in range(4))
    q_sum = sum(zeta[(k - 1) % 4] ** 2 / zeta[k] for k in range(4))
    assert term1 == pytest.approx(alpha**2 * s_sum, abs=1e-12)
    assert w == pytest.approx(alpha**2 * (q_sum - s_sum**2), abs=1e-12)


def test_large_grid_approaches_gaussian_correlation():
    c = build_constellation(16, 1.0, Binomial())  # 256-QAM at V_A = 2
    ws = modulation_density_matrix(c)
    z = correlation_lower_bound(ws, c, 1.0, 0.0)
    gaussian = math.sqrt(4.0 + 4.0)
    assert abs(z - gaussian) / gaussian < 0.01


def test_correlation_bound_nonincreasing_in_excess_noise():
    c = build_constellation(8, 1.0, Binomial())
    ws = modulation_density_matrix(c)
    values = [
        correlation_lower_bound(ws, c, 0.1, eps)
        for eps in (0.0, 0.01, 0.03, 0.1, 0.3)
    ]
    assert all(z1 >= z2 for z1, z2 in zip(values, values[1:]))


def test_cutoff_convergence_gate():
    c = build_constellation(8, 1.0, Binomial())
    n0 = default_cutoff(c)
    z1 = _moments(modulation_density_matrix(c, n0))
    z2 = _moments(modulation_density_matrix(c, n0 + 10))
    assert abs(z1[0] - z2[0]) < 5e-10
    assert abs(z1[1] - z2[1]) < 5e-10


# --- mutual information and Holevo bound ----------------------------------------


def test_qam_information_limits():
    assert mutual_information_qam(0.0, 0.5, 0.02, Detection.HETERODYNE) == 0.0
    assert mutual_information_qam(2.0, 1.0, 0.0, Detection.HETERODYNE) == pytest.approx(
        1.0, rel=1e-14
    )


def test_qam_information_reference_value():
    expected = 0.5 * math.log2(1.0 + 0.01 * 2.0 / (2.0 + 0.01 * 0.03))
    assert mutual_information_qam(2.0, 0.01, 0.03, Detection.HOMODYNE) == pytest.approx(
        expected, rel=1e-14
    )
    assert mutual_information_qam(2.0, 0.01, 0.03, Detection.HETERODYNE) == pytest.approx(
        2.0 * expected, rel=1e-14
    )


@pytest.mark.parametrize("kind", [Detection.HOMODYNE, Detection.HETERODYNE])
def test_qam_holevo_matches_matrix_oracle(kind):
    for v_a, t, eps, zfrac in (
        (2.0, 0.01, 0.03, 0.95),
        (2.0, 0.0656, 0.0321, 0.99),
        (0.5, 0.3, 0.0, 0.8),
        (5.0, 0.001, 0.05, 0.0),
    ):
        z = zfrac * math.sqrt(t * (v_a**2 + 2.0 * v_a))
        s_be, lambdas = holevo_qam(v_a, t, eps, z, kind)
        s_ref, nus, nu_cond = qam_matrix_oracle(v_a, t, eps, z, kind.value)
        assert s_be == pytest.approx(s_ref, abs=1e-8)
        assert sorted(lambdas[:2], reverse=True)[0] == pytest.approx(nus[0], abs=1e-9)
        assert sorted(lambdas[:2], reverse=True)[1] == pytest.approx(nus[1], abs=1e-9)
        assert lambdas[2] == pytest.approx(nu_cond, abs=1e-9)


@pytest.mark.parametrize("kind", [Detection.HOMODYNE, Detection.HETERODYNE])
def test_qam_holevo_purity_limit(kind):
    # lossless, noiseless channel at the Gaussian correlation point
    for v_a in (0.5, 2.0):
        z = math.sqrt(v_a**2 + 2.0 * v_a)
        s_be, _ = holevo_qam(v_a, 1.0, 0.0, z, kind)
        assert abs(s_be) < 1e-8


# --- key rates -------------------------------------------------------------------


def test_qam_rate_ordering_in_constellation_size():
    t = 0.0656  # ~500 km zenith, good conditions
    rates = [
        qam_security(
            side, 2.0, Binomial(), t, QAM_EXCESS, Detection.HETERODYNE, 0.9
        ).skr_asymptotic
        for side in (4, 8, 16)
    ]
    assert rates[2] >= rates[1] >= rates[0]


def test_qam_positive_at_reference_link():
    result = qam_security(
        8, 2.0, Binomial(), 0.0656, QAM_EXCESS, Detection.HETERODYNE, 0.9
    )
    assert result.skr_asymptotic > 0.0


def test_qam_below_gaussian_modulation():
    for t in (0.132, 0.0656, 0.0284):
        gm = gm_security(5.0, t, DAYLIGHT_NOISE, Detection.HOMODYNE, 0.9)
        for side in (8, 16):
            q = qam_security(
                side, 2.0, Binomial(), t, QAM_EXCESS, Detection.HETERODYNE, 0.9
            )
            assert q.skr_asymptotic <= gm.skr_asymptotic


# --- shape optimization ------------------------------------------------------------


def test_optimize_nu_local_optimality():
    t = 0.132
    best = optimize_nu(4, 2.0, t, QAM_EXCESS, Detection.HETERODYNE, 0.9)
    assert not best.flat

    def rate(nu):
        return qam_security(
            4, 2.0, DiscreteGaussian(nu=nu), t, QAM_EXCESS, Detection.HETERODYNE, 0.9
        ).skr_asymptotic

    assert best.skr >= rate(best.nu / 2.0) - 1e-9
    assert best.skr >= rate(min(best.nu * 2.0, 10.0)) - 1e-9


def test_optimized_shape_at_least_binomial():
    t = 0.132
    binomial = qam_security(
        4, 2.0, Binomial(), t, QAM_EXCESS, Detection.HETERODYNE, 0.9
    ).skr_asymptotic
    best = optimize_nu(4, 2.0, t, QAM_EXCESS, Detection.HETERODYNE, 0.9)
    assert best.skr >= binomial - 1e-6


def test_flat_objective_reports_midpoint(monkeypatch):
    import satcvqkd.qam as qam_mod

    class _Stub:
        skr_asymptotic = 0.125

    monkeypatch.setattr(qam_mod, "qam_security", lambda *a, **k: _Stub())
    best = optimize_nu(4, 2.0, 0.1, QAM_EXCESS, Detection.HETERODYNE, 0.9)
    assert best.flat
    assert best.nu == pytest.approx((1e-4 + 10.0) / 2.0)


def test_overconcentrated_shape_kills_the_key():
    # very large nu collapses the ensemble onto the innermost points
    rate = qam_security(
        8, 2.0, DiscreteGaussian(nu=50.0), 0.0656, QAM_EXCESS,
        Detection.HETERODYNE, 0.9,
    ).skr_asymptotic
    assert rate <= 0.0


# --- per-setting moments cache ------------------------------------------------------


def test_one_constellation_build_serves_every_transmittance(monkeypatch):
    import satcvqkd.qam as qam_mod

    built = []

    def counting_build(*args):
        built.append(args)
        return build_constellation(*args)

    monkeypatch.setattr(qam_mod, "build_constellation", counting_build)
    qam_mod._setting_moments.cache_clear()
    for t in (0.132, 0.0284):
        qam_security(4, 2.0, Binomial(), t, QAM_EXCESS, Detection.HETERODYNE, 0.9)
    assert len(built) == 1


def test_moments_cache_is_bounded():
    import satcvqkd.qam as qam_mod

    maxsize = qam_mod._setting_moments.cache_info().maxsize
    assert maxsize == qam_mod._MOMENTS_CACHE_SIZE
    assert isinstance(maxsize, int) and maxsize > 0  # None would be unbounded


@pytest.mark.parametrize("side, distribution, transmittance", [
    (4, Binomial(), 0.0656),
    (8, DiscreteGaussian(nu=0.4), 0.132),
])
def test_correlation_bound_is_the_key_rate_correlation(
    monkeypatch, side, distribution, transmittance
):
    import satcvqkd.qam as qam_mod

    used = []

    def spy(v_a, t, eps, z_star, kind):
        used.append(z_star)
        return holevo_qam(v_a, t, eps, z_star, kind)

    monkeypatch.setattr(qam_mod, "holevo_qam", spy)
    qam_security(side, 2.0, distribution, transmittance, QAM_EXCESS,
                 Detection.HETERODYNE, 0.9)
    c = build_constellation(side, 1.0, distribution)  # alpha = sqrt(V_A / 2)
    z = correlation_lower_bound(modulation_density_matrix(c), c, transmittance, QAM_EXCESS)
    assert used[0] > 0.0
    assert z == used[0]
