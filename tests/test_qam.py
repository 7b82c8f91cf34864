import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    qam_security,
    thermal_workspace,
    zeta_weights,
)
from satcvqkd import DAYLIGHT_NOISE, PskConfig
from satcvqkd.qam import (
    _SECTOR_RTOL,
    _coherent_columns,
    _moments,
    _rotation_orbits,
    annihilation_operator,
    default_cutoff,
)

from oracles import dense_moments, dense_tau, gram_moments, qam_matrix_oracle

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


@pytest.mark.parametrize("distribution", [Binomial(), DiscreteGaussian(nu=0.8881)])
def test_moments_match_gram_oracle_to_rounding(distribution):
    c = build_constellation(4, 1.0, distribution)
    term1, w = _moments(modulation_density_matrix(c))
    term1_ref, w_ref = gram_moments(c.amplitudes, c.probabilities)
    assert abs(term1 - term1_ref) < 1e-13
    assert abs(w - w_ref) < 1e-13


def _turned(amplitudes, angle):
    return tuple(a * cmath.rect(1.0, angle) for a in amplitudes)


@st.composite
def _turned_grids(draw):
    """Square grids turned by an angle that leaves tau's sector blocks complex."""
    distribution = draw(st.one_of(
        st.just(Binomial()), st.builds(DiscreteGaussian, st.floats(0.05, 2.0))))
    grid = build_constellation(draw(st.integers(2, 5)), draw(st.floats(0.3, 1.5)), distribution)
    return Constellation(_turned(grid.amplitudes, draw(st.floats(0.1, 0.7))), grid.probabilities)


@st.composite
def _point_sets(draw, max_points, mirrored):
    """Points with |alpha| <= 2, the first of a magnitude no other has, and with
    ``mirrored`` each joined by -alpha at equal weight."""
    count = draw(st.integers(1, max_points))
    magnitudes = [draw(st.floats(0.1, 0.45))]
    magnitudes += [draw(st.floats(0.5, 2.0)) for _ in range(count - 1)]
    amplitudes = [cmath.rect(m, draw(st.floats(0.0, 2.0 * math.pi))) for m in magnitudes]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    if mirrored:
        amplitudes, weights = amplitudes + [-a for a in amplitudes], weights * 2
    total = math.fsum(weights)
    return Constellation(tuple(amplitudes), tuple(x / total for x in weights))


_CONSTELLATIONS = {  # sector count -> constellations that have it
    4: _turned_grids(),
    2: _point_sets(3, mirrored=True),
    1: _point_sets(6, mirrored=False),
}


@pytest.mark.parametrize("sectors", sorted(_CONSTELLATIONS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_sector_moments_match_dense_reference(sectors, data):
    c = data.draw(_CONSTELLATIONS[sectors])
    cutoff = default_cutoff(c)
    ws = modulation_density_matrix(c, cutoff)
    assert len(ws.sectors) == sectors
    term1, w = _moments(ws)
    term1_ref, w_ref = dense_moments(c, cutoff)
    assert abs(term1 - term1_ref) < 1e-10
    assert abs(w - w_ref) < 1e-10


def test_square_grid_sectors_are_real_until_turned():
    grid = build_constellation(8, 1.0, Binomial())
    turned = Constellation(_turned(grid.amplitudes, 0.3), grid.probabilities)
    for c, is_complex in ((grid, False), (turned, True)):
        ws = modulation_density_matrix(c)
        assert len(ws.sectors) == 4
        assert all(np.iscomplexobj(v) == is_complex for _, v in ws.sectors)


def _assert_dense_moments(ws, constellation, cutoff):
    term1, w = _moments(ws)
    term1_ref, w_ref = dense_moments(constellation, cutoff)
    assert abs(term1 - term1_ref) < 1e-10
    assert abs(w - w_ref) < 1e-10


def _gap_masses(tau, count):
    """Frobenius mass of tau's entries with m - n = g (mod count), g = 0 ... count - 1."""
    n = np.arange(tau.shape[0])
    gaps = (n[:, None] - n[None, :]) % count
    return [math.sqrt(np.sum(np.abs(tau[gaps == g]) ** 2)) for g in range(count)]


@st.composite
def _perturbed_grids(draw):
    """A turned grid with one orbit's probabilities moved by a relative epsilon in
    [1e-16, 1e-6]: a point and its opposite up and their quarter turns down, which
    keeps the +-alpha symmetry, or one point up and its quarter turn down."""
    c = draw(_turned_grids())
    k = draw(st.sampled_from([k for k, a in enumerate(c.amplitudes) if a != 0]))
    orbit = [c.amplitudes.index(c.amplitudes[k] * 1j**j) for j in range(4)]
    delta = 10.0 ** draw(st.floats(-16.0, -6.0)) * c.probabilities[k]
    signs = (1, -1, 1, -1) if draw(st.booleans()) else (1, -1, 0, 0)
    probabilities = list(c.probabilities)
    for j, sign in zip(orbit, signs):
        probabilities[j] += sign * delta
    return Constellation(c.amplitudes, tuple(probabilities))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(c=_perturbed_grids())
def test_orbit_bound_holds_and_sets_the_sector_count(c):
    cutoff = default_cutoff(c)
    amplitudes, probabilities = np.asarray(c.amplitudes), np.asarray(c.probabilities)
    _, tau = dense_tau(c, cutoff)
    expected = None  # the first count whose bound passes, as the build tries them
    for count in (4, 2):
        _, _, bounds = _rotation_orbits(amplitudes, probabilities, np.argsort(amplitudes), count)
        masses = _gap_masses(tau, count)
        # the dense product itself rounds each entry by about 1e-16 of ||tau||
        assert all(mass <= bound + 1e-15 * masses[0] for mass, bound in zip(masses[1:], bounds))
        ratio = np.linalg.norm(bounds) / (_SECTOR_RTOL * masses[0])
        assume(abs(ratio - 1.0) > 1e-6)  # the build's blocks round differently
        if expected is None and ratio <= 1.0:
            expected = count
    ws = modulation_density_matrix(c, cutoff)
    assert len(ws.sectors) == (expected or 1)
    _assert_dense_moments(ws, c, cutoff)


@pytest.mark.parametrize("side", [3, 5])
@pytest.mark.parametrize("distribution", [Binomial(), DiscreteGaussian(nu=0.6)])
def test_odd_grid_centre_is_its_own_orbit(side, distribution):
    c = build_constellation(side, 1.0, distribution)
    cutoff = default_cutoff(c)
    ws = modulation_density_matrix(c, cutoff)
    assert len(ws.sectors) == 4
    assert ws.point_vectors.shape[1] == (side**2 - 1) // 4 + 1
    assert ws.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
    _assert_dense_moments(ws, c, cutoff)


def test_a_repeated_orbit_keeps_its_weight():
    grid = build_constellation(4, 1.0, DiscreteGaussian(nu=0.6))
    twice = Constellation(grid.amplitudes * 2, tuple(p / 2.0 for p in grid.probabilities * 2))
    cutoff = default_cutoff(grid)
    ws = modulation_density_matrix(twice, cutoff)
    assert len(ws.sectors) == 4
    assert ws.probabilities.sum() == pytest.approx(1.0, abs=1e-15)
    _assert_dense_moments(ws, grid, cutoff)  # listing every point twice leaves tau as it is


@settings(derandomize=True, deadline=None, max_examples=25)
@given(c=st.one_of(*_CONSTELLATIONS.values()),
       noises=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=4))
def test_correlation_bound_never_rises_with_excess_noise(c, noises):
    ws = modulation_density_matrix(c)
    values = [correlation_lower_bound(ws, c, 0.1, eps) for eps in sorted(noises)]
    # each value is converged to the cutoff gate's 1e-9 on Z*
    assert all(z2 <= z1 + 2e-9 for z1, z2 in zip(values, values[1:]))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(c=st.one_of(*_CONSTELLATIONS.values()),
       transmittance=st.floats(1e-4, 1.0), eps=st.floats(0.0, 0.05))
def test_correlation_bound_scales_with_root_transmittance(c, transmittance, eps):
    ws = modulation_density_matrix(c)
    z_one = correlation_lower_bound(ws, c, 1.0, eps)
    z_t = correlation_lower_bound(ws, c, transmittance, eps)
    assert z_t == pytest.approx(math.sqrt(transmittance) * z_one, rel=1e-12)


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


# --- shape ---------------------------------------------------------------------------


def test_overconcentrated_shape_kills_the_key():
    # very large nu collapses the ensemble onto the innermost points
    rate = qam_security(
        8, 2.0, DiscreteGaussian(nu=50.0), 0.0656, QAM_EXCESS,
        Detection.HETERODYNE, 0.9,
    ).skr_asymptotic
    assert rate <= 0.0


# --- one constellation per setting ---------------------------------------------------


def test_one_constellation_build_serves_every_transmittance(monkeypatch):
    import satcvqkd.qam as qam_mod

    built = []

    def counting_build(*args):
        built.append(args)
        return build_constellation(*args)

    monkeypatch.setattr(qam_mod, "build_constellation", counting_build)
    qam_security(4, 2.0, Binomial(), np.array([0.132, 0.0284]), QAM_EXCESS,
                 Detection.HETERODYNE, 0.9)
    assert len(built) == 1


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


def test_correlation_bound_builds_on_the_given_workspace(monkeypatch):
    import functools

    import satcvqkd.qam as qam_mod

    built = []

    def counting_build(*args):
        built.append(args)
        return modulation_density_matrix(*args)

    monkeypatch.setattr(qam_mod, "modulation_density_matrix", counting_build)
    c = build_constellation(16, 1.0, Binomial())
    workspace = modulation_density_matrix(c)
    rebuilt = qam_mod._converged_moments(
        functools.partial(counting_build, c), workspace.cutoff, QAM_EXCESS
    )
    rebuilds = len(built)
    built.clear()
    z = correlation_lower_bound(workspace, c, 0.132, QAM_EXCESS)
    assert len(built) == rebuilds - 1
    assert z == qam_mod._z_star(*rebuilt, 0.132, QAM_EXCESS)


@pytest.mark.parametrize("side", [8, 16])
def test_a_setting_builds_twice_from_one_column_per_orbit(monkeypatch, side):
    import satcvqkd.qam as qam_mod

    columns, builds = [], []

    def counting_columns(amplitudes, cutoff):
        columns.append(amplitudes.size)
        return _coherent_columns(amplitudes, cutoff)

    def counting_build(*args):
        builds.append(args)
        return modulation_density_matrix(*args)

    monkeypatch.setattr(qam_mod, "_coherent_columns", counting_columns)
    modulation_density_matrix(build_constellation(side, 1.0, Binomial()))
    assert columns == [side**2 // 4]

    columns.clear()
    monkeypatch.setattr(qam_mod, "modulation_density_matrix", counting_build)
    qam_security(side, 2.0, DiscreteGaussian(nu=0.5), 0.0656, QAM_EXCESS,
                 Detection.HETERODYNE, 0.9)
    assert len(builds) == 2  # the cutoff gate's two levels
    assert columns == [side**2 // 4] * 2
