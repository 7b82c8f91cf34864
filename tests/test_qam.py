import cmath
import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from satcvqkd import (
    Binomial,
    Constellation,
    ConvergenceError,
    CutoffTooSmall,
    Detection,
    DiscreteGaussian,
    NoiseBudget,
    NumericsError,
    build_constellation,
    channel_noise,
    correlation_lower_bound,
    correlation_z,
    covariance_security,
    gm_security,
    holevo_bound,
    modulation_density_matrix,
    mutual_information_qam,
    psk_security,
    qam_security,
    thermal_workspace,
    zeta_weights,
)
from satcvqkd import DAYLIGHT_NOISE
from satcvqkd import qam as qam_module
from satcvqkd.gaussian import gaussian_correlation
from satcvqkd.pipeline import ProtocolSpec, key_constants
from satcvqkd.qam import (
    _MAX_CUTOFF,
    _SECTOR_RTOL,
    _coherent_columns,
    _converged_moments,
    _moments,
    _orbit_weights,
    _rotation_orbits,
    _sector_eigensystems,
    annihilation_operator,
    default_cutoff,
    start_cutoff,
)

from oracles import _qam_like_security, coherent_vector, dense_moments, dense_tau, \
    gram_moments, qam_matrix_oracle, sector_eigenvectors
from test_psk import _ring_constellation

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
    vec = coherent_vector(0.0, 10)
    assert vec[0] == 1.0
    assert np.allclose(vec[1:], 0.0)


def test_overlap_identity():
    cutoff = 60
    for a, b in ((0.5, 1.2), (1.0 + 0.5j, -0.3 + 0.4j), (2.0, 2.0j)):
        va = coherent_vector(a, cutoff)
        vb = coherent_vector(b, cutoff)
        overlap = abs(np.vdot(va, vb)) ** 2
        assert overlap == pytest.approx(math.exp(-abs(a - b) ** 2), abs=1e-10)


def test_mean_photon_number():
    cutoff = 80
    a_op = annihilation_operator(cutoff)
    number = a_op.conj().T @ a_op
    for amp in (0.3, 1.5, 1.0 + 1.0j):
        vec = coherent_vector(amp, cutoff)
        assert np.vdot(vec, number @ vec).real == pytest.approx(abs(amp) ** 2, abs=1e-10)


def test_insufficient_cutoff_names_cutoff_and_kept_norm():
    with pytest.raises(CutoffTooSmall) as err:
        _coherent_columns(np.array([3.0 + 0j]), 8)
    match = re.fullmatch(r"cutoff 8 keeps only (0\.\d{15}) of \|alpha\|\^2=9\.000", str(err.value))
    assert match, str(err.value)
    kept = math.exp(-9.0) * math.fsum(9.0**n / math.factorial(n) for n in range(9))
    assert float(match.group(1)) == pytest.approx(kept, abs=1e-14)


# --- modulation density matrix -------------------------------------------------


def _tau(ws, power=1.0):
    """tau**power rebuilt from the workspace's eigendecomposition."""
    vectors = sector_eigenvectors(ws)
    return (vectors * ws.eigenvalues**power) @ vectors.conj().T


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
    weights = np.sort(zeta_weights(4, alpha))[::-1]
    assert np.max(np.abs(top - weights)) < 1e-12


def test_rotated_square_matches_ring_spectrum():
    # the 4-point binomial grid is the 4-PSK ring rotated by 45 degrees
    alpha = 0.6
    grid = build_constellation(2, alpha, Binomial())
    ws = modulation_density_matrix(grid, 40)
    top = np.sort(ws.eigenvalues)[::-1][:4]
    weights = np.sort(zeta_weights(4, alpha))[::-1]
    assert np.max(np.abs(top - weights)) < 1e-12


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


def test_a_negative_eigenvalue_of_tau_is_a_numerics_error():
    # a unit-trace block, so only the eigenvalue -1e-9 (below -1e-10) is at fault
    block = np.diag([1.0 + 1e-9, -1e-9])
    assert np.trace(block) == 1.0
    with pytest.raises(NumericsError, match=r"^modulation density matrix has eigenvalue "
                       r"-1\.000e-09 < 0$"):
        _sector_eigensystems(1, [block])


# --- correlation lower bound ----------------------------------------------------


def test_thermal_moment_identity():
    # Tr(tau^1/2 a tau^1/2 a^dag) = sqrt(nbar(nbar+1)) for a thermal state
    for nbar in (0.25, 1.0, 2.5):
        term1, w = _moments(thermal_workspace(nbar))
        assert term1 == pytest.approx(math.sqrt(nbar * (nbar + 1.0)), abs=1e-8)
        assert w == 0.0


def test_a_negative_ensemble_variance_is_a_numerics_error():
    # coherent-state columns of norm 2 make the per-point variance 4 s - 16 |f|^2,
    # where s - |f|^2 = w >= 0 is small: w turns negative
    ws = modulation_density_matrix(build_constellation(4, 1.0, Binomial()))
    assert _moments(ws)[1] >= 0.0
    with pytest.raises(NumericsError, match=r"^ensemble variance term w = -\S+ < 0$"):
        _moments(ws._replace(point_vectors=2.0 * ws.point_vectors))


@pytest.mark.parametrize("v_a", [0.5, 2.0, 5.0])
@pytest.mark.parametrize("transmittance", [1.0, 0.1, 0.01])
def test_thermal_limit_recovers_gaussian_correlation(v_a, transmittance):
    ws = thermal_workspace(v_a / 2.0)
    z = correlation_lower_bound(ws, transmittance, 0.0)
    expected = math.sqrt(transmittance * (v_a**2 + 2.0 * v_a))
    assert z == pytest.approx(expected, abs=1e-6)


def test_correlation_bound_rejects_a_blocked_channel():
    # T = 0 follows the one transmittance rule of the package, (0, 1]
    c = build_constellation(4, 1.0, Binomial())
    ws = modulation_density_matrix(c)
    with pytest.raises(ValueError, match=r"^transmittance must be in \(0, 1\], got 0.0$"):
        correlation_lower_bound(ws, 0.0, 0.05)


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
        orbits = _rotation_orbits(amplitudes, np.argsort(amplitudes), count)
        _, bounds = _orbit_weights(orbits, amplitudes[orbits[0]], probabilities, count)
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
    values = [correlation_lower_bound(ws, 0.1, eps) for eps in sorted(noises)]
    # each value is converged to the cutoff gate's 1e-9 on Z*
    assert all(z2 <= z1 + 2e-9 for z1, z2 in zip(values, values[1:]))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(c=st.one_of(*_CONSTELLATIONS.values()),
       transmittance=st.floats(1e-4, 1.0), eps=st.floats(0.0, 0.05))
def test_correlation_bound_scales_with_root_transmittance(c, transmittance, eps):
    ws = modulation_density_matrix(c)
    z_one = correlation_lower_bound(ws, 1.0, eps)
    z_t = correlation_lower_bound(ws, transmittance, eps)
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
    zeta = zeta_weights(4, alpha)
    s_sum = sum(zeta[(k - 1) % 4] ** 1.5 / math.sqrt(zeta[k]) for k in range(4))
    q_sum = sum(zeta[(k - 1) % 4] ** 2 / zeta[k] for k in range(4))
    assert term1 == pytest.approx(alpha**2 * s_sum, abs=1e-12)
    assert w == pytest.approx(alpha**2 * (q_sum - s_sum**2), abs=1e-12)


def test_large_grid_approaches_gaussian_correlation():
    c = build_constellation(16, 1.0, Binomial())  # 256-QAM at V_A = 2
    ws = modulation_density_matrix(c)
    z = correlation_lower_bound(ws, 1.0, 0.0)
    gaussian = math.sqrt(4.0 + 4.0)
    assert abs(z - gaussian) / gaussian < 0.01


def test_correlation_bound_nonincreasing_in_excess_noise():
    c = build_constellation(8, 1.0, Binomial())
    ws = modulation_density_matrix(c)
    values = [
        correlation_lower_bound(ws, 0.1, eps)
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


class _ScriptedWorkspace(NamedTuple):
    """A workspace the gate only reads the cutoff of; ``_moments`` is scripted."""

    cutoff: int

    def rebuilt(self, cutoff: int) -> "_ScriptedWorkspace":
        return _ScriptedWorkspace(cutoff)


def _script_moments(monkeypatch, moments):
    """Replace ``qam._moments`` by ``moments(cutoff)``; returns the cutoffs asked for."""
    cutoffs = []

    def scripted(workspace):
        cutoffs.append(workspace.cutoff)
        return moments(workspace.cutoff)

    monkeypatch.setattr(qam_module, "_moments", scripted)
    return cutoffs


def test_cutoff_gate_doubles_until_a_step_of_ten_settles(monkeypatch):
    # Z* moves by 2e-6 over the first step of 10 and by nothing over the second
    cutoffs = _script_moments(
        monkeypatch, lambda n: (1.0 + 1e-6 * (n == 110), 0.0) if n < 200 else (2.0, 0.5))
    assert _converged_moments(_ScriptedWorkspace(100), 0.0) == (2.0, 0.5)
    assert cutoffs == [100, 110, 200, 210]


def test_cutoff_gate_gives_up_past_the_largest_cutoff(monkeypatch):
    cutoffs = _script_moments(monkeypatch, lambda n: (float(n), 0.0))  # never settles
    with pytest.raises(ConvergenceError, match=f"below cutoff {_MAX_CUTOFF}"):
        _converged_moments(_ScriptedWorkspace(1000), 0.0)
    assert cutoffs == [1000, 1010, 2000, 2010, 4000, 4010]


# --- one correlation identity across GM, PSK and QAM ----------------------------
# The covariance matrix's Z term is 2 Tr(tau^1/2 a tau^1/2 a^dag), which
# qam._moments computes as 2 term1 for any modulation state.


def _two_term1(workspace) -> float:
    return 2.0 * _converged_moments(workspace, 0.0)[0]


@pytest.mark.parametrize("v_a", np.geomspace(0.05, 10.0, 12))
def test_four_state_ring_moment_is_the_psk_correlation(v_a):
    alpha = math.sqrt(v_a / 2.0)
    z = correlation_z(4, alpha)
    assert _two_term1(modulation_density_matrix(_ring_constellation(4, alpha))) \
        == pytest.approx(z, rel=1e-14)


@pytest.mark.xfail(strict=True, reason="the 1e-10 support cut in qam._moments misses "
                   "8-PSK by up to 3.5e-8 (ROADMAP item 1: choose the support by rank)")
def test_eight_state_ring_moment_is_the_psk_correlation():
    for v_a in np.geomspace(0.05, 10.0, 12):
        alpha = math.sqrt(v_a / 2.0)
        z = correlation_z(8, alpha)
        assert _two_term1(modulation_density_matrix(_ring_constellation(8, alpha))) \
            == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("mean_photons", [0.25, 1.0, 2.5])
def test_thermal_moment_is_the_gaussian_correlation(mean_photons):
    # within 5e-9, not 1e-14: the 1e-10 support cut in qam._moments drops the
    # thermal tail's eigenvalues, worth about 2e-9 of Z
    z = gaussian_correlation(2.0 * mean_photons)
    assert _two_term1(thermal_workspace(mean_photons)) == pytest.approx(z, rel=5e-9)


@pytest.mark.parametrize("v_a", [0.1, 0.5, 2.0])
def test_two_state_ring_moment_is_twice_the_psk_correlation(v_a):
    # psk.correlation_z gives 2-PSK an alpha^2 prefactor, half of the ring's Z term
    alpha = math.sqrt(v_a / 2.0)
    two_term1 = _two_term1(modulation_density_matrix(_ring_constellation(2, alpha)))
    assert two_term1 / correlation_z(2, alpha) == pytest.approx(2.0, rel=1e-14)


# --- the start cutoff, bounded before any Fock build -------------------------------


@pytest.mark.parametrize("distribution", [Binomial(), DiscreteGaussian(nu=0.37)])
def test_start_cutoff_is_the_default_cutoff_of_the_grid(distribution):
    # or, past the cap where the gate gives up, a refusal that names that cutoff
    for side in range(2, 65):
        for v_a in [*np.geomspace(1e-3, 1e3, 5), 0.5, 2.0, 200.0]:
            cutoff = default_cutoff(build_constellation(side, math.sqrt(v_a / 2.0), distribution))
            if cutoff <= _MAX_CUTOFF:
                assert start_cutoff(side, v_a) == cutoff, (side, v_a)
            else:
                with pytest.raises(ValueError, match=f"start cutoff of {cutoff}, over the cap"):
                    start_cutoff(side, v_a)


def test_start_cutoff_past_float_range_is_infinite():
    with pytest.raises(ValueError, match=r"^4096-QAM at V_A = 1e\+308 needs a start cutoff "
                       r"of inf, over the cap of 4096$"):
        start_cutoff(64, 1e308)


def test_qam_security_rejects_a_start_cutoff_over_the_cap_before_building(monkeypatch):
    import satcvqkd.qam as qam_mod

    def no_build(*args):
        raise AssertionError("a Fock space was built")

    monkeypatch.setattr(qam_mod, "_coherent_columns", no_build)
    assert default_cutoff(build_constellation(16, 10.0, Binomial())) == 12010 > _MAX_CUTOFF
    with pytest.raises(ValueError, match=r"^256-QAM at V_A = 200 needs a start cutoff "
                       r"of 12010, over the cap of 4096$"):
        qam_security(16, 200.0, Binomial(), DAYLIGHT_NOISE, Detection.HETERODYNE)


def test_qam_security_past_float_range_is_the_cap_error():
    # the grid of this V_A overflows a float: the cap answers before it is built
    with pytest.raises(ValueError, match=r"^4096-QAM at V_A = 1e\+308 needs a start "
                       r"cutoff of inf, over the cap of 4096$"):
        qam_security(64, 1e308, Binomial(), DAYLIGHT_NOISE, Detection.HETERODYNE)


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


def _qam_holevo(v_a, t, eps, z_star, kind):
    """S_BE of qam_security's route: the covariance bound with an ideal detector
    and the correlation Z*(T) / sqrt(T) = Z*(1)."""
    noise = channel_noise(t, NoiseBudget(channel_excess=eps), kind)
    return holevo_bound(v_a, t, noise.chi_line, noise.chi_detector, z_star / math.sqrt(t), kind)


@pytest.mark.parametrize("kind", [Detection.HOMODYNE, Detection.HETERODYNE])
def test_qam_holevo_matches_matrix_oracle(kind):
    for v_a, t, eps, zfrac in (
        (2.0, 0.01, 0.03, 0.95),
        (2.0, 0.0656, 0.0321, 0.99),
        (0.5, 0.3, 0.0, 0.8),
        (5.0, 0.001, 0.05, 0.0),
    ):
        z = zfrac * math.sqrt(t * (v_a**2 + 2.0 * v_a))
        s_be, lambdas = _qam_holevo(v_a, t, eps, z, kind)
        s_ref, nus, nu_cond = qam_matrix_oracle(v_a, t, eps, z, kind.value)
        assert s_be == pytest.approx(s_ref, abs=1e-8)
        assert sorted(lambdas[:2], reverse=True)[0] == pytest.approx(nus[0], abs=1e-9)
        assert sorted(lambdas[:2], reverse=True)[1] == pytest.approx(nus[1], abs=1e-9)
        # an ideal detector leaves the conditional pair (nu_cond, 1)
        assert lambdas[2] == pytest.approx(nu_cond, abs=1e-9)
        assert lambdas[3] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kind", [Detection.HOMODYNE, Detection.HETERODYNE])
def test_ideal_detector_mode_adds_no_rounding_entropy(kind):
    # the ideal detector's fourth eigenvalue is 1 only up to rounding, which G's
    # divergent slope at 0 would turn into ~1e-14 bits; the scalar oracle has
    # no fourth eigenvalue
    worst = 0.0
    for v_a, t, eps, zfrac in itertools.product(
        (0.5, 2.0, 5.0), (0.001, 0.0196, 0.05, 0.13, 0.3), (0.0, 0.0321, 0.05), (0.5, 0.9, 0.99)
    ):
        z = zfrac * math.sqrt(t * (v_a**2 + 2.0 * v_a))
        s_be, _ = _qam_holevo(v_a, t, eps, z, kind)
        _, s_ref = _qam_like_security(v_a, t, eps, kind is Detection.HOMODYNE, z)
        worst = max(worst, abs(s_be - s_ref))
    assert worst < 6e-15


@pytest.mark.parametrize("kind", [Detection.HOMODYNE, Detection.HETERODYNE])
def test_qam_holevo_purity_limit(kind):
    # lossless, noiseless channel at the Gaussian correlation point
    for v_a in (0.5, 2.0):
        z = math.sqrt(v_a**2 + 2.0 * v_a)
        s_be, _ = _qam_holevo(v_a, 1.0, 0.0, z, kind)
        assert abs(s_be) < 1e-8


# --- key rates -------------------------------------------------------------------


def _qam_rate(side, distribution, transmittance):
    """The asymptotic M-QAM key rate at V_A = 2 and beta = 0.9, daylight noise."""
    constants = qam_security(side, 2.0, distribution, DAYLIGHT_NOISE, Detection.HETERODYNE)
    return covariance_security(constants, transmittance, 0.9).skr_asymptotic


def test_qam_rate_ordering_in_constellation_size():
    t = 0.0656  # ~500 km zenith, good conditions
    rates = [_qam_rate(side, Binomial(), t) for side in (4, 8, 16)]
    assert rates[2] >= rates[1] >= rates[0]


def test_qam_positive_at_reference_link():
    assert _qam_rate(8, Binomial(), 0.0656) > 0.0


def test_qam_below_gaussian_modulation():
    for t in (0.132, 0.0656, 0.0284):
        gm = covariance_security(gm_security(5.0, DAYLIGHT_NOISE, Detection.HOMODYNE), t, 0.9)
        for side in (8, 16):
            assert _qam_rate(side, Binomial(), t) <= gm.skr_asymptotic


def test_every_protocol_rejects_a_blocked_channel_alike():
    messages = set()
    for constants in (
        gm_security(5.0, DAYLIGHT_NOISE, Detection.HOMODYNE),
        psk_security(4, 0.5, DAYLIGHT_NOISE, Detection.HOMODYNE),
        qam_security(4, 2.0, Binomial(), DAYLIGHT_NOISE, Detection.HETERODYNE),
    ):
        with pytest.raises(ValueError) as caught:
            covariance_security(constants, 0.0, 0.9)
        messages.add(str(caught.value))
    assert messages == {"transmittance must be in (0, 1], got 0.0"}


# --- shape ---------------------------------------------------------------------------


def test_overconcentrated_shape_kills_the_key():
    # very large nu collapses the ensemble onto the innermost points
    assert _qam_rate(8, DiscreteGaussian(nu=50.0), 0.0656) <= 0.0


# --- one constellation per setting ---------------------------------------------------


def test_one_constellation_build_serves_every_transmittance(monkeypatch):
    import satcvqkd.qam as qam_mod

    built = []

    def counting_build(*args):
        built.append(args)
        return build_constellation(*args)

    monkeypatch.setattr(qam_mod, "build_constellation", counting_build)
    _qam_rate(4, Binomial(), np.array([0.132, 0.0284]))
    assert len(built) == 1


@pytest.mark.parametrize("side, distribution, transmittance", [
    (4, Binomial(), 0.0656),
    (8, DiscreteGaussian(nu=0.4), 0.132),
])
def test_correlation_bound_is_the_key_rate_correlation(
    monkeypatch, side, distribution, transmittance
):
    import satcvqkd.gaussian as gaussian_mod

    used = []

    def spy(v_a, t, chi_line, chi_detector, correlation, kind):
        used.append(correlation)
        return holevo_bound(v_a, t, chi_line, chi_detector, correlation, kind)

    monkeypatch.setattr(gaussian_mod, "holevo_bound", spy)
    _qam_rate(side, distribution, transmittance)
    c = build_constellation(side, 1.0, distribution)  # alpha = sqrt(V_A / 2)
    z = correlation_lower_bound(modulation_density_matrix(c), 1.0, QAM_EXCESS)
    assert used[0] > 0.0
    assert used == [max(float(z), 0.0)]


def test_correlation_bound_builds_on_the_given_workspace(monkeypatch):
    # the gate starts at the given workspace: nothing is built at its own cutoff
    import satcvqkd.qam as qam_mod

    built = []

    def counting_build(constellation, cutoff=None, gate_round=None):
        built.append(cutoff)
        return modulation_density_matrix(constellation, cutoff, gate_round)

    monkeypatch.setattr(qam_mod, "modulation_density_matrix", counting_build)
    c = build_constellation(16, 1.0, Binomial())
    workspace = modulation_density_matrix(c)
    correlation_lower_bound(workspace, 0.132, QAM_EXCESS)
    assert built[0] == workspace.cutoff + qam_mod._CUTOFF_STEP
    assert workspace.cutoff not in built


@pytest.mark.parametrize("source", ["constellation", "thermal"])
def test_correlation_bound_takes_an_array_of_transmittances(source):
    ws = modulation_density_matrix(build_constellation(4, 1.2, DiscreteGaussian(nu=0.3))) \
        if source == "constellation" else thermal_workspace(1.0)
    transmittances = np.array([[0.001, 0.01], [0.5, 1.0]])
    z = correlation_lower_bound(ws, transmittances, QAM_EXCESS)
    assert z.shape == transmittances.shape
    assert z.tolist() == [[correlation_lower_bound(ws, float(t), QAM_EXCESS) for t in row]
                          for row in transmittances]
    with pytest.raises(ValueError, match="got 1.5$"):
        correlation_lower_bound(ws, np.array([0.5, 1.5, -0.1]), QAM_EXCESS)


@pytest.mark.parametrize("side", [8, 16])
def test_a_setting_builds_twice_from_one_column_per_orbit(monkeypatch, side):
    import satcvqkd.qam as qam_mod

    columns, builds = [], []

    def counting_columns(amplitudes, cutoff, expansion=None):
        columns.append(amplitudes.size)
        return _coherent_columns(amplitudes, cutoff, expansion)

    def counting_build(*args):
        builds.append(args)
        return modulation_density_matrix(*args)

    monkeypatch.setattr(qam_mod, "_coherent_columns", counting_columns)
    modulation_density_matrix(build_constellation(side, 1.0, Binomial()))
    assert columns == [side**2 // 4]

    columns.clear()
    monkeypatch.setattr(qam_mod, "modulation_density_matrix", counting_build)
    qam_security(side, 2.0, DiscreteGaussian(nu=0.5), DAYLIGHT_NOISE, Detection.HETERODYNE)
    assert len(builds) == 2  # the cutoff gate's two levels
    assert columns == [side**2 // 4] * 2


# --- one gate round, two levels ---------------------------------------------------

_ROUND_SETS = {  # sector count -> a constellation that has it
    4: build_constellation(4, 1.0, DiscreteGaussian(nu=0.6)),  # a square grid
    2: Constellation((0.7 + 0.2j, -0.7 - 0.2j, 0.3 - 0.9j, -0.3 + 0.9j), (0.3, 0.3, 0.2, 0.2)),
    1: Constellation((1.0 + 0j, -1.0 + 0j, 0.4 + 0.3j), (0.4, 0.4, 0.2)),  # one off-axis point
}


@pytest.mark.parametrize("sectors", sorted(_ROUND_SETS))
def test_each_level_of_a_gate_round_is_its_own_build_to_the_bit(sectors):
    # the coarse level takes the first c + 1 rows of its round's expansion to
    # c + 10, and the refined level all of them; each equals a build whose
    # expansion stops at its own cutoff
    c = _ROUND_SETS[sectors]
    cutoff = default_cutoff(c)
    coarse = modulation_density_matrix(c, cutoff)
    refined = coarse.rebuilt(cutoff + 10)
    assert refined.gate_round is coarse.gate_round and coarse.gate_round.top == cutoff + 10
    for level in (coarse, refined):
        alone = modulation_density_matrix(
            c, level.cutoff, qam_module._GateRound(c.amplitudes, level.cutoff, {}, {}))
        assert len(level.sectors) == len(alone.sectors) == sectors
        for (d, v), (d_alone, v_alone) in zip(level.sectors, alone.sectors):
            assert np.array_equal(d, d_alone) and np.array_equal(v, v_alone)
        assert np.array_equal(level.point_vectors, alone.point_vectors)
        assert np.array_equal(level.probabilities, alone.probabilities)


def test_a_gate_round_searches_the_orbits_and_expands_once(monkeypatch):
    calls = {"orbits": [], "expansions": [], "builds": []}
    real = {name: getattr(qam_module, name) for name in
            ("_rotation_orbits", "_coherent_expansion", "modulation_density_matrix")}

    def orbits(amplitudes, order, count):
        calls["orbits"].append(count)
        return real["_rotation_orbits"](amplitudes, order, count)

    def expansion(amplitudes, cutoff):
        calls["expansions"].append(cutoff)
        return real["_coherent_expansion"](amplitudes, cutoff)

    def build(constellation, cutoff=None, gate_round=None):
        calls["builds"].append(cutoff)
        return real["modulation_density_matrix"](constellation, cutoff, gate_round)

    for name, spy in (("_rotation_orbits", orbits), ("_coherent_expansion", expansion),
                      ("modulation_density_matrix", build)):
        monkeypatch.setattr(qam_module, name, spy)
    c = build_constellation(4, 1.0, Binomial())
    n0 = default_cutoff(c)
    # Z* moves by 2e-6 over the first step of 10, so the gate runs a second round
    moments = _script_moments(
        monkeypatch, lambda n: (1.0 + 1e-6 * (n == n0 + 10), 0.0) if n < 2 * n0 else (2.0, 0.5))
    assert _converged_moments(qam_module.modulation_density_matrix(c, n0), 0.0) == (2.0, 0.5)
    assert moments == calls["builds"] == [n0, n0 + 10, 2 * n0, 2 * n0 + 10]
    assert calls["orbits"] == [4, 4]  # one search per round, at the sector count both levels keep
    assert calls["expansions"] == [n0 + 10, 2 * n0 + 10]


def test_a_compare_builds_each_qam_constellation_once(monkeypatch, tmp_path):
    # resolve builds each QAM protocol's constellation into its key constants,
    # and the run builds none
    from satcvqkd.cli import main

    config = tmp_path / "compare.json"
    config.write_text(json.dumps({
        "protocols": ["gm", "qam16", "psk4", {"kind": "qam", "states": 64, "distribution":
                                               {"kind": "discrete_gaussian", "nu": 0.5}}],
        "sweep": {"altitude_km": [500], "elevation_deg": [60, 90]},
    }), encoding="utf-8")
    built = []

    def counting_build(*args):
        built.append(args[0] ** 2)
        return build_constellation(*args)

    monkeypatch.setattr(qam_module, "build_constellation", counting_build)
    assert main(["compare", "--config", str(config), "--output", str(tmp_path / "out.csv")]) == 0
    assert built == [16, 64]


# --- one grid, many distributions: the group shares each gate round's grid work -------

_GROUP = (Binomial(), DiscreteGaussian(nu=0.3), DiscreteGaussian(nu=0.8))  # 16-QAM at V_A = 2


def _compare_config(tmp_path, protocols):
    config = tmp_path / "compare.json"
    config.write_text(json.dumps({
        "protocols": protocols, "sweep": {"altitude_km": [500], "elevation_deg": [60, 90]},
    }), encoding="utf-8")
    return ["compare", "--config", str(config), "--output", str(tmp_path / "out.csv")]


def _qam16(distribution):
    shape = "binomial" if isinstance(distribution, Binomial) \
        else {"kind": "discrete_gaussian", "nu": distribution.nu}
    return {"kind": "qam", "states": 16, "modulation_variance_snu": 2.0, "distribution": shape}


def _qam_spec(side, v_a, distribution):
    return ProtocolSpec("qam", Detection.HETERODYNE, v_a, side * side, distribution)


def _spy_gate_rounds(monkeypatch):
    """Record, per ``qam_security`` call, its distribution and the gate rounds it got."""
    calls = []
    real = qam_module.qam_security

    def spy(side, v_a, distribution, budget, kind, gate_rounds=None):
        calls.append((distribution, gate_rounds))
        return real(side, v_a, distribution, budget, kind, gate_rounds)

    monkeypatch.setattr(qam_module, "qam_security", spy)
    return calls


def _spy_grid_work(monkeypatch):
    """Record the sector count of each orbit search and the top of each expansion."""
    calls = {"orbits": [], "expansions": []}
    real = {name: getattr(qam_module, name) for name in ("_rotation_orbits", "_coherent_expansion")}

    def orbits(amplitudes, order, count):
        calls["orbits"].append(count)
        return real["_rotation_orbits"](amplitudes, order, count)

    def expansion(amplitudes, cutoff):
        calls["expansions"].append(cutoff)
        return real["_coherent_expansion"](amplitudes, cutoff)

    monkeypatch.setattr(qam_module, "_rotation_orbits", orbits)
    monkeypatch.setattr(qam_module, "_coherent_expansion", expansion)
    return calls


def test_each_distribution_of_a_grid_group_is_its_own_build_to_the_bit(monkeypatch):
    # the later distributions take the orbits, expansion and columns the first
    # one built; every level still equals a build of its own
    constellations = [build_constellation(4, 1.0, d) for d in _GROUP]
    cutoff = default_cutoff(constellations[0])
    shared = qam_module._GateRound.starting(constellations[0].amplitudes, cutoff)
    for c in constellations:
        coarse = modulation_density_matrix(c, cutoff, shared)
        alone = modulation_density_matrix(c, cutoff)
        assert coarse.gate_round is shared and alone.gate_round is not shared
        refined = (coarse.rebuilt(cutoff + 10), alone.rebuilt(cutoff + 10))
        for level, own in ((coarse, alone), refined):
            assert len(level.sectors) == len(own.sectors) == 4
            for (d, v), (d_own, v_own) in zip(level.sectors, own.sectors):
                assert np.array_equal(d, d_own) and np.array_equal(v, v_own)
            assert np.array_equal(level.point_vectors, own.point_vectors)
            assert np.array_equal(level.probabilities, own.probabilities)

    transmittance = np.array([0.132, 0.0284])
    specs = [_qam_spec(4, 2.0, d) for d in _GROUP]
    calls = _spy_gate_rounds(monkeypatch)
    grouped = key_constants(specs, DAYLIGHT_NOISE)
    (gate_rounds,) = {id(rounds): rounds for _, rounds in calls}.values()
    for spec in specs:
        alone = key_constants([spec], DAYLIGHT_NOISE)[spec]
        assert grouped[spec] == alone
        assert all(np.array_equal(a, b) for a, b in zip(
            covariance_security(grouped[spec], transmittance, 0.9),
            covariance_security(alone, transmittance, 0.9)))
    assert list(gate_rounds) == [(4, 2.0)]


def test_a_compare_of_one_grid_searches_the_orbits_and_expands_once_per_round(
    monkeypatch, tmp_path
):
    from satcvqkd.cli import main

    calls = _spy_grid_work(monkeypatch)
    builds = []
    real_build = qam_module.modulation_density_matrix

    def build(constellation, cutoff=None, gate_round=None):
        builds.append(cutoff)
        return real_build(constellation, cutoff, gate_round)

    monkeypatch.setattr(qam_module, "modulation_density_matrix", build)
    assert main(_compare_config(tmp_path, [_qam16(d) for d in _GROUP])) == 0
    n0 = start_cutoff(4, 2.0)
    assert builds == [n0, n0 + 10] * 3  # each distribution runs its own gate
    assert calls["orbits"] == [4]  # not three: one round, shared
    assert calls["expansions"] == [n0 + 10]


def test_a_distribution_that_needs_a_second_round_expands_it_once(monkeypatch):
    # nu = 0.3 needs round 2; the binomial shape and nu = 0.8 settle in round 1
    calls = _spy_grid_work(monkeypatch)
    n0 = start_cutoff(4, 2.0)
    evaluating = _spy_gate_rounds(monkeypatch)
    moments = _script_moments(
        monkeypatch, lambda n: (1.0 + 1e-6 * (n == n0 + 10 and evaluating[-1][0] == _GROUP[1]),
                                0.0))
    key_constants([_qam_spec(4, 2.0, d) for d in _GROUP], DAYLIGHT_NOISE)
    assert moments == [n0, n0 + 10] + [n0, n0 + 10, 2 * n0, 2 * n0 + 10] + [n0, n0 + 10]
    assert calls["orbits"] == [4, 4]  # once in each round
    assert calls["expansions"] == [n0 + 10, 2 * n0 + 10]


def test_protocols_of_another_side_or_modulation_variance_share_nothing(monkeypatch):
    calls = _spy_grid_work(monkeypatch)
    rounds = _spy_gate_rounds(monkeypatch)
    grids = [(4, 2.0), (4, 3.0), (8, 2.0)]
    specs = [_qam_spec(side, v_a, Binomial()) for side, v_a in grids]
    grouped = key_constants(specs, DAYLIGHT_NOISE)
    grouped_expansions = list(calls["expansions"])  # each setting's lone call expands again
    for spec in specs:
        assert grouped[spec] == key_constants([spec], DAYLIGHT_NOISE)[spec]
    gate_rounds = {grid: r for _, shared in rounds[:3] for grid, r in shared.items()}
    assert list(gate_rounds) == grids
    assert len({id(r) for r in gate_rounds.values()}) == 3
    assert grouped_expansions == [start_cutoff(s, v) + 10 for s, v in grids]
    with pytest.raises(ValueError, match="another grid"):
        modulation_density_matrix(build_constellation(8, 1.0, Binomial()), None,
                                  gate_rounds[4, 2.0])


def test_no_expansion_of_a_compare_outlives_the_run(monkeypatch, tmp_path):
    # reference counting alone frees the group's rounds: they hold no cycle
    import weakref
    from satcvqkd.cli import main

    alive = []
    real = qam_module._coherent_expansion

    def expansion(amplitudes, cutoff):
        result = real(amplitudes, cutoff)
        alive.append(weakref.ref(result))
        return result

    monkeypatch.setattr(qam_module, "_coherent_expansion", expansion)
    protocols = [_qam16(d) for d in _GROUP] + ["gm", "qam64"]
    assert main(_compare_config(tmp_path, protocols)) == 0
    assert len(alive) == 2  # one per grid
    assert [ref() for ref in alive] == [None, None]


def test_a_group_of_large_shapes_peaks_as_one_shape_alone():
    import tracemalloc

    # start cutoff 235: the Fock work dominates the peak, and a group that kept
    # each shape's workspaces would peak 1.7 times as high
    shapes = [_qam_spec(8, 8.0, DiscreteGaussian(nu=nu)) for nu in (0.05, 0.1, 0.2, 0.4)]

    def peak(group):
        tracemalloc.start()
        try:
            key_constants(group, DAYLIGHT_NOISE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(peak([shape]) for shape in shapes)
    assert peak(shapes) <= 1.1 * alone


def _two_grids_of_256_qam():
    """Two 256-QAM shapes at each of V_A = 2 and 1.5, the first of each needing
    a second gate round; the moments are scripted."""
    return [_qam_spec(16, v_a, DiscreteGaussian(nu=nu)) for v_a in (2.0, 1.5) for nu in (0.05, 0.2)]


def _force_a_second_round(monkeypatch, specs):
    first = {build_constellation(16, math.sqrt(spec.modulation_variance / 2.0),
                                 spec.distribution) for spec in specs[::2]}
    tops = {start_cutoff(16, spec.modulation_variance) + 10 for spec in specs}
    monkeypatch.setattr(qam_module, "_moments", lambda workspace: (
        1.0 + 1e-6 * (workspace.source in first and workspace.cutoff in tops), 0.0))


def test_a_run_drops_each_grid_s_rounds_after_its_last_protocol(monkeypatch):
    import weakref

    specs = _two_grids_of_256_qam()
    _force_a_second_round(monkeypatch, specs)
    expansions = []
    real_expansion = qam_module._coherent_expansion

    def expansion(amplitudes, cutoff):
        result = real_expansion(amplitudes, cutoff)
        expansions.append((cutoff, weakref.ref(result)))
        return result

    alive_at_start = []  # per protocol, the tops of the expansions still alive
    real_security = qam_module.qam_security

    def security(*args):
        alive_at_start.append([top for top, ref in expansions if ref() is not None])
        return real_security(*args)

    monkeypatch.setattr(qam_module, "_coherent_expansion", expansion)
    monkeypatch.setattr(qam_module, "qam_security", security)
    key_constants(specs, DAYLIGHT_NOISE)
    first, second = (start_cutoff(16, v_a) + 10 for v_a in (2.0, 1.5))
    # each grid expands once for its shared first round and once for the second
    # round of its first shape, which ends with that shape's gate
    assert [top for top, _ in expansions] == [first, 2 * first - 10, second, 2 * second - 10]
    assert alive_at_start == [[], [first], [], [second]]
    assert all(ref() is None for _, ref in expansions)


def test_a_run_of_two_grids_with_second_rounds_peaks_as_its_largest_protocol(monkeypatch):
    import tracemalloc

    # each protocol built alone bounds what a build of them needs at once; a
    # build that kept every grid's rounds, and their later rounds, to its end
    # peaked 1.4 times as high
    specs = _two_grids_of_256_qam()
    _force_a_second_round(monkeypatch, specs)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(peak(lambda: key_constants([spec], DAYLIGHT_NOISE)) for spec in specs)
    assert peak(lambda: key_constants(specs, DAYLIGHT_NOISE)) <= 1.1 * alone
