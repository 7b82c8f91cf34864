"""Independent reference implementations used only by the tests.

These deliberately avoid the package's closed-form routes: symplectic
spectra come from eigenvalues of i*Omega*gamma, measurement conditioning is
done at the covariance-matrix level with an explicit trusted-noise
purification, slant ranges from 2-D vector geometry, the Rytov path integral
from arbitrary-precision quadrature, and small-constellation moments from an
arbitrary-precision Gram-matrix construction.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpc, mpf, matrix, eighe
from mpmath import exp as mp_exp, fsum as mp_fsum, quad as mp_quad, sqrt as mp_sqrt

_SIGMA_Z = np.diag([1.0, -1.0])


def _g(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def omega(n_modes: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j)


def symplectic_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """|eigenvalues| of i*Omega*gamma, one per mode, descending."""
    n = gamma.shape[0] // 2
    vals = np.abs(np.linalg.eigvals(1j * omega(n) @ gamma))
    return np.sort(vals)[::2][::-1]  # +/- pairs are adjacent once sorted


def entropy_from_cov(gamma: np.ndarray) -> float:
    return sum(_g((nu - 1.0) / 2.0) for nu in symplectic_eigenvalues(gamma))


def two_mode_cov(a: float, b: float, c: float) -> np.ndarray:
    gamma = np.zeros((4, 4))
    gamma[:2, :2] = a * np.eye(2)
    gamma[2:, 2:] = b * np.eye(2)
    gamma[:2, 2:] = c * _SIGMA_Z
    gamma[2:, :2] = c * _SIGMA_Z
    return gamma


def epr_cov(v: float) -> np.ndarray:
    return two_mode_cov(v, v, math.sqrt(v * v - 1.0))


def beamsplitter(n_modes: int, mode1: int, mode2: int, transmittance: float) -> np.ndarray:
    s = np.eye(2 * n_modes)
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    for q in range(2):
        i = 2 * mode1 + q
        j = 2 * mode2 + q
        s[i, i] = t
        s[i, j] = r
        s[j, i] = -r
        s[j, j] = t
    return s


def _condition_homodyne_x(gamma: np.ndarray, kept: list[int], measured: int) -> np.ndarray:
    rows = [i for m in kept for i in (2 * m, 2 * m + 1)]
    mx = 2 * measured
    sigma = gamma[np.ix_(rows, [mx])]
    return gamma[np.ix_(rows, rows)] - (sigma @ sigma.T) / gamma[mx, mx]


def _condition_heterodyne(gamma: np.ndarray, kept: list[int], measured: int) -> np.ndarray:
    rows = [i for m in kept for i in (2 * m, 2 * m + 1)]
    cols = [2 * measured, 2 * measured + 1]
    sigma = gamma[np.ix_(rows, cols)]
    core = np.linalg.inv(gamma[np.ix_(cols, cols)] + np.eye(2))
    return gamma[np.ix_(rows, rows)] - sigma @ core @ sigma.T


def gm_matrix_oracle(
    v_a: float,
    transmittance: float,
    eps_ch: float,
    eps_det: float,
    eta: float,
    correlation: float,
    kind: str,
) -> tuple[float, np.ndarray]:
    """Holevo bound via explicit covariance matrices.

    Eve purifies the Alice-Bob state; trusted detection noise is purified by
    mixing Bob's mode with half an EPR pair on a beamsplitter of
    transmittance eta before an ideal measurement, so the conditional
    entropy of Eve equals that of the unmeasured modes.
    Returns (S_BE, channel symplectic eigenvalues).
    """
    t = transmittance
    a = v_a + 1.0
    chi_line = 1.0 / t - 1.0 + eps_ch
    b = t * (v_a + 1.0 + chi_line)
    c = math.sqrt(t) * correlation
    gamma_ab = two_mode_cov(a, b, c)
    nus = symplectic_eigenvalues(gamma_ab)
    s_ab = entropy_from_cov(gamma_ab)

    if eta == 1.0 and eps_det == 0.0:
        if kind == "homodyne":
            cond = _condition_homodyne_x(gamma_ab, kept=[0], measured=1)
        else:
            cond = _condition_heterodyne(gamma_ab, kept=[0], measured=1)
        return s_ab - entropy_from_cov(cond), nus

    if eta == 1.0:
        raise ValueError("oracle needs eta < 1 to purify electronic noise")
    if kind == "homodyne":
        v_anc = 1.0 + eps_det / (1.0 - eta)
    else:
        v_anc = 1.0 + 2.0 * eps_det / (1.0 - eta)

    # Modes: 0 = A, 1 = B (becomes the detected mode), 2 = F, 3 = G.
    gamma = np.zeros((8, 8))
    gamma[:4, :4] = gamma_ab
    gamma[4:, 4:] = epr_cov(v_anc)
    s_bs = beamsplitter(4, 1, 2, eta)
    gamma = s_bs @ gamma @ s_bs.T
    if kind == "homodyne":
        cond = _condition_homodyne_x(gamma, kept=[0, 2, 3], measured=1)
    else:
        cond = _condition_heterodyne(gamma, kept=[0, 2, 3], measured=1)
    return s_ab - entropy_from_cov(cond), nus


def qam_matrix_oracle(
    v_a: float, transmittance: float, excess: float, z_star: float, kind: str
) -> tuple[float, np.ndarray, float]:
    """Holevo bound of the arbitrary-modulation pipeline via matrices.

    Ideal detection: Eve's conditional entropy equals Alice's after an
    ideal homodyne/heterodyne conditioning of the two-mode state.
    Returns (S_BE, channel eigenvalues, conditional eigenvalue).
    """
    x = v_a + 1.0
    y = 1.0 + transmittance * v_a + transmittance * excess
    gamma = two_mode_cov(x, y, z_star)
    nus = symplectic_eigenvalues(gamma)
    s_ab = entropy_from_cov(gamma)
    if kind == "homodyne":
        cond = _condition_homodyne_x(gamma, kept=[0], measured=1)
    else:
        cond = _condition_heterodyne(gamma, kept=[0], measured=1)
    nu_cond = symplectic_eigenvalues(cond)[0]
    return s_ab - entropy_from_cov(cond), nus, float(nu_cond)


def slant_range_2d(r_ogs_m: float, r_shell_m: float, elevation_deg: float) -> float:
    """Ray-circle intersection: OGS at (0, r1), ray at the given elevation."""
    theta = math.radians(elevation_deg)
    s = r_ogs_m * math.sin(theta)
    return -s + math.sqrt(s * s + r_shell_m**2 - r_ogs_m**2)


def rytov_variance_quad(length_m: float, cn2: float, wavelength_m: float) -> float:
    """2.25 k^(7/6) * integral of Cn^2 (L - z)^(5/6) over [0, L], by mpmath quadrature."""
    with mp.workdps(40):
        length = mpf(length_m)
        integral = mp_quad(lambda z: mpf(cn2) * (length - z) ** (mpf(5) / 6), [0, length])
        k = 2 * mp.pi / mpf(wavelength_m)
        return float(mpf("2.25") * k ** (mpf(7) / 6) * integral)


def gram_moments(amplitudes, probabilities, dps: int = 50) -> tuple[float, float]:
    """(term1, w) from the exact Gram-matrix construction at high precision.

    Coherent states are eigenstates of the annihilation operator, so the
    constellation span is closed under it and every moment reduces to M x M
    arithmetic on the analytic overlap matrix; no Fock truncation enters.
    """
    mp.dps = dps
    m = len(amplitudes)
    gram = matrix(m, m)
    for j in range(m):
        for k in range(m):
            aj, ak = mpc(amplitudes[j]), mpc(amplitudes[k])
            gram[j, k] = mp_exp(-(abs(aj) ** 2 + abs(ak) ** 2) / 2 + aj.conjugate() * ak)
    root_p = matrix(m, m)
    for j in range(m):
        root_p[j, j] = mp_sqrt(mpf(probabilities[j]))
    kmat = root_p * gram * root_p
    evals, evecs = eighe(kmat)
    k_half = matrix(m, m)
    k_minus_half = matrix(m, m)
    for j in range(m):
        sq = mp_sqrt(evals[j])
        for r in range(m):
            vr = evecs[r, j]
            for c in range(m):
                vc = evecs[c, j].conjugate()
                k_half[r, c] += vr * sq * vc
                k_minus_half[r, c] += vr / sq * vc
    d_amp = matrix(m, m)
    d_conj = matrix(m, m)
    for j in range(m):
        d_amp[j, j] = mpc(amplitudes[j])
        d_conj[j, j] = mpc(amplitudes[j]).conjugate()
    q = root_p * gram * d_amp * root_p
    b = q * k_minus_half
    s1 = mp_fsum(abs(b[r, c]) ** 2 for r in range(m) for c in range(m))
    a2 = k_half * b
    s2 = mp_fsum(abs(a2[k, k]) ** 2 / mpf(probabilities[k]) for k in range(m))
    y = root_p * k_minus_half * q * k_minus_half * root_p
    t1m = y * d_conj * gram
    term1 = mp_fsum(t1m[k, k].real for k in range(m))
    return float(term1), float(s1 - s2)
