"""Independent reference implementations used only by the tests.

These deliberately avoid the package's closed-form routes: symplectic
spectra come from eigenvalues of i*Omega*gamma, measurement conditioning is
done at the covariance-matrix level with an explicit trusted-noise
purification, slant ranges from 2-D vector geometry, the Rytov path integral
from arbitrary-precision quadrature, and small-constellation moments from an
arbitrary-precision Gram-matrix construction.  ``reference_point`` is the
per-point, ``math``-based evaluation the package's grid evaluator replaced,
``dense_moments`` the dense Fock-space moments that the package's
photon-number-sector moments replaced, and ``reference_profile`` the
``csv``-and-``float`` profile parser that the package's numpy parse replaced.
"""

from __future__ import annotations

import csv
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


def dense_tau(constellation, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The coherent-state vectors of every point, one package call per point, and
    the whole (cutoff+1)^2 modulation density matrix tau they sum to."""
    from satcvqkd.qam import coherent_state_vector

    vectors = np.column_stack(
        [coherent_state_vector(a, cutoff) for a in constellation.amplitudes])
    probs = np.asarray(constellation.probabilities)
    return vectors, (vectors * probs) @ vectors.conj().T


def dense_moments(constellation, cutoff: int) -> tuple[float, float]:
    """(term1, w) from one dense eigendecomposition of tau and dense products.

    The package's moments before they were split into photon-number
    sectors and built from rotation orbits, kept as the reference for both;
    tau comes from ``dense_tau``, over every point of the constellation.
    """
    from satcvqkd.qam import _SUPPORT_RTOL, annihilation_operator

    vectors, tau = dense_tau(constellation, cutoff)
    probs = np.asarray(constellation.probabilities)
    eigenvalues, eigenvectors = np.linalg.eigh(tau)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    eigenvalues = eigenvalues / eigenvalues.sum()
    annihilation = annihilation_operator(cutoff)

    support = eigenvalues > eigenvalues[-1] * _SUPPORT_RTOL
    sq = np.sqrt(eigenvalues[support])
    vs = eigenvectors[:, support]
    a_tilde = vs.conj().T @ annihilation @ vs
    term1 = float(np.einsum("i,j,ij->", sq, sq, np.abs(a_tilde) ** 2).real)

    coeff = vs.conj().T @ vectors  # <v_j|alpha_k>
    inv_sandwich = coeff / sq[:, None]  # tau^(-1/2)|alpha_k> in the support basis
    lowered = annihilation @ (vs @ inv_sandwich)
    mapped = vs @ (sq[:, None] * (vs.conj().T @ lowered))  # a_tau |alpha_k>
    second_moment = np.sum(np.abs(mapped) ** 2, axis=0)
    first_moment = np.einsum("nk,nk->k", vectors.conj(), mapped)
    per_point = second_moment - np.abs(first_moment) ** 2
    return term1, max(float(np.dot(probs, per_point).real), 0.0)


# --- per-point scalar pipeline ------------------------------------------------------
#
# One point at a time through ``math``, as the package evaluated rows before
# its closed-form functions took arrays.  Per-protocol constants (the PSK ring
# correlation, the QAM moments, the privacy penalty) come from the package:
# they are computed once per protocol or run on either path.


def _oblique_range(r_ogs_m, r_shell_m, elevation_deg):
    theta = math.radians(elevation_deg)
    arg = math.cos(theta) * r_ogs_m / r_shell_m
    if abs(arg) > 1.0:
        if abs(arg) - 1.0 > 1e-9:
            raise ValueError(f"arcsin argument {arg} outside [-1, 1]")
        arg = math.copysign(1.0, arg)
    central = (math.pi / 2.0 - theta) - math.asin(arg)
    return math.sqrt(
        r_shell_m**2 + r_ogs_m**2 - 2.0 * r_shell_m * r_ogs_m * math.cos(central)
    )


def _link_budget(setup, altitude_m, elevation_deg):
    """(L_tot, L_atm, A_geo or None in the near field, A_scat, A_sci) in m and dB."""
    from statistics import NormalDist

    from satcvqkd.channel import scattering_coefficient_db_per_km

    tx, cond = setup.terminals, setup.conditions
    r_ogs = setup.earth_radius_m + setup.ogs_altitude_m
    total = _oblique_range(r_ogs, setup.earth_radius_m + altitude_m, elevation_deg)
    l_atm = _oblique_range(
        r_ogs, setup.earth_radius_m + setup.atmosphere_thickness_m, elevation_deg
    )
    wl = tx.wavelength_m
    if total < tx.receiver_aperture_m * tx.transmitter_aperture_m / wl:
        return total, l_atm, None, None, None
    spread = (total * wl / (tx.transmitter_aperture_m * tx.receiver_aperture_m)) ** 2
    optics = tx.transmitter_efficiency * (1.0 - tx.pointing_loss) * tx.receiver_efficiency
    a_geo = 10.0 * math.log10(spread / optics)
    a_scat = scattering_coefficient_db_per_km(wl, cond.visibility_km) * l_atm / 1000.0
    k = 2.0 * math.pi / wl
    rytov = 2.25 * k ** (7.0 / 6.0) * cond.cn2 * (6.0 / 11.0) * l_atm ** (11.0 / 6.0)
    d_sq = tx.receiver_aperture_m**2 * math.pi / (2.0 * wl * l_atm)
    s65 = rytov ** (6.0 / 5.0)
    first = 0.20 * rytov / (1.0 + 0.18 * d_sq + 0.20 * s65) ** (7.0 / 6.0)
    second = (
        0.21 * rytov * (1.0 + 0.24 * s65) ** (-5.0 / 6.0)
        / (1.0 + 0.90 * d_sq + 0.21 * d_sq * s65)
    )
    log_term = math.log1p(math.expm1(first + second))
    a_sci = abs(4.343 * (
        NormalDist().inv_cdf(cond.outage_probability) * math.sqrt(log_term) - 0.5 * log_term
    ))
    return total, l_atm, a_geo, a_scat, a_sci


def _sqrt_eigenvalue(mean, product_root, disc_tol):
    if mean <= 0.0:
        raise ValueError(f"non-positive eigenvalue sum {mean}")
    disc = mean**2 - 4.0 * product_root**2
    if disc < -disc_tol:
        raise ValueError(f"negative discriminant {disc}")
    if disc < 1e-13 * mean**2:
        lam_plus = lam_minus = math.sqrt(mean / 2.0)
    else:
        lam_plus = math.sqrt((mean + math.sqrt(disc)) / 2.0)
        lam_minus = product_root / lam_plus
    return lam_plus, lam_minus


def _entropy_terms(*lambdas):
    return [_g(max(0.0, (lam - 1.0) / 2.0)) for lam in lambdas]


def _gm_like_security(v_a, t, noise, homodyne, correlation):
    """(I_AB, S_BE) of the Gaussian covariance pipeline with correlation Z."""
    eta = noise.detector_efficiency
    chi_line = 1.0 / t - 1.0 + noise.channel_excess
    if homodyne:
        chi_det = ((1.0 - eta) + noise.detector_excess) / eta
    else:
        chi_det = (1.0 + (1.0 - eta) + 2.0 * noise.detector_excess) / eta
    chi_tot = chi_line + chi_det / t
    half = 0.5 * math.log2((v_a + 1.0 + chi_tot) / (1.0 + chi_tot))
    i_ab = half if homodyne else 2.0 * half

    v = v_a + 1.0
    z_sq = correlation**2
    a_term = v**2 + t**2 * (v + chi_line) ** 2 - 2.0 * t * z_sq
    sqrt_b = abs(t * v**2 + t * v * chi_line - t * z_sq)
    lam1, lam2 = _sqrt_eigenvalue(a_term, sqrt_b, 1e-9)
    denom = t * (v + chi_tot)
    if homodyne:
        c_term = (a_term * chi_det + v * sqrt_b + t * (v + chi_line)) / denom
        sqrt_d = math.sqrt(sqrt_b * (v + sqrt_b * chi_det) / denom)
    else:
        c_term = (
            a_term * chi_det**2 + sqrt_b**2 + 1.0 + 2.0 * t * z_sq
            + 2.0 * chi_det * (v * sqrt_b + t * (v + chi_line))
        ) / denom**2
        sqrt_d = (v + sqrt_b * chi_det) / denom
    lam3, lam4 = _sqrt_eigenvalue(c_term, sqrt_d, 1e-9)
    g1, g2, g3, g4 = _entropy_terms(lam1, lam2, lam3, lam4)
    return chi_tot, i_ab, g1 + g2 - g3 - g4


def _qam_like_security(v_eff, t, excess, homodyne, z_star):
    half = 0.5 * math.log2(1.0 + t * v_eff / (2.0 + t * excess))
    i_ab = half if homodyne else 2.0 * half
    x = v_eff + 1.0
    y = 1.0 + t * v_eff + t * excess
    z_sq = z_star**2
    lam1, lam2 = _sqrt_eigenvalue(x**2 + y**2 - 2.0 * z_sq, abs(x * y - z_sq), 1e-10)
    if homodyne:
        lam3 = math.sqrt(x * (x - z_sq / y))
    else:
        lam3 = x - z_sq / (2.0 + t * v_eff + t * excess)
    g1, g2, g3 = _entropy_terms(lam1, lam2, lam3)
    return i_ab, g1 + g2 - g3


def reference_point(setup, spec, altitude_m, elevation_deg, reconciliation, finite_params):
    """One row of the package's CSV as a dict keyed by PointResult field name."""
    from satcvqkd import qam
    from satcvqkd.finite_size import privacy_penalty
    from satcvqkd.gaussian import gaussian_correlation
    from satcvqkd.psk import PskConfig, correlation_z

    row = dict(
        protocol=spec.label, detection=spec.detection.value,
        modulation_variance=spec.modulation_variance, altitude_m=altitude_m,
        elevation_deg=elevation_deg, status="ok", far_field_ok=True,
        **dict.fromkeys((
            "l_tot_m", "l_atm_eff_m", "a_geo_db", "a_scat_db", "a_sci_db", "a_tot_db",
            "transmittance", "mutual_information", "holevo", "skr_asymptotic_per_pulse",
            "snr_db", "beta_value", "beta_valid", "fer_value", "fer_raw", "privacy",
            "skr_bits_per_second",
        )),
    )
    total, l_atm, a_geo, a_scat, a_sci = _link_budget(setup, altitude_m, elevation_deg)
    row.update(l_tot_m=total, l_atm_eff_m=l_atm)
    if a_geo is None:
        row.update(far_field_ok=False, status="far_field_excluded")
        return row
    a_tot = a_geo + a_scat + a_sci
    t = 10.0 ** (-a_tot / 10.0)
    row.update(a_geo_db=a_geo, a_scat_db=a_scat, a_sci_db=a_sci, a_tot_db=a_tot,
               transmittance=t)

    homodyne = spec.detection.value == "homodyne"
    v_a = spec.modulation_variance
    if spec.kind == "qam":
        excess = setup.noise.channel_excess + setup.noise.detector_excess
        v_eff, term1, w = qam._setting_moments(
            spec.qam_side, v_a, spec.qam_distribution, excess
        )
        z_star = max(
            2.0 * math.sqrt(t) * term1 - math.sqrt(2.0 * t * excess * w), 0.0
        )
        i_ab, s_be = _qam_like_security(v_eff, t, excess, homodyne, z_star)
    else:
        if spec.kind == "gm":
            correlation = gaussian_correlation(v_a)
        else:
            correlation = correlation_z(PskConfig.from_modulation_variance(spec.psk_states, v_a))
        chi_tot, i_ab, s_be = _gm_like_security(v_a, t, setup.noise, homodyne, correlation)
        photons = abs(math.sqrt(v_a / 2.0)) ** 2
        row["snr_db"] = 10.0 * math.log10(t * photons / (photons + (1.0 - t) * chi_tot))

    if reconciliation.kind == "asymptotic":
        row.update(beta_value=reconciliation.beta_asymptotic, beta_valid=True)
    else:
        model, snr = reconciliation.model, row["snr_db"]
        value = model.c1 * math.exp(model.c2 * snr) + model.c3 * math.exp(model.c4 * snr)
        raw = 0.5 * (1.0 + model.m1 * math.atan(model.m2 * snr + model.m3))
        row.update(
            beta_value=value, beta_valid=math.isfinite(value) and 0.0 <= value <= 1.0,
            fer_value=min(max(raw, 0.0), 1.0), fer_raw=raw,
            privacy=privacy_penalty(finite_params),
        )
        if not row["beta_valid"]:
            row["status"] = "no_key_beta_invalid"
            return row

    skr = row["beta_value"] * i_ab - s_be
    row.update(mutual_information=i_ab, holevo=s_be, skr_asymptotic_per_pulse=skr)
    if reconciliation.kind == "finite":
        row["skr_bits_per_second"] = finite_params.repetition_rate_hz * (
            (1.0 - row["fer_value"]) * row["beta_value"] * i_ab - s_be - row["privacy"]
        )
    elif finite_params is not None:
        row["skr_bits_per_second"] = finite_params.repetition_rate_hz * skr
    return row


# --- measured pass profile ------------------------------------------------------------


def reference_profile(source):
    """(times, elevations) of a profile stream, read one ``csv`` row at a time.

    Errors are ``ProfileError`` with the package's messages: a malformed line
    first, then the first sample out of range or order, named by its line.
    """
    from satcvqkd.errors import ProfileError

    samples = []  # (line number, time, elevation)
    for line_no, row in enumerate(csv.reader(source), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ProfileError(f"line {line_no}: expected two columns, got {len(row)}")
        try:
            t = float(row[0])
            e = float(row[1])
        except ValueError:
            if line_no == 1:
                continue  # header
            raise ProfileError(f"line {line_no}: cannot parse {row[:2]!r} as numbers")
        samples.append((line_no, t, e))
    if not samples:
        raise ProfileError("profile stream contains no samples")
    previous = None
    for line_no, t, e in samples:
        if not 0.0 < e <= 90.0:
            raise ProfileError(f"line {line_no}: elevation {e} out of (0, 90]")
        if not math.isfinite(t):
            raise ProfileError(f"line {line_no}: time {t} not finite")
        if previous is not None and t <= previous:
            raise ProfileError(f"line {line_no}: time {t} not after {previous}")
        previous = t
    return [t for _, t, _ in samples], [e for _, _, e in samples]
