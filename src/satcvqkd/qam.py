"""M-QAM security bound without the Gaussian-optimality assumption.

The correlation lower bound Z* requires moments of the modulation density
matrix tau in a truncated Fock space.  tau is eigendecomposed once per
constellation; everything else is assembled in its eigenbasis, where the
only inverse (tau^(-1/2) acting on the constellation states) is damped by
the overlap bound |<v_j|alpha_k>|^2 <= d_j / p_k and stays well conditioned.
Results are accepted only when a cutoff increase of 10 moves Z* by less
than 1e-9; otherwise the cutoff doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError, CutoffTooSmall, NumericsError, \
    UnphysicalCovariance
from .gaussian import Detection, SecurityResult, g_function, skr_asymptotic

# Eigenvalues of tau below this fraction of the largest one are treated as
# outside the support; smaller thresholds admit noise-dominated directions
# into the tau^(-1/2) sandwich without improving the moments.
_SUPPORT_RTOL = 1e-10
_NEGATIVE_EIGENVALUE_TOL = -1e-10
_TRACE_DEFICIT_TOL = 1e-8
_COHERENT_NORM_TOL = 1e-12
_ZSTAR_CONVERGENCE_TOL = 1e-9
_CUTOFF_STEP = 10
_MAX_CUTOFF = 4096


@dataclass(frozen=True)
class Binomial:
    """Binomial point probabilities (Pascal weights per quadrature index)."""


@dataclass(frozen=True)
class DiscreteGaussian:
    """Probabilities proportional to exp(-nu * |amplitude|^2); nu is free."""

    nu: float

    def __post_init__(self) -> None:
        if self.nu <= 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")


QamDistribution = Union[Binomial, DiscreteGaussian]


@dataclass(frozen=True)
class Constellation:
    """A finite set of coherent amplitudes with probabilities."""

    amplitudes: tuple[complex, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.amplitudes) != len(self.probabilities) or not self.amplitudes:
            raise ValueError("amplitudes and probabilities must be non-empty and equal length")
        total = math.fsum(self.probabilities)
        if any(p < 0.0 for p in self.probabilities):
            raise ValueError("probabilities must be >= 0")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        if self.mean_photon_number <= 0.0:
            raise ValueError("constellation must carry a positive mean photon number")

    @property
    def mean_photon_number(self) -> float:
        return math.fsum(
            p * abs(a) ** 2 for a, p in zip(self.amplitudes, self.probabilities)
        )

    @property
    def modulation_variance(self) -> float:
        """Quadrature modulation variance of the ensemble (2 x mean photons)."""
        return 2.0 * self.mean_photon_number


def build_constellation(
    side: int, alpha: float, distribution: QamDistribution
) -> Constellation:
    """Square m x m grid of equidistant coherent states (M = side^2 points).

    ``alpha`` sets the grid extent; with binomial probabilities the ensemble
    mean photon number is exactly alpha^2.
    """
    if side < 2:
        raise ValueError(f"grid side must be >= 2, got {side}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    spacing = alpha * math.sqrt(2.0) / math.sqrt(side - 1.0)
    coords = [spacing * (k - (side - 1) / 2.0) for k in range(side)]
    grid = [(k, l) for k in range(side) for l in range(side)]
    amplitudes = tuple(complex(coords[k], coords[l]) for k, l in grid)
    if isinstance(distribution, Binomial):
        # log C(side-1, k), normalized by the closed-form 2^(2(side-1)) total
        log_binom = [
            math.lgamma(side) - math.lgamma(k + 1) - math.lgamma(side - k)
            for k in range(side)
        ]
        log_norm = 2.0 * (side - 1) * math.log(2.0)
        log_weights = [log_binom[k] + log_binom[l] - log_norm for k, l in grid]
    else:
        log_weights = [-distribution.nu * (coords[k] ** 2 + coords[l] ** 2) for k, l in grid]
    weights = [math.exp(x) for x in log_weights]
    total = math.fsum(weights)
    probabilities = tuple(w / total for w in weights)
    return Constellation(amplitudes=amplitudes, probabilities=probabilities)


def _minimum_cutoff(mean_photons: float) -> int:
    # Poisson tails: smallest n with 1 - CDF(n; mu) below the norm tolerance,
    # found by direct summation in log space.
    mu = max(mean_photons, 1e-12)
    log_term = -mu
    cdf = math.exp(log_term)
    n = 0
    while 1.0 - cdf > _COHERENT_NORM_TOL and n < _MAX_CUTOFF:
        n += 1
        log_term += math.log(mu) - math.log(n)
        cdf += math.exp(log_term)
    return n


def coherent_state_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated, renormalized Fock expansion of a coherent state |alpha>."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    n = np.arange(cutoff + 1)
    mod = abs(alpha)
    if mod == 0.0:
        vec = np.zeros(cutoff + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    # log |<n|alpha>| from <n|alpha> = <n-1|alpha> * alpha / sqrt(n)
    steps = np.empty(cutoff + 1)
    steps[0] = -0.5 * mod**2
    steps[1:] = math.log(mod) - 0.5 * np.log(n[1:])
    log_mag = np.cumsum(steps)
    phase = np.exp(1j * n * np.angle(alpha))
    vec = np.exp(log_mag) * phase
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq < 1.0 - _COHERENT_NORM_TOL:
        raise CutoffTooSmall(
            f"cutoff {cutoff} keeps only {norm_sq:.15f} of |alpha|^2={mod**2:.3f}; "
            f"need at least {_minimum_cutoff(mod**2)}",
            required_cutoff=_minimum_cutoff(mod**2),
        )
    return vec / math.sqrt(norm_sq)


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Annihilation operator in the number basis (sqrt(n) on the superdiagonal)."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    n = np.arange(1, cutoff + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


@dataclass(frozen=True)
class FockWorkspace:
    """Eigendecomposed modulation density matrix at one Fock cutoff."""

    cutoff: int
    annihilation: np.ndarray
    eigenvalues: np.ndarray  # clamped, renormalized, ascending
    eigenvectors: np.ndarray
    point_vectors: np.ndarray | None = field(repr=False, default=None)
    probabilities: np.ndarray | None = None
    thermal_mean_photons: float | None = None


def _finalize_workspace(
    cutoff: int,
    tau_raw: np.ndarray,
    point_vectors: np.ndarray | None,
    probabilities: np.ndarray | None,
    thermal_mean_photons: float | None,
) -> FockWorkspace:
    trace = float(np.trace(tau_raw).real)
    if trace < 1.0 - _TRACE_DEFICIT_TOL:
        raise CutoffTooSmall(
            f"cutoff {cutoff} loses trace {1.0 - trace:.3e} of the modulation state"
        )
    eigenvalues, eigenvectors = np.linalg.eigh(tau_raw)
    if eigenvalues[0] < _NEGATIVE_EIGENVALUE_TOL:
        raise NumericsError(
            f"modulation density matrix has eigenvalue {eigenvalues[0]:.3e} < 0"
        )
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    eigenvalues = eigenvalues / eigenvalues.sum()
    return FockWorkspace(
        cutoff=cutoff,
        annihilation=annihilation_operator(cutoff),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        point_vectors=point_vectors,
        probabilities=probabilities,
        thermal_mean_photons=thermal_mean_photons,
    )


def default_cutoff(constellation: Constellation) -> int:
    """Initial Fock cutoff, generous against coherent-state Poisson tails."""
    peak = max(abs(a) ** 2 for a in constellation.amplitudes)
    return math.ceil(10.0 + 8.0 * peak)


def modulation_density_matrix(
    constellation: Constellation, cutoff: int | None = None
) -> FockWorkspace:
    """Assemble and diagonalize tau = sum_k p_k |alpha_k><alpha_k|."""
    if cutoff is None:
        cutoff = default_cutoff(constellation)
    vectors = np.column_stack(
        [coherent_state_vector(a, cutoff) for a in constellation.amplitudes]
    )
    probs = np.asarray(constellation.probabilities)
    tau_raw = (vectors * probs) @ vectors.conj().T
    return _finalize_workspace(cutoff, tau_raw, vectors, probs, None)


def thermal_workspace(mean_photons: float, cutoff: int | None = None) -> FockWorkspace:
    """Diagonal thermal modulation state (the Gaussian-ensemble limit)."""
    if mean_photons <= 0.0:
        raise ValueError("mean photon number must be positive")
    if cutoff is None:
        # trace deficit (nbar/(1+nbar))^(cutoff+1) kept below 1e-12
        ratio = mean_photons / (1.0 + mean_photons)
        cutoff = max(20, math.ceil(-12.0 * math.log(10.0) / math.log(ratio)))
    n = np.arange(cutoff + 1)
    weights = np.exp(
        n * math.log(mean_photons / (1.0 + mean_photons))
        - math.log(1.0 + mean_photons)
    )
    tau_raw = np.diag(weights).astype(complex)
    return _finalize_workspace(cutoff, tau_raw, None, None, mean_photons)


def _moments(workspace: FockWorkspace) -> tuple[float, float]:
    """Correlation moment Tr(tau^1/2 a tau^1/2 a^dag) and the variance term w.

    Both are transmittance- and noise-independent properties of the
    modulation state, so one evaluation serves a whole sweep.
    """
    d = workspace.eigenvalues
    support = d > d[-1] * _SUPPORT_RTOL
    ds = d[support]
    vs = workspace.eigenvectors[:, support]
    sq = np.sqrt(ds)

    a_tilde = vs.conj().T @ workspace.annihilation @ vs
    term1 = float(np.einsum("i,j,ij->", sq, sq, np.abs(a_tilde) ** 2).real)

    if workspace.point_vectors is None:
        # Thermal tau is the continuous-Gaussian ensemble: each coherent
        # state is an eigenstate of a_tau up to scale, so w vanishes.
        return term1, 0.0

    coeff = vs.conj().T @ workspace.point_vectors  # <v_j|alpha_k>
    inv_sandwich = coeff / sq[:, None]  # tau^(-1/2)|alpha_k> in the support basis
    lowered = workspace.annihilation @ (vs @ inv_sandwich)
    mapped = vs @ (sq[:, None] * (vs.conj().T @ lowered))  # a_tau |alpha_k>

    second_moment = np.sum(np.abs(mapped) ** 2, axis=0)
    first_moment = np.einsum("nk,nk->k", workspace.point_vectors.conj(), mapped)
    per_point = second_moment - np.abs(first_moment) ** 2
    w = float(np.dot(workspace.probabilities, per_point).real)
    if w < _NEGATIVE_EIGENVALUE_TOL:
        raise NumericsError(f"ensemble variance term w = {w:.3e} < 0")
    return term1, max(w, 0.0)


def _z_star(term1: float, w: float, transmittance: float, excess_noise: float) -> float:
    return (
        2.0 * math.sqrt(transmittance) * term1
        - math.sqrt(2.0 * transmittance * excess_noise * w)
    )


def _converged_moments(
    build: Callable[[int], FockWorkspace], cutoff: int, excess_noise: float
) -> tuple[float, float]:
    """(term1, w) at cutoff + 10 for the first cutoff, doubling from ``cutoff``, at
    which that step of 10 moves Z* by less than 1e-9.  The gate runs at T = 1 and
    holds for every T, since Z*(T) = sqrt(T) Z*(1)."""
    while cutoff <= _MAX_CUTOFF:
        coarse = _moments(build(cutoff))
        refined = _moments(build(cutoff + _CUTOFF_STEP))
        moved = abs(_z_star(*refined, 1.0, excess_noise) - _z_star(*coarse, 1.0, excess_noise))
        if moved < _ZSTAR_CONVERGENCE_TOL:
            return refined
        cutoff *= 2
    raise ConvergenceError(f"Z* did not stabilize below cutoff {_MAX_CUTOFF}")


def correlation_lower_bound(
    workspace: FockWorkspace,
    constellation: Constellation | None,
    transmittance: float,
    excess_noise: float,
) -> float:
    """Lower bound Z* on the Alice-Bob correlation for arbitrary modulation.

    The moments are taken from the workspace's cutoff upwards, through the
    same convergence gate as every QAM key rate.
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {transmittance}")
    if excess_noise < 0.0:
        raise ValueError("excess noise must be >= 0")
    if workspace.point_vectors is None:
        build = partial(thermal_workspace, workspace.thermal_mean_photons)
    elif constellation is None:
        raise ValueError("constellation required to rebuild the workspace")
    else:
        build = partial(modulation_density_matrix, constellation)
    moments = _converged_moments(build, workspace.cutoff, excess_noise)
    return _z_star(*moments, transmittance, excess_noise)


# QAM settings whose converged moments are kept; a compare listing more QAM
# settings than this would rebuild the Fock space at every grid point.
_MOMENTS_CACHE_SIZE = 1024


@lru_cache(maxsize=_MOMENTS_CACHE_SIZE)
def _setting_moments(
    side: int, modulation_variance: float, distribution: QamDistribution, excess_noise: float
) -> tuple[float, float, float]:
    """Realized ensemble variance, term1 and w of one QAM setting; none depends on T."""
    constellation = build_constellation(
        side, math.sqrt(modulation_variance / 2.0), distribution
    )
    build = partial(modulation_density_matrix, constellation)
    term1, w = _converged_moments(build, default_cutoff(constellation), excess_noise)
    return constellation.modulation_variance, term1, w


def mutual_information_qam(
    modulation_variance: float,
    transmittance: float,
    excess_noise: float,
    kind: Detection,
) -> float:
    """Alice-Bob mutual information of the arbitrary-modulation bound."""
    if modulation_variance < 0.0 or excess_noise < 0.0:
        raise ValueError("modulation variance and excess noise must be >= 0")
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    half = 0.5 * math.log2(
        1.0
        + transmittance * modulation_variance / (2.0 + transmittance * excess_noise)
    )
    return half if kind is Detection.HOMODYNE else 2.0 * half


def holevo_qam(
    modulation_variance: float,
    transmittance: float,
    excess_noise: float,
    z_star: float,
    kind: Detection,
) -> tuple[float, tuple[float, float, float]]:
    """Holevo bound and the three symplectic eigenvalues of the QAM pipeline."""
    if z_star < 0.0:
        raise ValueError("correlation bound must be >= 0")
    x = modulation_variance + 1.0
    y = 1.0 + transmittance * modulation_variance + transmittance * excess_noise
    z_sq = z_star**2

    delta = x**2 + y**2 - 2.0 * z_sq
    det_root = abs(x * y - z_sq)  # product of the two symplectic eigenvalues
    if delta <= 0.0:
        raise UnphysicalCovariance(f"non-positive eigenvalue sum {delta} in QAM covariance")
    disc = delta**2 - 4.0 * det_root**2
    if disc < _NEGATIVE_EIGENVALUE_TOL:
        raise UnphysicalCovariance(f"negative discriminant {disc} in QAM covariance")
    if disc < 1e-13 * delta**2:
        # discriminant below its rounding floor: the pair is degenerate
        lam1 = lam2 = math.sqrt(delta / 2.0)
    else:
        lam1 = math.sqrt((delta + math.sqrt(disc)) / 2.0)
        lam2 = det_root / lam1

    if kind is Detection.HOMODYNE:
        lam3_sq = x * (x - z_sq / y)
        if lam3_sq < 0.0:
            raise UnphysicalCovariance(f"negative conditional eigenvalue square {lam3_sq}")
        lam3 = math.sqrt(lam3_sq)
    else:
        lam3 = x - z_sq / (2.0 + transmittance * modulation_variance
                           + transmittance * excess_noise)

    for lam in (lam1, lam2, lam3):
        if lam < 1.0 - 1e-9:
            raise UnphysicalCovariance(
                f"symplectic eigenvalue {lam} < 1 in QAM pipeline "
                f"(V={modulation_variance}, T={transmittance}, Z*={z_star})"
            )
    s_be = (
        g_function(max(0.0, (lam1 - 1.0) / 2.0))
        + g_function(max(0.0, (lam2 - 1.0) / 2.0))
        - g_function(max(0.0, (lam3 - 1.0) / 2.0))
    )
    return s_be, (lam1, lam2, lam3)


def qam_security(
    side: int,
    modulation_variance: float,
    distribution: QamDistribution,
    transmittance: float,
    excess_noise: float,
    kind: Detection,
    reconciliation_efficiency: float,
) -> SecurityResult:
    """Asymptotic M-QAM key rate (M = side^2) at one link transmittance.

    The grid extent follows alpha = sqrt(V_A/2); the security formulas use
    the realized ensemble variance, which equals V_A exactly for binomial
    probabilities and tracks nu for the discrete Gaussian.  A negative
    correlation bound is floored at zero (it carries no correlation
    information and only certifies the absence of key).
    """
    v_eff, term1, w = _setting_moments(side, modulation_variance, distribution, excess_noise)
    z_star = max(_z_star(term1, w, transmittance, excess_noise), 0.0)
    i_ab = mutual_information_qam(v_eff, transmittance, excess_noise, kind)
    s_be, lambdas = holevo_qam(v_eff, transmittance, excess_noise, z_star, kind)
    return SecurityResult(
        mutual_information=i_ab,
        holevo=s_be,
        skr_asymptotic=skr_asymptotic(reconciliation_efficiency, i_ab, s_be),
        symplectic_eigenvalues=lambdas,
    )


@dataclass(frozen=True)
class NuOptimum:
    """Result of the discrete-Gaussian shape optimization."""

    nu: float
    skr: float
    flat: bool  # objective indistinguishable from constant over the bracket


def optimize_nu(
    side: int,
    modulation_variance: float,
    transmittance: float,
    excess_noise: float,
    kind: Detection,
    reconciliation_efficiency: float,
    bounds: tuple[float, float] = (1e-4, 10.0),
) -> NuOptimum:
    """Golden-section maximization of the key rate over the free parameter nu."""
    lo, hi = bounds
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid nu bounds {bounds}")

    def objective(nu: float) -> float:
        return qam_security(
            side,
            modulation_variance,
            DiscreteGaussian(nu=nu),
            transmittance,
            excess_noise,
            kind,
            reconciliation_efficiency,
        ).skr_asymptotic

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    seen = [fc, fd]
    while (b - a) > 1e-4 * max(1.0, abs(a + b) / 2.0):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
            seen.append(fc)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
            seen.append(fd)
    if max(seen) - min(seen) < 1e-12:
        mid = (lo + hi) / 2.0
        return NuOptimum(nu=mid, skr=objective(mid), flat=True)
    nu = (a + b) / 2.0
    return NuOptimum(nu=nu, skr=objective(nu), flat=False)
