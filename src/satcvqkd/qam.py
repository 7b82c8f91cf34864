"""M-QAM security bound without the Gaussian-optimality assumption.

The correlation lower bound Z* requires moments of the modulation density
matrix tau in a truncated Fock space.  tau is eigendecomposed once per
constellation; everything else is assembled in its eigenbasis, where the
only inverse (tau^(-1/2) acting on the constellation states) is damped by
the overlap bound |<v_j|alpha_k>|^2 <= d_j / p_k and stays well conditioned.
Results are accepted only when a cutoff increase of 10 moves Z* by less
than 1e-9; otherwise the cutoff doubles.

A constellation unchanged by a rotation through 2 pi / s has <m|tau|n> = 0
unless m = n (mod s): s = 4 for a square grid (with real blocks, as the grid
is symmetric under conjugation too), 2 for +-alpha pairs, 1 otherwise.  On
sector r the turned state |i^j alpha> is i^(jr) |alpha>, so each sector block
is built exactly from one representative per rotation orbit and the orbit's
summed probability; the entries between sectors are never formed, only bounded.
Each photon-number sector is diagonalized on its own, and as a maps sector r to
sector r - 1 (mod s), the moments are sums of s block products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import ConvergenceError, CutoffTooSmall, NumericsError, \
    UnphysicalCovariance
from .gaussian import Detection, SecurityResult, _entropy, _sqrt_eigenvalue, skr_asymptotic
from .quantities import offending

# Eigenvalues of tau below this fraction of the largest one are treated as
# outside the support; smaller thresholds admit noise-dominated directions
# into the tau^(-1/2) sandwich without improving the moments.
_SUPPORT_RTOL = 1e-10
_NEGATIVE_EIGENVALUE_TOL = -1e-10
_TRACE_DEFICIT_TOL = 1e-8
_COHERENT_NORM_TOL = 1e-12
# tau counts as block diagonal over n mod s (and a block as real) when a bound
# on the Frobenius mass it would drop is below this fraction of its blocks' mass
_SECTOR_RTOL = 1e-13
# w^(jg) for the turn w = i^(4/s) through 2 pi / s, j = 0 ... s-1 turns, gaps g = 1 ... s-1
_GAP_PHASES = {
    s: np.array([[1j ** (4 // s * j * g) for g in range(1, s)] for j in range(s)])
    for s in (4, 2, 1)
}
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


def _coherent_columns(amplitudes: np.ndarray, cutoff: int) -> np.ndarray:
    """Truncated, renormalized Fock expansions of |alpha_k>, one column per amplitude."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    mod = np.abs(amplitudes)
    # log |<n|alpha>| from <n|alpha> = <n-1|alpha> * alpha / sqrt(n); a zero
    # amplitude gives log 0 = -inf above n = 0, so its column is exactly |0>
    steps = np.empty((cutoff + 1, mod.size))
    steps[0] = -0.5 * mod**2
    with np.errstate(divide="ignore"):
        steps[1:] = np.log(mod) - 0.5 * np.log(np.arange(1, cutoff + 1))[:, None]
    phasors = np.ones((cutoff + 1, mod.size), dtype=complex)
    phasors[1:] = np.divide(amplitudes, mod, out=np.ones_like(phasors[0]), where=mod > 0.0)
    vectors = np.exp(np.cumsum(steps, axis=0)) * np.cumprod(phasors, axis=0)
    norm_sq = np.sum(vectors.real**2 + vectors.imag**2, axis=0)
    worst = int(np.argmin(norm_sq))
    if norm_sq[worst] < 1.0 - _COHERENT_NORM_TOL:
        required = _minimum_cutoff(float(mod.max()) ** 2)
        raise CutoffTooSmall(
            f"cutoff {cutoff} keeps only {norm_sq[worst]:.15f} of "
            f"|alpha|^2={mod[worst]**2:.3f}; need at least {required}",
            required_cutoff=required,
        )
    return vectors / np.sqrt(norm_sq)


def coherent_state_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated, renormalized Fock expansion of a coherent state |alpha>."""
    return _coherent_columns(np.array([complex(alpha)]), cutoff)[:, 0]


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Annihilation operator in the number basis (sqrt(n) on the superdiagonal)."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    n = np.arange(1, cutoff + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


@dataclass(frozen=True)
class FockWorkspace:
    """Eigendecomposed modulation density matrix at one Fock cutoff.

    ``sectors[r]`` holds the eigenvalues (clamped, renormalized over all sectors,
    ascending) and eigenvectors of tau's block on the levels n = r (mod s).
    ``point_vectors`` holds the coherent-state columns of one representative per
    rotation orbit of the constellation and ``probabilities`` the orbit weights,
    the summed probabilities of each orbit's points.
    """

    cutoff: int
    sectors: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    point_vectors: np.ndarray | None = field(repr=False, default=None)
    probabilities: np.ndarray | None = None
    thermal_mean_photons: float | None = None

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues of tau, ascending."""
        return np.sort(np.concatenate([d for d, _ in self.sectors]))

    @property
    def eigenvectors(self) -> np.ndarray:
        """Eigenvectors of tau in the number basis, in the order of ``eigenvalues``."""
        count = len(self.sectors)
        vectors = np.zeros((self.cutoff + 1, self.cutoff + 1), dtype=complex)
        values = np.zeros(self.cutoff + 1)
        for r, (d, v) in enumerate(self.sectors):
            vectors[r::count, r::count], values[r::count] = v, d
        return vectors[:, np.argsort(values, kind="stable")]


def _rotation_orbits(
    amplitudes: np.ndarray, probabilities: np.ndarray, order: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Orbits of the amplitudes under the turn w = i^(4 / count), or None when w
    does not map the set exactly onto itself; ``order`` sorts the amplitudes.

    Returns the index of each orbit's representative (its smallest), the orbit
    weights (the summed probabilities of its points) and, for each gap g = 1 ...
    count - 1, the bound sum over orbits of |sum_j p_j w^(jg)| on the Frobenius
    mass of tau's entries with m - n = g (mod count), p_j being the probability
    of the representative turned j times.  The vacuum lies in sector 0 and adds
    nothing to the bound.
    """
    size = amplitudes.size
    turned = amplitudes * 1j ** (4 // count)  # exact: 1j and -1 only move and flip signs
    ranked = amplitudes[order]
    at = np.minimum(np.searchsorted(ranked, turned), size - 1)
    if np.any(ranked[at] != turned):
        return None
    # chain[j, k]: the first point equal to point k turned j + 1 times, so that
    # copies of a point share one chain and one orbit
    chain = np.empty((count, size), dtype=np.intp)
    chain[0] = order[at]
    for j in range(1, count):
        chain[j] = chain[0][chain[j - 1]]
    steps = chain.argmin(axis=0)
    representative = chain[steps, np.arange(size)]
    reps = np.flatnonzero(representative == np.arange(size))
    # probability by orbit and by the turns j that take its representative to the point
    rotations = np.bincount(representative * count + (-1 - steps) % count, probabilities,
                            count * size).reshape(size, count)[reps]
    bounds = np.abs(rotations[amplitudes[reps] != 0.0] @ _GAP_PHASES[count]).sum(axis=0)
    return reps, rotations.sum(axis=1), bounds


def _sector_eigensystems(cutoff: int, blocks: list, off_sector: float = 0.0) -> tuple | None:
    """Eigensystems of tau's sector blocks, or None when ``off_sector``, a bound on
    the Frobenius mass of tau outside the blocks, exceeds _SECTOR_RTOL of theirs."""
    trace = math.fsum(float(np.trace(b).real) for b in blocks)
    if trace < 1.0 - _TRACE_DEFICIT_TOL:
        raise CutoffTooSmall(
            f"cutoff {cutoff} loses trace {1.0 - trace:.3e} of the modulation state"
        )
    limit = _SECTOR_RTOL**2 * sum(float(np.sum(np.abs(b) ** 2)) for b in blocks)
    if off_sector**2 > limit:
        return None
    systems = [np.linalg.eigh(b.real if np.sum(b.imag**2) <= limit else b) for b in blocks]
    values = np.concatenate([d for d, _ in systems])
    if values.min() < _NEGATIVE_EIGENVALUE_TOL:
        raise NumericsError(
            f"modulation density matrix has eigenvalue {values.min():.3e} < 0"
        )
    total = np.clip(values, 0.0, None).sum()
    return tuple((np.clip(d, 0.0, None) / total, v) for d, v in systems)


def default_cutoff(constellation: Constellation) -> int:
    """Initial Fock cutoff, generous against coherent-state Poisson tails."""
    peak = max(abs(a) ** 2 for a in constellation.amplitudes)
    return math.ceil(10.0 + 8.0 * peak)


def modulation_density_matrix(
    constellation: Constellation, cutoff: int | None = None
) -> FockWorkspace:
    """Assemble and diagonalize the sector blocks of tau = sum_k p_k |alpha_k><alpha_k|
    for the most sectors (4, 2 or 1) the constellation allows."""
    if cutoff is None:
        cutoff = default_cutoff(constellation)
    amplitudes = np.asarray(constellation.amplitudes, dtype=complex)
    probabilities = np.asarray(constellation.probabilities)
    order = np.argsort(amplitudes)
    for count in (4, 2, 1):  # at s = 1 every point is its own orbit and the bound is 0
        orbits = _rotation_orbits(amplitudes, probabilities, order, count)
        if orbits is None:
            continue
        reps, weights, bounds = orbits
        vectors = _coherent_columns(amplitudes[reps], cutoff)
        blocks = [(v * weights) @ v.conj().T for v in (vectors[r::count] for r in range(count))]
        sectors = _sector_eigensystems(cutoff, blocks, float(np.linalg.norm(bounds)))
        if sectors is not None:
            break
    return FockWorkspace(cutoff, sectors, vectors, weights)


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
    sectors = _sector_eigensystems(cutoff, [np.diag(weights[r::4]) for r in range(4)])
    return FockWorkspace(cutoff, sectors, thermal_mean_photons=mean_photons)


def _moments(workspace: FockWorkspace) -> tuple[float, float]:
    """Correlation moment Tr(tau^1/2 a tau^1/2 a^dag) and the variance term w.

    Both are transmittance- and noise-independent properties of the
    modulation state, so one evaluation serves a whole sweep.
    """
    count = len(workspace.sectors)
    annihilation = annihilation_operator(workspace.cutoff)
    floor = max(d.max(initial=0.0) for d, _ in workspace.sectors) * _SUPPORT_RTOL
    support = [(np.sqrt(d[d > floor]), v[:, d > floor]) for d, v in workspace.sectors]

    # <v_i|a|v_j> from the support of sector r to that of sector r - 1; a
    # negative index wraps, so support[r - 1] is sector r - 1 (mod s)
    lowering = [
        support[r - 1][1].conj().T @ annihilation[(r - 1) % count::count][:, r::count] @ vs
        for r, (_, vs) in enumerate(support)
    ]
    term1 = sum(
        float(support[r - 1][0] @ (np.abs(a) ** 2) @ support[r][0])
        for r, a in enumerate(lowering)
    )
    if workspace.point_vectors is None:
        # Thermal tau is the continuous-Gaussian ensemble: each coherent
        # state is an eigenstate of a_tau up to scale, so w vanishes.
        return term1, 0.0

    coeff = [  # <v_j|alpha_k>
        vs.conj().T @ workspace.point_vectors[r::count] for r, (_, vs) in enumerate(support)
    ]
    second_moment = first_moment = 0.0
    for r, a in enumerate(lowering):
        # a_tau |alpha_k> in the support basis of sector r - 1; the
        # tau^(-1/2) factor is damped by |<v_j|alpha_k>|^2 <= d_j / p_k
        mapped = support[r - 1][0][:, None] * (a @ (coeff[r] / support[r][0][:, None]))
        second_moment = second_moment + np.sum(np.abs(mapped) ** 2, axis=0)
        first_moment = first_moment + np.einsum("jk,jk->k", coeff[r - 1].conj(), mapped)
    per_point = second_moment - np.abs(first_moment) ** 2
    w = float(np.dot(workspace.probabilities, per_point).real)
    if w < _NEGATIVE_EIGENVALUE_TOL:
        raise NumericsError(f"ensemble variance term w = {w:.3e} < 0")
    return term1, max(w, 0.0)


def _z_star(term1: float, w: float, transmittance, excess_noise: float):
    return (
        2.0 * np.sqrt(transmittance) * term1
        - np.sqrt(2.0 * transmittance * excess_noise * w)
    )


def _converged_moments(
    build: Callable[[int], FockWorkspace], cutoff: int, excess_noise: float,
    workspace: FockWorkspace | None = None,
) -> tuple[float, float]:
    """(term1, w) at cutoff + 10 for the first cutoff, doubling from ``cutoff``, at
    which that step of 10 moves Z* by less than 1e-9.  The gate runs at T = 1 and
    holds for every T, since Z*(T) = sqrt(T) Z*(1).  ``workspace``, if given, is
    the one ``build(cutoff)`` would return."""
    while cutoff <= _MAX_CUTOFF:
        coarse = _moments(workspace if workspace is not None else build(cutoff))
        workspace = None
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

    The workspace is the coarse level of the same convergence gate every
    QAM key rate passes; higher cutoffs are built from the constellation.
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
    moments = _converged_moments(build, workspace.cutoff, excess_noise, workspace)
    return _z_star(*moments, transmittance, excess_noise)


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
    transmittance,
    excess_noise: float,
    kind: Detection,
):
    """Alice-Bob mutual information of the arbitrary-modulation bound."""
    if modulation_variance < 0.0 or excess_noise < 0.0:
        raise ValueError("modulation variance and excess noise must be >= 0")
    t = np.asarray(transmittance)
    if np.any(~((0.0 <= t) & (t <= 1.0))):
        raise ValueError("transmittance must be in [0, 1]")
    half = 0.5 * np.log2(
        1.0
        + transmittance * modulation_variance / (2.0 + transmittance * excess_noise)
    )
    return half if kind is Detection.HOMODYNE else 2.0 * half


def holevo_qam(
    modulation_variance: float,
    transmittance,
    excess_noise: float,
    z_star,
    kind: Detection,
):
    """Holevo bound and the three symplectic eigenvalues of the QAM pipeline."""
    if np.any(z_star < 0.0):
        raise ValueError("correlation bound must be >= 0")
    x = modulation_variance + 1.0
    y = 1.0 + transmittance * modulation_variance + transmittance * excess_noise
    z_sq = z_star**2

    delta = x**2 + y**2 - 2.0 * z_sq
    det_root = abs(x * y - z_sq)  # product of the two symplectic eigenvalues
    lam1, lam2 = _sqrt_eigenvalue(delta, det_root, "QAM covariance", -_NEGATIVE_EIGENVALUE_TOL)

    if kind is Detection.HOMODYNE:
        lam3_sq = x * (x - z_sq / y)
        bad = lam3_sq < 0.0
        if np.any(bad):
            raise UnphysicalCovariance(
                f"negative conditional eigenvalue square {offending(lam3_sq, bad)}")
        lam3 = np.sqrt(lam3_sq)
    else:
        lam3 = x - z_sq / (2.0 + transmittance * modulation_variance
                           + transmittance * excess_noise)

    bad = lam3 < 1.0 - 1e-9
    if np.any(bad):
        raise UnphysicalCovariance(
            f"symplectic eigenvalue {offending(lam3, bad)} < 1 in QAM pipeline "
            f"(V={modulation_variance}, T={offending(transmittance, bad)}, "
            f"Z*={offending(z_star, bad)})"
        )
    return _entropy(lam1) + _entropy(lam2) - _entropy(lam3), (lam1, lam2, lam3)


def qam_security(
    side: int,
    modulation_variance: float,
    distribution: QamDistribution,
    transmittance,
    excess_noise: float,
    kind: Detection,
    reconciliation_efficiency,
) -> SecurityResult:
    """Asymptotic M-QAM key rate (M = side^2) at the given link transmittance(s).

    The grid extent follows alpha = sqrt(V_A/2); the security formulas use
    the realized ensemble variance, which equals V_A exactly for binomial
    probabilities and tracks nu for the discrete Gaussian.  A negative
    correlation bound is floored at zero (it carries no correlation
    information and only certifies the absence of key).
    """
    v_eff, term1, w = _setting_moments(side, modulation_variance, distribution, excess_noise)
    z_star = np.maximum(_z_star(term1, w, transmittance, excess_noise), 0.0)
    i_ab = mutual_information_qam(v_eff, transmittance, excess_noise, kind)
    s_be, _ = holevo_qam(v_eff, transmittance, excess_noise, z_star, kind)
    return SecurityResult(
        mutual_information=i_ab,
        holevo=s_be,
        skr_asymptotic=skr_asymptotic(reconciliation_efficiency, i_ab, s_be),
    )

