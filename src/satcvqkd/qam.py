"""M-QAM security bound without the Gaussian-optimality assumption.

The correlation lower bound Z* requires moments of the modulation density
matrix tau in a truncated Fock space.  tau is eigendecomposed once per
cutoff; everything else is assembled in its eigenbasis, where the
only inverse (tau^(-1/2) acting on the constellation states) is damped by
the overlap bound |<v_j|alpha_k>|^2 <= d_j / p_k and stays well conditioned.
Results are accepted only when a cutoff increase of 10 moves Z* by less
than 1e-9; otherwise the cutoff doubles.  ``correlation_lower_bound`` is the
gate's one entry: it starts at a workspace's cutoff and rebuilds from its source.
The two levels of a gate round, c and c + 10, share one orbit search and one
unnormalized coherent-state expansion up to c + 10 (``_GateRound``); the
coarse level's columns are its first c + 1 rows, renormalized.  A round
belongs to a grid of amplitudes, so the distributions on one grid (one side
and V_A), evaluated as a group, share its orbit map, its expansion and its
normalized columns at each level.  Each distribution forms its own orbit
weights and sector-mass bound from the shared orbit map, and each level makes
its own sector choice, its own cutoff checks, its own eigensystems and
moments; each distribution runs its own gate, and a distribution whose gate
needs a later round starts that round alone.

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

import functools
import math
from typing import NamedTuple, Union

import numpy as np

from .errors import ConvergenceError, CutoffTooSmall, NumericsError
from .gaussian import Detection, NoiseBudget, SecurityResult, channel_noise, holevo_bound, \
    skr_asymptotic
from .quantities import check_transmittance, validating

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


class Binomial(NamedTuple):
    """Binomial point probabilities (Pascal weights per quadrature index)."""


@validating
class DiscreteGaussian(NamedTuple):
    """Probabilities proportional to exp(-nu * |amplitude|^2); nu is free."""

    nu: float

    def _check(self) -> None:
        if self.nu <= 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")


QamDistribution = Union[Binomial, DiscreteGaussian]


@validating
class Constellation(NamedTuple):
    """A finite set of coherent amplitudes with probabilities."""

    amplitudes: tuple[complex, ...]
    probabilities: tuple[float, ...]

    def _check(self) -> None:
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


def _grid_coordinates(side: int, alpha: float) -> list[float]:
    """Quadrature values of the side x side grid of extent ``alpha``, ascending."""
    spacing = alpha * math.sqrt(2.0) / math.sqrt(side - 1.0)
    return [spacing * (k - (side - 1) / 2.0) for k in range(side)]


def start_cutoff(side: int, modulation_variance: float) -> int:
    """``default_cutoff`` of the side x side grid at V_A, without building it: its
    corners carry the peak |alpha|^2.  A cutoff over ``_MAX_CUTOFF``, where the
    gate gives up (inf when it overflows a float), is refused."""
    corner = _grid_coordinates(side, math.sqrt(modulation_variance / 2.0))[-1]
    try:
        cutoff = math.ceil(10.0 + 8.0 * abs(complex(corner, corner)) ** 2)
    except OverflowError:
        cutoff = math.inf
    if cutoff > _MAX_CUTOFF:
        raise ValueError(f"{side * side}-QAM at V_A = {modulation_variance:g} needs a start "
                         f"cutoff of {cutoff:.0f}, over the cap of {_MAX_CUTOFF}")
    return cutoff


# Resolve builds each QAM protocol's constellation and its run asks again; the
# bound keeps memory fixed, and an evicted entry is only built a second time.
@functools.lru_cache(maxsize=64, typed=True)
def build_constellation(
    side: int, alpha: float, distribution: QamDistribution
) -> Constellation:
    """Square m x m grid of equidistant coherent states (M = side^2 points).

    ``alpha`` sets the grid extent; with binomial probabilities the ensemble
    mean photon number is exactly alpha^2.  The result is memoized: a
    ``Constellation`` is immutable.
    """
    if side < 2:
        raise ValueError(f"grid side must be >= 2, got {side}")
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    coords = _grid_coordinates(side, alpha)
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
    if total == 0.0:
        raise ValueError(f"every point weight of {side * side}-QAM at {distribution} "
                         "underflowed to zero")
    probabilities = tuple(w / total for w in weights)
    return Constellation(amplitudes=amplitudes, probabilities=probabilities)


def _coherent_expansion(amplitudes: np.ndarray, cutoff: int) -> np.ndarray:
    """Fock expansions <n|alpha_k>, n = 0 ... cutoff, one column per amplitude."""
    mod = np.abs(amplitudes)
    # log |<n|alpha>| from <n|alpha> = <n-1|alpha> * alpha / sqrt(n); a zero
    # amplitude gives log 0 = -inf above n = 0, so its column is exactly |0>
    steps = np.empty((cutoff + 1, mod.size))
    steps[0] = -0.5 * mod**2
    with np.errstate(divide="ignore"):
        steps[1:] = np.log(mod) - 0.5 * np.log(np.arange(1, cutoff + 1))[:, None]
    phasors = np.ones((cutoff + 1, mod.size), dtype=complex)
    phasors[1:] = np.divide(amplitudes, mod, out=np.ones_like(phasors[0]), where=mod > 0.0)
    return np.exp(np.cumsum(steps, axis=0)) * np.cumprod(phasors, axis=0)


def _coherent_columns(
    amplitudes: np.ndarray, cutoff: int, expansion: np.ndarray | None = None
) -> np.ndarray:
    """Truncated, renormalized Fock expansions of |alpha_k>, one column per amplitude:
    the first cutoff + 1 rows of ``expansion``, expanded here when None.  As
    ``cumsum`` and ``cumprod`` build each row from the ones above it, the rows are
    the same however far the expansion reaches."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if expansion is None:
        expansion = _coherent_expansion(amplitudes, cutoff)
    vectors = expansion[:cutoff + 1]
    norm_sq = np.sum(vectors.real**2 + vectors.imag**2, axis=0)
    worst = int(np.argmin(norm_sq))
    if norm_sq[worst] < 1.0 - _COHERENT_NORM_TOL:
        raise CutoffTooSmall(
            f"cutoff {cutoff} keeps only {norm_sq[worst]:.15f} of "
            f"|alpha|^2={abs(amplitudes[worst])**2:.3f}"
        )
    return vectors / np.sqrt(norm_sq)


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Annihilation operator in the number basis (sqrt(n) on the superdiagonal)."""
    a = np.zeros((cutoff + 1, cutoff + 1))
    n = np.arange(1, cutoff + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


class FockWorkspace(NamedTuple):
    """Eigendecomposed modulation density matrix at one Fock cutoff.

    ``source`` is what it was built from, a ``Constellation`` or a thermal mean
    photon number, and ``rebuilt`` builds it at another cutoff.  ``sectors[r]``
    holds the eigenvalues (clamped, renormalized over all sectors, ascending) and
    eigenvectors of tau's block on the levels n = r (mod s).  ``point_vectors``
    holds the coherent-state columns of one representative per rotation orbit of
    a constellation and ``probabilities`` the orbit weights, the summed
    probabilities of each orbit's points.  ``gate_round`` is the gate round a
    constellation's workspace was built in.
    """

    source: Constellation | float
    cutoff: int
    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]
    point_vectors: np.ndarray | None = None
    probabilities: np.ndarray | None = None
    gate_round: _GateRound | None = None

    def __repr__(self) -> str:
        return f"FockWorkspace(cutoff={self.cutoff}, sectors={len(self.sectors)})"

    def rebuilt(self, cutoff: int) -> FockWorkspace:
        """The same modulation state at ``cutoff``, in this workspace's gate round
        when its expansion reaches that cutoff."""
        if isinstance(self.source, Constellation):
            return modulation_density_matrix(self.source, cutoff, self.gate_round)
        return thermal_workspace(self.source, cutoff)

    @property
    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues of tau, ascending."""
        return np.sort(np.concatenate([d for d, _ in self.sectors]))


def _rotation_orbits(
    amplitudes: np.ndarray, order: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Orbits of the amplitudes under the turn w = i^(4 / count), or None when w
    does not map the set exactly onto itself; ``order`` sorts the amplitudes.

    Returns the index of each orbit's representative (its smallest) and, per
    point, its slot k count + j: k is its orbit's representative and j the
    turns that take that representative to the point.
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
    return reps, representative * count + (-1 - steps) % count


def _orbit_weights(
    orbits: tuple[np.ndarray, np.ndarray], points: np.ndarray, probabilities: np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One distribution's orbit weights (the summed probabilities of each orbit's
    points) over the ``orbits`` of ``_rotation_orbits``, whose representatives
    are ``points``, and, for each gap g = 1 ... count - 1, the bound sum over
    orbits of |sum_j p_j w^(jg)| on the Frobenius mass of tau's entries with
    m - n = g (mod count), p_j being the probability of the representative
    turned j times.  The vacuum lies in sector 0 and adds nothing to the bound.
    """
    representatives, slots = orbits
    size = slots.size
    rotations = np.bincount(slots, probabilities, count * size).reshape(size, count)
    rotations = rotations[representatives]
    bounds = np.abs(rotations[points != 0.0] @ _GAP_PHASES[count]).sum(axis=0)
    return rotations.sum(axis=1), bounds


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


class _GateRound(NamedTuple):
    """What a cutoff-gate round shares between its two levels and between the
    distributions on one grid of ``amplitudes``: per sector count s, the
    rotation orbits and the unnormalized expansion of their representatives up
    to ``top``, the refined level's cutoff, found when a build first tries that
    s; and the representatives' normalized columns at each cutoff a build asks
    for."""

    amplitudes: tuple[complex, ...]
    top: int
    found: dict  # s -> ((representatives, slots), points, expansion), or None
    columns: dict  # (s, cutoff) -> normalized columns

    @classmethod
    def starting(cls, amplitudes: tuple[complex, ...], cutoff: int) -> _GateRound:
        """A round whose coarse level is at ``cutoff``."""
        return cls(amplitudes, cutoff + _CUTOFF_STEP, {}, {})

    def orbits(self, count: int) -> tuple | None:
        if count not in self.found:
            amplitudes = np.asarray(self.amplitudes, dtype=complex)
            orbits = _rotation_orbits(amplitudes, np.argsort(amplitudes), count)
            if orbits is not None:
                points = amplitudes[orbits[0]]
                orbits = (orbits, points, _coherent_expansion(points, self.top))
            self.found[count] = orbits
        return self.found[count]

    def vectors(self, count: int, cutoff: int) -> np.ndarray:
        """The normalized columns at ``cutoff`` of the orbits at ``count``."""
        if (count, cutoff) not in self.columns:
            _, points, expansion = self.found[count]
            self.columns[count, cutoff] = _coherent_columns(points, cutoff, expansion)
        return self.columns[count, cutoff]


def modulation_density_matrix(
    constellation: Constellation, cutoff: int | None = None, gate_round: _GateRound | None = None
) -> FockWorkspace:
    """Assemble and diagonalize the sector blocks of tau = sum_k p_k |alpha_k><alpha_k|
    for the most sectors (4, 2 or 1) the constellation allows.

    ``gate_round`` is a round on the constellation's grid, whose work the build
    shares; without a round whose expansion reaches ``cutoff`` the build starts
    one, whose expansion also serves the gate's next level, at cutoff + 10.
    Only the orbit weights, the blocks and their eigensystems are the
    constellation's own.
    """
    if cutoff is None:
        cutoff = default_cutoff(constellation)
    if gate_round is not None and gate_round.amplitudes is not constellation.amplitudes \
            and gate_round.amplitudes != constellation.amplitudes:
        raise ValueError("the gate round is on another grid than the constellation")
    if gate_round is None or cutoff > gate_round.top:
        gate_round = _GateRound.starting(constellation.amplitudes, cutoff)
    probabilities = np.asarray(constellation.probabilities)
    for count in (4, 2, 1):  # at s = 1 every point is its own orbit and the bound is 0
        found = gate_round.orbits(count)
        if found is None:
            continue
        weights, bounds = _orbit_weights(*found[:2], probabilities, count)
        vectors = gate_round.vectors(count, cutoff)
        blocks = [(v * weights) @ v.conj().T for v in (vectors[r::count] for r in range(count))]
        sectors = _sector_eigensystems(cutoff, blocks, float(np.linalg.norm(bounds)))
        if sectors is not None:
            break
    return FockWorkspace(constellation, cutoff, sectors, vectors, weights, gate_round)


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
    return FockWorkspace(mean_photons, cutoff, sectors)


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


def _converged_moments(workspace: FockWorkspace, excess_noise: float) -> tuple[float, float]:
    """(term1, w) at cutoff + 10 for the first cutoff, doubling from the workspace's
    own, at which that step of 10 moves Z* by less than 1e-9.  The gate runs at
    T = 1 and holds for every T, since Z*(T) = sqrt(T) Z*(1)."""
    cutoff = workspace.cutoff
    while cutoff <= _MAX_CUTOFF:
        coarse = workspace if cutoff == workspace.cutoff else workspace.rebuilt(cutoff)
        z_coarse = _z_star(*_moments(coarse), 1.0, excess_noise)
        refined = _moments(coarse.rebuilt(cutoff + _CUTOFF_STEP))  # in the coarse level's round
        if abs(_z_star(*refined, 1.0, excess_noise) - z_coarse) < _ZSTAR_CONVERGENCE_TOL:
            return refined
        cutoff *= 2
    raise ConvergenceError(f"Z* did not stabilize below cutoff {_MAX_CUTOFF}")


def correlation_lower_bound(workspace: FockWorkspace, transmittance, excess_noise: float):
    """Lower bound Z* on the Alice-Bob correlation for arbitrary modulation.

    The workspace is the coarse level of the cutoff gate; higher cutoffs are
    rebuilt from its source.  ``transmittance`` is a float or an array.
    """
    check_transmittance(transmittance)
    if excess_noise < 0.0:
        raise ValueError("excess noise must be >= 0")
    return _z_star(*_converged_moments(workspace, excess_noise), transmittance, excess_noise)


def mutual_information_qam(
    modulation_variance: float,
    transmittance,
    excess_noise: float,
    kind: Detection,
):
    """Alice-Bob mutual information of the arbitrary-modulation bound."""
    if modulation_variance < 0.0 or excess_noise < 0.0:
        raise ValueError("modulation variance and excess noise must be >= 0")
    check_transmittance(transmittance)
    half = 0.5 * np.log2(
        1.0
        + transmittance * modulation_variance / (2.0 + transmittance * excess_noise)
    )
    return half if kind is Detection.HOMODYNE else 2.0 * half


def qam_security(
    side: int,
    modulation_variance: float,
    distribution: QamDistribution,
    transmittance,
    excess_noise: float,
    kind: Detection,
    reconciliation_efficiency,
    gate_rounds: dict | None = None,
) -> SecurityResult:
    """Asymptotic M-QAM key rate (M = side^2) at the given link transmittance(s).

    The grid extent follows alpha = sqrt(V_A/2); the security formulas use
    the realized ensemble variance, which equals V_A exactly for binomial
    probabilities and tracks nu for the discrete Gaussian.  S_BE is the
    shared covariance-matrix bound with an ideal detector and the correlation
    Z*(1), since Z*(T) = sqrt(T) Z*(1) is the cross term sqrt(T) Z it takes.
    A negative correlation bound is floored at zero (it carries no
    correlation information and only certifies the absence of key).

    ``gate_rounds`` holds the first gate round of each side and V_A met in a
    group of calls, so that the group's distributions on one grid share it; a
    call without it is a group of one.
    """
    cutoff = start_cutoff(side, modulation_variance)  # capped before anything is built
    noise = channel_noise(transmittance, NoiseBudget(channel_excess=excess_noise), kind)
    constellation = build_constellation(side, math.sqrt(modulation_variance / 2.0), distribution)
    gate_rounds = {} if gate_rounds is None else gate_rounds
    grid = (side, modulation_variance)
    if grid not in gate_rounds:
        gate_rounds[grid] = _GateRound.starting(constellation.amplitudes, cutoff)
    workspace = modulation_density_matrix(constellation, cutoff, gate_rounds[grid])
    z_star = max(float(correlation_lower_bound(workspace, 1.0, excess_noise)), 0.0)
    v_eff = constellation.modulation_variance
    i_ab = mutual_information_qam(v_eff, transmittance, excess_noise, kind)
    s_be, _ = holevo_bound(v_eff, transmittance, noise.chi_line, noise.chi_detector, z_star, kind)
    return SecurityResult(i_ab, s_be, skr_asymptotic(reconciliation_efficiency, i_ab, s_be))
