"""Superposition over the final water divisions, Born sampling, a Schmidt-rank
entanglement test, and a spin-1/2 singlet reference model.

Before a joint siphon run the connected water is not yet divided; the
possible outcomes, measured in whole liters on the left reference vessel,
form 11 product configurations ``x (x) 10 - x`` for x in 0..10.  The
pre-measurement state assigns each a complex amplitude whose squared modulus
is the probability of reaching it.  Arranged as a coefficient matrix over
the two sides, the amplitudes sit on an anti-diagonal, so the state's
Schmidt rank equals the number of non-negligible amplitudes and any two or
more make it entangled.

The singlet model provides the standard quantum benchmark for the same
four-pair statistic: expectation -(a . b) for unit measurement directions,
a sampling realization with unbiased marginals, and planar-angle helpers.
The two wings of the apparatus face each other, so a right-side analyzer
angle is counted clockwise in the shared frame (mirrored y axis); with that
convention the textbook settings (0, 90, 45, 135) degrees attain the
quantum maximum 2*sqrt(2) of the statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    BellStatistic,
    ExpectationEstimate,
    Model,
    bell_statistic,
    estimate_expectation,
)
from .errors import InvariantError, NotNormalizedError, NotUnitError, WrongArityError
from .streams import check_seed, substream
from .vessels import ALL_PAIRS, PAIR_AB, PAIR_AB_PRIME, PAIR_APRIME_B, PAIR_APRIME_BPRIME

N_AMPLITUDES = 11
TOTAL_LITERS = 10
NORM_TOL = 1e-9
UNIT_TOL = 1e-12


def _as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass(frozen=True, eq=False)
class VesselSuperpositionState:
    """Complex amplitudes over the 11 final divisions, indexed by left liters."""

    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def make_state(amplitudes, normalize: bool = False) -> VesselSuperpositionState:
    """Build a superposition state from 11 complex amplitudes.

    The squared moduli must sum to one within ``NORM_TOL``; with
    ``normalize=True`` a vector whose squared moduli have a positive finite
    sum is rescaled first.
    """
    array = np.asarray(amplitudes, dtype=complex)
    if array.shape != (N_AMPLITUDES,):
        raise WrongArityError(
            f"expected {N_AMPLITUDES} amplitudes, got shape {array.shape}", "amplitudes"
        )
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(array) ** 2))
    if normalize and 0.0 < total < math.inf:
        array = array / math.sqrt(total)
        total = float(np.sum(np.abs(array) ** 2))
    if not abs(total - 1.0) <= NORM_TOL:
        raise NotNormalizedError(
            f"squared moduli sum to {total!r}, expected 1 within {NORM_TOL}", "amplitudes"
        )
    array = array.copy()
    array.setflags(write=False)
    return VesselSuperpositionState(amplitudes=array)


def _born_cdf(state: VesselSuperpositionState) -> np.ndarray:
    """Cumulative Born probabilities over the 11 divisions, built the way
    ``Generator.choice`` builds its cdf (so its last entry is exactly 1)."""
    probabilities = state.probabilities()
    cdf = (probabilities / probabilities.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def born_samples(
    state: VesselSuperpositionState,
    n: int,
    seed_or_rng: int | np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` division outcomes; the state itself is never touched.

    The draws equal ``rng.choice(11, n, p=probabilities)``: one uniform per
    outcome, located in the cdf.
    """
    uniforms = _as_rng(seed_or_rng).random(n)
    return _born_cdf(state).searchsorted(uniforms, side="right")


def born_histogram(
    state: VesselSuperpositionState,
    n: int,
    seed_or_rng: int | np.random.Generator,
) -> np.ndarray:
    """Per-division counts of the ``n`` outcomes ``born_samples`` draws from
    the same generator, counted without materialising the outcomes."""
    uniforms = _as_rng(seed_or_rng).random(n)
    below = [np.count_nonzero(uniforms < bound) for bound in _born_cdf(state)]
    return np.diff(below, prepend=0)


def coefficient_matrix(state: VesselSuperpositionState) -> np.ndarray:
    """11 x 11 joint coefficient matrix; entry (x, 10 - x) holds amplitude x."""
    matrix = np.zeros((N_AMPLITUDES, N_AMPLITUDES), dtype=complex)
    left = np.arange(N_AMPLITUDES)
    matrix[left, TOTAL_LITERS - left] = state.amplitudes
    return matrix


def schmidt_rank(state: VesselSuperpositionState, tol: float = NORM_TOL) -> int:
    """Number of singular values of the coefficient matrix above ``tol``.

    For this anti-diagonal matrix the singular values are the amplitude
    moduli, so the rank also counts the amplitudes above ``tol``.
    """
    if not tol >= 0.0:
        raise InvariantError(f"tolerance must be non-negative: {tol}", "tol")
    singular_values = np.linalg.svd(coefficient_matrix(state), compute_uv=False)
    return int(np.count_nonzero(singular_values > tol))


def is_entangled(state: VesselSuperpositionState, tol: float = NORM_TOL) -> bool:
    """A state with two or more contributing divisions is entangled."""
    return schmidt_rank(state, tol) >= 2


@dataclass(frozen=True)
class MeasurementDirection:
    """Unit 3-vector along which one side's spin is measured."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.x, self.y, self.z)
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise NotUnitError(f"direction norm is {norm!r}, expected 1 within {UNIT_TOL}")

    def dot(self, other: MeasurementDirection) -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z


def left_analyzer_direction(angle_deg: float) -> MeasurementDirection:
    """Left-wing analyzer at ``angle_deg``, counterclockwise in the shared frame."""
    if not math.isfinite(angle_deg):
        raise InvariantError(f"analyzer angle must be finite, got {angle_deg!r}", "angle_deg")
    angle = math.radians(angle_deg)
    return MeasurementDirection(math.cos(angle), math.sin(angle), 0.0)


def right_analyzer_direction(angle_deg: float) -> MeasurementDirection:
    """Right-wing analyzer at ``angle_deg`` in its own frame.

    The right wing faces the left one, so its in-plane axis is mirrored in
    the shared frame and the angle counts clockwise there: it is the left
    direction at ``-angle_deg``.
    """
    return left_analyzer_direction(-angle_deg)


def singlet_expectation(a: MeasurementDirection, b: MeasurementDirection) -> float:
    """Expected outcome product for the singlet: -(a . b).

    Rounding can carry the dot product of two unit vectors one ulp past
    +-1; its magnitude is capped at 1 so the result is always a valid mean.
    """
    dot = a.dot(b)
    return -math.copysign(min(abs(dot), 1.0), dot)


def singlet_samples(
    a: MeasurementDirection,
    b: MeasurementDirection,
    n: int,
    seed_or_rng: int | np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` joint outcomes; each marginal is a fair +1/-1 coin."""
    rng = _as_rng(seed_or_rng)
    left = rng.integers(0, 2, size=n) * 2 - 1
    same = rng.random(n) < _agreement_probability(a, b)
    right = np.where(same, left, -left)
    return left, right


def _agreement_probability(a: MeasurementDirection, b: MeasurementDirection) -> float:
    """Probability that the two sides' outcomes agree: (1 - a . b) / 2."""
    return (1.0 - a.dot(b)) / 2.0


def _pair_directions(
    angles_deg: tuple[float, float, float, float],
) -> dict:
    """Map each coincidence pair to its (left, right) analyzer directions.

    ``angles_deg`` lists the analyzer angles for A, A', B, B' in degrees;
    the left two use the shared frame, the right two their own mirrored
    frame.
    """
    angle_a, angle_aprime, angle_b, angle_bprime = angles_deg
    a = left_analyzer_direction(angle_a)
    aprime = left_analyzer_direction(angle_aprime)
    b = right_analyzer_direction(angle_b)
    bprime = right_analyzer_direction(angle_bprime)
    return {
        PAIR_AB: (a, b),
        PAIR_APRIME_B: (aprime, b),
        PAIR_AB_PRIME: (a, bprime),
        PAIR_APRIME_BPRIME: (aprime, bprime),
    }


def singlet_bell_value(angles_deg: tuple[float, float, float, float]) -> float:
    """Analytic Bell statistic of the singlet at four planar analyzer angles."""
    return bell_statistic(singlet_analytic_estimates(angles_deg)).value


def singlet_analytic_estimates(
    angles_deg: tuple[float, float, float, float],
) -> list[ExpectationEstimate]:
    """Exact per-pair expectations packaged as zero-spread estimates."""
    directions = _pair_directions(angles_deg)
    return [
        ExpectationEstimate(
            pair=pair,
            mean=singlet_expectation(*directions[pair]),
            stderr=0.0,
            n=1,
        )
        for pair in ALL_PAIRS
    ]


def singlet_model(angles_deg: tuple[float, float, float, float], seed: int) -> Model:
    """The singlet as a model: joint spin outcomes at the pair's analyzer
    directions, drawn on the key's substream under ``seed``.

    A product is +1 exactly when the sides agree, so without ``collect`` the
    chunk only counts agreements among the same uniforms ``singlet_samples``
    reads; the coin draw before them still runs to keep their positions.
    """
    check_seed(seed)
    directions = _pair_directions(angles_deg)

    def model(pair, key, size, collect):
        rng = substream(seed, *key)
        if collect:
            left, right = singlet_samples(*directions[pair], size, rng)
            return int(left @ right), {"outcome_left": left, "outcome_right": right}
        rng.integers(0, 2, size=size)
        threshold = _agreement_probability(*directions[pair])
        agree = np.count_nonzero(rng.random(size) < threshold)
        return 2 * agree - size, None

    return model


def singlet_experiment(
    angles_deg: tuple[float, float, float, float],
    seed: int,
    n_per_pair: int,
    workers: int = 1,
) -> BellStatistic:
    """Monte Carlo singlet statistic at the given analyzer angles."""
    model = singlet_model(angles_deg, seed)
    return bell_statistic(
        estimate_expectation(model, pair, n_per_pair, workers) for pair in ALL_PAIRS
    )
