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
four-pair statistic: expectation -(a . b) for unit measurement directions
and a sampling realization with unbiased marginals.  The analytic values
and the sampled model share one path: planar analyzer angles become
``MeasurementDirection`` pairs, read by ``singlet_expectation`` and the
agreement probability (1 - a . b) / 2.
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
    PAIR_STREAM,
    BellStatistic,
    ExpectationEstimate,
    Model,
    bell_statistic,
    estimate_expectation,
    statistic_value,
)
from .errors import InvariantError, NotNormalizedError, NotUnitError, WrongArityError
from .streams import check_count, check_seed, run_chunks, substream
from .vessels import ALL_PAIRS

N_AMPLITUDES = 11
TOTAL_LITERS = 10
NORM_TOL = 1e-9
UNIT_TOL = 1e-12


def _as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    check_seed(seed_or_rng, "seed_or_rng")
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

    The draws equal ``rng.choice(11, n, p=probabilities / probabilities.sum())``:
    one uniform per outcome, located in the cdf.  The uniforms are drawn ``CHUNK_SIZE`` at
    a time, which leaves the stream's values unchanged.  A uniform's outcome
    is the count of bounds ``cdf[:-1]`` at or below it, which is
    ``cdf.searchsorted(uniform, side="right")``, as every uniform lies below
    ``cdf[-1]``, exactly 1; ``born_histogram`` compares with the same bounds.
    """
    check_count(n)
    rng = _as_rng(seed_or_rng)
    cdf = _born_cdf(state)
    draws = np.zeros(n, dtype=np.intp)
    start = 0
    for uniforms in run_chunks(rng.random, n):
        outcomes = draws[start : start + len(uniforms)]
        for bound in cdf[:-1]:
            outcomes += uniforms >= bound
        start += len(uniforms)
    return draws


def born_histogram(
    state: VesselSuperpositionState,
    n: int,
    seed_or_rng: int | np.random.Generator,
) -> np.ndarray:
    """Per-division counts of the ``n`` outcomes ``born_samples`` draws from
    the same generator, counted chunk by chunk without materialising them."""
    check_count(n)
    rng = _as_rng(seed_or_rng)
    cdf = _born_cdf(state)
    below = np.zeros(N_AMPLITUDES, dtype=np.int64)
    for uniforms in run_chunks(rng.random, n):
        # Every uniform lies below cdf[-1], which is exactly 1.
        below += [*(np.count_nonzero(uniforms < bound) for bound in cdf[:-1]), len(uniforms)]
    return np.diff(below, prepend=0)


def coefficient_matrix(state: VesselSuperpositionState) -> np.ndarray:
    """11 x 11 joint coefficient matrix; entry (x, 10 - x) holds amplitude x."""
    matrix = np.zeros((N_AMPLITUDES, N_AMPLITUDES), dtype=complex)
    left = np.arange(N_AMPLITUDES)
    matrix[left, TOTAL_LITERS - left] = state.amplitudes
    return matrix


def schmidt_rank(state: VesselSuperpositionState, tol: float = NORM_TOL) -> int:
    """Number of amplitudes whose modulus exceeds ``tol``.

    This is the Schmidt rank: ``coefficient_matrix`` holds one amplitude in
    each row and column, so its singular values are the amplitude moduli,
    and no decomposition is needed to count those above ``tol``.
    """
    if not tol >= 0.0:
        raise InvariantError(f"tolerance must be non-negative: {tol}", "tol")
    return int(np.count_nonzero(np.abs(state.amplitudes) > tol))


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
    uniforms_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` joint outcomes; each marginal is a fair +1/-1 coin.  The
    agreement uniforms come from ``uniforms_rng``, by default the coins' one."""
    check_count(n)
    rng = _as_rng(seed_or_rng)
    left = rng.integers(0, 2, size=n) * 2 - 1
    uniforms = rng if uniforms_rng is None else uniforms_rng
    same = uniforms.random(n) < _agreement_probability(a, b)
    right = np.where(same, left, -left)
    return left, right


def _agreement_probability(a: MeasurementDirection, b: MeasurementDirection) -> float:
    """Probability that the two sides' outcomes agree: (1 - a . b) / 2."""
    return (1.0 - a.dot(b)) / 2.0


def _pair_directions(
    angles_deg: tuple[float, float, float, float],
) -> tuple[tuple[MeasurementDirection, MeasurementDirection], ...]:
    """Each coincidence pair's (left, right) analyzer directions, in
    ``ALL_PAIRS`` order, from the analyzer angles for A, A', B, B' in degrees."""
    angle_a, angle_aprime, angle_b, angle_bprime = angles_deg
    a, aprime = left_analyzer_direction(angle_a), left_analyzer_direction(angle_aprime)
    b, bprime = right_analyzer_direction(angle_b), right_analyzer_direction(angle_bprime)
    return (a, b), (aprime, b), (a, bprime), (aprime, bprime)


def singlet_bell_value(angles_deg: tuple[float, float, float, float]) -> float:
    """Analytic Bell statistic of the singlet at four planar analyzer angles."""
    return statistic_value(*(singlet_expectation(a, b) for a, b in _pair_directions(angles_deg)))


def singlet_analytic_estimates(
    angles_deg: tuple[float, float, float, float],
) -> list[ExpectationEstimate]:
    """Exact per-pair expectations packaged as zero-spread estimates."""
    return [
        ExpectationEstimate(pair=pair, mean=singlet_expectation(a, b), stderr=0.0, n=1)
        for pair, (a, b) in zip(ALL_PAIRS, _pair_directions(angles_deg))
    ]


def singlet_model(angles_deg: tuple[float, float, float, float], seed: int) -> Model:
    """The singlet as a model: joint spin outcomes at the pair's analyzer
    directions, its left coins on column 0 of its stream under ``seed`` and
    its agreement uniforms on column 1.

    A product is +1 exactly when the sides agree, so without ``collect`` a
    chunk only counts agreements among the uniforms, and the coin generator
    is never made.
    """
    check_seed(seed)
    directions = dict(zip(ALL_PAIRS, _pair_directions(angles_deg)))

    def model(pair, n, collect):
        stream = PAIR_STREAM[pair]
        a, b = directions[pair]
        uniforms = substream(seed, stream, 1)
        if not collect:
            threshold = _agreement_probability(a, b)

            def agreements(size):
                return 2 * np.count_nonzero(uniforms.random(size) < threshold) - size, None

            return run_chunks(agreements, n)
        coins = substream(seed, stream, 0)

        def one_chunk(size):
            left, right = singlet_samples(a, b, size, coins, uniforms)
            return int(left @ right), {"outcome_left": left, "outcome_right": right}

        return run_chunks(one_chunk, n)

    return model


def singlet_experiment(
    angles_deg: tuple[float, float, float, float],
    seed: int,
    n_per_pair: int,
) -> BellStatistic:
    """Monte Carlo singlet statistic at the given analyzer angles."""
    model = singlet_model(angles_deg, seed)
    return bell_statistic(estimate_expectation(model, pair, n_per_pair) for pair in ALL_PAIRS)
