"""Monte Carlo estimation of the four coincidence expectations and the
Bell statistic built from them.

The statistic is the combination ``E(A'B') + E(A'B) + E(AB') - E(AB)``.
Context-free models keep its magnitude at or below 2, quantum correlations
reach 2*sqrt(2), and the algebraic ceiling is 4.  The vessel model attains
the ceiling: the joint siphon run anti-correlates perfectly while the three
other pairs agree perfectly, for every tie-free hidden variable.

Relation to the standard CHSH form ``E(ab) - E(ab') + E(a'b) + E(a'b')``:
identify (A, A', B, B') with (a, a', b', b) and the two expressions coincide
term by term.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleSetError, InvariantError, MismatchedPairsError
from .streams import check_count, check_seed, run_chunks, substream
from .vessels import (
    ALL_PAIRS,
    PAIR_AB,
    CoincidencePair,
    SiphonDiameters,
    TiePolicy,
    VesselSystem,
    left_wins,
    pair_products,
    run_product,
)

LOCAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0

# Classification compares |value| against the bounds with this slack; exact
# boundary values land in the lower region.
BOUND_TOL = 1e-12

PAIR_STREAM = {pair: index for index, pair in enumerate(ALL_PAIRS)}

# A model maps (pair, n, collect) to one result per chunk of the pair's n
# runs, lazily, in chunk order: the chunk's sum of outcome products and, with
# ``collect=True``, its per-run columns (at least ``outcome_left`` and
# ``outcome_right``), else None.  Each random column draws the whole run from
# its own ``(PAIR_STREAM[pair], column)`` substream, whatever ``CHUNK_SIZE`` is,
# so a chunk needs nothing but its size, which is all ``run_chunks`` passes.
# ``PAIR_STREAM`` is the one pair-to-stream rule; the vessel and singlet models
# both read it.
Model = Callable[
    [CoincidencePair, int, bool],
    Iterator[tuple[int, dict[str, np.ndarray] | None]],
]


class BellClassification(enum.Enum):
    LOCAL = "Local"
    QUANTUM_ATTAINABLE = "QuantumAttainable"
    SUPER_QUANTUM = "SuperQuantum"


@dataclass(frozen=True)
class HiddenVariableSampler:
    """Independent uniform diameters on [low, high] cm, seeded.

    The vessel outcomes are the same for every continuous diameter
    distribution (the winner rule only reads the order of the two
    diameters), so a documented uniform default stands in for the
    unspecified measure over the hidden-variable space.
    """

    low: float = 0.5
    high: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.low > 0.0:
            raise InvariantError(f"low must be positive, got {self.low}", "low")
        if not self.low < self.high < math.inf:
            raise InvariantError(f"need low < high < inf, got [{self.low}, {self.high}]", "high")
        check_seed(self.seed)

    def draw_arrays(self, n: int, key: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` diameter pairs as two arrays: the left diameters on the
        keyed consumer's column 0, the right ones on its column 1."""
        check_count(n)
        rng_a, rng_b = substream(self.seed, *key, 0), substream(self.seed, *key, 1)
        return rng_a.uniform(self.low, self.high, n), rng_b.uniform(self.low, self.high, n)

    def draw_chunks(
        self, n: int, key: tuple[int, ...] = ()
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The draws of ``draw_arrays(n, key)``, lazily, in ``CHUNK_SIZE``
        slices: each column's generator runs on across the slices."""
        check_count(n)
        rng_a, rng_b = substream(self.seed, *key, 0), substream(self.seed, *key, 1)

        def one_chunk(size: int) -> tuple[np.ndarray, np.ndarray]:
            return rng_a.uniform(self.low, self.high, size), rng_b.uniform(self.low, self.high, size)

        return run_chunks(one_chunk, n)

    def draw(self, n: int, key: tuple[int, ...] = ()) -> list[SiphonDiameters]:
        lambda_a, lambda_b = self.draw_arrays(n, key)
        return [
            SiphonDiameters(a, b)
            for a, b in zip(lambda_a.tolist(), lambda_b.tolist())
        ]


@dataclass(frozen=True)
class ExpectationEstimate:
    """Monte Carlo estimate of one pair's expected outcome product."""

    pair: CoincidencePair
    mean: float
    stderr: float
    n: int

    def __post_init__(self) -> None:
        if not self.n >= 1:
            raise InvariantError(f"an estimate needs at least one run, got n={self.n}", "n")
        if not abs(self.mean) <= 1.0:
            raise InvariantError(f"mean outcome product out of [-1, 1]: {self.mean}", "mean")
        if not self.stderr >= 0.0:
            raise InvariantError(f"stderr must be non-negative: {self.stderr}", "stderr")


@dataclass(frozen=True)
class BellStatistic:
    """The four estimates combined, with the standard-bound classification.

    Components are stored in canonical pair order (AB, A'B, AB', A'B').
    """

    value: float
    components: tuple[ExpectationEstimate, ...]
    classification: BellClassification

    def __post_init__(self) -> None:
        if tuple(estimate.pair for estimate in self.components) != ALL_PAIRS:
            raise InvariantError("components must follow ALL_PAIRS order", "components")
        recomputed = statistic_value(*(estimate.mean for estimate in self.components))
        if self.value != recomputed:
            raise InvariantError(
                f"value {self.value} does not match its components ({recomputed})", "value"
            )
        if abs(self.value) > ALGEBRAIC_BOUND + BOUND_TOL:
            raise InvariantError(f"|value| exceeds the algebraic ceiling 4: {self.value}", "value")


def mean_and_stderr(product_sum: int, n: int) -> tuple[float, float]:
    """Mean and standard error of ``n`` outcome products summing to ``product_sum``.

    Products are always +1 or -1, so their squares sum to exactly ``n`` and
    the sample standard deviation reduces to a function of the mean.
    """
    mean = product_sum / n
    if n == 1:
        return mean, 0.0
    variance = max(0.0, n * (1.0 - mean * mean) / (n - 1))
    return mean, math.sqrt(variance / n)


def vessel_model(
    sampler: HiddenVariableSampler,
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
) -> Model:
    """The vessel experiment as a model: a pair's diameters are
    ``sampler.draw_chunks(n, key=(PAIR_STREAM[pair],))``, put through the
    outcome rule chunk by chunk; the draws are columns too.

    Without ``collect``, every run of a pair has the same product,
    ``run_product``, so a chunk sums to ``size`` times it and draws
    nothing.  Only the joint pair under the ``error`` policy draws, and puts
    the draws through ``left_wins`` so that a tie raises.  Each pair owns
    its column streams, so a skipped draw moves no other.
    """

    def drawn(pair, lambda_a, lambda_b, collect):
        if not collect:
            left_wins(lambda_a, lambda_b, tie_policy, sampler.seed)
            return len(lambda_a) * run_product(pair, system), None
        columns = {"lambda_a": lambda_a, "lambda_b": lambda_b}
        columns["outcome_left"], columns["outcome_right"] = pair_products(
            pair, lambda_a, lambda_b, system, tie_policy, tie_seed=sampler.seed
        )
        return int(columns["outcome_left"] @ columns["outcome_right"]), columns

    def model(pair, n, collect):
        if collect or (pair == PAIR_AB and tie_policy is TiePolicy.ERROR):
            draws = sampler.draw_chunks(n, key=(PAIR_STREAM[pair],))
            return (drawn(pair, *lambdas, collect) for lambdas in draws)
        return run_chunks(lambda size: (size * run_product(pair, system), None), n)

    return model


def pair_chunks(
    model: Model,
    pair: CoincidencePair,
    n: int,
    collect: bool = False,
) -> Iterator[tuple[int, dict[str, np.ndarray] | None]]:
    """The results of ``n`` runs of ``model`` on one pair, lazily, chunk by
    chunk, once ``n`` is checked: each the chunk's sum of outcome products
    and, with ``collect=True``, its per-run columns."""
    check_count(n)
    if n < 1:
        raise EmptySampleSetError(f"estimation needs n >= 1, got {n}")
    return model(pair, n, collect)


def estimate_expectation(model: Model, pair: CoincidencePair, n: int) -> ExpectationEstimate:
    """Estimate one pair's expectation from ``n`` runs of ``model``, folding
    the chunks' product sums as they arrive."""
    total = sum(product_sum for product_sum, _ in pair_chunks(model, pair, n))
    mean, stderr = mean_and_stderr(total, n)
    return ExpectationEstimate(pair=pair, mean=mean, stderr=stderr, n=n)


def classify_value(value: float) -> BellClassification:
    magnitude = abs(value)
    if magnitude <= LOCAL_BOUND + BOUND_TOL:
        return BellClassification.LOCAL
    if magnitude <= TSIRELSON_BOUND + BOUND_TOL:
        return BellClassification.QUANTUM_ATTAINABLE
    return BellClassification.SUPER_QUANTUM


def statistic_value(ab: float, aprime_b: float, ab_prime: float, aprime_bprime: float) -> float:
    """The statistic from the four pair means, given in ``ALL_PAIRS`` order."""
    return aprime_bprime + aprime_b + ab_prime - ab


def bell_statistic(estimates: Iterable[ExpectationEstimate]) -> BellStatistic:
    """Combine the four estimates into the Bell statistic.

    ``estimates`` must hold each coincidence pair exactly once, in any
    order; each estimate is matched to its term by its pair field.
    """
    estimates = list(estimates)
    by_pair = {estimate.pair: estimate for estimate in estimates}
    if len(estimates) != len(ALL_PAIRS) or set(by_pair) != set(ALL_PAIRS):
        got = sorted(estimate.pair.label for estimate in estimates)
        raise MismatchedPairsError(
            f"estimates must cover the four coincidence pairs once each, got {got}"
        )
    components = tuple(by_pair[pair] for pair in ALL_PAIRS)
    value = statistic_value(*(estimate.mean for estimate in components))
    return BellStatistic(
        value=value, components=components, classification=classify_value(value)
    )


def run_full_experiment(
    sampler: HiddenVariableSampler,
    system: VesselSystem,
    n_per_pair: int,
    tie_policy: TiePolicy = TiePolicy.ERROR,
) -> BellStatistic:
    """Estimate all four pairs on independent substreams and combine them."""
    model = vessel_model(sampler, system, tie_policy)
    return bell_statistic(estimate_expectation(model, pair, n_per_pair) for pair in ALL_PAIRS)
