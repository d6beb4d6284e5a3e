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
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleSetError, InvariantError, MismatchedPairsError
from .streams import check_seed, run_chunks, substream
from .vessels import (
    ALL_PAIRS,
    PAIR_AB,
    CoincidencePair,
    SiphonDiameters,
    TiePolicy,
    VesselSystem,
    constant_outcomes,
    pair_products,
)

LOCAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0

# Classification compares |value| against the bounds with this slack; exact
# boundary values land in the lower region.
BOUND_TOL = 1e-12

PAIR_STREAM = {pair: index for index, pair in enumerate(ALL_PAIRS)}

# A model maps (pair, substream key, size, collect) to the chunk's sum of
# outcome products and, with ``collect=True``, its per-run columns (at least
# ``outcome_left`` and ``outcome_right``); otherwise the columns are None.
Model = Callable[
    [CoincidencePair, tuple[int, int], int, bool],
    tuple[int, dict[str, np.ndarray] | None],
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
        """Draw ``n`` diameter pairs as two arrays on the keyed substream."""
        rng = substream(self.seed, *key)
        lambda_a = rng.uniform(self.low, self.high, size=n)
        lambda_b = rng.uniform(self.low, self.high, size=n)
        return lambda_a, lambda_b

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
        if self.n < 1:
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
        ab, aprime_b, ab_prime, aprime_bprime = self.components
        recomputed = aprime_bprime.mean + aprime_b.mean + ab_prime.mean - ab.mean
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
    """The vessel experiment as a model: diameters drawn on the key's
    substream, then the outcome rule; the draws are columns too.

    Only the joint siphon run reads the diameters, so without ``collect``
    the other three pairs draw nothing and sum their fixed products.
    """

    def model(pair, key, size, collect):
        if pair != PAIR_AB and not collect:
            left, right = constant_outcomes(pair, system)
            return size * left * right, None
        lambda_a, lambda_b = sampler.draw_arrays(size, key)
        outcome_left, outcome_right = pair_products(
            pair, lambda_a, lambda_b, system, tie_policy, tie_seed=sampler.seed
        )
        product_sum = int(outcome_left @ outcome_right)
        if not collect:
            return product_sum, None
        return product_sum, {
            "lambda_a": lambda_a,
            "lambda_b": lambda_b,
            "outcome_left": outcome_left,
            "outcome_right": outcome_right,
        }

    return model


def estimate_expectation(
    model: Model,
    pair: CoincidencePair,
    n: int,
    workers: int = 1,
    collect: bool = False,
) -> ExpectationEstimate | tuple[ExpectationEstimate, dict[str, np.ndarray]]:
    """Estimate one pair's expectation from ``n`` runs of ``model``.

    Each fixed-size chunk uses its own ``(PAIR_STREAM[pair], chunk)`` key and
    the partial sums merge in chunk order, so the estimate depends only on
    (model, pair, n), never on the worker count.  Each chunk's model call
    reduces its own products; with ``collect=True`` every column of every run
    comes back too (for per-run dumps).
    """
    if n < 1:
        raise EmptySampleSetError(f"estimation needs n >= 1, got {n}")
    stream_index = PAIR_STREAM[pair]

    def one_chunk(chunk_index: int, size: int):
        return model(pair, (stream_index, chunk_index), size, collect)

    results = run_chunks(one_chunk, n, workers=workers)
    mean, stderr = mean_and_stderr(sum(total for total, _ in results), n)
    estimate = ExpectationEstimate(pair=pair, mean=mean, stderr=stderr, n=n)
    if not collect:
        return estimate
    columns = {
        name: np.concatenate([payload[name] for _, payload in results])
        for name in results[0][1]
    }
    return estimate, columns


def classify_value(value: float) -> BellClassification:
    magnitude = abs(value)
    if magnitude <= LOCAL_BOUND + BOUND_TOL:
        return BellClassification.LOCAL
    if magnitude <= TSIRELSON_BOUND + BOUND_TOL:
        return BellClassification.QUANTUM_ATTAINABLE
    return BellClassification.SUPER_QUANTUM


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
    ab, aprime_b, ab_prime, aprime_bprime = (estimate.mean for estimate in components)
    value = aprime_bprime + aprime_b + ab_prime - ab
    return BellStatistic(
        value=value, components=components, classification=classify_value(value)
    )


def run_full_experiment(
    sampler: HiddenVariableSampler,
    system: VesselSystem,
    n_per_pair: int,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    workers: int = 1,
) -> BellStatistic:
    """Estimate all four pairs on independent substreams and combine them."""
    model = vessel_model(sampler, system, tie_policy)
    return bell_statistic(
        estimate_expectation(model, pair, n_per_pair, workers) for pair in ALL_PAIRS
    )
