"""Two water vessels interconnected by a tube, probed by four experiments.

The composite system holds ``total_volume`` liters of water, half in each
vessel, joined by a tube that keeps the two levels equal.  Four single-run
experiments act on it:

* ``A`` / ``B``: a siphon empties the left / right vessel into a reference
  vessel; the run scores +1 when more than half the total volume is
  collected, -1 when less.
* ``APRIME`` / ``BPRIME``: a spoonful is taken from the left / right vessel
  and checked for transparency (+1 transparent, -1 not).

When both siphons run together they compete for the same connected body of
water, so the wider siphon collects more than half and the outcomes are
perfectly anti-correlated.  A siphon running alone (its partner experiment
being a spoon test) drains everything and always scores +1.  This module
is the one place that rule is written: ``left_wins`` decides a batch of
joint runs, ``pair_products`` turns it into the per-run outcomes of a batch
of draws, and ``joint_outcome_ab`` is its one-row view.  ``run_product``
states what follows for every run of a pair, whoever wins.

Everything in this module is a pure function of its inputs; randomness, if
any, lives in the hidden-variable samplers upstream.
"""

from __future__ import annotations

import enum
import hashlib
import math
import numbers
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTieError, FlowRangeError, InvalidStepError, InvariantError
from .streams import check_seed

# Siphon outflow in L/s per cm^2 of squared diameter.  Only the ratio of the
# two outflow rates matters for the collected fractions.
FLOW_COEFF = 1.0

# Above this many steps a float no longer counts them exactly: the bulk
# phase then leaves a rounding remainder worth many steps, which the
# step-by-step tail would drain one tiny step at a time.
MAX_FLOW_STEPS = 2.0**53


class ExperimentKind(enum.Enum):
    """The four single-side experiments."""

    A = "A"
    B = "B"
    APRIME = "A'"
    BPRIME = "B'"


LEFT_KINDS = (ExperimentKind.A, ExperimentKind.APRIME)
RIGHT_KINDS = (ExperimentKind.B, ExperimentKind.BPRIME)


class TiePolicy(enum.Enum):
    """How a joint siphon run resolves exactly equal diameters.

    The winner rule only covers strict inequalities, so an exact tie needs a
    policy: raise (default), hand the win to one side, or flip a seeded coin.
    Continuous samplers make ties a measure-zero event.
    """

    ERROR = "error"
    FAVOR_LEFT = "favor_left"
    FAVOR_RIGHT = "favor_right"
    SPLIT_COIN = "split_coin"


@dataclass(frozen=True)
class SiphonDiameters:
    """Hidden variable of a joint siphon run: the two diameters in cm.

    Each diameter is stored as the float every consumer compares, so an
    integer past 2**53 rounds once, here; a bool, a non-real value or an
    integer past the float range is refused.
    """

    lambda_a: float
    lambda_b: float

    def __post_init__(self) -> None:
        for field in ("lambda_a", "lambda_b"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvariantError(
                    f"a siphon diameter must be a real number, got {value!r}", field
                )
            try:
                object.__setattr__(self, field, float(value))
            except OverflowError:
                raise InvariantError(f"{field} is past the float range", field) from None
        if not (self.lambda_a > 0.0 and self.lambda_b > 0.0):
            raise InvariantError(
                f"siphon diameters must be strictly positive, "
                f"got ({self.lambda_a}, {self.lambda_b})"
            )


@dataclass(frozen=True)
class VesselSystem:
    """Pre-measurement configuration of the interconnected vessels."""

    total_volume: float = 20.0
    transparent: bool = True

    def __post_init__(self) -> None:
        if not self.total_volume > 0.0:
            raise InvariantError(
                f"total_volume must be positive, got {self.total_volume}", "total_volume"
            )

    @property
    def half_volume(self) -> float:
        """Threshold a siphon must beat for a +1 outcome."""
        return self.total_volume / 2.0


@dataclass(frozen=True)
class CoincidencePair:
    """A joint measurement: one left-side experiment, one right-side experiment."""

    left: ExperimentKind
    right: ExperimentKind

    def __post_init__(self) -> None:
        if self.left not in LEFT_KINDS:
            raise InvariantError(f"{self.left} is not a left-side experiment", "left")
        if self.right not in RIGHT_KINDS:
            raise InvariantError(f"{self.right} is not a right-side experiment", "right")

    @property
    def label(self) -> str:
        return self.left.value + self.right.value


PAIR_AB = CoincidencePair(ExperimentKind.A, ExperimentKind.B)
PAIR_APRIME_B = CoincidencePair(ExperimentKind.APRIME, ExperimentKind.B)
PAIR_AB_PRIME = CoincidencePair(ExperimentKind.A, ExperimentKind.BPRIME)
PAIR_APRIME_BPRIME = CoincidencePair(ExperimentKind.APRIME, ExperimentKind.BPRIME)

# Canonical pair order; substream indices and report sections follow it.
ALL_PAIRS = (PAIR_AB, PAIR_APRIME_B, PAIR_AB_PRIME, PAIR_APRIME_BPRIME)


@dataclass(frozen=True)
class SplitVolume:
    """Volumes collected left and right after a joint siphon run, in liters."""

    x_left: float
    x_right: float

    def __post_init__(self) -> None:
        if not (self.x_left >= 0.0 and self.x_right >= 0.0):
            raise InvariantError(
                f"collected volumes must be non-negative, got ({self.x_left}, {self.x_right})"
            )


def _break_tie(diameter: float, tie_policy: TiePolicy, tie_seed: int) -> bool:
    """Whether the left side wins a joint run whose two diameters both equal
    ``diameter``, by ``tie_policy``; the split coin hashes the seed and both
    diameters, which keeps it stable across platforms and processes."""
    if tie_policy is TiePolicy.ERROR:
        raise DegenerateTieError(
            f"equal siphon diameters {diameter} leave the joint outcome undefined"
        )
    if tie_policy is TiePolicy.SPLIT_COIN:
        payload = struct.pack("<Qdd", tie_seed, diameter, diameter)
        return bool(hashlib.blake2b(payload, digest_size=8).digest()[0] & 1)
    return tie_policy is TiePolicy.FAVOR_LEFT


def _check_batch(lambda_a: np.ndarray, lambda_b: np.ndarray, tie_seed: int) -> None:
    """The checks every batch function makes once per call: the tie coin's
    seed follows the seed rule, the diameters are two 1-D numpy arrays of
    equal length and of a real integer or floating dtype, row ``i`` being
    the draw ``(lambda_a[i], lambda_b[i])``, and every row holds valid
    ``SiphonDiameters``.  Lists and tuples are refused: a comparison of two
    lists is one bool."""
    check_seed(tie_seed, "tie_seed")
    if not (
        isinstance(lambda_a, np.ndarray) and isinstance(lambda_b, np.ndarray)
        and lambda_a.ndim == lambda_b.ndim == 1 and len(lambda_a) == len(lambda_b)
    ):
        raise InvariantError(
            f"a batch of draws needs two 1-D numpy diameter arrays of equal length, got "
            f"{type(lambda_a).__name__} {np.shape(lambda_a)} and {type(lambda_b).__name__} "
            f"{np.shape(lambda_b)}"
        )
    # Kinds i, u and f: complex numbers have no order, and bools, strings,
    # dates and objects are no diameters.
    if not (lambda_a.dtype.kind in "iuf" and lambda_b.dtype.kind in "iuf"):
        raise InvariantError(
            f"diameter arrays need a real integer or floating dtype, got {lambda_a.dtype} "
            f"and {lambda_b.dtype}"
        )
    valid = (lambda_a > 0.0) & (lambda_b > 0.0)
    if not valid.all():
        # The first invalid row raises SiphonDiameters' own error.
        SiphonDiameters(lambda_a[~valid][0].item(), lambda_b[~valid][0].item())


def diameter_batch(draws: Sequence[SiphonDiameters]) -> tuple[np.ndarray, np.ndarray]:
    """``draws`` as the two float64 diameter arrays of a batch."""
    return (
        np.array([lam.lambda_a for lam in draws], dtype=np.float64),
        np.array([lam.lambda_b for lam in draws], dtype=np.float64),
    )


def left_wins(
    lambda_a: np.ndarray,
    lambda_b: np.ndarray,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> np.ndarray:
    """Which joint siphon runs of a batch of draws the left side wins, as a
    bool mask.

    The wider siphon drains faster and ends up with more than half of the
    water, so the strictly wider left siphon wins.  Each tied row goes to
    ``tie_policy`` (``error`` raises at the first tie); ``tie_seed`` follows
    the seed rule.  Whoever wins, the two sides disagree.
    """
    _check_batch(lambda_a, lambda_b, tie_seed)
    wins = lambda_b < lambda_a
    ties = np.flatnonzero(lambda_a == lambda_b)
    for index, diameter in zip(ties.tolist(), lambda_a[ties].tolist()):
        wins[index] = _break_tie(diameter, tie_policy, tie_seed)
    return wins


def joint_outcome_ab(
    lam: SiphonDiameters,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> tuple[int, int]:
    """Outcomes of the joint siphon run: the one-row view of ``left_wins``."""
    return (1, -1) if left_wins(*diameter_batch([lam]), tie_policy, tie_seed)[0] else (-1, 1)


def outcome_solo_siphon() -> int:
    """Outcome of a siphon whose partner experiment is a spoon test.

    With no competing siphon it drains the entire connected volume, which
    always exceeds the half-volume threshold, whatever the diameters or the
    volume.
    """
    return 1


def spoon_outcome(system: VesselSystem) -> int:
    """Outcome of a spoonful transparency check: +1 transparent, -1 not."""
    return 1 if system.transparent else -1


def constant_outcomes(pair: CoincidencePair, system: VesselSystem) -> tuple[int, int]:
    """Outcomes of a pair with at most one siphon, which the state fixes:
    a spoon test scores by transparency, a solo siphon always +1."""
    spoon = spoon_outcome(system)
    solo = outcome_solo_siphon()
    left = spoon if pair.left is ExperimentKind.APRIME else solo
    right = spoon if pair.right is ExperimentKind.BPRIME else solo
    return left, right


def run_product(pair: CoincidencePair, system: VesselSystem) -> int:
    """The outcome product of every run of ``pair``: -1 for the joint siphon
    run, ties included, since whichever side ``left_wins`` picks the other
    loses; else the product of the ``constant_outcomes``."""
    return -1 if pair == PAIR_AB else math.prod(constant_outcomes(pair, system))


def pair_products(
    pair: CoincidencePair,
    lambda_a: np.ndarray,
    lambda_b: np.ndarray,
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-run outcomes for a batch of diameter draws, as two int arrays.

    The joint siphon run scores +1 on the left exactly where ``left_wins``
    holds, and the right side the opposite; the other pairs repeat their
    ``constant_outcomes``.
    """
    if pair == PAIR_AB:
        wins = left_wins(lambda_a, lambda_b, tie_policy, tie_seed)
        outcome_left = wins.astype(np.int64) * 2 - 1
        return outcome_left, -outcome_left
    _check_batch(lambda_a, lambda_b, tie_seed)
    left, right = constant_outcomes(pair, system)
    return (
        np.full(len(lambda_a), left, dtype=np.int64),
        np.full(len(lambda_a), right, dtype=np.int64),
    )


def simulate_flow(
    lam: SiphonDiameters, system: VesselSystem, dt: float
) -> SplitVolume:
    """Integrate the joint drainage and return the collected volumes.

    Each siphon's outflow rate is proportional to the square of its diameter;
    the tube re-equalizes the two vessel levels after every step, and a
    siphon can never draw more than its vessel holds.  As ``dt`` shrinks the
    left share converges to ``total * lambda_a^2 / (lambda_a^2 + lambda_b^2)``.

    The constant-rate phase is collapsed algebraically (no clipping can occur
    while each vessel still holds a full step's outflow), so large step
    counts stay cheap.  The result agrees with the naive step loop within
    rounding, not bit for bit: one multiplication replaces many additions,
    and the two differ in the last bits (the tests allow 1e-9 L).
    Steps whose outflows leave the float range, and more than
    ``MAX_FLOW_STEPS`` of them, raise ``FlowRangeError``.
    """
    if not (dt > 0.0) or math.isinf(dt):
        raise InvalidStepError(f"time step must be positive and finite, got {dt}")
    try:
        step_left = FLOW_COEFF * lam.lambda_a ** 2 * dt
        step_right = FLOW_COEFF * lam.lambda_b ** 2 * dt
    except OverflowError:
        step_left = step_right = math.inf
    step_total = step_left + step_right
    if not (0.0 < step_total < math.inf):
        raise FlowRangeError(
            f"per-step outflows of diameters ({lam.lambda_a}, {lam.lambda_b}) at "
            f"dt={dt} under- or overflow a float"
        )
    total = system.total_volume
    if not total / step_total < MAX_FLOW_STEPS:
        raise FlowRangeError(
            f"draining {total} L in steps of {step_total} L takes more than 2**53 "
            f"steps, past exact float step counting"
        )

    n_bulk = int(max(0.0, total - 2.0 * max(step_left, step_right)) // step_total)
    x_left = n_bulk * step_left
    x_right = n_bulk * step_right
    available = total - (x_left + x_right)

    while available > 0.0:
        per_vessel = available / 2.0
        drawn_left = min(step_left, per_vessel)
        drawn_right = min(step_right, per_vessel)
        if drawn_left + drawn_right <= 0.0:
            break
        x_left += drawn_left
        x_right += drawn_right
        available -= drawn_left + drawn_right

    return SplitVolume(x_left, x_right)
