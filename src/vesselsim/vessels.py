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
is the one place that rule is written: ``joint_outcome_ab`` for one joint
run and ``left_wins`` for a batch of joint runs, which ``pair_products``
turns into the per-run outcomes of a batch of draws.

Everything in this module is a pure function of its inputs; randomness, if
any, lives in the hidden-variable samplers upstream.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
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
    """Hidden variable of a joint siphon run: the two diameters in cm."""

    lambda_a: float
    lambda_b: float

    def __post_init__(self) -> None:
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


def _break_tie(lam: SiphonDiameters, tie_policy: TiePolicy, tie_seed: int) -> tuple[int, int]:
    """Outcomes of a joint run with equal diameters, by ``tie_policy``; the
    split coin hashes the seed and both diameters, which keeps it stable
    across platforms and processes."""
    if tie_policy is TiePolicy.ERROR:
        raise DegenerateTieError(
            f"equal siphon diameters {lam.lambda_a} leave the joint outcome undefined"
        )
    if tie_policy is TiePolicy.FAVOR_LEFT:
        return 1, -1
    if tie_policy is TiePolicy.FAVOR_RIGHT:
        return -1, 1
    payload = struct.pack("<Qdd", tie_seed, lam.lambda_a, lam.lambda_b)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return (1, -1) if digest[0] & 1 else (-1, 1)


def _check_batch(lambda_a: np.ndarray, lambda_b: np.ndarray, tie_seed: int) -> None:
    """The checks every batch function makes once per call: the tie coin's
    seed follows the seed rule, and the diameters are two 1-D numpy arrays
    of equal length, row ``i`` being the draw ``(lambda_a[i], lambda_b[i])``.
    Lists and tuples are refused: a comparison of two lists is one bool."""
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


def joint_outcome_ab(
    lam: SiphonDiameters,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> tuple[int, int]:
    """Outcomes of the joint siphon run.

    The wider siphon drains faster and ends up with more than half of the
    water, so it scores +1 and the other side -1.  An exact tie is resolved
    by ``tie_policy``; ``tie_seed`` follows the seed rule.
    """
    check_seed(tie_seed, "tie_seed")
    if lam.lambda_b < lam.lambda_a:
        return 1, -1
    if lam.lambda_a < lam.lambda_b:
        return -1, 1
    return _break_tie(lam, tie_policy, tie_seed)


def left_wins(
    lambda_a: np.ndarray,
    lambda_b: np.ndarray,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> np.ndarray:
    """Which joint siphon runs of a batch of draws the left side wins, as a
    bool mask.

    The winner rule of ``joint_outcome_ab``, row by row: the strictly wider
    left siphon wins, and each tied row goes to ``tie_policy`` (``error``
    raises at the first tie).  Whoever wins, the two sides disagree.
    """
    _check_batch(lambda_a, lambda_b, tie_seed)
    wins = lambda_b < lambda_a
    for index in np.flatnonzero(lambda_a == lambda_b).tolist():
        tie = SiphonDiameters(lambda_a[index], lambda_b[index])
        wins[index] = _break_tie(tie, tie_policy, tie_seed)[0] == 1
    return wins


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
    while each vessel still holds a full step's outflow), which keeps the
    result identical to the naive step loop while large step counts stay cheap.
    Steps whose outflows leave the float range, and more than
    ``MAX_FLOW_STEPS`` of them, raise ``FlowRangeError``.
    """
    if not (dt > 0.0) or math.isinf(dt):
        raise InvalidStepError(f"time step must be positive and finite, got {dt}")
    try:
        step_left = FLOW_COEFF * float(lam.lambda_a) ** 2 * dt
        step_right = FLOW_COEFF * float(lam.lambda_b) ** 2 * dt
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
