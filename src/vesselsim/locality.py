"""Context-free outcome assignments and where the vessel model breaks them.

A local description would give every single-side experiment a value fixed by
the hidden variable alone, with each joint product factorizing as
``product(XY) = e_X * e_Y``.  For a fixed hidden variable that is a finite
question: there are only 16 sign assignments ``(e_A, e_A', e_B, e_B')``, so
an exhaustive search settles whether any of them reproduces the four joint
products.  For the vessel model none does, and the obstruction is visible in
one experiment's outcome flipping with its partner context.

The table is the same for every hidden variable: every run of a pair has
the product ``run_product``.  Only the witness depends on who wins the joint
siphon run, so it is one of the two ``WITNESS_ROWS`` and a scan row one of
the two ``scan_rows``; the ``left_wins`` mask picks the row for every view.
``contextual_table`` still derives a table pair by pair from the outcome
rule, as the independent check of that lemma.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import astuple, dataclass

import numpy as np

from .errors import EmptySampleSetError, InvariantError
from .vessels import (
    ALL_PAIRS,
    PAIR_AB,
    PAIR_AB_PRIME,
    PAIR_APRIME_B,
    PAIR_APRIME_BPRIME,
    SiphonDiameters,
    TiePolicy,
    VesselSystem,
    diameter_batch,
    left_wins,
    outcome_solo_siphon,
    pair_products,
    run_product,
)

_SIGNS = (1, -1)

# Column names of the four joint products, in ALL_PAIRS order (which is also
# the field order of ContextualOutcomeTable).
PRODUCT_COLUMNS = ("product_ab", "product_aprime_b", "product_ab_prime", "product_aprime_bprime")

# The columns of a locality scan, in the order ``scan_columns`` returns them.
SCAN_COLUMNS = (
    *PRODUCT_COLUMNS, "satisfiable", "witness_with_b", "witness_with_bprime", "witness_differs"
)

# The witness of a left loss, then of a left win of the joint siphon run: the
# left siphon's outcome against B, against B' (alone), and whether they differ.
WITNESS_ROWS = tuple(
    (left, outcome_solo_siphon(), left != outcome_solo_siphon()) for left in (-1, 1)
)


@dataclass(frozen=True)
class ContextualOutcomeTable:
    """The four joint products for one fixed hidden variable."""

    product_ab: int
    product_aprime_b: int
    product_ab_prime: int
    product_aprime_bprime: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value not in _SIGNS:
                raise InvariantError(f"{name} must be +1 or -1, got {value}", name)

    def as_dict(self) -> dict[str, int]:
        return {
            PAIR_AB.label: self.product_ab,
            PAIR_APRIME_B.label: self.product_aprime_b,
            PAIR_AB_PRIME.label: self.product_ab_prime,
            PAIR_APRIME_BPRIME.label: self.product_aprime_bprime,
        }

    def entry_product(self) -> int:
        """Product of the four entries; +1 is necessary for factorizability."""
        return (
            self.product_ab
            * self.product_aprime_b
            * self.product_ab_prime
            * self.product_aprime_bprime
        )


@dataclass(frozen=True)
class SignAssignment:
    """One candidate context-free valuation of the four experiments."""

    e_a: int
    e_aprime: int
    e_b: int
    e_bprime: int

    def reproduces(self, table: ContextualOutcomeTable) -> bool:
        return (
            self.e_a * self.e_b == table.product_ab
            and self.e_aprime * self.e_b == table.product_aprime_b
            and self.e_a * self.e_bprime == table.product_ab_prime
            and self.e_aprime * self.e_bprime == table.product_aprime_bprime
        )


@dataclass(frozen=True)
class Witness:
    """One experiment's outcome in two partner contexts for the same hidden variable."""

    lam: SiphonDiameters
    outcome_with_b: int
    outcome_with_bprime: int
    differs: bool


@dataclass(frozen=True)
class FactorizationReport:
    """Verdict of the exhaustive search over the 16 sign assignments."""

    satisfiable: bool
    assignment: SignAssignment | None = None
    search_exhausted: bool = False

    def __post_init__(self) -> None:
        if self.satisfiable and self.assignment is None:
            raise InvariantError("a satisfiable report must carry its assignment", "assignment")
        if not self.satisfiable and not self.search_exhausted:
            raise InvariantError("an unsatisfiable report needs an exhausted search")


class CorrelationKind(enum.Enum):
    """Whether joint outcomes pre-exist the measurement or are created by it."""

    FIRST_KIND = "FirstKind"
    SECOND_KIND = "SecondKind"


def contextual_table(
    lam: SiphonDiameters,
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> ContextualOutcomeTable:
    """The four deterministic joint products for this hidden variable:
    one row of ``pair_products`` per pair.  It does not use the scans'
    one-table lemma, so that the tests can check the scans against it."""
    lambda_a, lambda_b = diameter_batch([lam])
    products = []
    for pair in ALL_PAIRS:
        left, right = pair_products(pair, lambda_a, lambda_b, system, tie_policy, tie_seed)
        products.append(int(left[0] * right[0]))
    return ContextualOutcomeTable(*products)


def search_factorization(table: ContextualOutcomeTable) -> FactorizationReport:
    """Try every sign assignment against the table.

    Returns the first assignment (in a fixed enumeration order) whose pairwise
    products match all four entries, or an unsatisfiable verdict with the
    search recorded as exhausted.
    """
    for e_a, e_aprime, e_b, e_bprime in itertools.product(_SIGNS, repeat=4):
        candidate = SignAssignment(e_a, e_aprime, e_b, e_bprime)
        if candidate.reproduces(table):
            return FactorizationReport(satisfiable=True, assignment=candidate)
    return FactorizationReport(satisfiable=False, search_exhausted=True)


def contextuality_witness(
    lam: SiphonDiameters,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> Witness:
    """Outcome of the left siphon experiment in its two partner contexts.

    Against the other siphon the winner rule applies (an exact tie resolved
    by ``tie_policy``, as in the contextual table); against a spoon test the
    siphon runs alone and always scores +1.  The two disagree exactly when
    the left side loses the joint run: the ``WITNESS_ROWS`` row that
    ``left_wins`` picks.
    """
    wins = left_wins(*diameter_batch([lam]), tie_policy, tie_seed)
    return Witness(lam, *WITNESS_ROWS[int(wins[0])])


def classify_correlations(
    table_fn: Callable[[SiphonDiameters], ContextualOutcomeTable],
    lambda_samples: Iterable[SiphonDiameters],
) -> CorrelationKind:
    """Classify a four-context outcome model over sampled hidden variables.

    Second kind as soon as one sample's table admits no context-free sign
    assignment (the joint outcomes cannot pre-exist the measurement); first
    kind when every sampled table factorizes.
    """
    samples = list(lambda_samples)
    if not samples:
        raise EmptySampleSetError("correlation classification needs at least one sample")
    for lam in samples:
        if not search_factorization(table_fn(lam)).satisfiable:
            return CorrelationKind.SECOND_KIND
    return CorrelationKind.FIRST_KIND


@dataclass(frozen=True)
class SampleAnalysis:
    """Everything the locality scan records for one sampled hidden variable."""

    lam: SiphonDiameters
    table: ContextualOutcomeTable
    factorization: FactorizationReport
    witness: Witness


def _system_table(system: VesselSystem) -> ContextualOutcomeTable:
    """The contextual table of every hidden variable of ``system``: each
    pair's ``run_product``."""
    return ContextualOutcomeTable(*(run_product(pair, system) for pair in ALL_PAIRS))


def scan_rows(system: VesselSystem) -> tuple[tuple, tuple]:
    """The two ``SCAN_COLUMNS`` rows a hidden variable of ``system`` can
    have, in ``left_wins`` order: a left loss of the joint siphon run, then
    a left win.  Both hold the system's one table and its one search's
    verdict, followed by the ``WITNESS_ROWS`` row."""
    table = _system_table(system)
    head = (*astuple(table), search_factorization(table).satisfiable)
    return tuple((*head, *witness) for witness in WITNESS_ROWS)


def scan_columns(
    lambda_a: np.ndarray,
    lambda_b: np.ndarray,
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> dict[str, np.ndarray]:
    """The locality scan over a batch of draws, one numpy column per field.

    Row ``i`` describes the hidden variable ``(lambda_a[i], lambda_b[i])``
    exactly as ``contextual_table``, ``search_factorization`` and
    ``contextuality_witness`` would, in the columns ``SCAN_COLUMNS``: the
    ``scan_rows`` row that the ``left_wins`` mask picks.
    """
    index = left_wins(lambda_a, lambda_b, tie_policy, tie_seed).astype(np.intp)
    columns = zip(*scan_rows(system))
    return {name: np.array(column)[index] for name, column in zip(SCAN_COLUMNS, columns)}


def scan_counts(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]],
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> tuple[int, int]:
    """``scan_columns``' ``satisfiable.sum()`` and ``witness_differs.sum()``
    over all the ``(lambda_a, lambda_b)`` chunks of a run, without building
    its columns: the two ``scan_rows`` rows weighted by the run's left
    losses and left wins.  The wins are counted from ``left_wins``, which
    puts the tied rows through ``tie_policy`` (``error`` raises at the first).
    """
    size = wins = 0
    for lambda_a, lambda_b in chunks:
        wins += int(np.count_nonzero(left_wins(lambda_a, lambda_b, tie_policy, tie_seed)))
        size += len(lambda_a)
    loss, win = scan_rows(system)
    return tuple(
        (size - wins) * loss[column] + wins * win[column]
        for column in map(SCAN_COLUMNS.index, ("satisfiable", "witness_differs"))
    )


def scan_hidden_variables(
    samples: Sequence[SiphonDiameters],
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> list[SampleAnalysis]:
    """Per-sample tables, factorization verdicts, and context witnesses.

    The row-object view of ``scan_columns`` over the same diameters: every
    row shares the system's one table and the one search's report.
    """
    wins = left_wins(*diameter_batch(samples), tie_policy, tie_seed)
    table = _system_table(system)
    factorization = search_factorization(table)
    return [
        SampleAnalysis(lam, table, factorization, Witness(lam, *WITNESS_ROWS[win]))
        for lam, win in zip(samples, wins.tolist())
    ]
