"""Context-free outcome assignments and where the vessel model breaks them.

A local description would give every single-side experiment a value fixed by
the hidden variable alone, with each joint product factorizing as
``product(XY) = e_X * e_Y``.  For a fixed hidden variable that is a finite
question: there are only 16 sign assignments ``(e_A, e_A', e_B, e_B')``, so
an exhaustive search settles whether any of them reproduces the four joint
products.  For the vessel model none does, and the obstruction is visible in
one experiment's outcome flipping with its partner context.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

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
    constant_outcomes,
    joint_left_wins,
    joint_outcome_ab,
    outcome_solo_siphon,
    pair_products,
)

_SIGNS = (1, -1)

# Column names of the four joint products, in ALL_PAIRS order (which is also
# the field order of ContextualOutcomeTable).
PRODUCT_COLUMNS = ("product_ab", "product_aprime_b", "product_ab_prime", "product_aprime_bprime")


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
    witnesses: tuple[Witness, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.satisfiable and self.assignment is None:
            raise InvariantError("a satisfiable report must carry its assignment", "assignment")
        if not self.satisfiable and not self.search_exhausted and not self.witnesses:
            raise InvariantError(
                "an unsatisfiable report needs witnesses or an exhausted search"
            )


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
    one row of ``pair_products`` per pair."""
    lambda_a = np.array([lam.lambda_a], dtype=np.float64)
    lambda_b = np.array([lam.lambda_b], dtype=np.float64)
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
    the left side loses the joint run.
    """
    outcome_with_b, _ = joint_outcome_ab(lam, tie_policy, tie_seed)
    outcome_with_bprime = outcome_solo_siphon()
    return Witness(
        lam=lam,
        outcome_with_b=outcome_with_b,
        outcome_with_bprime=outcome_with_bprime,
        differs=outcome_with_b != outcome_with_bprime,
    )


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


def _table_of_code(code: int) -> ContextualOutcomeTable:
    """The table whose entry for ``ALL_PAIRS[bit]`` is -1 where bit ``bit`` of ``code`` is set."""
    return ContextualOutcomeTable(*(-1 if code >> bit & 1 else 1 for bit in range(4)))


def _factorization(code: int, reports: dict[int, FactorizationReport]) -> FactorizationReport:
    """The exhaustive search's report for table ``code``, searched only if
    ``reports`` does not hold it yet (and then added to it)."""
    if code not in reports:
        reports[code] = search_factorization(_table_of_code(code))
    return reports[code]


def _factorizations(
    codes: np.ndarray, reports: dict[int, FactorizationReport] | None = None
) -> dict[int, FactorizationReport]:
    """The exhaustive search's report for each table code present, one search
    per code not yet in ``reports``; returns ``reports`` with them added."""
    reports = {} if reports is None else reports
    for code in np.flatnonzero(np.bincount(codes, minlength=16)).tolist():
        _factorization(code, reports)
    return reports


def scan_columns(
    lambda_a: np.ndarray,
    lambda_b: np.ndarray,
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
    reports: dict[int, FactorizationReport] | None = None,
) -> dict[str, np.ndarray]:
    """The locality scan over a batch of draws, one numpy column per field.

    Row ``i`` describes the hidden variable ``(lambda_a[i], lambda_b[i])``
    exactly as ``contextual_table``, ``search_factorization`` and
    ``contextuality_witness`` would: the four joint products (columns
    ``PRODUCT_COLUMNS``), ``satisfiable``, and ``witness_with_b``,
    ``witness_with_bprime`` and ``witness_differs``.  ``table_code`` packs
    the table's signs into 4 bits (bit ``k`` set when pair ``ALL_PAIRS[k]``
    multiplies to -1).

    The products come from the vectorized outcome rule ``pair_products``.
    The exhaustive search stays the authority on factorizability, but runs
    once per distinct table code (at most 16 times), not once per row;
    passing the same ``reports`` dict to the scans of several batches keeps
    it to once per code over all of them.
    """
    outcomes = {
        pair: pair_products(pair, lambda_a, lambda_b, system, tie_policy, tie_seed)
        for pair in ALL_PAIRS
    }
    columns: dict[str, np.ndarray] = {}
    codes = np.zeros(len(lambda_a), dtype=np.intp)
    for bit, (name, pair) in enumerate(zip(PRODUCT_COLUMNS, ALL_PAIRS)):
        outcome_left, outcome_right = outcomes[pair]
        columns[name] = outcome_left * outcome_right
        codes |= (columns[name] < 0).astype(np.intp) << bit

    verdicts = np.zeros(16, dtype=bool)
    for code, report in _factorizations(codes, reports).items():
        verdicts[code] = report.satisfiable
    witness_with_b = outcomes[PAIR_AB][0]
    witness_with_bprime = np.full(len(lambda_a), outcome_solo_siphon(system), dtype=np.int64)
    columns["satisfiable"] = verdicts[codes]
    columns["witness_with_b"] = witness_with_b
    columns["witness_with_bprime"] = witness_with_bprime
    columns["witness_differs"] = witness_with_b != witness_with_bprime
    columns["table_code"] = codes
    return columns


def scan_counts(
    lambda_a: np.ndarray,
    lambda_b: np.ndarray,
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
    reports: dict[int, FactorizationReport] | None = None,
) -> tuple[int, int]:
    """``scan_columns``' ``satisfiable.sum()`` and ``witness_differs.sum()``
    over a batch of draws, without building its columns.

    Every row has the same table: the joint siphon run multiplies to -1 for
    every hidden variable, ties included (the lemma of
    ``joint_product_sum``), and the other three pairs are constants of the
    state.  One exhaustive search on that table (shared through ``reports``
    as in ``scan_columns``) therefore decides all rows or none.  A row is a
    witness when its left siphon's outcome against B differs from the solo
    siphon's, which is always +1: when the left side loses the joint run.
    ``joint_left_wins`` counts the wins, putting the tied rows through
    ``tie_policy`` (``error`` raises at the first).
    """
    size = len(lambda_a)
    left_losses = size - joint_left_wins(lambda_a, lambda_b, tie_policy, tie_seed)
    # ALL_PAIRS[0] is the joint siphon run PAIR_AB.
    products = [-1]
    for pair in ALL_PAIRS[1:]:
        left, right = constant_outcomes(pair, system)
        products.append(left * right)
    code = sum(1 << bit for bit, product in enumerate(products) if product < 0)
    report = _factorization(code, {} if reports is None else reports)
    return (size if report.satisfiable else 0), left_losses


def scan_hidden_variables(
    samples: Sequence[SiphonDiameters],
    system: VesselSystem,
    tie_policy: TiePolicy = TiePolicy.ERROR,
    tie_seed: int = 0,
) -> list[SampleAnalysis]:
    """Per-sample tables, factorization verdicts, and context witnesses.

    The row-object view of ``scan_columns`` over the same diameters.
    """
    lambda_a = np.array([lam.lambda_a for lam in samples], dtype=np.float64)
    lambda_b = np.array([lam.lambda_b for lam in samples], dtype=np.float64)
    reports: dict[int, FactorizationReport] = {}
    columns = scan_columns(lambda_a, lambda_b, system, tie_policy, tie_seed, reports)
    rows = zip(
        samples,
        columns["table_code"].tolist(),
        columns["witness_with_b"].tolist(),
        columns["witness_with_bprime"].tolist(),
        columns["witness_differs"].tolist(),
    )
    return [
        SampleAnalysis(
            lam=lam,
            table=_table_of_code(code),
            factorization=reports[code],
            witness=Witness(lam, with_b, with_bprime, differs),
        )
        for lam, code, with_b, with_bprime, differs in rows
    ]
