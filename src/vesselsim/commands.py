"""Subcommand implementations: run the experiments, assemble reports.

Every command produces a JSON-ready report dict with the same six top-level
keys (``scenario``, ``estimates``, ``bell``, ``factorization``, ``version``,
``seed``; unused sections are null) plus command-specific sections, and an
optional per-run dump for CSV output.  Reports contain nothing but
seed-derived values, so identical scenarios yield byte-identical output.

The dump's rows are computed lazily, one chunk of runs at a time, while the
CSV is written, and each slice of at most ``CSV_ROWS_PER_WRITE`` rows of a
chunk becomes one text, built by a single ``str.join``.  With
``collect_runs`` every command returns no report (None): CSV output does
not use it, and for the sampling commands it would take a second pass over
the runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._version import __version__
from .bell import (
    ALGEBRAIC_BOUND,
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    BellStatistic,
    ExpectationEstimate,
    Model,
    bell_statistic,
    estimate_expectation,
    pair_chunks,
    vessel_model,
)
from .errors import ConfigError, InvariantError
from .locality import SCAN_COLUMNS, CorrelationKind, scan_counts, scan_rows
from .quantum import (
    TOTAL_LITERS,
    born_histogram,
    born_samples,
    is_entangled,
    schmidt_rank,
    singlet_analytic_estimates,
    singlet_model,
)
from .scenario import Scenario
from .streams import BORN_STREAM, LOCALITY_STREAM, run_chunks, substream
from .vessels import (
    ALL_PAIRS, SiphonDiameters, joint_outcome_ab, left_wins, simulate_flow
)


def _csv_lines(rows: Iterable[Iterable]) -> np.ndarray:
    """Each row's cells rendered as a CSV line, or a line's tail, in an
    object array so that a chunk's tails are one take."""
    return np.array([",".join(map(str, row)) + "\n" for row in rows], dtype=object)


# outcome_left, outcome_right, product at 2 * (outcome_left > 0) + (outcome_right > 0).
_CHSH_TAILS = _csv_lines((left, right, left * right) for left in (-1, 1) for right in (-1, 1))
# x, left_liters, right_liters at the Born draw x.
_BORN_TAILS = _csv_lines((x, x, TOTAL_LITERS - x) for x in range(TOTAL_LITERS + 1))

# The flow report's section and its one CSV row, in this order.
FLOW_COLUMNS = ("lambda_a", "lambda_b", "dt", "x_left", "x_right", "outcome_left", "outcome_right")


# Rows per dump text, so that the text held is one slice, not a chunk.
CSV_ROWS_PER_WRITE = 2048


class RowBlocks:
    """The dump's texts, each one slice of at most ``CSV_ROWS_PER_WRITE``
    whole CSV lines, computed lazily as they are iterated (once); ``len()``
    is the number of rows they hold."""

    def __init__(self, texts: Iterable[str], row_count: int) -> None:
        self._texts = texts
        self._row_count = row_count

    def __iter__(self) -> Iterator[str]:
        return iter(self._texts)

    def __len__(self) -> int:
        return self._row_count


@dataclass
class RunDump:
    """Per-run rows for CSV output: texts of whole CSV lines, each line
    holding cells in ``fieldnames`` order."""

    fieldnames: list[str]
    rows: Iterable[str] = ()


def _row_blocks(chunks: Iterable[list[np.ndarray]], prefix: str = "") -> Iterator[str]:
    """The CSV lines of each chunk of cell columns, one text per slice of at
    most ``CSV_ROWS_PER_WRITE`` rows: ``prefix``, a running row index and a
    cell of each column, the last column holding the pre-rendered line tails."""
    start = 0
    for *cells, tails in chunks:
        # A row's pieces: the prefix, the index, then a separator and a cell per column.
        row = [prefix, None] + [",", None] * (len(cells) + 1)
        width = len(row)
        for lo in range(0, len(tails), CSV_ROWS_PER_WRITE):
            hi = min(lo + CSV_ROWS_PER_WRITE, len(tails))
            pieces = row * (hi - lo)
            pieces[1::width] = map(str, range(start + lo, start + hi))
            # .tolist() gives Python floats, ints and strs: str writes repr and str.
            for offset, column in enumerate(cells, 1):
                pieces[1 + 2 * offset :: width] = map(str, column[lo:hi].tolist())
            pieces[width - 1 :: width] = tails[lo:hi].tolist()
            yield "".join(pieces)
        start += len(tails)


def _base_report(scenario: Scenario) -> dict:
    return {
        "scenario": scenario.echo(),
        "estimates": None,
        "bell": None,
        "factorization": None,
        "version": __version__,
        "seed": scenario.seed,
    }


def _estimate_record(estimate: ExpectationEstimate) -> dict:
    return {
        "pair": estimate.pair.label,
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "n": estimate.n,
    }


def _bell_record(statistic: BellStatistic) -> dict:
    return {
        "value": statistic.value,
        "classification": statistic.classification.value,
        # Standard-theory reference bounds, not properties of this model.
        "bounds": {
            "local": LOCAL_BOUND,
            "tsirelson": TSIRELSON_BOUND,
            "algebraic": ALGEBRAIC_BOUND,
        },
    }


def _chsh_report(scenario: Scenario, estimates: list[ExpectationEstimate], **sections) -> dict:
    statistic = bell_statistic(estimates)
    report = _base_report(scenario)
    report["estimates"] = [_estimate_record(estimate) for estimate in statistic.components]
    report["bell"] = _bell_record(statistic)
    report.update(sections)
    return report


def _chsh(
    scenario: Scenario,
    model: Model,
    run_columns: list[str],
    collect_runs: bool,
    **sections,
) -> tuple[dict | None, RunDump]:
    """Estimate the four pairs with ``model`` and report the statistic with
    ``sections`` added; the dump holds every run's ``run_columns``, outcomes
    and outcome product."""
    n = scenario.runs_per_pair
    dump = RunDump(["pair", "run_index", *run_columns, "outcome_left", "outcome_right", "product"])
    if collect_runs:
        def chunk_cells(pair):
            for _, columns in pair_chunks(model, pair, n, collect=True):
                tail = 2 * (columns["outcome_left"] > 0) + (columns["outcome_right"] > 0)
                yield [*(columns[name] for name in run_columns), _CHSH_TAILS[tail]]

        # The pair label, then the run index, run columns and outcome tail.
        blocks = (_row_blocks(chunk_cells(pair), pair.label + ",") for pair in ALL_PAIRS)
        dump.rows = RowBlocks(chain.from_iterable(blocks), len(ALL_PAIRS) * n)
        return None, dump
    estimates = [estimate_expectation(model, pair, n) for pair in ALL_PAIRS]
    return _chsh_report(scenario, estimates, **sections), dump


def vessel_chsh(scenario: Scenario, collect_runs: bool = False) -> tuple[dict | None, RunDump]:
    """Estimate all four coincidence pairs and combine them."""
    model = vessel_model(scenario.sampler, scenario.system, scenario.tie_policy)
    return _chsh(scenario, model, ["lambda_a", "lambda_b"], collect_runs)


def locality_check(
    scenario: Scenario, collect_runs: bool = False
) -> tuple[dict | None, RunDump]:
    """Factorization search and context witnesses over sampled hidden variables."""
    n = scenario.runs_per_pair
    chunks = scenario.sampler.draw_chunks(n, key=(LOCALITY_STREAM,))
    tie_args = (scenario.tie_policy, scenario.seed)
    dump = RunDump(["sample_index", "lambda_a", "lambda_b", *SCAN_COLUMNS])
    if collect_runs:
        # The joint run's winner fixes the cells after lambda_b: the
        # scan_rows row of a left loss, then of a left win.
        tails = _csv_lines(scan_rows(scenario.system))
        blocks = ([a, b, tails[left_wins(a, b, *tie_args).astype(np.intp)]] for a, b in chunks)
        dump.rows = RowBlocks(_row_blocks(blocks), n)
        return None, dump

    satisfiable, witnesses = scan_counts(chunks, scenario.system, *tie_args)
    unsatisfiable = n - satisfiable
    kind = (
        CorrelationKind.SECOND_KIND if unsatisfiable else CorrelationKind.FIRST_KIND
    )

    report = _base_report(scenario)
    report["factorization"] = {
        # True only if every sampled hidden variable admits an assignment.
        "satisfiable": unsatisfiable == 0,
        "witness_count": witnesses,
        "sample_count": n,
        "unsatisfiable_count": unsatisfiable,
    }
    report["correlation_kind"] = kind.value
    return report, dump


def sample_state(
    scenario: Scenario, collect_runs: bool = False
) -> tuple[dict | None, RunDump]:
    """Born-sample the superposition state and report the histogram and rank."""
    state = scenario.state()
    n = scenario.runs_per_pair
    rng = substream(scenario.seed, BORN_STREAM, 0)
    dump = RunDump(["sample_index", "x", "left_liters", "right_liters"])
    if collect_runs:
        # Chunk after chunk on one generator: the same draws as born_samples(state, n, rng).
        draws = run_chunks(lambda _, size: born_samples(state, size, rng), n)
        dump.rows = RowBlocks(_row_blocks([_BORN_TAILS[x]] for x in draws), n)
        return None, dump

    report = _base_report(scenario)
    report["histogram"] = born_histogram(state, n, rng).tolist()
    report["n_samples"] = n
    report["probabilities"] = state.probabilities().tolist()
    report["schmidt_rank"] = schmidt_rank(state)
    report["entangled"] = is_entangled(state)
    return report, dump


def quantum_chsh(
    scenario: Scenario,
    analytic: bool = False,
    collect_runs: bool = False,
) -> tuple[dict | None, RunDump]:
    """Singlet statistic at the scenario's analyzer angles."""
    if scenario.singlet_angles is None:
        raise ConfigError("scenario.singlet_angles: missing; quantum-chsh needs them")
    angles = scenario.singlet_angles
    sections = {"mode": "analytic" if analytic else "monte_carlo", "angles": list(angles)}
    if not analytic:
        return _chsh(scenario, singlet_model(angles, scenario.seed), [], collect_runs, **sections)

    estimates = singlet_analytic_estimates(angles)
    dump = RunDump(["pair", "expectation"])
    if collect_runs:
        rows = _csv_lines((estimate.pair.label, estimate.mean) for estimate in estimates)
        dump.rows = RowBlocks(["".join(rows)], len(rows))
        return None, dump
    return _chsh_report(scenario, estimates, **sections), dump


def flow(
    scenario: Scenario,
    lambda_a: float,
    lambda_b: float,
    dt: float,
    collect_runs: bool = False,
) -> tuple[dict | None, RunDump]:
    """Integrate one joint drainage and report the collected volumes."""
    try:
        lam = SiphonDiameters(lambda_a, lambda_b)
    except InvariantError as exc:
        raise ConfigError(str(exc)) from None
    split = simulate_flow(lam, scenario.system, dt)
    outcome_left, outcome_right = joint_outcome_ab(
        lam, scenario.tie_policy, tie_seed=scenario.seed
    )

    cells = (
        lam.lambda_a, lam.lambda_b, dt, split.x_left, split.x_right, outcome_left, outcome_right
    )
    dump = RunDump(list(FLOW_COLUMNS))
    if collect_runs:
        dump.rows = RowBlocks(["".join(_csv_lines([cells]))], 1)
        return None, dump
    report = _base_report(scenario)
    report["flow"] = dict(zip(FLOW_COLUMNS, cells, strict=True))
    return report, dump
