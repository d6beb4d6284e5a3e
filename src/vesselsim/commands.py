"""Subcommand implementations: run the experiments, assemble reports.

Every command produces a JSON-ready report dict with the same six top-level
keys (``scenario``, ``estimates``, ``bell``, ``factorization``, ``version``,
``seed``; unused sections are null) plus command-specific sections, and an
optional per-run dump for CSV output.  Reports contain nothing but
seed-derived values, so identical scenarios yield byte-identical output.

The dump's rows are computed lazily, one chunk of runs at a time, while the
CSV is written.  With ``collect_runs`` the sampling commands return no
report (None): it would take a second pass over the runs, and CSV output
does not use it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

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
from .locality import CorrelationKind, scan_columns, scan_counts
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
from .streams import BORN_STREAM, LOCALITY_STREAM, chunk_sizes, substream
from .vessels import ALL_PAIRS, SiphonDiameters, joint_outcome_ab, simulate_flow


class RowBlocks:
    """Row blocks of at most ``CHUNK_SIZE`` rows each, computed lazily as
    they are iterated (once); ``len()`` is the number of rows they hold."""

    def __init__(self, blocks: Iterable[Iterable[tuple]], row_count: int) -> None:
        self._blocks = blocks
        self._row_count = row_count

    def __iter__(self) -> Iterator[Iterable[tuple]]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return self._row_count


@dataclass
class RunDump:
    """Per-run rows for CSV output: blocks of rows, each row a tuple in
    ``fieldnames`` order."""

    fieldnames: list[str]
    rows: Iterable[Iterable[tuple]] = ()


def _row_blocks(chunks: Iterable[Sequence[np.ndarray]], *leading) -> Iterator[Iterable[tuple]]:
    """One block of rows per chunk of columns: the ``leading`` values, a
    running row index, then the chunk's columns."""
    start = 0
    for columns in chunks:
        size = len(columns[0])
        # .tolist() gives Python floats, ints and bools: "%s" writes repr and str.
        yield zip(
            *map(repeat, leading),
            range(start, start + size),
            *(column.tolist() for column in columns),
        )
        start += size


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


def _chsh_report(scenario: Scenario, estimates: list[ExpectationEstimate]) -> dict:
    statistic = bell_statistic(estimates)
    report = _base_report(scenario)
    report["estimates"] = [_estimate_record(estimate) for estimate in statistic.components]
    report["bell"] = _bell_record(statistic)
    return report


def _chsh(
    scenario: Scenario,
    model: Model,
    run_columns: list[str],
    collect_runs: bool,
) -> tuple[dict | None, RunDump]:
    """Estimate the four pairs with ``model`` and report the statistic; the
    dump holds every run's ``run_columns`` and outcome product."""
    n = scenario.runs_per_pair
    dump = RunDump(["pair", "run_index", *run_columns, "product"])
    if collect_runs:

        def chunk_columns(pair):
            for _, columns in pair_chunks(model, pair, n, collect=True):
                products = columns["outcome_left"] * columns["outcome_right"]
                yield [*(columns[name] for name in run_columns), products]

        blocks = (_row_blocks(chunk_columns(pair), pair.label) for pair in ALL_PAIRS)
        dump.rows = RowBlocks(chain.from_iterable(blocks), len(ALL_PAIRS) * n)
        return None, dump
    estimates = [estimate_expectation(model, pair, n) for pair in ALL_PAIRS]
    return _chsh_report(scenario, estimates), dump


def vessel_chsh(scenario: Scenario, collect_runs: bool = False) -> tuple[dict | None, RunDump]:
    """Estimate all four coincidence pairs and combine them."""
    model = vessel_model(scenario.sampler, scenario.system, scenario.tie_policy)
    run_columns = ["lambda_a", "lambda_b", "outcome_left", "outcome_right"]
    return _chsh(scenario, model, run_columns, collect_runs)


def locality_check(
    scenario: Scenario, collect_runs: bool = False
) -> tuple[dict | None, RunDump]:
    """Factorization search and context witnesses over sampled hidden variables."""
    n = scenario.runs_per_pair
    chunks = scenario.sampler.draw_chunks(n, key=(LOCALITY_STREAM, 0))
    scan_args = (scenario.system, scenario.tie_policy, scenario.seed)
    dump = RunDump(
        [
            "sample_index",
            "lambda_a",
            "lambda_b",
            "product_ab",
            "product_aprime_b",
            "product_ab_prime",
            "product_aprime_bprime",
            "satisfiable",
            "witness_with_b",
            "witness_with_bprime",
            "witness_differs",
        ]
    )
    if collect_runs:
        scans = ((a, b, scan_columns(a, b, *scan_args)) for a, b in chunks)
        blocks = (
            [a, b, *(columns[name] for name in dump.fieldnames[3:])] for a, b, columns in scans
        )
        dump.rows = RowBlocks(_row_blocks(blocks), n)
        return None, dump

    satisfiable, witnesses = scan_counts(chunks, *scan_args)
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
        draws = (born_samples(state, size, rng) for size in chunk_sizes(n))
        dump.rows = RowBlocks(_row_blocks((left, left, TOTAL_LITERS - left) for left in draws), n)
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
        raise ConfigError("quantum-chsh requires 'singlet_angles' in the scenario")
    angles = scenario.singlet_angles

    if analytic:
        estimates = singlet_analytic_estimates(angles)
        report = _chsh_report(scenario, estimates)
        dump = RunDump(["pair", "expectation"])
        if collect_runs:
            rows = [(estimate.pair.label, estimate.mean) for estimate in estimates]
            dump.rows = RowBlocks([rows], len(rows))
    else:
        model = singlet_model(angles, scenario.seed)
        run_columns = ["outcome_left", "outcome_right"]
        report, dump = _chsh(scenario, model, run_columns, collect_runs)
    if report is not None:
        report["mode"] = "analytic" if analytic else "monte_carlo"
        report["angles"] = list(angles)
    return report, dump


def flow(
    scenario: Scenario,
    lambda_a: float,
    lambda_b: float,
    dt: float,
    collect_runs: bool = False,
) -> tuple[dict, RunDump]:
    """Integrate one joint drainage and report the collected volumes."""
    try:
        lam = SiphonDiameters(lambda_a, lambda_b)
    except InvariantError as exc:
        raise ConfigError(str(exc)) from None
    split = simulate_flow(lam, scenario.system, dt)
    outcome_left, outcome_right = joint_outcome_ab(
        lam, scenario.tie_policy, tie_seed=scenario.seed
    )

    report = _base_report(scenario)
    report["flow"] = {
        "lambda_a": lam.lambda_a,
        "lambda_b": lam.lambda_b,
        "dt": dt,
        "x_left": split.x_left,
        "x_right": split.x_right,
        "outcome_left": outcome_left,
        "outcome_right": outcome_right,
    }

    dump = RunDump(
        ["lambda_a", "lambda_b", "dt", "x_left", "x_right", "outcome_left", "outcome_right"]
    )
    if collect_runs:
        dump.rows = RowBlocks([[tuple(report["flow"][name] for name in dump.fieldnames)]], 1)
    return report, dump
