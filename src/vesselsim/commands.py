"""Subcommand implementations: run the experiments, assemble reports.

Every command produces a JSON-ready report dict with the same six top-level
keys (``scenario``, ``estimates``, ``bell``, ``factorization``, ``version``,
``seed``; unused sections are null) plus command-specific sections, and an
optional per-run dump for CSV output.  Reports contain nothing but
seed-derived values, so identical scenarios yield byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

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
    vessel_model,
)
from .errors import ConfigError, InvariantError
from .locality import CorrelationKind, scan_columns
from .quantum import (
    N_AMPLITUDES,
    TOTAL_LITERS,
    born_histogram,
    born_samples,
    is_entangled,
    schmidt_rank,
    singlet_analytic_estimates,
    singlet_model,
)
from .scenario import Scenario
from .streams import BORN_STREAM, LOCALITY_STREAM, substream
from .vessels import ALL_PAIRS, SiphonDiameters, joint_outcome_ab, simulate_flow


@dataclass
class RunDump:
    """Per-run rows for CSV output, each a tuple in ``fieldnames`` order."""

    fieldnames: list[str]
    rows: list[tuple] = field(default_factory=list)


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
    workers: int,
    collect_runs: bool,
) -> tuple[dict, RunDump]:
    """Estimate the four pairs with ``model`` and report the statistic; the
    dump holds every run's ``run_columns`` and outcome product."""
    n = scenario.runs_per_pair
    dump = RunDump(["pair", "run_index", *run_columns, "product"])
    estimates = []
    for pair in ALL_PAIRS:
        if not collect_runs:
            estimates.append(estimate_expectation(model, pair, n, workers))
            continue
        estimate, columns = estimate_expectation(model, pair, n, workers, collect=True)
        estimates.append(estimate)
        products = columns["outcome_left"] * columns["outcome_right"]
        dump.rows.extend(
            zip(
                repeat(pair.label),
                range(n),
                *(columns[name].tolist() for name in run_columns),
                products.tolist(),
            )
        )
    return _chsh_report(scenario, estimates), dump


def vessel_chsh(
    scenario: Scenario, workers: int = 1, collect_runs: bool = False
) -> tuple[dict, RunDump]:
    """Estimate all four coincidence pairs and combine them."""
    model = vessel_model(scenario.sampler, scenario.system, scenario.tie_policy)
    run_columns = ["lambda_a", "lambda_b", "outcome_left", "outcome_right"]
    return _chsh(scenario, model, run_columns, workers, collect_runs)


def locality_check(scenario: Scenario, collect_runs: bool = False) -> tuple[dict, RunDump]:
    """Factorization search and context witnesses over sampled hidden variables."""
    lambda_a, lambda_b = scenario.sampler.draw_arrays(
        scenario.runs_per_pair, key=(LOCALITY_STREAM, 0)
    )
    columns = scan_columns(
        lambda_a, lambda_b, scenario.system, scenario.tie_policy, tie_seed=scenario.seed
    )
    sample_count = len(lambda_a)
    unsatisfiable = sample_count - int(np.count_nonzero(columns["satisfiable"]))
    witnesses = int(np.count_nonzero(columns["witness_differs"]))
    kind = (
        CorrelationKind.SECOND_KIND if unsatisfiable else CorrelationKind.FIRST_KIND
    )

    report = _base_report(scenario)
    report["factorization"] = {
        # True only if every sampled hidden variable admits an assignment.
        "satisfiable": unsatisfiable == 0,
        "witness_count": witnesses,
        "sample_count": sample_count,
        "unsatisfiable_count": unsatisfiable,
    }
    report["correlation_kind"] = kind.value

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
        # .tolist() hands csv Python floats, ints and bools, which it writes
        # as repr, str and True/False.
        values = [
            range(sample_count),
            lambda_a.tolist(),
            lambda_b.tolist(),
            *(columns[name].tolist() for name in dump.fieldnames[3:]),
        ]
        dump.rows = list(zip(*values))
    return report, dump


def sample_state(scenario: Scenario, collect_runs: bool = False) -> tuple[dict, RunDump]:
    """Born-sample the superposition state and report the histogram and rank."""
    state = scenario.state()
    n = scenario.runs_per_pair
    rng = substream(scenario.seed, BORN_STREAM, 0)
    if collect_runs:
        draws = born_samples(state, n, rng)
        histogram = np.bincount(draws, minlength=N_AMPLITUDES).tolist()
    else:
        histogram = born_histogram(state, n, rng).tolist()

    report = _base_report(scenario)
    report["histogram"] = histogram
    report["n_samples"] = n
    report["probabilities"] = state.probabilities().tolist()
    report["schmidt_rank"] = schmidt_rank(state)
    report["entangled"] = is_entangled(state)

    dump = RunDump(["sample_index", "x", "left_liters", "right_liters"])
    if collect_runs:
        left = draws.tolist()
        dump.rows = list(zip(range(n), left, left, (TOTAL_LITERS - draws).tolist()))
    return report, dump


def quantum_chsh(
    scenario: Scenario,
    analytic: bool = False,
    workers: int = 1,
    collect_runs: bool = False,
) -> tuple[dict, RunDump]:
    """Singlet statistic at the scenario's analyzer angles."""
    if scenario.singlet_angles is None:
        raise ConfigError("quantum-chsh requires 'singlet_angles' in the scenario")
    angles = scenario.singlet_angles

    if analytic:
        estimates = singlet_analytic_estimates(angles)
        report = _chsh_report(scenario, estimates)
        dump = RunDump(["pair", "expectation"])
        if collect_runs:
            dump.rows = [(estimate.pair.label, estimate.mean) for estimate in estimates]
    else:
        model = singlet_model(angles, scenario.seed)
        run_columns = ["outcome_left", "outcome_right"]
        report, dump = _chsh(scenario, model, run_columns, workers, collect_runs)
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
        dump.rows.append(tuple(report["flow"][name] for name in dump.fieldnames))
    return report, dump
