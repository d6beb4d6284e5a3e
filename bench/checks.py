"""Output checks: every op's report is checked after the run, untimed.

Each check returns a list of problems; an empty list means the report is
correct.  CSV dumps are checked against the JSON report of the same
scenario, which the run process writes after its timed passes (the README's
"row-level statistics aggregate exactly" contract).
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

# Accepted distance of the singlet estimate from 2*sqrt(2), in combined
# standard errors of the four pair means.
QUANTUM_SIGMAS = 6.0

CSV_HEADERS = {
    "vessel-chsh": [
        "pair", "run_index", "lambda_a", "lambda_b", "outcome_left", "outcome_right", "product",
    ],
    "quantum-chsh": ["pair", "run_index", "outcome_left", "outcome_right", "product"],
    "sample-state": ["sample_index", "x", "left_liters", "right_liters"],
    "locality-check": [
        "sample_index", "lambda_a", "lambda_b", "product_ab", "product_aprime_b",
        "product_ab_prime", "product_aprime_bprime", "satisfiable", "witness_with_b",
        "witness_with_bprime", "witness_differs",
    ],
}


def _estimates(report: dict, runs: int) -> list[str]:
    problems = []
    estimates = report.get("estimates") or []
    if len(estimates) != 4:
        problems.append(f"expected 4 pair estimates, got {len(estimates)}")
    problems += [
        f"pair {e.get('pair')}: n={e.get('n')}, expected {runs}"
        for e in estimates
        if e.get("n") != runs
    ]
    return problems


def check_json(subcommand: str, report: dict, runs: int) -> list[str]:
    if subcommand == "vessel-chsh":
        problems = _estimates(report, runs)
        bell = report["bell"]
        if bell["value"] != 4.0:
            problems.append(f"bell value {bell['value']!r}, expected exactly 4.0")
        if bell["classification"] != "SuperQuantum":
            problems.append(f"classification {bell['classification']!r}")
        return problems
    if subcommand == "quantum-chsh":
        problems = _estimates(report, runs)
        value = report["bell"]["value"]
        stderr = math.sqrt(sum(e["stderr"] ** 2 for e in report["estimates"]))
        if not abs(value - 2 * math.sqrt(2)) <= QUANTUM_SIGMAS * stderr:
            problems.append(
                f"singlet value {value!r} is more than {QUANTUM_SIGMAS} x {stderr:.3g}"
                " from 2*sqrt(2)"
            )
        return problems
    if subcommand == "sample-state":
        problems = []
        if sum(report["histogram"]) != runs or report["n_samples"] != runs:
            problems.append(f"histogram sums to {sum(report['histogram'])}, expected {runs}")
        if report["schmidt_rank"] != 11:
            problems.append(f"schmidt rank {report['schmidt_rank']}, expected 11")
        return problems
    if subcommand == "locality-check":
        section = report["factorization"]
        problems = []
        if section["satisfiable"] is not False:
            problems.append("factorization reported satisfiable")
        if not section["unsatisfiable_count"] == section["sample_count"] == runs:
            problems.append(
                f"unsatisfiable {section['unsatisfiable_count']} of "
                f"{section['sample_count']} samples, expected all {runs}"
            )
        return problems
    return [f"no check for subcommand {subcommand!r}"]


def check_csv(subcommand: str, path: Path, runs: int, reference: dict) -> list[str]:
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        rows = list(reader)
    expected = CSV_HEADERS[subcommand]
    if header != expected:
        return [f"header {header}, expected {expected}"]
    column = {name: index for index, name in enumerate(header)}

    if subcommand in ("vessel-chsh", "quantum-chsh"):
        if len(rows) != 4 * runs:
            return [f"{len(rows)} rows, expected {4 * runs}"]
        sums: Counter = Counter()
        counts: Counter = Counter()
        left, right, product = column["outcome_left"], column["outcome_right"], column["product"]
        bad_products = 0
        for row in rows:
            value = int(row[product])
            bad_products += value != int(row[left]) * int(row[right])
            sums[row[0]] += value
            counts[row[0]] += 1
        problems = [f"{bad_products} rows whose product is not left * right"] if bad_products else []
        for estimate in reference["estimates"]:
            pair = estimate["pair"]
            if counts[pair] != runs:
                problems.append(f"pair {pair}: {counts[pair]} rows, expected {runs}")
            elif sums[pair] / runs != estimate["mean"]:
                problems.append(
                    f"pair {pair}: row mean {sums[pair] / runs!r} != report {estimate['mean']!r}"
                )
        return problems

    if len(rows) != runs:
        return [f"{len(rows)} rows, expected {runs}"]
    if subcommand == "sample-state":
        histogram = [0] * len(reference["histogram"])
        for row in rows:
            histogram[int(row[column["x"]])] += 1
        if histogram != reference["histogram"]:
            return ["row histogram differs from the report's"]
        return []
    if subcommand == "locality-check":
        section = reference["factorization"]
        unsatisfiable = sum(row[column["satisfiable"]] == "False" for row in rows)
        witnesses = sum(row[column["witness_differs"]] == "True" for row in rows)
        problems = []
        if unsatisfiable != section["unsatisfiable_count"]:
            problems.append(f"{unsatisfiable} unsatisfiable rows, report says "
                            f"{section['unsatisfiable_count']}")
        if witnesses != section["witness_count"]:
            problems.append(f"{witnesses} witness rows, report says {section['witness_count']}")
        return problems
    return [f"no check for subcommand {subcommand!r}"]


def check_op(op, path: Path, reference_path: Path | None) -> list[str]:
    """Problems with the report ``op`` wrote to ``path``."""
    if op.format == "json":
        return check_json(op.subcommand, json.loads(path.read_text()), op.runs_per_pair)
    if reference_path is None or not reference_path.is_file():
        return ["no JSON reference report for the CSV dump"]
    reference = json.loads(reference_path.read_text())
    problems = check_json(op.subcommand, reference, op.runs_per_pair)
    return problems + check_csv(op.subcommand, path, op.runs_per_pair, reference)
