"""The golden singlet, vessel and sample-state reports rebuilt from the
README's stream layout, singlet rule and report fields alone, without
vesselsim's code.

Each random column of coincidence pair k (AB, A'B, AB', A'B' are 0..3) is
the whole run's draws from ``default_rng(SeedSequence(seed, spawn_key=(k,
column)))``: a vessel pair's left diameters ``uniform(low, high)`` on column
0 and right ones on column 1, a singlet pair's left coins ``integers(0, 2)``
on column 0 and agreement uniforms ``random()`` on column 1.  The Born
sampler is consumer 5, its uniforms ``random()`` on column 0.  Every column
is drawn at once here, so no chunking can show.  Outcomes come from
``per_run_outcomes``, sums are Python integers, and the mean and standard
error follow the README's formula.
"""

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import per_run_outcomes
from test_golden import CASES, GOLDEN, LARGE_HASHES, LARGE_SCENARIO

PAIRS = ("AB", "A'B", "AB'", "A'B'")
BORN = 5
VERSION = re.search(
    r'^version = "(.+)"$',
    (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(),
    re.MULTILINE,
)[1]


def column(seed, pair, index):
    """The generator of one random column of pair number ``pair``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(pair, index)))


def vessel_runs(scenario):
    """Per pair, the cells (lambda_a, lambda_b, left, right) of every run."""
    seed, n = scenario["seed"], scenario["runs_per_pair"]
    sampler = {"low": 0.5, "high": 3.0, **scenario.get("sampler", {})}
    transparent = scenario.get("system", {}).get("transparent", True)
    policy = scenario.get("tie_policy", "error")
    for pair, label in enumerate(PAIRS):
        lambda_a, lambda_b = (
            column(seed, pair, index).uniform(sampler["low"], sampler["high"], n).tolist()
            for index in (0, 1)
        )
        yield [
            (a, b, *per_run_outcomes(label, a, b, transparent, policy, seed))
            for a, b in zip(lambda_a, lambda_b)
        ]


def singlet_dots(angles):
    """Per pair, the dot product of its analyzer directions by the README's
    singlet rule: the left direction at angle t is (cos r, sin r, 0) with
    r = radians(t), a right one is the left one at -t, and
    dot = x*x' + y*y' + z*z', summed in that order."""
    a, aprime, b, bprime = angles

    def direction(angle):
        r = math.radians(angle)
        return math.cos(r), math.sin(r), 0.0

    for left, right in [(a, b), (aprime, b), (a, bprime), (aprime, bprime)]:
        (x, y, z), (x2, y2, z2) = direction(left), direction(-right)
        yield x * x2 + y * y2 + z * z2


def singlet_runs(scenario):
    """Per pair, the cells (left, right) of every run."""
    seed, n = scenario["seed"], scenario["runs_per_pair"]
    for pair, dot in enumerate(singlet_dots(scenario["singlet_angles"])):
        # The sides agree with probability (1 - dot) / 2.
        agree = (1.0 - dot) / 2.0
        coins = column(seed, pair, 0).integers(0, 2, n).tolist()
        uniforms = column(seed, pair, 1).random(n).tolist()
        yield [
            (2 * coin - 1, (2 * coin - 1) * (1 if u < agree else -1))
            for coin, u in zip(coins, uniforms)
        ]


RUNS = {"vessel-chsh": (vessel_runs, ["lambda_a", "lambda_b"]), "quantum-chsh": (singlet_runs, [])}


def csv_text(subcommand, scenario):
    runs, run_columns = RUNS[subcommand]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["pair", "run_index", *run_columns, "outcome_left", "outcome_right", "product"])
    for label, rows in zip(PAIRS, runs(scenario)):
        for index, (*cells, left, right) in enumerate(rows):
            writer.writerow([label, index, *cells, left, right, left * right])
    return out.getvalue()


def mean_and_stderr(product_sum, n):
    """The README's formula, in its stated order of operations."""
    mean = product_sum / n
    return mean, 0.0 if n == 1 else math.sqrt(n * (1.0 - mean * mean) / (n - 1) / n)


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_json_estimates_from_the_column_draws(subcommand):
    _, _, scenario = CASES[subcommand]
    report = json.loads((GOLDEN / f"{subcommand}.json").read_text())
    n = scenario["runs_per_pair"]
    means = {}
    for label, rows, estimate in zip(PAIRS, RUNS[subcommand][0](scenario), report["estimates"]):
        product_sum = sum(left * right for *_, left, right in rows)
        mean, stderr = mean_and_stderr(product_sum, n)
        assert estimate == {"pair": label, "mean": mean, "stderr": stderr, "n": n}
        means[label] = mean
    assert report["bell"]["value"] == means["A'B'"] + means["A'B"] + means["AB'"] - means["AB"]


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_csv_from_the_column_draws(subcommand):
    _, _, scenario = CASES[subcommand]
    assert csv_text(subcommand, scenario) == (GOLDEN / f"{subcommand}.csv").read_text()


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_large_dump_hash_from_the_column_draws(subcommand):
    # One chunk and more of runs: the library's chunk edge must not show.
    text = csv_text(subcommand, LARGE_SCENARIO).encode()
    line = f"{hashlib.sha256(text).hexdigest()}  {subcommand}.csv\n"
    assert line in LARGE_HASHES.read_text().splitlines(keepends=True)


def test_analytic_report_from_the_singlet_rule():
    # E = -copysign(min(|dot|, 1), dot) per pair; the statistic sums the
    # four in the README's order.  The shortcut E = -cos(radians(l + r))
    # differs from it in the last bit on these angles.
    _, _, scenario = CASES["quantum-chsh-analytic"]
    report = json.loads((GOLDEN / "quantum-chsh-analytic.json").read_text())
    means = [-math.copysign(min(abs(dot), 1.0), dot) for dot in singlet_dots(report["angles"])]
    assert report["angles"] == scenario["singlet_angles"]
    assert report["estimates"] == [
        {"pair": label, "mean": mean, "stderr": 0.0, "n": 1} for label, mean in zip(PAIRS, means)
    ]
    ab, aprime_b, ab_prime, aprime_bprime = means
    assert report["bell"]["value"] == aprime_bprime + aprime_b + ab_prime - ab
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("pair", "expectation"), *zip(PAIRS, means)])
    assert out.getvalue() == (GOLDEN / "quantum-chsh-analytic.csv").read_text()


def sample_state_echo(scenario):
    """The README's echo of a scenario that gives ``amplitudes`` and no
    ``singlet_angles``: every field with its default where the file leaves
    it out, and numbers other than ``seed`` and ``runs_per_pair`` as
    floats."""
    system = {"total_volume": 20.0, "transparent": True, **scenario.get("system", {})}
    sampler = {"low": 0.5, "high": 3.0, **scenario.get("sampler", {})}
    return {
        "seed": scenario["seed"],
        "runs_per_pair": scenario.get("runs_per_pair", 1000),
        "tie_policy": scenario.get("tie_policy", "error"),
        "system": {
            "total_volume": float(system["total_volume"]),
            "transparent": system["transparent"],
        },
        "sampler": {"low": float(sampler["low"]), "high": float(sampler["high"])},
        "amplitudes": [[float(re), float(im)] for re, im in scenario["amplitudes"]],
    }


def born_draws(scenario):
    """The squared moduli of the amplitudes and the Born draw x of every
    sample: each uniform located with ``searchsorted(side="right")`` in the
    cdf that ``Generator.choice`` builds for ``p = probabilities /
    sum(probabilities)``, the running sum of ``p`` divided by its last
    entry."""
    amplitudes = np.array([complex(re, im) for re, im in scenario["amplitudes"]])
    probabilities = np.abs(amplitudes) ** 2
    p = probabilities / probabilities.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    seed, n = scenario["seed"], scenario["runs_per_pair"]
    draws = cdf.searchsorted(column(seed, BORN, 0).random(n), side="right")
    # The same draws as Generator.choice makes from the same column.
    assert np.array_equal(draws, column(seed, BORN, 0).choice(11, n, p=p))
    return probabilities, draws


def sample_state_csv(scenario):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sample_index", "x", "left_liters", "right_liters"])
    for index, x in enumerate(born_draws(scenario)[1].tolist()):
        writer.writerow([index, x, x, 10 - x])
    return out.getvalue()


def test_sample_state_report_from_the_born_draws():
    _, _, scenario = CASES["sample-state"]
    probabilities, draws = born_draws(scenario)
    moduli = np.abs(np.array([complex(re, im) for re, im in scenario["amplitudes"]]))
    rank = sum(modulus > 1e-9 for modulus in moduli.tolist())
    assert json.loads((GOLDEN / "sample-state.json").read_text()) == {
        "scenario": sample_state_echo(scenario),
        "estimates": None,
        "bell": None,
        "factorization": None,
        "version": VERSION,
        "seed": scenario["seed"],
        "histogram": [draws.tolist().count(x) for x in range(11)],
        "n_samples": scenario["runs_per_pair"],
        "probabilities": probabilities.tolist(),
        "schmidt_rank": rank,
        "entangled": rank >= 2,
    }


def test_sample_state_csv_from_the_born_draws():
    _, _, scenario = CASES["sample-state"]
    assert sample_state_csv(scenario) == (GOLDEN / "sample-state.csv").read_text()


def test_large_sample_state_hash_from_the_born_draws():
    text = sample_state_csv(LARGE_SCENARIO).encode()
    line = f"{hashlib.sha256(text).hexdigest()}  sample-state.csv\n"
    assert line in LARGE_HASHES.read_text().splitlines(keepends=True)
