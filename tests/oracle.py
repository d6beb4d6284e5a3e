"""vesselsim's sampling reports rebuilt from its README alone.

``expected`` returns the report dict and the CSV text of ``vessel-chsh``,
``quantum-chsh`` (Monte Carlo and ``--analytic``), ``sample-state`` and
``locality-check`` for a scenario dict.  This module imports nothing from
``vesselsim`` (``test_reference.py`` checks that in a fresh interpreter), so
a fault that the library's functions share with its command line shows.

Column k of consumer c is the whole run drawn from
``default_rng(SeedSequence(seed, spawn_key=(c, k)))`` (README, "Stream
layout"), at once, so no chunking can show.  Outcomes come from
``per_run_outcomes``, sums are Python integers, every report is folded from
the rows of its own CSV, and ``csv.writer`` writes the CSV.  ``flow`` is
left out: its bulk-phase shortcut agrees with a naive step loop only within
rounding, so its bytes could be rebuilt only by copying the library's code.
"""

import csv
import hashlib
import io
import itertools
import math
import re
import struct
from functools import cache
from pathlib import Path

import numpy as np

PAIRS = ("AB", "A'B", "AB'", "A'B'")
LOCALITY, BORN = 4, 5
BOUNDS = {"local": 2.0, "tsirelson": 2.0 * math.sqrt(2.0), "algebraic": 4.0}
VERSION = re.search(
    r'^version = "(.+)"$',
    (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(),
    re.MULTILINE,
)[1]


def per_run_outcomes(label, lambda_a, lambda_b, transparent, tie_policy="error", tie_seed=0):
    """Both outcomes of one run of pair ``label``, by the README rule.

    Two siphons run together anti-correlate and the wider one scores +1; a
    siphon whose partner is a spoon test scores +1; a spoon test scores +1
    exactly when the water is transparent.  An exact tie goes to the named
    policy; the split coin is the low bit of the first byte of the 8-byte
    BLAKE2b digest of the seed and both diameters.  Returns None for a tie
    under "error".
    """
    if label == "AB":
        if lambda_a != lambda_b:
            left_wins = lambda_a > lambda_b
        elif tie_policy == "error":
            return None
        elif tie_policy in ("favor_left", "favor_right"):
            left_wins = tie_policy == "favor_left"
        else:
            payload = struct.pack("<Qdd", tie_seed % 2**64, lambda_a, lambda_b)
            left_wins = bool(hashlib.blake2b(payload, digest_size=8).digest()[0] & 1)
        return (1, -1) if left_wins else (-1, 1)
    spoon = 1 if transparent else -1
    left = spoon if label.startswith("A'") else 1
    right = spoon if label.endswith("B'") else 1
    return left, right


@cache
def satisfiable(products):
    """Whether some (e_A, e_A', e_B, e_B') in {+1, -1}^4 reproduces the four
    joint products, given in ``PAIRS`` order: a search over all 16."""
    return any(
        (e_a * e_b, e_aprime * e_b, e_a * e_bprime, e_aprime * e_bprime) == products
        for e_a, e_aprime, e_b, e_bprime in itertools.product((1, -1), repeat=4)
    )


def column(seed, consumer, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(consumer, index)))


def echo(scenario):
    """The README's echo of a scenario dict, which the oracle reads it from:
    every field with its default where the file leaves it out, ``amplitudes``
    and ``singlet_angles`` only when given, and numbers other than ``seed``
    and ``runs_per_pair`` as floats."""
    system = {"total_volume": 20.0, "transparent": True, **scenario.get("system", {})}
    sampler = {"low": 0.5, "high": 3.0, **scenario.get("sampler", {})}
    data = {
        "seed": scenario["seed"],
        "runs_per_pair": scenario.get("runs_per_pair", 1000),
        "tie_policy": scenario.get("tie_policy", "error"),
        "system": {**system, "total_volume": float(system["total_volume"])},
        "sampler": {"low": float(sampler["low"]), "high": float(sampler["high"])},
    }
    if "amplitudes" in scenario:
        data["amplitudes"] = [[float(re), float(im)] for re, im in scenario["amplitudes"]]
    if "singlet_angles" in scenario:
        data["singlet_angles"] = [float(angle) for angle in scenario["singlet_angles"]]
    return data


def report(s, **sections):
    """The six common keys of the echo ``s``, updated with ``sections``."""
    common = {"estimates": None, "bell": None, "factorization": None, "version": VERSION}
    return {"scenario": s, **common, "seed": s["seed"], **sections}


def csv_text(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def chsh_report(s, estimates, **sections):
    """The report of each pair's (mean, stderr, n), in ``PAIRS`` order."""
    ab, aprime_b, ab_prime, aprime_bprime = (mean for mean, _, _ in estimates)
    value = aprime_bprime + aprime_b + ab_prime - ab
    classes = [("Local", BOUNDS["local"]), ("QuantumAttainable", BOUNDS["tsirelson"])]
    kind = next((name for name, bound in classes if abs(value) <= bound + 1e-12), "SuperQuantum")
    entries = [dict(zip(("pair", "mean", "stderr", "n"), (label, *estimate)))
               for label, estimate in zip(PAIRS, estimates)]
    bell = {"value": value, "classification": kind, "bounds": dict(BOUNDS)}
    return report(s, estimates=entries, bell=bell, **sections)


def monte_carlo(s, run_columns, runs, **sections):
    """Report and CSV of each pair's runs, a list of cells (``run_columns``
    and the two outcomes) per pair, or None after a tie under "error"."""
    n = s["runs_per_pair"]
    rows, estimates = [], []
    for label, cells in zip(PAIRS, runs):
        if cells is None:
            return None
        products = [left * right for *_, left, right in cells]
        rows += [(label, index, *run, product)
                 for index, (run, product) in enumerate(zip(cells, products))]
        # The README's mean and stderr, in its order of operations.
        mean = sum(products) / n
        stderr = 0.0 if n == 1 else math.sqrt(n * (1.0 - mean * mean) / (n - 1) / n)
        estimates.append((mean, stderr, n))
    header = ["pair", "run_index", *run_columns, "outcome_left", "outcome_right", "product"]
    return chsh_report(s, estimates, **sections), csv_text(header, rows)


def diameters(s, consumer):
    """The left and right diameters of ``consumer``'s runs, as floats."""
    low, high = s["sampler"]["low"], s["sampler"]["high"]
    return zip(*(column(s["seed"], consumer, index).uniform(low, high, s["runs_per_pair"])
                 .tolist() for index in (0, 1)))


def outcomes(s, label, a, b):
    return per_run_outcomes(label, a, b, s["system"]["transparent"], s["tie_policy"], s["seed"])


def vessel_chsh(s):
    def runs():
        for pair, label in enumerate(PAIRS):
            cells = [(a, b, outcomes(s, label, a, b)) for a, b in diameters(s, pair)]
            tied = any(run is None for *_, run in cells)
            yield None if tied else [(a, b, *run) for a, b, run in cells]

    return monte_carlo(s, ["lambda_a", "lambda_b"], runs())


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


def quantum_chsh(s):
    def runs():
        n = s["runs_per_pair"]
        for pair, dot in enumerate(singlet_dots(s["singlet_angles"])):
            # Left is 2 * coin - 1; the sides agree with probability (1 - dot) / 2.
            coins = column(s["seed"], pair, 0).integers(0, 2, n).tolist()
            uniforms = column(s["seed"], pair, 1).random(n).tolist()
            yield [(2 * coin - 1, (2 * coin - 1) * (1 if u < (1.0 - dot) / 2.0 else -1))
                   for coin, u in zip(coins, uniforms)]

    sections = {"mode": "monte_carlo", "angles": list(s["singlet_angles"])}
    return monte_carlo(s, [], runs(), **sections)


def quantum_chsh_analytic(s):
    # E = -copysign(min(|dot|, 1), dot) per pair, reported with n 1.
    means = [-math.copysign(min(abs(dot), 1.0), dot) for dot in singlet_dots(s["singlet_angles"])]
    sections = {"mode": "analytic", "angles": list(s["singlet_angles"])}
    return (
        chsh_report(s, [(mean, 0.0, 1) for mean in means], **sections),
        csv_text(["pair", "expectation"], zip(PAIRS, means)),
    )


def sample_state(s):
    """Each Born draw x is its uniform located with ``searchsorted(side=
    "right")`` in the cdf that ``Generator.choice`` builds for ``p =
    probabilities / sum(probabilities)``: the running sum of ``p`` divided
    by its last entry."""
    seed, n = s["seed"], s["runs_per_pair"]
    amplitudes = np.array([complex(re, im) for re, im in s["amplitudes"]])
    probabilities = np.abs(amplitudes) ** 2
    p = probabilities / probabilities.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    draws = cdf.searchsorted(column(seed, BORN, 0).random(n), side="right")
    # The same draws as Generator.choice makes from the same column.
    assert np.array_equal(draws, column(seed, BORN, 0).choice(11, n, p=p))
    draws = draws.tolist()
    rank = sum(modulus > 1e-9 for modulus in np.abs(amplitudes).tolist())
    sections = {
        "histogram": [draws.count(x) for x in range(11)],
        "n_samples": n,
        "probabilities": probabilities.tolist(),
        "schmidt_rank": rank,
        "entangled": rank >= 2,
    }
    header = ["sample_index", "x", "left_liters", "right_liters"]
    rows = ((index, x, x, 10 - x) for index, x in enumerate(draws))
    return report(s, **sections), csv_text(header, rows)


LOCALITY_HEADER = [
    "sample_index", "lambda_a", "lambda_b", "product_ab", "product_aprime_b", "product_ab_prime",
    "product_aprime_bprime", "satisfiable", "witness_with_b", "witness_with_bprime",
    "witness_differs",
]


def locality_check(s):
    """Per sample of the scan's diameters: the four pairs' outcome products,
    the search's verdict on them, and the left outcomes of AB and AB'."""
    rows = []
    for index, (a, b) in enumerate(diameters(s, LOCALITY)):
        runs = [outcomes(s, label, a, b) for label in PAIRS]
        if runs[0] is None:
            return None
        products = tuple(left * right for left, right in runs)
        with_b, with_bprime = runs[0][0], runs[2][0]
        verdict = satisfiable(products)
        rows.append((index, a, b, *products, verdict, with_b, with_bprime, with_b != with_bprime))
    unsatisfiable = sum(not row[LOCALITY_HEADER.index("satisfiable")] for row in rows)
    factorization = {
        "satisfiable": unsatisfiable == 0,
        "witness_count": sum(row[-1] for row in rows),
        "sample_count": s["runs_per_pair"],
        "unsatisfiable_count": unsatisfiable,
    }
    kind = "SecondKind" if unsatisfiable else "FirstKind"
    return (
        report(s, factorization=factorization, correlation_kind=kind),
        csv_text(LOCALITY_HEADER, rows),
    )


COMMANDS = {
    ("vessel-chsh",): vessel_chsh,
    ("quantum-chsh",): quantum_chsh,
    ("quantum-chsh", "--analytic"): quantum_chsh_analytic,
    ("sample-state",): sample_state,
    ("locality-check",): locality_check,
}


def expected(argv, scenario):
    """The report dict and the CSV text of command line ``argv`` (the
    subcommand and its options, without ``--scenario``) on ``scenario``, or
    None when a run ties under the "error" policy, which stops the command."""
    return COMMANDS[tuple(argv)](echo(scenario))
