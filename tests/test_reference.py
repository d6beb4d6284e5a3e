"""The golden sampling reports rebuilt by ``tests/oracle.py`` from the
README alone, without vesselsim's code.

The oracle covers every golden case but ``flow``: the ``vessel-chsh`` and
``quantum-chsh`` reports from the stream layout and the singlet rule, the
``--analytic`` report from the singlet rule, ``sample-state`` from the Born
draws, and the eight ``locality-check`` reports from the scan's column
draws, a search over the 16 sign assignments per sample and the witness
columns.  JSON reports must be equal dicts with every float bit for bit, CSV
dumps equal text, and the large dumps the lines of ``large-dumps.sha256``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from test_golden import CASES, GOLDEN, LARGE_DUMPS, LARGE_HASHES, LARGE_SCENARIO

LOCALITY_CASES = sorted(case for case, (subcommand, *_) in CASES.items()
                        if subcommand == "locality-check")


def expected(case):
    subcommand, extra, scenario = CASES[case]
    return oracle.expected([subcommand, *extra], scenario)


def assert_golden_report(case):
    report, golden = expected(case)[0], json.loads((GOLDEN / f"{case}.json").read_text())
    assert report == golden
    # Equal dumps too: 0.0 == -0.0 and 1 == 1.0 would pass the dict comparison.
    assert json.dumps(report, sort_keys=True) == json.dumps(golden, sort_keys=True)


def assert_golden_csv(case):
    assert expected(case)[1] == (GOLDEN / f"{case}.csv").read_text()


def assert_large_hash(case):
    # One chunk and more of runs: the library's chunk edge must not show.
    subcommand, extra = LARGE_DUMPS[case]
    text = oracle.expected([subcommand, *extra], LARGE_SCENARIO)[1].encode()
    line = f"{hashlib.sha256(text).hexdigest()}  {case}.csv\n"
    assert line in LARGE_HASHES.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("subcommand", ["quantum-chsh", "vessel-chsh"])
def test_json_estimates_from_the_column_draws(subcommand):
    assert_golden_report(subcommand)


@pytest.mark.parametrize("subcommand", ["quantum-chsh", "vessel-chsh"])
def test_csv_from_the_column_draws(subcommand):
    assert_golden_csv(subcommand)


@pytest.mark.parametrize(
    "subcommand", ["locality-check", "quantum-chsh", "quantum-chsh-analytic", "vessel-chsh"]
)
def test_large_dump_hash_from_the_column_draws(subcommand):
    assert_large_hash(subcommand)


def test_analytic_report_from_the_singlet_rule():
    # The shortcut E = -cos(radians(l + r)) differs from the rule in the
    # last bit on these angles.
    assert_golden_report("quantum-chsh-analytic")
    assert_golden_csv("quantum-chsh-analytic")


def test_sample_state_report_from_the_born_draws():
    assert_golden_report("sample-state")


def test_sample_state_csv_from_the_born_draws():
    assert_golden_csv("sample-state")


def test_large_sample_state_hash_from_the_born_draws():
    assert_large_hash("sample-state")


@pytest.mark.parametrize("case", LOCALITY_CASES)
def test_locality_report_and_csv_from_the_scan(case):
    assert_golden_report(case)
    assert_golden_csv(case)


def test_oracle_imports_nothing_from_vesselsim():
    # A fresh interpreter that could import vesselsim, so that any import
    # of it, direct or through another test module, would show.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    probe = "import sys, oracle; print([m for m in sys.modules if m.split('.')[0] == 'vesselsim'])"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
