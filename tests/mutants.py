"""Plant known faults in a copy of the package and require a test to catch each.

    python tests/mutants.py

Each entry of ``MUTANTS`` is one fault: the file under ``src/vesselsim``,
the text it replaces there, the text that replaces it, and the tests that
must catch it.  The script first runs every killing test once on an
unmutated copy of ``src/`` and stops with an error unless they all pass:
a killer that fails without a fault would count every mutant it names as
killed.  Then, for each mutant, it copies ``src/`` into a temporary
directory, plants the fault in the copy, and runs the mutant's tests
against it with ``-x -q -p no:cacheprovider --hypothesis-profile
mutants``.  The mutant is killed when that run reports a failing test; any
other outcome, a pass or a run that could not collect its tests, is a
survivor.  It prints one line per mutant with its verdict and wall time,
then the totals, and exits 1 if any mutant survives.

It needs the standard library and pytest only, and is not a pytest module:
tier-1's ``tests/test_mutants.py`` requires that every ``old`` text occurs
exactly once in ``src/vesselsim``, so the table cannot rot silently when
the code moves.  A killing test must not compare long texts with a bare
``==``: pytest then diffs them line by line, which can take minutes.  Nor
may it run the package in a new process (``test_demos.py``,
``test_cli.py``'s ``TestModuleEntryPoint``): those put the checkout's
``src/`` on ``PYTHONPATH`` and never see the planted fault.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vesselsim"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # A model's two views.
    Mutant(
        "vessel-sums-check-ties-off-error",
        "bell.py",
        "pair == PAIR_AB and tie_policy is TiePolicy.ERROR",
        "pair == PAIR_AB and tie_policy is not TiePolicy.ERROR",
        (
            "tests/test_bell.py::TestEstimateExpectation"
            "::test_sums_agree_with_the_runs_chunk_by_chunk",
            "tests/test_streams.py::TestOneStreamLayout",
        ),
    ),
    Mutant(
        "singlet-sums-count-not-products",
        "quantum.py",
        "return 2 * np.count_nonzero(",
        "return np.count_nonzero(",
        ("tests/test_quantum.py::TestSingletModel",),
    ),
    # Outcome rule and Born counts.
    Mutant(
        "favor-right-as-favor-left",
        "vessels.py",
        "return tie_policy is TiePolicy.FAVOR_LEFT",
        "return tie_policy in (TiePolicy.FAVOR_LEFT, TiePolicy.FAVOR_RIGHT)",
        ("tests/test_vessels.py",),
    ),
    Mutant(
        "split-coin-inverted",
        "vessels.py",
        "return bool(hashlib.blake2b(",
        "return not bool(hashlib.blake2b(",
        (
            "tests/test_bell.py::TestEstimateExpectation"
            "::test_vectorized_products_match_per_run_dispatch",
        ),
    ),
    Mutant(
        "born-counts-against-upper-bounds",
        "quantum.py",
        "uniforms < bound) for bound in cdf[:-1]",
        "uniforms < bound) for bound in cdf[1:]",
        ("tests/test_quantum.py::TestBornCounting",),
    ),
    # Scenario parsing.
    Mutant(
        "nested-unknown-fields-ignored",
        "scenario.py",
        '    _reject_unknown(raw, set(readers), f"scenario.{name}")\n',
        "",
        ("tests/test_scenario.py",),
    ),
    Mutant(
        "angles-length-unchecked",
        "scenario.py",
        "if not isinstance(value, list) or len(value) != 4:",
        "if not isinstance(value, list):",
        ("tests/test_scenario.py",),
    ),
    # CSV rows.
    Mutant(
        "chsh-tails-swapped",
        "commands.py",
        "for left in (-1, 1) for right in (-1, 1))",
        "for right in (-1, 1) for left in (-1, 1))",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "chsh-code-reads-right-inverted",
        "commands.py",
        '+ (columns["outcome_right"] > 0)',
        '+ (columns["outcome_right"] < 0)',
        ("tests/test_golden.py",),
    ),
    Mutant(
        "endings-unpadded",
        "commands.py",
        '_ENDINGS = [f"{i:03d}," for i in range(1000)]',
        '_ENDINGS = [f"{i}," for i in range(1000)]',
        ("tests/test_cli.py::TestCsvBytes",),
    ),
    Mutant(
        "thousand-block-ends-one-early",
        "commands.py",
        "min(stop, base + 1000)",
        "min(stop, base + 999)",
        ("tests/test_cli.py::TestCsvBytes",),
    ),
    Mutant(
        "block-last-row-glued-with-its-own-head",
        "commands.py",
        "codes[max(lo - 1 - first, 0) : hi - 1 - first]",
        "codes[max(lo - first, 0) : hi - first]",
        ("tests/test_cli.py::TestCsvBytes",),
    ),
    Mutant(
        "born-code-off-by-one",
        "commands.py",
        "([x] for x in draws)",
        "([x - 1] for x in draws)",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "locality-code-inverted",
        "commands.py",
        "left_wins(a, b, *tie_args).astype(np.intp)",
        "(~left_wins(a, b, *tie_args)).astype(np.intp)",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "slice-leading-head-dropped",
        "commands.py",
        '    return "".join(pieces)\n',
        '    return "".join(pieces[1:])\n',
        ("tests/test_golden.py",),
    ),
    # floattext.
    Mutant(
        "floattext-rows-rebuilt-only-when-all-undecided",
        "floattext.py",
        ".all(axis=1)",
        ".any(axis=1)",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-ties-not-sent-to-repr",
        "floattext.py",
        "decided & (side != 0)",
        "decided",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-lower-bound-1e16-removed",
        "floattext.py",
        "(hi > 1e16) & (hi < 1e17)",
        "(hi < 1e17)",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-integer-bounds-rounded-outward",
        "floattext.py",
        "base + np.ceil(lo - half)",
        "base + np.floor(lo - half)",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-separator-in-every-cell",
        "floattext.py",
        "[:, :-1, _SEPARATOR]",
        "[:, :, _SEPARATOR]",
        ("tests/test_floattext.py",),
    ),
]


def pytest_status(tests: Iterable[str], mutant: Mutant | None = None) -> int:
    """pytest's exit status for ``tests`` on a copy of ``src/``, with ``mutant`` planted."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "vesselsim" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile", "mutants", "-o", f"pythonpath={src}", *tests,
        ]
        return subprocess.run(command, cwd=ROOT, capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    killers = sorted({test for mutant in MUTANTS for test in mutant.tests})
    if pytest_status(killers) != 0:
        sys.exit("the killing tests fail on an unmutated copy of src/, so no kill would count")
    print(f"{'clean':8}  {time.perf_counter() - start:6.1f} s  {len(killers)} killers pass", flush=True)
    survivors = []
    for mutant in MUTANTS:
        begin = time.perf_counter()
        # pytest exits 1 only when a collected test failed.
        verdict = "killed" if pytest_status(mutant.tests, mutant) == 1 else "SURVIVED"
        if verdict != "killed":
            survivors.append(mutant.name)
        print(f"{verdict:8}  {time.perf_counter() - begin:6.1f} s  {mutant.name}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed in {total:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
