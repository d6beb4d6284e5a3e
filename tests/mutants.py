"""Plant known faults in a copy of the package and require a test to catch each.

    python tests/mutants.py

Each entry of ``MUTANTS`` is one fault: the file under ``src/vesselsim``,
the text it replaces there, the text that replaces it, and the killers
that must catch it.  A killer is a pytest node id, or a script under
``tests/`` with its arguments (``tests/sweep_floattext.py --values N``).
The script first runs every killer once on an unmutated copy of ``src/``
and stops with an error unless they all pass: a killer that fails without
a fault would count every mutant it names as killed.  Then, for each
mutant, it copies ``src/`` into a temporary directory, plants the fault in
the copy, and runs the mutant's killers against it: its tests in one
pytest run with ``-x -q -p no:cacheprovider --hypothesis-profile
mutants``, and each script with the copy's ``src/`` as ``PYTHONPATH``.
The mutant is killed when one of them exits 1, a failing test or a
script's mismatch; any other outcome, a pass or a run that could not
collect its tests, is a survivor.  It prints one line per mutant with its
verdict and wall time, then the totals, and exits 1 if any mutant
survives.

It needs the standard library and pytest only, and is not a pytest module:
tier-1's ``tests/test_mutants.py`` requires that every ``old`` text occurs
exactly once in ``src/vesselsim``, that every killer's node id names a
``class`` or ``def`` in its file, and that every killing script exists, so
the table cannot rot silently when the code or the tests move.  A killing
test must not compare long texts with a bare ``==``: pytest then diffs
them line by line, which can take minutes.
Nor may it run the package in a new process (``test_demos.py``,
``test_cli.py``'s ``TestModuleEntryPoint``): those put the checkout's
``src/`` on ``PYTHONPATH`` and never see the planted fault.
"""

from __future__ import annotations

import os
import shlex
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
            "tests/test_vessels.py::TestJointOutcome::test_split_coin_values_are_pinned",
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
    # Command line.
    Mutant(
        "subcommand-options-never-added",
        "cli.py",
        "_add_options(subparsers.add_parser(name, help=help, formatter_class=formatter), name)",
        "subparsers.add_parser(name, help=help, formatter_class=formatter)",
        (
            "tests/test_cli.py::TestSurface",
            "tests/test_cli.py::TestHelpBytes",
        ),
    ),
    Mutant(
        "top-parser-for-every-line",
        "cli.py",
        "if argv and argv[0] in _SUBCOMMANDS:",
        "if False:",
        ("tests/test_cli.py::TestParserBuild",),
    ),
    Mutant(
        "leftover-arguments-ignored",
        "cli.py",
        "        if not rest:\n",
        "        if True:\n",
        (
            "tests/test_cli.py::TestParserBuild",
            "tests/test_cli.py::TestParseLine",
        ),
    ),
    Mutant(
        "analytic-on-every-subcommand",
        "cli.py",
        'if name == "quantum-chsh":',
        "if True:",
        (
            "tests/test_cli.py::TestSurface::test_options_are_pinned",
            "tests/test_cli.py::TestParserBuild",
        ),
    ),
    Mutant(
        "help-width-off-by-one",
        "cli.py",
        ".columns - 2",
        ".columns - 1",
        ("tests/test_cli.py::TestHelpBytes",),
    ),
    Mutant(
        "workers-reaches-the-command",
        "cli.py",
        '_SHARED = ("subcommand", "scenario", "out", "format", "workers")',
        '_SHARED = ("subcommand", "scenario", "out", "format")',
        ("tests/test_cli.py::TestStdout::test_report_goes_to_stdout_by_default",),
    ),
    Mutant(
        "zero-workers-accepted",
        "cli.py",
        "if workers < 1:",
        "if workers < 0:",
        ("tests/test_cli.py::TestExitCodes::test_no_output_written_on_error",),
    ),
    Mutant(
        "config-error-exits-three",
        "cli.py",
        "return _error(EXIT_CONFIG,",
        "return _error(EXIT_DOMAIN,",
        ("tests/test_cli.py::TestExitCodes::test_config_error_is_two",),
    ),
    Mutant(
        "reports-allow-nan",
        "cli.py",
        "allow_nan=False",
        "allow_nan=True",
        ("tests/test_cli.py::TestExitCodes::test_report_that_is_not_strict_json_is_three",),
    ),
    Mutant(
        "commit-keeps-its-temporary-file",
        "cli.py",
        "        os.unlink(temporary)\n",
        "",
        ("tests/test_cli.py::TestAtomicCommit::test_write_error_mid_stream_leaves_no_file",),
    ),
    Mutant(
        "stat-errors-ignored",
        "cli.py",
        "        except FileNotFoundError:\n",
        "        except OSError:\n",
        ("tests/test_cli.py::TestAtomicCommit::test_symlink_loop_is_three",),
    ),
    Mutant(
        "name-that-cannot-be-a-file-created",
        "cli.py",
        'renamed = os.path.basename(target) not in ("", ".", "..")',
        "renamed = True",
        ("tests/test_cli.py::TestAtomicCommit::test_name_that_cannot_be_a_file_is_three",),
    ),
    Mutant(
        "closed-stdout-unchecked",
        "cli.py",
        "if out is None and sys.stdout is None:",
        "if False:",
        ("tests/test_cli.py::TestAtomicCommit::test_closed_stdout_is_three",),
    ),
    Mutant(
        "dangling-link-text-ignored",
        "cli.py",
        "            while os.path.islink(target):\n"
        "                target = os.path.join(os.path.dirname(target), os.readlink(target))\n",
        "",
        ("tests/test_cli.py::TestAtomicCommit::test_name_that_cannot_be_a_file_is_three",),
    ),
    Mutant(
        "output-opened-after-the-command",
        "cli.py",
        "        with output(out) as handle:\n"
        "            report, dump = command(scenario, collect_runs=collect, **own)\n",
        "        report, dump = command(scenario, collect_runs=collect, **own)\n"
        "        with output(out) as handle:\n",
        (
            "tests/test_cli.py::TestErrorOrder"
            "::test_out_that_cannot_be_opened_stops_before_the_command",
        ),
    ),
    Mutant(
        "stopped-run-publishes",
        "cli.py",
        "            if stopped:\n",
        "            if False:\n",
        (
            "tests/test_cli.py::TestStoppedRuns"
            "::test_a_stop_whose_exception_is_lost_still_stops_the_run",
        ),
    ),
    # floattext.
    Mutant(
        "floattext-row-whole-when-any-cell-is-fast",
        "floattext.py",
        ".all(axis=1)",
        ".any(axis=1)",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-mixed-slice-merged-whole-rows-first",
        "floattext.py",
        "    texts[whole] = _texts(values[whole])\n"
        "    texts[~whole] = _joined(values[~whole])\n"
        "    return texts.tolist()\n",
        "    return _texts(values[whole]) + _joined(values[~whole])\n",
        ("tests/sweep_floattext.py --values 200000",),
    ),
    Mutant(
        "floattext-decade-off-by-one",
        "floattext.py",
        "len(str(2**k)) - 1 if",
        "len(str(2**k)) if",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-power-of-ten-keeps-the-lower-exponent",
        "floattext.py",
        "(x >= _UP.take(b))",
        "(x > _UP.take(b))",
        ("tests/test_floattext.py",),
    ),
    Mutant(
        "floattext-ties-rounded-to-odd",
        "floattext.py",
        "* (digits.take(ties) // step.take(ties) % 2)",
        "* (1 - digits.take(ties) // step.take(ties) % 2)",
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


def is_script(killer: str) -> bool:
    """Whether ``killer`` is a script with its arguments, not a node id."""
    return " " in killer


def statuses(killers: Iterable[str], mutant: Mutant | None = None) -> list[int]:
    """The exit statuses of ``killers`` on a copy of ``src/``, with
    ``mutant`` planted: pytest's for the node ids, run together, then each
    script's."""
    killers = list(killers)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            path = src / "vesselsim" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        tests = [killer for killer in killers if not is_script(killer)]
        commands = [shlex.split(killer) for killer in killers if is_script(killer)]
        if tests:
            commands.insert(0, [
                "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-profile", "mutants", "-o", f"pythonpath={src}", *tests,
            ])
        env = {**os.environ, "PYTHONPATH": str(src)}
        runs = [
            subprocess.run([sys.executable, *command], cwd=ROOT, env=env, capture_output=True)
            for command in commands
        ]
        return [run.returncode for run in runs]


def main() -> int:
    start = time.perf_counter()
    killers = sorted({test for mutant in MUTANTS for test in mutant.tests})
    if any(statuses(killers)):
        sys.exit("the killing tests fail on an unmutated copy of src/, so no kill would count")
    print(f"{'clean':8}  {time.perf_counter() - start:6.1f} s  {len(killers)} killers pass", flush=True)
    survivors = []
    for mutant in MUTANTS:
        begin = time.perf_counter()
        # pytest exits 1 only when a collected test failed, a script on a
        # mismatch.
        verdict = "killed" if 1 in statuses(mutant.tests, mutant) else "SURVIVED"
        if verdict != "killed":
            survivors.append(mutant.name)
        print(f"{verdict:8}  {time.perf_counter() - begin:6.1f} s  {mutant.name}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed in {total:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
