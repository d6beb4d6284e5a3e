"""Command-line entry point: scenario file in, machine-readable report out.

Exit codes: 0 success, 2 configuration error, 3 domain invariant or
numerical failure, running out of memory included.  Nothing is written
on an error path: ``--out`` receives a temporary file in its directory that
replaces it only once the whole report is written, and stdout receives the
report only once it is complete.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import TextIO

from . import commands
from ._version import __version__
from .errors import ConfigError, VesselSimError
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


def render_json(report: dict) -> str:
    """Strict JSON; a NaN or infinity in the report is a domain error."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise VesselSimError(f"report is not strict JSON: {exc}") from None


def render_csv(dump: commands.RunDump, out: TextIO) -> None:
    """Write the dump to ``out``: the header, then each of its texts as the
    producers compute it, one slice of lines per write.  The producers
    format every line; no dump cell needs quoting, so they are the bytes
    ``csv.writer(lineterminator="\\n")`` would write."""
    out.write(",".join(dump.fieldnames) + "\n")
    for text in dump.rows:
        out.write(text)


def commit(out: str | None, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on a text stream so that the target gets the whole
    report or nothing.

    A regular file (or a new one) at ``out`` is replaced by a temporary file
    from its own directory once ``write`` returns, and the temporary file is
    removed if anything fails.  Stdout, and a device or pipe named by
    ``out``, get the report from memory once it is complete.
    """
    path = None if out is None else Path(out)
    if path is None or (path.exists() and not path.is_file()):
        buffer = io.StringIO()
        write(buffer)
        if path is None:
            sys.stdout.write(buffer.getvalue())
        else:
            path.write_text(buffer.getvalue())
        return
    target = path.resolve()
    fd, temporary = _create_beside(target)
    try:
        with open(fd, "w") as handle:
            write(handle)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _create_beside(target: Path) -> tuple[int, Path]:
    """A new empty file with a fresh ``.<name>.`` name in ``target``'s
    directory, open for writing.  The kernel gives it the mode of any new
    file, 0o666 less the umask, so the process-wide umask is never touched."""
    while True:
        temporary = target.with_name(f".{target.name}.{os.urandom(6).hex()}")
        try:
            return os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), temporary
        except FileExistsError:
            continue


def _worker_count(text: str) -> int:
    """The ``--workers`` value: an integer of at least 1.  It is checked so
    that existing scripts keep their exit codes, and then unused: every
    chunk runs on the calling thread."""
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return workers


def _finite_float(text: str) -> float:
    """A float option value other than NaN or +-infinity."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselsim",
        description=(
            "Coincidence experiments on two interconnected water vessels: "
            "Bell statistics, locality analysis, state sampling, and a "
            "quantum singlet reference."
        ),
    )
    parser.add_argument("--version", action="version", version=f"vesselsim {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name: str, help: str, run: Callable, workers: bool = False):
        """A subcommand with the options every one takes.  ``main`` calls
        ``run(args, scenario, collect)``, which looks its command up on
        ``commands`` only then and passes ``collect_runs=collect``."""
        sub = subparsers.add_parser(name, help=help)
        sub.set_defaults(run=run)
        sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        sub.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="json report or csv per-run dump",
        )
        if workers:
            sub.add_argument(
                "--workers",
                type=_worker_count,
                default=1,
                help="no longer changes how runs execute",
            )
        return sub

    add_command(
        "vessel-chsh",
        "estimate the four coincidence pairs and the Bell statistic",
        lambda args, scenario, collect: commands.vessel_chsh(scenario, collect_runs=collect),
        workers=True,
    )
    add_command(
        "locality-check",
        "factorization search and context witnesses over sampled hidden variables",
        lambda args, scenario, collect: commands.locality_check(scenario, collect_runs=collect),
    )
    add_command(
        "sample-state",
        "Born-sample the superposition state and report its rank",
        lambda args, scenario, collect: commands.sample_state(scenario, collect_runs=collect),
    )
    sub = add_command(
        "quantum-chsh",
        "singlet statistic at the scenario's analyzer angles",
        lambda args, scenario, collect: commands.quantum_chsh(
            scenario, analytic=args.analytic, collect_runs=collect
        ),
        workers=True,
    )
    sub.add_argument(
        "--analytic",
        action="store_true",
        help="exact expectations instead of Monte Carlo sampling",
    )
    sub = add_command(
        "flow",
        "integrate one joint drainage",
        lambda args, scenario, collect: commands.flow(
            scenario, args.lambda_a, args.lambda_b, args.dt, collect_runs=collect
        ),
    )
    sub.add_argument(
        "--lambda-a", type=_finite_float, required=True, help="left diameter (cm)"
    )
    sub.add_argument(
        "--lambda-b", type=_finite_float, required=True, help="right diameter (cm)"
    )
    sub.add_argument("--dt", type=_finite_float, default=1e-4, help="integration step (s)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, dump = args.run(args, parse_scenario(args.scenario), args.format == "csv")
        if args.format == "json":
            text = render_json(report)
            commit(args.out, lambda handle: handle.write(text))
        else:
            commit(args.out, lambda handle: render_csv(dump, handle))
    except ConfigError as exc:
        print(f"vesselsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VesselSimError as exc:
        print(f"vesselsim: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"vesselsim: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        # Name the target the user gave, not the temporary file beside it.
        target = "stdout" if args.out is None else repr(args.out)
        reason = exc.strerror or exc
        print(f"vesselsim: cannot write output to {target}: {reason}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
