"""Command-line entry point: scenario file in, machine-readable report out.

Exit codes: 0 success, 2 configuration error, 3 domain invariant or
numerical failure, running out of memory included.  Nothing is written
on an error path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

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


def render_csv(dump: commands.RunDump) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(dump.fieldnames)
    writer.writerows(dump.rows)
    return buffer.getvalue()


def _worker_count(text: str) -> int:
    """The ``--workers`` value: an integer of at least 1."""
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

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        sub.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="json report or csv per-run dump",
        )

    sub = subparsers.add_parser(
        "vessel-chsh", help="estimate the four coincidence pairs and the Bell statistic"
    )
    add_common(sub)
    sub.add_argument(
        "--workers", type=_worker_count, default=1, help="chunk workers (result-neutral)"
    )

    sub = subparsers.add_parser(
        "locality-check",
        help="factorization search and context witnesses over sampled hidden variables",
    )
    add_common(sub)

    sub = subparsers.add_parser(
        "sample-state", help="Born-sample the superposition state and report its rank"
    )
    add_common(sub)

    sub = subparsers.add_parser(
        "quantum-chsh", help="singlet statistic at the scenario's analyzer angles"
    )
    add_common(sub)
    sub.add_argument(
        "--workers", type=_worker_count, default=1, help="chunk workers (result-neutral)"
    )
    sub.add_argument(
        "--analytic",
        action="store_true",
        help="exact expectations instead of Monte Carlo sampling",
    )

    sub = subparsers.add_parser("flow", help="integrate one joint drainage")
    add_common(sub)
    sub.add_argument(
        "--lambda-a", type=_finite_float, required=True, help="left diameter (cm)"
    )
    sub.add_argument(
        "--lambda-b", type=_finite_float, required=True, help="right diameter (cm)"
    )
    sub.add_argument("--dt", type=_finite_float, default=1e-4, help="integration step (s)")

    return parser


def _dispatch(args: argparse.Namespace):
    scenario = parse_scenario(args.scenario)
    collect = args.format == "csv"
    if args.subcommand == "vessel-chsh":
        return commands.vessel_chsh(scenario, workers=args.workers, collect_runs=collect)
    if args.subcommand == "locality-check":
        return commands.locality_check(scenario, collect_runs=collect)
    if args.subcommand == "sample-state":
        return commands.sample_state(scenario, collect_runs=collect)
    if args.subcommand == "quantum-chsh":
        return commands.quantum_chsh(
            scenario, analytic=args.analytic, workers=args.workers, collect_runs=collect
        )
    if args.subcommand == "flow":
        return commands.flow(
            scenario, args.lambda_a, args.lambda_b, args.dt, collect_runs=collect
        )
    raise ConfigError(f"unknown subcommand {args.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, dump = _dispatch(args)
        text = render_json(report) if args.format == "json" else render_csv(dump)
    except ConfigError as exc:
        print(f"vesselsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VesselSimError as exc:
        print(f"vesselsim: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"vesselsim: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    except OSError as exc:
        print(f"vesselsim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
