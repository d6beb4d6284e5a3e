"""Command-line entry point: scenario file in, machine-readable report out.

Exit codes: 0 success, 2 configuration error, 3 domain invariant or
numerical failure, running out of memory included, and 130 or 143 for a
run stopped by SIGINT or SIGTERM.  Error lines go to stderr alone, and a
closed or broken stderr loses them, not the exit code.  Nothing is
written on an error path or when a run is stopped: every report is
complete in a file before its target sees a byte.  A regular ``--out`` is
replaced by a temporary file from its own directory; stdout and a device
or pipe named by ``--out`` get a copy of an anonymous spool file.

A command line reaches its command directly: ``vesselsim flow --dt 0.01``
calls ``commands.flow``, the subcommand with ``-`` read as ``_``, looked up
when the line runs.  The command gets the parsed scenario, ``collect_runs``
for ``--format csv``, and each of the subcommand's own options as the
keyword argument of the option's dest (``--lambda-a`` is ``lambda_a``).
The options every subcommand shares, and ``--workers``, which is checked
and then unused, are never passed on.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import shutil
import sys
import tempfile
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
# A run stopped by a signal exits 128 + its number, as a shell reports it
# (130 for SIGINT, 143 for SIGTERM), after one of these stderr lines.
_STOPPED = {"SIGINT": "interrupted", "SIGTERM": "terminated"}
# The parsed values ``_run`` reads itself, and --workers, which nothing
# reads: every other one goes to the command as a keyword argument.
_SHARED = ("subcommand", "scenario", "out", "format", "workers")


class _Stopped(BaseException):
    """Raised where the run is by SIGINT or SIGTERM, so that ``commit``
    removes its temporary file on the way out."""


def _error(code: int, line: str) -> int:
    """Write one error line to stderr and return the exit code ``code``.
    With no stderr, or a closed or broken one, the line is lost, not the
    code, and stdout never gets it."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr, flush=True)
    return code


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
    """Run ``write`` on a text file so that the target gets the whole
    report or nothing.

    A regular file (or a new one) at ``out`` is replaced by a temporary file
    from its own directory once ``write`` returns, and the temporary file is
    removed if anything fails.  Stdout, and a device or pipe named by
    ``out``, get a copy of an anonymous ``tempfile.TemporaryFile`` once
    ``write`` returns; the spool has no name and goes when it is closed.
    """
    path = None if out is None else Path(out)
    if path is None or (path.exists() and not path.is_file()):
        with tempfile.TemporaryFile("w+") as spool:
            write(spool)
            spool.seek(0)
            if path is None:
                if sys.stdout is None:
                    # Python starts with no sys.stdout when fd 1 is closed.
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                shutil.copyfileobj(spool, sys.stdout)
            else:
                with open(path, "w") as handle:
                    shutil.copyfileobj(spool, handle)
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
    subcommands = {}
    for name, help in (
        ("vessel-chsh", "estimate the four coincidence pairs and the Bell statistic"),
        (
            "locality-check",
            "factorization search and context witnesses over sampled hidden variables",
        ),
        ("sample-state", "Born-sample the superposition state and report its rank"),
        ("quantum-chsh", "singlet statistic at the scenario's analyzer angles"),
        ("flow", "integrate one joint drainage"),
    ):
        sub = subcommands[name] = subparsers.add_parser(name, help=help)
        sub.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        sub.add_argument(
            "--format",
            choices=("json", "csv"),
            default="json",
            help="json report or csv per-run dump",
        )
        if name in ("vessel-chsh", "quantum-chsh"):
            sub.add_argument(
                "--workers",
                type=_worker_count,
                default=1,
                help="no longer changes how runs execute",
            )
    subcommands["quantum-chsh"].add_argument(
        "--analytic",
        action="store_true",
        help="exact expectations instead of Monte Carlo sampling",
    )
    flow = subcommands["flow"]
    flow.add_argument("--lambda-a", type=_finite_float, required=True, help="left diameter (cm)")
    flow.add_argument("--lambda-b", type=_finite_float, required=True, help="right diameter (cm)")
    flow.add_argument("--dt", type=_finite_float, default=1e-4, help="integration step (s)")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code.  While it runs,
    SIGTERM, and SIGINT unless it is ignored, stop it: the report is not
    published and the exit code is 128 + the signal's number.  The previous
    handlers are back in place on return."""
    # Imported here, so that importing the CLI, which every start pays
    # for, does not load it.
    import signal

    stopped: list[int] = []

    def stop(signum, frame):
        stopped.append(signum)
        raise _Stopped

    previous = {}
    try:
        previous[signal.SIGTERM] = signal.signal(signal.SIGTERM, stop)
        # An ignored SIGINT, as a background job inherits it, stays ignored.
        if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
            previous[signal.SIGINT] = signal.signal(signal.SIGINT, stop)
    except ValueError:
        # Off the main thread no handler can be set: signals keep their action.
        pass
    try:
        return _run(argv, stopped)
    except BaseException:
        # Whatever exception a stopped run ends with, it ends stopped.
        if not stopped:
            raise
        return _error(128 + stopped[0], f"vesselsim: {_STOPPED[signal.Signals(stopped[0]).name]}")
    finally:
        for signum, handler in previous.items():
            # None: a handler not set from Python, which cannot be put back.
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)


def _run(argv: list[str] | None, stopped: list[int]) -> int:
    options = vars(build_parser().parse_args(argv))
    out = options["out"]
    collect = options["format"] == "csv"
    command = getattr(commands, options["subcommand"].replace("-", "_"))
    own = {dest: value for dest, value in options.items() if dest not in _SHARED}
    try:
        report, dump = command(parse_scenario(options["scenario"]), collect_runs=collect, **own)
        text = None if collect else render_json(report)

        def write(handle: TextIO) -> None:
            if text is None:
                render_csv(dump, handle)
            else:
                handle.write(text)
            if stopped:
                # C code can lose the exception a signal raised, as numpy's
                # first import of numpy.random does: the report is still
                # not published.
                raise _Stopped

        commit(out, write)
    except ConfigError as exc:
        return _error(EXIT_CONFIG, f"vesselsim: configuration error: {exc}")
    except VesselSimError as exc:
        return _error(EXIT_DOMAIN, f"vesselsim: {exc}")
    except MemoryError as exc:
        return _error(EXIT_DOMAIN, f"vesselsim: out of memory: {exc}")
    except OSError as exc:
        # Name the target the user gave, not the temporary file beside it.
        target = "stdout" if out is None else repr(out)
        reason = exc.strerror or exc
        return _error(EXIT_DOMAIN, f"vesselsim: cannot write output to {target}: {reason}")
    return EXIT_OK
