"""Command-line entry point: scenario file in, machine-readable report out.

Exit codes: 0 success, 2 configuration error, 3 domain invariant or
numerical failure, running out of memory included, and 130 or 143 for a
run stopped by SIGINT or SIGTERM.  Error lines go to stderr alone, and a
closed or broken stderr loses them, not the exit code.  Nothing is
written on an error path or when a run is stopped: every report is
complete in a file before its target sees a byte.  A regular ``--out`` is
replaced by a temporary file from its own directory; stdout and a device
or pipe named by ``--out`` get a copy of an anonymous spool file.  The
temporary file is created, and any other target opened, before the
command runs, so errors come in this order: usage (exit 2), the scenario
file (2), ``--out`` (3), then the command's own refusals.

A command line reaches its command directly: ``vesselsim flow --dt 0.01``
calls ``commands.flow``, the subcommand with ``-`` read as ``_``, looked up
when the line runs.  The command gets the parsed scenario, ``collect_runs``
for ``--format csv``, and each of the subcommand's own options as the
keyword argument of the option's dest (``--lambda-a`` is ``lambda_a``).
The options every subcommand shares, and ``--workers``, which is checked
and then unused, are never passed on.  A line that starts with a
subcommand name builds that subcommand's parser alone.  Every other line,
and one whose subcommand leaves arguments over, builds the top-level
parser with all five subcommand parsers, which answers it: help, version,
a missing or unknown subcommand, and the leftovers' usage error.  A parser
build reads the terminal width once.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import math
import os
import shutil
import stat
import sys
import tempfile
from collections.abc import Callable, Iterator
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
# Each subcommand's name and its line in the top-level help.
_SUBCOMMANDS = {
    "vessel-chsh": "estimate the four coincidence pairs and the Bell statistic",
    "locality-check": (
        "factorization search and context witnesses over sampled hidden variables"
    ),
    "sample-state": "Born-sample the superposition state and report its rank",
    "quantum-chsh": "singlet statistic at the scenario's analyzer angles",
    "flow": "integrate one joint drainage",
}


class _Stopped(BaseException):
    """Raised where the run is by SIGINT or SIGTERM, so that ``output``
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


@contextlib.contextmanager
def output(out: str | None) -> Iterator[TextIO]:
    """The text file a report is written into, published only when the
    ``with`` block ends without an exception, so the target gets the whole
    report or nothing.  Every file is opened before the block runs.

    A regular file (or a new one) at ``out`` is replaced by a temporary file
    from its own directory, which is removed if anything fails; a symbolic
    link is followed, so its target is replaced and the link kept.  Stdout,
    a device or pipe named by ``out`` (a pipe waits here for its reader),
    and a new name that cannot be a file's, even through a link (``open``
    refuses it), are opened first and get a copy of an anonymous
    ``tempfile.TemporaryFile``; the spool has no name and goes when closed.
    """
    if out is not None:
        try:
            renamed = stat.S_ISREG(os.stat(out).st_mode)
            target = os.path.realpath(out)
        except FileNotFoundError:
            # Nothing there yet: the name to create is the one the links lead
            # to.  A last part "", "." or ".." is no file's name.  Any other
            # error, a symlink loop say, is the run's.
            target = out
            while os.path.islink(target):
                target = os.path.join(os.path.dirname(target), os.readlink(target))
            renamed = os.path.basename(target) not in ("", ".", "..")
    if out is None or not renamed:
        if out is None and sys.stdout is None:
            # Python starts with no sys.stdout when fd 1 is closed.
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        final = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")
        with final as handle, tempfile.TemporaryFile("w+") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, handle)
        return
    fd, temporary = _create_beside(target)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _create_beside(target: str) -> tuple[int, str]:
    """A new empty file with a fresh ``.<name>.`` name in ``target``'s
    directory, open for writing.  ``<name>`` is ``target``'s name, cut at a
    character so that the temporary name fits in 255 bytes, the usual
    limit for a file name.  The kernel gives it the mode of any new file,
    0o666 less the umask, so the process-wide umask is never touched."""
    directory, name = os.path.split(target)
    # 14 bytes: the two dots and the 12 hex digits.
    while len(os.fsencode(name)) > 255 - 14:
        name = name[:-1]
    while True:
        temporary = os.path.join(directory, f".{name}.{os.urandom(6).hex()}")
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


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Add subcommand ``name``'s options to ``parser``."""
    add = parser.add_argument
    add("--scenario", required=True, help="path to a scenario JSON file")
    add("--out", default=None, help="output path (default: stdout)")
    add("--format", choices=("json", "csv"), default="json",
        help="json report or csv per-run dump")
    if name in ("vessel-chsh", "quantum-chsh"):
        add("--workers", type=_worker_count, default=1,
            help="no longer changes how runs execute")
    if name == "quantum-chsh":
        add("--analytic", action="store_true",
            help="exact expectations instead of Monte Carlo sampling")
    if name == "flow":
        add("--lambda-a", type=_finite_float, required=True, help="left diameter (cm)")
        add("--lambda-b", type=_finite_float, required=True, help="right diameter (cm)")
        add("--dt", type=_finite_float, default=1e-4, help="integration step (s)")


def _formatter() -> Callable[..., argparse.HelpFormatter]:
    """The formatter class of a parser build: HelpFormatter's own default
    width, probed once here rather than by each formatter that argparse
    makes, one for every option added."""
    return functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )


def build_parser() -> argparse.ArgumentParser:
    formatter = _formatter()
    parser = argparse.ArgumentParser(
        prog="vesselsim",
        description=(
            "Coincidence experiments on two interconnected water vessels: "
            "Bell statistics, locality analysis, state sampling, and a "
            "quantum singlet reference."
        ),
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"vesselsim {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, help in _SUBCOMMANDS.items():
        _add_options(subparsers.add_parser(name, help=help, formatter_class=formatter), name)
    return parser


def parse_line(argv: list[str] | None) -> dict:
    """The options of a command line, ``vars(build_parser().parse_args(argv))``,
    with the same output and exit code for help, version and usage errors.
    That parser hands all that follows a leading subcommand name to the
    subcommand's parser, so a line that starts with one builds that parser
    alone.  The top-level parser is built for every other line, and for
    arguments the subcommand leaves over, whose error it reports."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"vesselsim {name}", formatter_class=_formatter())
        _add_options(parser, name)
        options, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return {"subcommand": name, **vars(options)}
    return vars(build_parser().parse_args(argv))


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
    options = parse_line(argv)
    out = options["out"]
    collect = options["format"] == "csv"
    command = getattr(commands, options["subcommand"].replace("-", "_"))
    own = {dest: value for dest, value in options.items() if dest not in _SHARED}
    try:
        scenario = parse_scenario(options["scenario"])
        with output(out) as handle:
            report, dump = command(scenario, collect_runs=collect, **own)
            if collect:
                render_csv(dump, handle)
            else:
                handle.write(render_json(report))
            if stopped:
                # C code can lose the exception a signal raised, as numpy's
                # first import of numpy.random does: the report is still
                # not published.
                raise _Stopped
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
