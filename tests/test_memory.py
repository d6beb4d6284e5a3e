"""Peak memory is bounded by the chunk size, not by the number of runs: a
run ten times longer raises the peak RSS of a fresh process by a few MB,
whether the report goes to a file, to stdout or to a device."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the process's peak RSS in KiB on stderr after one CLI run, so
# that a report on stdout does not mix with it.
RUN = """
import resource, sys
from vesselsim.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""

UNIFORM_AMPLITUDES = [[1.0 / math.sqrt(11), 0.0]] * 11
# An O(n) path grows by 20 to 110 MB on these cases; the chunked paths by
# at most one chunk's columns and one slice's text (about 2 MB for the CSV
# dumps).
MAX_GROWTH_KB = 8 * 1024


def peak_rss_kb(tmp_path, subcommand, fmt, runs, out="file"):
    """The peak RSS of one run writing to ``out``: a new file in
    ``tmp_path``, ``"stdout"`` (sent to /dev/null by this process) or
    ``"device"`` (``--out /dev/null``)."""
    scenario = tmp_path / f"scenario-{runs}.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 7,
                "runs_per_pair": runs,
                "amplitudes": UNIFORM_AMPLITUDES,
                "singlet_angles": [0, 90, 45, 135],
            }
        )
    )
    argv = [subcommand, "--scenario", str(scenario), "--format", fmt]
    if out == "file":
        argv += ["--out", str(tmp_path / f"out-{runs}.{fmt}")]
    elif out == "device":
        argv += ["--out", os.devnull]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "subcommand, fmt, runs",
    [
        ("vessel-chsh", "csv", 4_000),
        ("quantum-chsh", "csv", 16_000),
        ("locality-check", "csv", 16_000),
        ("sample-state", "csv", 64_000),
        ("sample-state", "json", 300_000),
        ("locality-check", "json", 100_000),
    ],
)
def test_peak_memory_barely_grows_with_the_run_count(tmp_path, subcommand, fmt, runs):
    small = peak_rss_kb(tmp_path, subcommand, fmt, runs)
    large = peak_rss_kb(tmp_path, subcommand, fmt, 10 * runs)
    assert large - small < MAX_GROWTH_KB


@pytest.mark.parametrize("out", ["stdout", "device"])
def test_peak_memory_barely_grows_on_stdout_or_a_device(tmp_path, out):
    # Neither can be replaced by a rename, so the report is spooled to an
    # anonymous temporary file and copied once complete, not held in memory.
    small = peak_rss_kb(tmp_path, "vessel-chsh", "csv", 4_000, out)
    large = peak_rss_kb(tmp_path, "vessel-chsh", "csv", 40_000, out)
    assert large - small < MAX_GROWTH_KB
