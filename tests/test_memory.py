"""Peak memory is bounded by the chunk size, not by the number of runs: a
run ten times longer raises the peak RSS of a fresh process by a few MB."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the process's peak RSS in KiB after one CLI run.
RUN = """
import resource, sys
from vesselsim.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

UNIFORM_AMPLITUDES = [[1.0 / math.sqrt(11), 0.0]] * 11
# An O(n) path grows by 20 to 110 MB on these cases; the chunked paths by
# at most one chunk's columns and one slice's text (about 2 MB for the CSV
# dumps).
MAX_GROWTH_KB = 8 * 1024


def peak_rss_kb(tmp_path, subcommand, fmt, runs):
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
    out = tmp_path / f"out-{runs}.{fmt}"
    argv = [subcommand, "--scenario", str(scenario), "--format", fmt, "--out", str(out)]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.parametrize(
    "subcommand, fmt, runs",
    [
        ("vessel-chsh", "csv", 4_000),
        ("quantum-chsh", "csv", 4_000),
        ("locality-check", "csv", 16_000),
        ("sample-state", "csv", 16_000),
        ("sample-state", "json", 300_000),
        ("locality-check", "json", 100_000),
    ],
)
def test_peak_memory_barely_grows_with_the_run_count(tmp_path, subcommand, fmt, runs):
    small = peak_rss_kb(tmp_path, subcommand, fmt, runs)
    large = peak_rss_kb(tmp_path, subcommand, fmt, 10 * runs)
    assert large - small < MAX_GROWTH_KB
