"""The traced bench's hooks still find what they wrap.

``bench/tracer.py`` wraps functions by name, on the object their caller
looks them up on, and skips a name it cannot find without an error; the
per-layer metric built on it then reads 0.  These tests turn such a silent
miss into a failure.  They import the bench's own modules and change
nothing in them.
"""

import json
import sys
from pathlib import Path

import pytest

from vesselsim import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import layers
    import tracer
finally:
    sys.path.remove(str(BENCH))

# Hooks whose functions no command calls any more; their metrics read 0
# until the bench maps them to what replaced them.
KNOWN_MISSING = {
    "vesselsim.commands.singlet_estimate",
    "vesselsim.commands.scan_hidden_variables",
    "vesselsim.locality.run_coincidence",
}

RUNS = 30
# Rows of a CSV dump per command: the CHSH commands write each of four pairs.
CSV_ROWS = {"vessel_chsh": 4 * RUNS, "quantum_chsh": 4 * RUNS}


@pytest.fixture
def installed():
    recorder = tracer.Tracer()
    try:
        recorder.install(layers.targets())
        yield recorder
    finally:
        recorder.uninstall()


def test_every_hook_resolves_but_the_known_missing(installed):
    assert installed.missing <= KNOWN_MISSING


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", layers.COMMANDS)
def test_traced_commands_record_their_rows(tmp_path, installed, name, fmt):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "seed": 5,
                "runs_per_pair": RUNS,
                "singlet_angles": [0, 90, 45, 135],
                "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 10,
            }
        )
    )
    argv = [name.replace("_", "-"), "--scenario", str(scenario), "--format", fmt]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    values = [span[-1] for span in installed.drain()["spans"] if span[2] == f"commands.{name}"]
    assert values == [CSV_ROWS.get(name, RUNS) if fmt == "csv" else 0]
