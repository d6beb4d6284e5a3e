"""Golden reports: every subcommand's JSON and CSV bytes on fixed scenarios.

A refactor of the command path is accepted when these files still match byte
for byte.  The sampling reports under ``tests/golden/`` were last written
when every random column got its own substream (README, "Stream layout").
``tests/test_reference.py`` checks every file but ``flow``'s, the
``locality-check`` ones included, against ``tests/oracle.py``, which
rebuilds them from the README alone.  ``large-dumps.sha256`` pins every CSV
producer at a size that crosses a chunk boundary and many write slices by
the sha256 of its bytes.  ``help.json`` pins the bytes and exit codes of
``--help``, ``--version`` and the usage errors (``test_cli.py``'s
``TestHelpBytes``).  Regenerate them only for an intended change of
the report format, the stream layout or the command line, with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from vesselsim.cli import main
from vesselsim.streams import CHUNK_SIZE

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv")
TIE_POLICIES = ("error", "favor_left", "favor_right", "split_coin")

# Non-uniform Born weights (k + 1) / 66 over the 11 divisions, with phases.
AMPLITUDES = [
    [math.sqrt((k + 1) / 66) * math.cos(0.7 * k), math.sqrt((k + 1) / 66) * math.sin(0.7 * k)]
    for k in range(11)
]

# case name -> (subcommand, extra argv, scenario)
CASES = {
    **{
        f"locality-check-{policy}-{'transparent' if transparent else 'opaque'}": (
            "locality-check",
            [],
            {
                "seed": 1005 + index,
                "runs_per_pair": 200,
                "system": {"total_volume": 20.0, "transparent": transparent},
                "sampler": {"low": 0.5, "high": 3.0},
                "tie_policy": policy,
            },
        )
        for index, (policy, transparent) in enumerate(
            (policy, transparent) for policy in TIE_POLICIES for transparent in (True, False)
        )
    },
    "vessel-chsh": ("vessel-chsh", [], {"seed": 3767, "runs_per_pair": 100}),
    "quantum-chsh": (
        "quantum-chsh",
        [],
        {"seed": 11, "runs_per_pair": 100, "singlet_angles": [0, 90, 45, 135]},
    ),
    "quantum-chsh-analytic": (
        "quantum-chsh",
        ["--analytic"],
        {"seed": 11, "runs_per_pair": 100, "singlet_angles": [10, 100, 35, 125]},
    ),
    "sample-state": (
        "sample-state",
        [],
        {"seed": 13, "runs_per_pair": 500, "amplitudes": AMPLITUDES},
    ),
    "flow": (
        "flow",
        ["--lambda-a", "1.5", "--lambda-b", "2.25", "--dt", "0.01"],
        {"seed": 17, "system": {"total_volume": 12.5, "transparent": False}},
    ),
}


# Every CSV producer past one chunk of runs: case name -> (subcommand, extra argv).
LARGE_DUMPS = {
    "vessel-chsh": ("vessel-chsh", []),
    "quantum-chsh": ("quantum-chsh", []),
    "quantum-chsh-analytic": ("quantum-chsh", ["--analytic"]),
    "sample-state": ("sample-state", []),
    "locality-check": ("locality-check", []),
    "flow": ("flow", ["--lambda-a", "2.0", "--lambda-b", "1.0"]),
}
LARGE_SCENARIO = {
    "seed": 42,
    "runs_per_pair": CHUNK_SIZE + 2500,
    "singlet_angles": [0, 90, 45, 135],
    "amplitudes": [[1.0 / math.sqrt(11), 0.0]] * 11,
}
LARGE_HASHES = GOLDEN / "large-dumps.sha256"


def render(case: str, subcommand: str, extra: list, scenario: dict, fmt: str,
           directory: Path) -> bytes:
    """Run the CLI on ``case`` in ``fmt`` and return the bytes it wrote."""
    scenario_path = directory / f"{case}.scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    out = directory / f"{case}.{fmt}"
    code = main([subcommand, "--scenario", str(scenario_path), "--format", fmt,
                 "--out", str(out), *extra])
    assert code == 0, f"{case} ({fmt}) exited with {code}"
    return out.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, fmt, tmp_path):
    expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
    assert render(case, *CASES[case], fmt, tmp_path) == expected


def test_sample_state_report_needs_no_svd(tmp_path, monkeypatch):
    # The Schmidt rank is a count of amplitude moduli, so no LAPACK call is made.
    def refuse(*args, **kwargs):
        raise AssertionError("sample-state called numpy.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    expected = (GOLDEN / "sample-state.json").read_bytes()
    assert render("sample-state", *CASES["sample-state"], "json", tmp_path) == expected


def large_dump_hashes(directory: Path) -> str:
    """``sha256sum``-style lines for every large CSV dump."""
    lines = []
    for case, (subcommand, extra) in sorted(LARGE_DUMPS.items()):
        text = render(case, subcommand, extra, LARGE_SCENARIO, "csv", directory)
        lines.append(f"{hashlib.sha256(text).hexdigest()}  {case}.csv\n")
    return "".join(lines)


def test_large_dump_hashes_match_golden(tmp_path):
    assert large_dump_hashes(tmp_path) == LARGE_HASHES.read_text()


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for fmt in FORMATS:
                text = render(case, *CASES[case], fmt, Path(scratch))
                (GOLDEN / f"{case}.{fmt}").write_bytes(text)
        LARGE_HASHES.write_text(large_dump_hashes(Path(scratch)))
    from test_cli import HELP_CASES, HELP_COLUMNS, HELP_PINS, help_output

    pins = {}
    for case, argv in HELP_CASES.items():
        for columns in HELP_COLUMNS:
            os.environ["COLUMNS"] = str(columns)
            pins[f"{case}@{columns}"] = help_output(argv)
    HELP_PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    _regenerate()
