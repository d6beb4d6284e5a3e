"""Golden reports: every subcommand's JSON and CSV bytes on fixed scenarios.

A refactor of the command path is accepted when these files still match byte
for byte.  The files under ``tests/golden/`` were written by the code before
the columnar locality scan; regenerate them only for an intended change of
the report format, with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from vesselsim.cli import main

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


def render(case: str, fmt: str, directory: Path) -> bytes:
    """Run the CLI on ``case`` in ``fmt`` and return the bytes it wrote."""
    subcommand, extra, scenario = CASES[case]
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
    assert render(case, fmt, tmp_path) == expected


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(CASES):
            for fmt in FORMATS:
                (GOLDEN / f"{case}.{fmt}").write_bytes(render(case, fmt, Path(scratch)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    _regenerate()
