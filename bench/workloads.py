"""Fixed op lists over scenario files generated from the workload seed.

Sizes are fixed per workload; the seed only picks the scenarios (scenario
seeds, sampler ranges, vessel volume, tie policy, analyzer offset, state
phases), so work counts repeat across seeds while the draws differ.

* estimate: JSON reports of the three Monte Carlo estimators at ~1M runs per
  pair.  Each vessel and singlet scenario runs with ``--workers 1`` and with
  ``--workers 2``; the two reports must be byte-identical.
* scan: ``locality-check`` JSON, the per-sample Python loop of ``locality``.
* dump: the same subcommands with ``--format csv`` (per-row dicts and
  ``csv.DictWriter``), each checked against the JSON report of its scenario.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

TIE_POLICIES = ("error", "favor_left", "favor_right", "split_coin")
N_AMPLITUDES = 11

ESTIMATE_SCENARIOS = 2
ESTIMATE_RUNS = 1_000_000
SCAN_SCENARIOS = 4
SCAN_RUNS = 10_000
DUMP_RUNS = {"vessel-chsh": 25_000, "quantum-chsh": 25_000, "sample-state": 50_000,
             "locality-check": 5_000}


@dataclass(frozen=True)
class Op:
    id: str
    subcommand: str
    scenario: str
    runs_per_pair: int
    format: str = "json"
    workers: int | None = None
    # Op whose report this one must match byte for byte.
    same_as: str | None = None

    @property
    def samples(self) -> int:
        """Per-run draws the report covers: four pairs for the CHSH commands."""
        if self.subcommand in ("vessel-chsh", "quantum-chsh"):
            return 4 * self.runs_per_pair
        return self.runs_per_pair

    def argv(self, out: Path) -> list[str]:
        argv = [self.subcommand, "--scenario", self.scenario, "--format", self.format]
        if self.workers is not None:
            argv += ["--workers", str(self.workers)]
        return argv + ["--out", str(out)]

    def as_dict(self) -> dict:
        """Provenance record: the scenario file's contents instead of its path."""
        scenario = json.loads(Path(self.scenario).read_text())
        return {**asdict(self), "scenario": scenario, "samples": self.samples}


def singlet_value(angles: list[float]) -> float:
    """Analytic singlet statistic, with the right wing's angles mirrored."""

    def expectation(left: float, right: float) -> float:
        return -math.cos(math.radians(left + right))

    a, aprime, b, bprime = angles
    return (
        expectation(aprime, bprime)
        + expectation(aprime, b)
        + expectation(a, bprime)
        - expectation(a, b)
    )


class _Generator:
    def __init__(self, workload: str, seed: int, directory: Path) -> None:
        self.rng = random.Random(f"vesselsim-bench/{workload}/{seed}")
        self.directory = directory
        self.written = 0

    def _common(self, runs: int) -> dict:
        rng = self.rng
        low = 0.2 + 0.8 * rng.random()
        return {
            "seed": rng.getrandbits(64),
            "runs_per_pair": runs,
            "system": {"total_volume": 5.0 + 30.0 * rng.random(), "transparent": True},
            "sampler": {"low": low, "high": low + 0.5 + 3.0 * rng.random()},
            "tie_policy": TIE_POLICIES[int(rng.random() * len(TIE_POLICIES))],
        }

    def scenario(self, subcommand: str, runs: int) -> str:
        data = self._common(runs)
        if subcommand == "quantum-chsh":
            # Left angles turned by +theta and right ones by -theta keep the
            # textbook settings' Tsirelson value.
            theta = 360.0 * self.rng.random()
            data["singlet_angles"] = [theta, theta + 90.0, 45.0 - theta, 135.0 - theta]
            if abs(singlet_value(data["singlet_angles"]) - 2 * math.sqrt(2)) > 1e-9:
                raise RuntimeError(f"angles {data['singlet_angles']} miss 2*sqrt(2)")
        if subcommand == "sample-state":
            modulus = 1.0 / math.sqrt(N_AMPLITUDES)
            phases = [2 * math.pi * self.rng.random() for _ in range(N_AMPLITUDES)]
            data["amplitudes"] = [[modulus * math.cos(p), modulus * math.sin(p)] for p in phases]
        self.written += 1
        path = self.directory / f"scenario-{self.written:02d}-{subcommand}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")
        return str(path)


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    """Write the workload's scenario files into ``directory``; return its ops."""
    gen = _Generator(workload, seed, directory)
    ops: list[Op] = []
    if workload == "estimate":
        for index in range(ESTIMATE_SCENARIOS):
            for subcommand in ("vessel-chsh", "quantum-chsh"):
                path = gen.scenario(subcommand, ESTIMATE_RUNS)
                first = Op(f"{subcommand}-{index}-w1", subcommand, path, ESTIMATE_RUNS, workers=1)
                ops.append(first)
                ops.append(
                    Op(f"{subcommand}-{index}-w2", subcommand, path, ESTIMATE_RUNS,
                       workers=2, same_as=first.id)
                )
            path = gen.scenario("sample-state", ESTIMATE_RUNS)
            ops.append(Op(f"sample-state-{index}", "sample-state", path, ESTIMATE_RUNS))
    elif workload == "scan":
        for index in range(SCAN_SCENARIOS):
            path = gen.scenario("locality-check", SCAN_RUNS)
            ops.append(Op(f"locality-check-{index}", "locality-check", path, SCAN_RUNS))
    elif workload == "dump":
        for subcommand, runs in DUMP_RUNS.items():
            path = gen.scenario(subcommand, runs)
            ops.append(Op(f"{subcommand}-csv", subcommand, path, runs, format="csv"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def reference_ops(ops: list[Op]) -> dict[str, Op]:
    """JSON op for the scenario of each CSV op, keyed by the CSV op's id;
    they run untimed for the checks."""
    return {
        op.id: Op(f"{op.id}-ref", op.subcommand, op.scenario, op.runs_per_pair)
        for op in ops
        if op.format == "csv"
    }
