"""vesselsim benchmark: fixed, generated CLI workloads with checked outputs.

    python3 bench/run.py --workload estimate|scan|dump --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/vesselsim``; nothing
needs installing.  One run:

1. generates the workload's scenario files from ``--seed`` (bench/workloads.py);
2. starts fresh interpreters that only import ``vesselsim.cli``, before and
   after step 3, and takes the median of their start-up times as ``setup_s``;
3. starts the run process (bench/child.py), which imports ``vesselsim.cli``
   and calls ``cli.main(argv)`` for each op of the fixed op list, one at a
   time (a closed loop with a single client and at most ``--workers 2``
   threads), in passes until ``--seconds`` are spent.  Each op writes its
   report with ``--out``, so parse, compute, render and write are timed;
4. checks every report (bench/checks.py), the byte identity of the
   ``--workers 1`` and ``--workers 2`` reports, and that each op's bytes
   repeat in every pass;
5. prints every metric by name and unit, a ``detail`` line with provenance,
   report digests and sentinel counts, and as the last line the result
   object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced passes:

* ``setup_s``: median over fresh interpreters of the time from spawning one
  to the end of ``import vesselsim.cli``, numpy included;
* ``samples_per_s``: median over passes of the samples the op list covers
  divided by the pass's summed op time.  Each op's time is first scaled to
  the reference host speed by the calibration timed right after it
  (child.calibrate), because the speed of a shared host drifts by tens of
  percent over minutes.  The unscaled median is printed as
  ``raw_samples_per_s``;
* ``peak_rss_mb``: ``ru_maxrss`` of the run process after its first pass;
* ``success_rate``: 1 - failed / attempted op executions.  Its complement
  ``error_rate`` is printed too; the gated metric must never read 0.

With ``--trace 1`` they are the per-layer ones:
untraced and traced passes alternate, the traced ones with wrappers around
the calls into each module (bench/layers.py), and the ratio of their
throughputs is the tracing overhead.

Every result is appended to bench/.work/history.jsonl; a report digest or
sentinel count that differs from an earlier run of the same code, seed and
numpy version is flagged and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
HISTORY = WORK / "history.jsonl"

# Import probes before and after the run process, so that set-up time is
# sampled across the run rather than in one burst.
SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 3
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150
# child.calibrate's duration on an unloaded 2-core x86-64 host.  The gated
# throughput is scaled to this host speed: op time measured while calibrate
# took longer is shortened in proportion.
REFERENCE_CALIBRATION_S = 0.010


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_origin(imports: dict) -> None:
    origin = Path(imports["vesselsim_file"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"vesselsim was imported from {origin}, not from {SRC}")


def probe_setup() -> dict:
    """Start a fresh interpreter that imports vesselsim.cli; return its times
    relative to the moment it was spawned."""
    spawned = monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--probe"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr}")
    imports = json.loads(proc.stdout)
    check_origin(imports)
    return setup_times(imports, spawned)


def setup_times(imports: dict, spawned: float) -> dict:
    return {
        "setup_s": imports["vesselsim"] - spawned,
        "interpreter_s": imports["start"] - spawned,
        "numpy_import_s": imports["numpy"] - imports["start"],
        "vesselsim_import_s": imports["vesselsim"] - imports["numpy"],
    }


def run_child(plan: dict, work: Path) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    spawned = monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(plan_path), str(result_path)],
        cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"run process exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    check_origin(result["imports"])
    result["setup"] = setup_times(result["imports"], spawned)
    return result


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def evaluate(ops, result: dict, outputs: dict, references: dict) -> tuple[int, int, dict, dict]:
    """Count attempted and failed op executions; return per-op problems and
    the report digest of each op.

    An execution fails when it exits non-zero or raises.  A report that
    fails a check, changes between passes or differs from its ``same_as``
    op fails every execution of its op, since its bytes repeat in each pass.
    """
    executions = {op.id: [] for op in ops}
    for record in result["passes"]:
        for op_record in record["ops"]:
            executions[op_record["id"]].append(op_record)

    digests: dict[str, str | None] = {}
    for op in ops:
        found = {r["digest"] for r in executions[op.id] if r["digest"] is not None}
        digests[op.id] = found.pop() if len(found) == 1 else None

    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for op in ops:
        runs = executions[op.id]
        exits = [
            f"pass {index}: exit code {r['rc']}" + (f" ({r['error']})" if r["error"] else "")
            for index, r in enumerate(runs)
            if r["rc"] != 0
        ]
        report = []
        if len({r["digest"] for r in runs if r["digest"] is not None}) > 1:
            report.append("report bytes differ between passes")
        if op.same_as is not None and digests[op.id] != digests[op.same_as]:
            report.append(f"report differs from {op.same_as}'s")
        if runs and runs[-1]["rc"] == 0:
            try:
                report += checks.check_op(op, outputs[op.id], references.get(op.id))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                report.append(f"unreadable report: {type(exc).__name__}: {exc}")
        attempted += len(runs)
        failed += len(runs) if report else len(exits)
        if exits or report:
            problems[op.id] = exits + report
    return attempted, failed, problems, digests


def pass_throughputs(ops, result: dict, traced: bool) -> tuple[list[float], list[float]]:
    """Samples per second of op time for each pass, raw and at the reference
    host speed (each op's time scaled by the calibration taken after it)."""
    samples = sum(op.samples for op in ops)
    raw, adjusted = [], []
    for record in result["passes"]:
        if record["traced"] == traced:
            raw.append(samples / sum(r["s"] for r in record["ops"]))
            adjusted.append(samples / sum(
                r["s"] * REFERENCE_CALIBRATION_S / r["calibration_s"] for r in record["ops"]
            ))
    return raw, adjusted


def layer_metrics(ops, result: dict, setups: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer medians over the traced passes, the sentinel counts, and any
    sentinel that did not repeat between passes."""
    per_pass = [
        layers.pass_metrics(record["trace"], sum(r["bytes"] for r in record["ops"]))
        for record in result["passes"]
        if record["traced"]
    ]
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for name in ("interpreter_s", "numpy_import_s", "vesselsim_import_s"):
        metrics[f"setup.{name}"] = statistics.median(s[name] for s in setups)
    untraced = pass_throughputs(ops, result, traced=False)[1]
    traced = pass_throughputs(ops, result, traced=True)[1]
    metrics["trace.overhead_ratio"] = statistics.median(untraced) / statistics.median(traced)
    sentinels = {name: per_pass[0][name] for name in layers.SENTINELS}
    unstable = [
        f"{name} varies between traced passes: {sorted({p[name] for p in per_pass})}"
        for name in layers.SENTINELS
        if len({p[name] for p in per_pass}) > 1
    ]
    return metrics, sentinels, unstable


def compare_history(key: dict, digests: dict, sentinels: dict | None) -> list[str]:
    """Differences from earlier runs of the same code, inputs and numpy."""
    flags: list[str] = []
    if not HISTORY.is_file():
        return flags
    for line in HISTORY.read_text().splitlines():
        try:
            earlier = json.loads(line)
        except ValueError:
            continue
        if earlier.get("key") != key:
            continue
        for op_id, digest in digests.items():
            if earlier["digests"].get(op_id, digest) != digest:
                flags.append(f"{op_id}: report digest differs from an earlier run")
        if sentinels and earlier.get("sentinels"):
            for name, value in sentinels.items():
                if earlier["sentinels"].get(name, value) != value:
                    flags.append(
                        f"{name}: {value} here, {earlier['sentinels'][name]} in an earlier run"
                    )
    return sorted(set(flags))


def run(args: argparse.Namespace, spec: dict) -> dict:
    if not (SRC / "vesselsim" / "cli.py").is_file():
        raise BenchError(f"no vesselsim sources at {SRC / 'vesselsim'}")
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        ops = workloads.build(args.workload, args.seed, work)
        references = workloads.reference_ops(ops)
        outputs = {op.id: work / f"{op.id}.{op.format}" for op in [*ops, *references.values()]}

        def planned(op_list) -> list[dict]:
            return [{"id": op.id, "argv": op.argv(outputs[op.id]), "out": str(outputs[op.id])}
                    for op in op_list]

        plan = {
            "ops": planned(ops),
            "references": planned(references.values()),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "min_passes": 4 if args.trace else 1,
        }
        probe_setup()  # warm-up: compiles bytecode and fills the file cache
        setups = [probe_setup() for _ in range(SETUP_PROBES_BEFORE)]
        result = run_child(plan, work)
        setups += [probe_setup() for _ in range(SETUP_PROBES_AFTER)]
        reference_ok = {r["id"] for r in result["references"] if r["rc"] == 0}
        reference_paths = {
            op_id: outputs[ref.id] for op_id, ref in references.items() if ref.id in reference_ok
        }
        attempted, failed, problems, digests = evaluate(ops, result, outputs, reference_paths)
        op_list = [op.as_dict() for op in ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    versions = result["imports"]["versions"]
    key = {
        "workload": args.workload,
        "seed": args.seed,
        "code": code_digest(),
        "numpy": versions["numpy"],
        "python": platform.python_version(),
    }
    sentinels = None
    extra = {"error_rate": (failed / attempted, "ratio")}
    notes = [f"not wrapped, layer metrics miss it: {name}" for name in result["trace_missing"]]
    if args.trace:
        metrics, sentinels, unstable = layer_metrics(ops, result, setups)
        if unstable:
            problems["sentinels"] = unstable
        names = spec["per_layer"]
    else:
        raw, adjusted = pass_throughputs(ops, result, traced=False)
        extra["raw_samples_per_s"] = (statistics.median(raw), "1/s")
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "samples_per_s": statistics.median(adjusted),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
            "success_rate": 1 - failed / attempted,
        }
        names = spec["end_to_end"]
    history_flags = compare_history(key, digests, sentinels)
    if history_flags:
        problems["history"] = history_flags

    units = {entry["name"]: entry["unit"] for entry in names}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    detail = {
        "provenance": {
            "git_commit": git_commit(),
            "code_digest": key["code"],
            "vesselsim": versions["vesselsim"],
            "numpy": versions["numpy"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops": op_list,
        },
        "passes": len(result["passes"]),
        "run_process_setup": result["setup"],
        "op_executions": attempted,
        "failed_executions": failed,
        "unbounded_metrics": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "digests": digests,
        "sentinels": sentinels,
        "problems": problems,
        "notes": notes,
    }
    with HISTORY.open("a") as handle:
        handle.write(json.dumps({"key": key, "digests": digests, "sentinels": sentinels}) + "\n")
    return {
        "detail": detail,
        "result": {
            "correct": not problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        outcome = run(args, spec)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    result, detail = outcome["result"], outcome["detail"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {detail['passes']}  ops {result['attempted']}  failed {result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    for name, metric in detail["unbounded_metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}  (not in BENCHMARK.json)")
    for where, found in detail["problems"].items():
        for problem in found:
            print(f"  PROBLEM {where}: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
