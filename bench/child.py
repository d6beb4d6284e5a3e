"""The run process: import vesselsim.cli, then call cli.main for each op.

    python3 child.py --probe        print import timings as JSON and exit
    python3 child.py PLAN RESULT    run the plan, write the result JSON

The first statements time interpreter start-up and the imports, so nothing
but ``time``, ``sys``, numpy and vesselsim is imported before them.  The op
loop is closed (one op at a time) and repeats the whole op list in passes
until the plan's seconds are spent; each op writes its report to a file, and
the file's digest and size are taken after the op's timer stops.

After every op, untimed, the process also times ``calibrate``: fixed
interpreter and numpy work that no change to vesselsim can alter, repeated
for about 5% of the op's time.  Its duration measures how fast the host runs
at that moment, which drifts by tens of percent over minutes on shared
machines; bench/run.py divides that drift out of the gated throughput.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import numpy  # noqa: E402

T_NUMPY = time.clock_gettime(time.CLOCK_MONOTONIC)

import vesselsim.cli as cli  # noqa: E402

T_VESSELSIM = time.clock_gettime(time.CLOCK_MONOTONIC)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MAX_PASSES = 100_000
CALIBRATION_LOOP = 3_500
CALIBRATION_DRAWS = 100_000
CALIBRATION_SHARE = 0.05
CALIBRATION_MAX_SAMPLES = 25


class _Pair:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int) -> None:
        self.left = left
        self.right = right

    def product(self) -> int:
        return self.left * self.right if self.left < self.right else -1


def calibrate() -> float:
    """Seconds for a fixed mix of the work the ops do: small objects, dicts,
    float reprs and numpy draws; about 10 ms on an unloaded 2-core x86-64 host."""
    t0 = time.perf_counter()
    total = 0
    parts = []
    for index in range(CALIBRATION_LOOP):
        total += _Pair(index, index + 1).product()
        row = {"index": index, "value": index / 7}
        parts.append(repr(row["value"]))
    total += len(",".join(parts))
    rng = numpy.random.default_rng(total)
    left = rng.uniform(size=CALIBRATION_DRAWS)
    right = rng.uniform(size=CALIBRATION_DRAWS)
    int(numpy.where(left < right, 1, -1).sum())
    return time.perf_counter() - t0


def host_speed(busy_s: float) -> float:
    """Median ``calibrate`` time over samples that add up to
    ``CALIBRATION_SHARE`` of ``busy_s``, at least one.  The first call in a
    process runs cold, at about half speed, so it is made before any op."""
    samples = [calibrate()]
    while sum(samples) < CALIBRATION_SHARE * busy_s and len(samples) < CALIBRATION_MAX_SAMPLES:
        samples.append(calibrate())
    return statistics.median(samples)


def import_times() -> dict:
    return {
        "start": T_START,
        "numpy": T_NUMPY,
        "vesselsim": T_VESSELSIM,
        "vesselsim_file": cli.__file__,
        "versions": {"vesselsim": cli.__version__, "numpy": numpy.__version__},
    }


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_op(op: dict) -> dict:
    out = Path(op["out"])
    out.unlink(missing_ok=True)  # a failing op must not leave an older report behind
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(op["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    record = {"id": op["id"], "rc": rc, "error": error, "s": elapsed, "digest": None, "bytes": 0}
    if rc == 0 and out.is_file():
        record["digest"] = file_digest(out)
        record["bytes"] = out.stat().st_size
    record["calibration_s"] = host_speed(elapsed)
    return record


def run_plan(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        targets = layers.targets()

    calibrate()
    passes = []
    maxrss_kb = None
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        # Traced runs alternate untraced and traced passes, which gives the
        # tracing overhead from the same process.
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(targets)
        t0 = time.perf_counter()
        try:
            records = [run_op(op) for op in plan["ops"]]
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall_s": time.perf_counter() - t0, "ops": records}
        if traced:
            record["trace"] = tracer.drain()
        passes.append(record)
        if maxrss_kb is None:
            # Later passes repeat the same ops; only allocator drift grows it.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        done = len(passes)
        if done >= plan["min_passes"] and elapsed * (done + 1) / done > plan["seconds"]:
            break

    references = [run_op(op) for op in plan["references"]]
    return {
        "imports": import_times(),
        "passes": passes,
        "maxrss_kb": maxrss_kb,
        "references": references,
        "trace_missing": sorted(tracer.missing) if tracer else [],
    }


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(json.dumps(import_times()))
        return 0
    if len(argv) != 2:
        print("usage: child.py --probe | child.py PLAN RESULT", file=sys.stderr)
        return 2
    plan = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(run_plan(plan)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
