"""Sweep ``floattext.reprs`` against ``repr`` over millions of float64 values.

    PYTHONPATH=src python tests/sweep_floattext.py [--values N] [--seed S]

Draws about N values (default 10M) from the classes below and renders them
twice: in calls of ``CSV_ROWS_PER_WRITE`` values, and in calls of
``CSV_ROWS_PER_WRITE`` two-column rows, the shape the CSV dumps render.
Each text is compared with ``repr``, a row's with its cells' ``repr``s
joined by ",".  Prints, per class and width, the values checked and the
mismatches, then the totals and the wall time of each width; exits 1 on
any mismatch.
It needs numpy and the standard library only, and is not a pytest module:
tier-1 runs the property tests of ``tests/test_floattext.py``, and
``tight_set`` around the fast path.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from vesselsim.commands import CSV_ROWS_PER_WRITE
from vesselsim.floattext import FAST_MAX, FAST_MIN, reprs


def fast_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform bit patterns from a little below FAST_MIN to a little above
    FAST_MAX."""
    low, high = np.array([FAST_MIN / 2, FAST_MAX * 2]).view(np.int64)
    return rng.integers(low, high, n).view(np.float64)


def any_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform 64-bit patterns: every sign and exponent, NaNs included."""
    return rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
    """Diameters from the bench's sampler ranges: low in [0.2, 1], high up
    to 3.5 above, in draws of 1000 per range."""
    low = np.repeat(0.2 + 0.8 * rng.random(n // 1000 + 1), 1000)[:n]
    high = low + 0.5 + 3.0 * np.repeat(rng.random(n // 1000 + 1), 1000)[:n]
    return low + (high - low) * rng.random(n)


def short(rng: np.random.Generator, n: int) -> np.ndarray:
    """Values with short reprs: k / 2**m, and k / 10**m correctly rounded."""
    half = n // 2
    binary = np.ldexp(rng.integers(1, 2**53, half).astype(np.float64), -rng.integers(0, 64, half))
    k, m = rng.integers(1, 10**8, n - half), rng.integers(0, 22, n - half)
    decimal = np.array([int(a) / 10 ** int(b) for a, b in zip(k, m)])
    return np.concatenate([binary, decimal])


def tight_set(twos: range = range(-1074, 1024), tens: range = range(-323, 309)) -> np.ndarray:
    """Where the fast path's proof is tight, both signs: 2**k for k in
    ``twos``, 10**k for k in ``tens``, FAST_MIN and FAST_MAX, each with its
    neighbours up to 8 steps away, and zeros, infinities, NaN, subnormals
    and the largest floats."""
    centres = np.concatenate([np.ldexp(1.0, np.array(twos)), [float(f"1e{k}") for k in tens],
                              [FAST_MIN, FAST_MAX]])
    near = [centres]
    for toward in (0.0, np.inf):
        step = centres
        for _ in range(8):
            step = np.nextafter(step, toward)
            near.append(step)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308])
    signed = np.concatenate([*near, special])
    return np.concatenate([signed, -signed])


def edges(rng: np.random.Generator, n: int) -> np.ndarray:
    """The tight set, and half-way ties for the rest: odd multiples of 1/4
    above 2**50 and odd c / 2**17 in [0.5, 1)."""
    tight = tight_set()
    half = max((n - len(tight)) // 2, 0)
    ties = [2.0**50 + (2 * rng.integers(0, 2**51, half) + 1) / 4.0,
            (2 * rng.integers(2**15, 2**16, half) + 1) / 2.0**17]
    return np.concatenate([tight, *ties])


CLASSES = {"fast_bits": fast_bits, "any_bits": any_bits, "sampler": sampler,
           "short": short, "edges": edges}


def check(values: np.ndarray, width: int) -> int:
    """Mismatched texts of reprs against repr, in calls of CSV_ROWS_PER_WRITE
    rows of ``width`` values (1-D arrays for width 1)."""
    rows = values.reshape(-1, width) if width > 1 else values
    bad = 0
    for lo in range(0, len(rows), CSV_ROWS_PER_WRITE):
        part = rows[lo : lo + CSV_ROWS_PER_WRITE]
        got = reprs(part)
        want = [",".join(map(repr, row)) for row in part.reshape(len(part), -1).tolist()]
        if got != want:
            wrong = [(w, g) for g, w in zip(got, want) if g != w]
            bad += len(wrong)
            print(f"  mismatch: repr {wrong[0][0]!r}, reprs {wrong[0][1]!r}", file=sys.stderr)
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    per_class = args.values // len(CLASSES)
    mismatches = 0
    for width in (1, 2):
        rng = np.random.default_rng(args.seed)
        start = time.perf_counter()
        total = bad_texts = 0
        for name, draw in CLASSES.items():
            values = draw(rng, per_class)
            values = values[: len(values) // width * width]
            bad = check(values, width)
            print(f"{name:10s} width {width} {len(values):>10,d} values {bad:>6d} mismatches")
            total, bad_texts = total + len(values), bad_texts + bad
        print(f"total      width {width} {total:>10,d} values {bad_texts:>6d} mismatches "
              f"in {time.perf_counter() - start:.1f} s")
        mismatches += bad_texts
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
