"""Subcommand implementations: run the experiments, assemble reports.

Every command produces a JSON-ready report dict, assembled by ``_report``:
six common keys (``scenario``, ``estimates``, ``bell``, ``factorization``,
``version``, ``seed``; sections a command does not fill are null) updated
with the command's own sections, and an optional per-run dump for CSV
output.  Reports contain nothing but seed-derived values, so identical
scenarios yield byte-identical output.

The dump's rows are computed lazily, one chunk of runs at a time, while the
CSV is written, and each slice of at most ``CSV_ROWS_PER_WRITE`` rows of a
chunk becomes one text, built by a single ``str.join``.  No row formats an
integer: its running index is a head (the prefix and the index's leading
digits) and an entry, with its comma, of a table of the texts of 0..999 or
of "000".."999".  A row's pre-rendered tail and the next row's head are
one piece, glued once per tail and head, so a row is 2 pieces, or 3 with
float cells.  The float cells (the diameters) of a slice come from
one ``floattext.reprs`` call, which writes each row's cells as one text of
``repr``s joined by "," without calling ``repr`` for most of them.  With
``collect_runs`` every command returns no report (None): CSV output does
not use it, and for the sampling commands it would take a second pass over
the runs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._version import __version__
from .bell import (
    ALGEBRAIC_BOUND,
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    ExpectationEstimate,
    Model,
    bell_statistic,
    estimate_expectation,
    pair_chunks,
    vessel_model,
)
from .errors import ConfigError, InvariantError
from .floattext import reprs
from .locality import SCAN_COLUMNS, CorrelationKind, scan_counts, scan_rows
from .quantum import (
    TOTAL_LITERS,
    born_histogram,
    born_samples,
    is_entangled,
    schmidt_rank,
    singlet_analytic_estimates,
    singlet_model,
)
from .scenario import Scenario
from .streams import BORN_STREAM, LOCALITY_STREAM, run_chunks, substream
from .vessels import (
    ALL_PAIRS, SiphonDiameters, joint_outcome_ab, left_wins, simulate_flow
)


def _csv_lines(rows: Iterable[Iterable]) -> list[str]:
    """Each row's cells rendered as a CSV line."""
    return [",".join(map(str, row)) + "\n" for row in rows]


# outcome_left,outcome_right,product at 2 * (outcome_left > 0) + (outcome_right > 0).
_CHSH_TAILS = _csv_lines((left, right, left * right) for left in (-1, 1) for right in (-1, 1))
# x,left_liters,right_liters at the Born draw x.
_BORN_TAILS = _csv_lines((x, x, TOTAL_LITERS - x) for x in range(TOTAL_LITERS + 1))

# A running index i's last digits and the comma after them: _DIGITS[i]
# below 1000, else _ENDINGS[i % 1000] after the head's str(i // 1000).
_DIGITS = [f"{i}," for i in range(1000)]
_ENDINGS = [f"{i:03d}," for i in range(1000)]

# The flow report's section and its one CSV row, in this order.
FLOW_COLUMNS = ("lambda_a", "lambda_b", "dt", "x_left", "x_right", "outcome_left", "outcome_right")


# Rows per dump text, so that the text held is one slice, not a chunk.
CSV_ROWS_PER_WRITE = 2048


class RowBlocks:
    """The dump's texts, each one slice of at most ``CSV_ROWS_PER_WRITE``
    whole CSV lines, computed lazily as they are iterated (once); ``len()``
    is the number of rows they hold."""

    def __init__(self, texts: Iterable[str], row_count: int) -> None:
        self._texts = texts
        self._row_count = row_count

    def __iter__(self) -> Iterator[str]:
        return iter(self._texts)

    def __len__(self) -> int:
        return self._row_count


@dataclass
class RunDump:
    """Per-run rows for CSV output: texts of whole CSV lines, each line
    holding cells in ``fieldnames`` order."""

    fieldnames: list[str]
    rows: Iterable[str] = ()


def _slice_text(prefix: str, first: int, codes: np.ndarray, tails: list, texts: list | None) -> str:
    """The CSV lines of indices ``first``, ``first + 1``, ...: ``prefix``
    and the index, the row's ``texts`` entry (float cells) if any, and
    ``tails[code]``.  A row's tail is one piece with the next row's head,
    the last row's is bare, and the first row's head starts the text."""
    stop, sep, width = first + len(codes), "," * (texts is not None), 2 + (texts is not None)
    heads = [prefix + str(t) if t else prefix for t in range(first // 1000, (stop - 1) // 1000 + 1)]
    lows, glues = [], []
    for thousand, head in enumerate(heads, first // 1000):
        base = 1000 * thousand
        lo, hi = max(first, base), min(stop, base + 1000)
        lows += (_ENDINGS if thousand else _DIGITS)[lo - base : hi - base]
        # The row before the block's first and all but its last end with its head.
        glue = np.array([sep + tail + head for tail in tails], dtype=object)
        glues += glue[codes[max(lo - 1 - first, 0) : hi - 1 - first]].tolist()
    glues.append(sep + tails[codes[-1]])
    pieces = [heads[0]] * (1 + width * len(codes))  # pieces[0] is the first row's head.
    pieces[1::width] = lows
    if texts is not None:
        pieces[2::width] = texts
    pieces[width::width] = glues
    return "".join(pieces)


def _row_blocks(chunks: Iterable[list], tails: list[str], prefix: str = "") -> Iterator[str]:
    """The CSV lines of each chunk (its float64 cell columns, then a column
    of codes into ``tails``), one ``_slice_text`` per slice of at most
    ``CSV_ROWS_PER_WRITE`` rows."""
    start = 0
    for *cells, codes in chunks:
        for lo in range(0, len(codes), CSV_ROWS_PER_WRITE):
            rows = slice(lo, lo + CSV_ROWS_PER_WRITE)
            texts = reprs(np.stack([column[rows] for column in cells], axis=1)) if cells else None
            yield _slice_text(prefix, start + lo, codes[rows], tails, texts)
        start += len(codes)


def _report(scenario: Scenario, **sections) -> dict:
    """The six common keys, unused sections null, updated with ``sections``."""
    return {
        "scenario": scenario.echo(),
        "estimates": None,
        "bell": None,
        "factorization": None,
        "version": __version__,
        "seed": scenario.seed,
        **sections,
    }


def _chsh_report(scenario: Scenario, estimates: list[ExpectationEstimate], **sections) -> dict:
    statistic = bell_statistic(estimates)
    return _report(
        scenario,
        estimates=[
            {
                "pair": estimate.pair.label,
                "mean": estimate.mean,
                "stderr": estimate.stderr,
                "n": estimate.n,
            }
            for estimate in statistic.components
        ],
        bell={
            "value": statistic.value,
            "classification": statistic.classification.value,
            # Standard-theory reference bounds, not properties of this model.
            "bounds": {
                "local": LOCAL_BOUND,
                "tsirelson": TSIRELSON_BOUND,
                "algebraic": ALGEBRAIC_BOUND,
            },
        },
        **sections,
    )


def _chsh(
    scenario: Scenario,
    model: Model,
    run_columns: list[str],
    collect_runs: bool,
    **sections,
) -> tuple[dict | None, RunDump]:
    """Estimate the four pairs with ``model`` and report the statistic with
    ``sections`` added; the dump holds every run's ``run_columns``, outcomes
    and outcome product."""
    n = scenario.runs_per_pair
    dump = RunDump(["pair", "run_index", *run_columns, "outcome_left", "outcome_right", "product"])
    if collect_runs:
        def chunk_cells(pair):
            for _, columns in pair_chunks(model, pair, n, collect=True):
                code = 2 * (columns["outcome_left"] > 0) + (columns["outcome_right"] > 0)
                yield [*(columns[name] for name in run_columns), code]

        # The pair label, then the run index, run columns and outcome tail.
        blocks = (_row_blocks(chunk_cells(p), _CHSH_TAILS, p.label + ",") for p in ALL_PAIRS)
        dump.rows = RowBlocks(chain.from_iterable(blocks), len(ALL_PAIRS) * n)
        return None, dump
    estimates = [estimate_expectation(model, pair, n) for pair in ALL_PAIRS]
    return _chsh_report(scenario, estimates, **sections), dump


def vessel_chsh(scenario: Scenario, collect_runs: bool = False) -> tuple[dict | None, RunDump]:
    """Estimate all four coincidence pairs and combine them."""
    model = vessel_model(scenario.sampler, scenario.system, scenario.tie_policy)
    return _chsh(scenario, model, ["lambda_a", "lambda_b"], collect_runs)


def locality_check(
    scenario: Scenario, collect_runs: bool = False
) -> tuple[dict | None, RunDump]:
    """Factorization search and context witnesses over sampled hidden variables."""
    n = scenario.runs_per_pair
    chunks = scenario.sampler.draw_chunks(n, key=(LOCALITY_STREAM,))
    tie_args = (scenario.tie_policy, scenario.seed)
    dump = RunDump(["sample_index", "lambda_a", "lambda_b", *SCAN_COLUMNS])
    if collect_runs:
        # The joint run's winner fixes the cells after lambda_b: the
        # scan_rows row of a left loss, then of a left win.
        blocks = ([a, b, left_wins(a, b, *tie_args).astype(np.intp)] for a, b in chunks)
        dump.rows = RowBlocks(_row_blocks(blocks, _csv_lines(scan_rows(scenario.system))), n)
        return None, dump

    satisfiable, witnesses = scan_counts(chunks, scenario.system, *tie_args)
    unsatisfiable = n - satisfiable
    kind = (
        CorrelationKind.SECOND_KIND if unsatisfiable else CorrelationKind.FIRST_KIND
    )

    factorization = {
        # True only if every sampled hidden variable admits an assignment.
        "satisfiable": unsatisfiable == 0,
        "witness_count": witnesses,
        "sample_count": n,
        "unsatisfiable_count": unsatisfiable,
    }
    return _report(scenario, factorization=factorization, correlation_kind=kind.value), dump


def sample_state(
    scenario: Scenario, collect_runs: bool = False
) -> tuple[dict | None, RunDump]:
    """Born-sample the superposition state and report the histogram and rank."""
    state = scenario.state()
    n = scenario.runs_per_pair
    rng = substream(scenario.seed, BORN_STREAM, 0)
    dump = RunDump(["sample_index", "x", "left_liters", "right_liters"])
    if collect_runs:
        # Chunk after chunk on one generator: the same draws as born_samples(state, n, rng).
        draws = run_chunks(lambda size: born_samples(state, size, rng), n)
        dump.rows = RowBlocks(_row_blocks(([x] for x in draws), _BORN_TAILS), n)
        return None, dump

    return _report(
        scenario,
        histogram=born_histogram(state, n, rng).tolist(),
        n_samples=n,
        probabilities=state.probabilities().tolist(),
        schmidt_rank=schmidt_rank(state),
        entangled=is_entangled(state),
    ), dump


def quantum_chsh(
    scenario: Scenario,
    analytic: bool = False,
    collect_runs: bool = False,
) -> tuple[dict | None, RunDump]:
    """Singlet statistic at the scenario's analyzer angles."""
    if scenario.singlet_angles is None:
        raise ConfigError("scenario.singlet_angles: missing; quantum-chsh needs them")
    angles = scenario.singlet_angles
    sections = {"mode": "analytic" if analytic else "monte_carlo", "angles": list(angles)}
    if not analytic:
        return _chsh(scenario, singlet_model(angles, scenario.seed), [], collect_runs, **sections)

    estimates = singlet_analytic_estimates(angles)
    dump = RunDump(["pair", "expectation"])
    if collect_runs:
        rows = _csv_lines((estimate.pair.label, estimate.mean) for estimate in estimates)
        dump.rows = RowBlocks(["".join(rows)], len(rows))
        return None, dump
    return _chsh_report(scenario, estimates, **sections), dump


def flow(
    scenario: Scenario,
    lambda_a: float,
    lambda_b: float,
    dt: float,
    collect_runs: bool = False,
) -> tuple[dict | None, RunDump]:
    """Integrate one joint drainage and report the collected volumes."""
    try:
        lam = SiphonDiameters(lambda_a, lambda_b)
    except InvariantError as exc:
        raise ConfigError(str(exc)) from None
    split = simulate_flow(lam, scenario.system, dt)
    outcome_left, outcome_right = joint_outcome_ab(
        lam, scenario.tie_policy, tie_seed=scenario.seed
    )

    cells = (
        lam.lambda_a, lam.lambda_b, dt, split.x_left, split.x_right, outcome_left, outcome_right
    )
    dump = RunDump(list(FLOW_COLUMNS))
    if collect_runs:
        dump.rows = RowBlocks(["".join(_csv_lines([cells]))], 1)
        return None, dump
    return _report(scenario, flow=dict(zip(FLOW_COLUMNS, cells, strict=True))), dump
