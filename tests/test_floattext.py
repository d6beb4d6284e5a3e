"""``floattext.reprs`` is ``repr`` for every float64, fast path or not.

Each property draws a list of floats and requires ``reprs`` of their
one-column array to equal their ``repr``s: any floats (NaN, infinities,
zeros and subnormals included), raw bit patterns across the fast path,
and values with short reprs, half-way ties among them.  Its twin draws rows of 1 to 3 such
floats and requires each row's ``repr``s joined by ",", the text a CSV dump
writes for a row's diameters.  Where the proof in ``floattext``'s
docstring is tight -- every power of 2 and of 10 around the fast path with
its neighbours, and ``FAST_MIN`` and ``FAST_MAX`` -- every value is
checked, not sampled, alone and as two-column rows.  A seeded sweep covers
the diameters the dumps write.  ``tests/sweep_floattext.py`` runs the same
check over 10M values.  The exponent tables are checked exactly, a
counting ``repr`` shows that only rows with a cell outside the fast path
reach it, and a counting ``_shortest`` that the fast path sees only the
other rows.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsim import floattext
from vesselsim.floattext import FAST_MAX, FAST_MIN, reprs

from strategies import fixed_length, short_lists
from sweep_floattext import tight_set


def assert_reprs(xs: list[float]) -> None:
    assert reprs(np.array(xs, dtype=np.float64)[:, None]) == list(map(repr, xs))


def as_rows(rows: list[list[float]], width: int) -> np.ndarray:
    """The first ``width`` cells of each row, as a (rows, width) array."""
    return np.array([row[:width] for row in rows], dtype=np.float64).reshape(len(rows), width)


def rows_of(element):
    """(rows, columns) arrays of 0 to 40 rows of 1 to 3 ``element``s.  Every
    row draws 3, as ``up_to`` does, so that no drawn span changes its
    number of choices with the width."""
    return st.builds(as_rows, short_lists(fixed_length(element, 3), 40), st.integers(1, 3))


def assert_rows(rows: np.ndarray) -> None:
    assert reprs(rows) == [",".join(map(repr, row)) for row in rows.tolist()]


def from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


FAST_BITS = st.integers(*np.array([FAST_MIN / 2, FAST_MAX * 2]).view(np.int64).tolist()).map(from_bits)


# k / 2**m and k / 10**m; y lies half-way between two shortest candidates
# for odd multiples of 1/4 in [2**50, 2**51) and odd c / 2**17 in [0.5, 1).
# Each branch draws two integers, m a fixed one for the ties: a copied
# element then takes as many choices as the one it replaces.
SHORT = st.one_of(
    st.builds(lambda k, m: k / 2.0**m, st.integers(1, 2**53), st.integers(0, 60)),
    st.builds(lambda k, m: k / 10**m, st.integers(1, 10**9), st.integers(0, 20)),
    st.builds(lambda k, m: (k | 1) / 2.0**m, st.integers(2**52, 2**53 - 1), st.integers(2, 2)),
    st.builds(lambda c, m: (c | 1) / 2.0**m, st.integers(2**16, 2**17 - 1), st.integers(17, 17)),
)


# Half-way ties, which the fast path rounds to the even multiple.
TIES = [1125899906842624.25, 1125899906842624.75, 65537 / 2**17, 65539 / 2**17]

# Cells outside the fast path and two half-way ties, each in the first,
# middle and last of three columns of fast cells.
EDGE_CELLS = [math.nan, 0.0, 1e16, 1125899906842624.25, 65537 / 2**17]
EDGE_ROWS = as_rows(
    [[x if i == k else 1.5 + i for i in range(3)] for x in EDGE_CELLS for k in range(3)], 3
)


@settings(max_examples=150)
@given(short_lists(st.floats(), 40))
@example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1.7976931348623157e308])
@example([FAST_MIN, FAST_MAX, 1e-4, 1e16, -1.5])
def test_any_floats(xs):
    assert_reprs(xs)


@settings(max_examples=150)
@given(rows_of(st.floats()))
@example(EDGE_ROWS)
@example(as_rows([[math.nan, 0.5], [0.5, 0.0], [1e16, 1e16], [0.5, 0.25]], 2))
@example(as_rows([[]] * 3, 0))
def test_any_float_rows(rows):
    assert_rows(rows)


@given(short_lists(FAST_BITS, 40))
def test_bit_patterns_across_the_fast_path(xs):
    assert_reprs(xs)


@given(rows_of(FAST_BITS))
def test_bit_pattern_rows_across_the_fast_path(rows):
    assert_rows(rows)


@settings(max_examples=150)
@given(short_lists(SHORT, 40))
@example(TIES)
def test_short_reprs_and_half_way_ties(xs):
    assert_reprs(xs)


@settings(max_examples=150)
@given(rows_of(SHORT))
@example(as_rows([[2**50 + 0.25, 0.5, 65537 / 2**17], [0.5, 65539 / 2**17, 2**50 + 0.75]], 3))
def test_short_repr_and_half_way_tie_rows(rows):
    assert_rows(rows)


def test_powers_of_two_and_ten_and_their_neighbours():
    """The tight set from 2**-14 to 2**54 and 1e-5 to 1e17, both signs, with
    the hand-picked powers and neighbours first."""
    picked = [99.99999999999999, 999.9999999999999, 2.0**-12, 2.0**52, 0.1, 1e15]
    values = picked + tight_set(range(-14, 55), range(-5, 18)).tolist()
    assert_reprs(values)
    assert_rows(np.array(values).reshape(-1, 2))


def test_a_sweep_of_sampler_ranges():
    """200k diameters drawn as the bench draws its samplers' ranges."""
    rng = np.random.default_rng(20260)
    for low, span in zip(0.2 + 0.8 * rng.random(100), 0.5 + 3.0 * rng.random(100)):
        values = rng.uniform(low, low + span, 2000)
        assert reprs(values[:, None]) == list(map(repr, values.tolist()))
        assert_rows(values.reshape(-1, 2))


# Column ranges of a 2048-row slice: both columns outside the fast path,
# or one column inside it and one outside.
OUTSIDE_COLUMNS = {
    "both-above": [(1e16, 3e16), (1e16, 3e16)],
    "both-below": [(1e-6, 3e-6), (1e-6, 3e-6)],
    "one-of-two": [(0.5, 3.0), (1e16, 3e16)],
}


def counting_repr(monkeypatch) -> list[float]:
    """The values ``floattext`` passes to ``repr`` from now on, through a
    module global that shadows the builtin."""
    calls = []

    def counted(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(floattext, "repr", counted, raising=False)
    return calls


@pytest.mark.parametrize("columns", OUTSIDE_COLUMNS.values(), ids=OUTSIDE_COLUMNS)
def test_a_row_is_rebuilt_once_whatever_its_undecided_cells(monkeypatch, columns):
    """``reprs`` calls ``repr`` at most once a cell: a row with cells outside
    the fast path is rebuilt once, not once for each of them."""
    rng = np.random.default_rng(36)
    values = np.stack([rng.uniform(low, high, 2048) for low, high in columns], axis=1)
    calls = counting_repr(monkeypatch)
    texts = reprs(values)
    monkeypatch.undo()
    assert len(calls) <= values.size
    expected = [",".join(map(repr, row)) for row in values.tolist()]
    assert len(texts) == len(expected)
    # The rows that differ, not a diff of 2048 texts.
    assert [i for i, (got, want) in enumerate(zip(texts, expected)) if got != want] == []


def test_every_value_in_the_fast_path_is_written_without_repr(monkeypatch):
    """The tight set's values in [FAST_MIN, FAST_MAX] -- powers of 2 and of
    10 and their neighbours, where a rounded log10 would cross a power of
    ten -- and half-way ties never reach ``repr``, alone or as rows."""
    tight = tight_set(range(-14, 55), range(-5, 18))
    values = np.concatenate([TIES, tight[(tight >= FAST_MIN) & (tight <= FAST_MAX)]])
    values = values[: len(values) // 2 * 2]
    calls = counting_repr(monkeypatch)
    texts, rows = reprs(values[:, None]), reprs(values.reshape(-1, 2))
    monkeypatch.undo()
    assert calls == []
    assert texts == list(map(repr, values.tolist()))
    assert rows == [",".join(map(repr, row)) for row in values.reshape(-1, 2).tolist()]


def slice_of(columns) -> np.ndarray:
    """A 2048-row slice, each column drawn uniformly from its range."""
    rng = np.random.default_rng(19)
    return np.stack([rng.uniform(low, high, 2048) for low, high in columns], axis=1)


# Slices, each with the number of its cells in whole rows.  The
# alternating slice's even rows are whole, and each odd row holds a cell
# above the fast path.
ALTERNATING = slice_of(OUTSIDE_COLUMNS["one-of-two"])
ALTERNATING[::2, 1] = ALTERNATING[::2, 0]
SLICES = {
    **{name: (slice_of(columns), 0) for name, columns in OUTSIDE_COLUMNS.items()},
    "alternating": (ALTERNATING, 2048),
}


@pytest.mark.parametrize("values, cells", SLICES.values(), ids=SLICES)
def test_the_fast_path_sees_only_whole_rows(monkeypatch, values, cells):
    """The fast path runs on the rows whose every value lies in [FAST_MIN,
    FAST_MAX], and on no other cell: a slice with no such row never runs
    it, and a row with one cell outside it is joined from ``repr`` alone."""
    seen = []
    shortest = floattext._shortest

    def counted(x):
        seen.append(len(x))
        return shortest(x)

    monkeypatch.setattr(floattext, "_shortest", counted)
    texts = reprs(values)
    monkeypatch.undo()
    assert sum(seen) == cells
    expected = [",".join(map(repr, row)) for row in values.tolist()]
    assert len(texts) == len(expected)
    assert [i for i, (got, want) in enumerate(zip(texts, expected)) if got != want] == []


def test_exponent_tables_are_exact():
    """For each binary exponent b of the fast path, 10**d <= 2**(b - 1) <
    10**(d + 1) with d from ``_DECADE``, and ``_UP`` holds the least double
    at or above 10**(d + 1)."""
    first, decades, ups = floattext._B_MIN, floattext._DECADE.tolist(), floattext._UP.tolist()
    assert (first, first + len(decades) - 1) == (math.frexp(FAST_MIN)[1], math.frexp(FAST_MAX)[1])
    for b, d, up in zip(range(first, first + len(decades)), decades, ups):
        assert Fraction(10) ** d <= Fraction(2) ** (b - 1) < Fraction(10) ** (d + 1)
        assert Fraction(math.nextafter(up, 0.0)) < Fraction(10) ** (d + 1) <= Fraction(up)


@pytest.mark.parametrize(
    "values",
    [np.arange(3), np.array(1.0), np.zeros(3), np.zeros((2, 2, 2)), np.zeros(3, dtype=np.float32),
     np.zeros((2, 2), dtype=np.float32)],
)
def test_only_two_dimensional_float64_arrays(values):
    with pytest.raises(TypeError):
        reprs(values)
