"""Sampler settings and hypothesis strategies shared by the test modules.

Hypothesis's mutator copies one drawn span over another with the same
label.  Where the two take different numbers of choices, the test can run
out of choices, and the example is discarded as invalid with no event:
two draws of one ``st.lists``, or of one ``st.one_of`` over lists of
different lengths, do this.  Every ``.map()`` shares one label.  So the
strategies here are built from ``st.builds``, ``st.tuples`` and
``st.one_of``, whose labels follow their contents: ``up_to`` draws every
element a list may hold, and ``short_lists`` draws a size first.
"""

import cmath
import math
import sys
from itertools import combinations, cycle, islice

import numpy as np
from hypothesis import strategies as st

from vesselsim import TiePolicy, commands, vessels
from vesselsim.commands import CSV_ROWS_PER_WRITE

# [1, 1 + 2**-48] holds only 17 doubles, so about one diameter pair in 17 is
# an exact tie; [0.5, 3], the default range, almost never ties.
TIE_PRONE = {"low": 1.0, "high": 1.0 + 2.0**-48}
NORMAL = {"low": 0.5, "high": 3.0}
UNIFORM_AMPLITUDES = [[1.0 / math.sqrt(11), 0.0]] * 11


def fixed_length(element, size):
    """Lists of exactly ``size`` elements."""
    return st.builds(list, st.tuples(*[element] * size))


def _first(count, elements):
    return list(elements[:count])


def up_to(element, max_size, min_size=0):
    """Lists of ``min_size`` to ``max_size`` elements: the first of
    ``max_size`` drawn ones."""
    return st.builds(_first, st.integers(min_size, max_size), st.tuples(*[element] * max_size))


def short_lists(element, max_size):
    """Lists of 0 to ``max_size`` elements: a size, then exactly that many.
    Size k has weight (5/6)**k, as in ``st.lists``, whose sizes average 5,
    so a property draws as many elements as it did from ``st.lists``."""
    sizes = [k for k in range(max_size + 1) for _ in range(round(1.2 ** (max_size - k)))]
    return st.sampled_from(sizes).flatmap(lambda size: fixed_length(element, size))


# Seeds that break the seed rule (an integer, not a bool, in [0, 2**64)).
BAD_SEEDS = [-1, 2**64, 1.5, 2.0, math.nan, "7", True, False]

EXTREME_NUMBERS = [0.0, -0.0, 5e-324, 1e-300, 1.0, 2.5, 1e300, 1.7e308, -1.0, 2**64, 10**400]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EXTREME_NUMBERS + [math.nan, math.inf, -math.inf]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
WRONG_TYPES = st.sampled_from([None, "1.0", True, [], {}, [1.0]])
ANY_VALUE = st.one_of(NUMBERS, WRONG_TYPES, st.integers(-(2**70), 2**70))
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)

# Values that each reader refuses whatever the rest of the scenario holds.
# An integer past the float range reads as infinite.
BAD_NUMBERS = st.one_of(WRONG_TYPES, st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.integers(max_value=0), BAD_NUMBERS)
NOT_BOOL = st.one_of(NUMBERS, st.integers(-1, 2), st.sampled_from([None, "true", [], {}, [True]]))
NOT_AN_OBJECT = st.one_of(NUMBERS, st.sampled_from([None, "{}", True, [], [1.0]]))
NOT_A_LIST = st.one_of(NUMBERS, st.sampled_from([None, "[]", True, {}]))
NOT_A_PAIR = st.one_of(
    NOT_A_LIST,
    *[fixed_length(FINITE, size) for size in (0, 1, 3)],
    st.builds(list, st.tuples(BAD_NUMBERS, FINITE)),
    st.builds(list, st.tuples(FINITE, BAD_NUMBERS)),
)


@st.composite
def born_amplitudes(draw):
    """Normalized amplitudes with drawn Born weights and phases."""
    weights = draw(fixed_length(st.floats(0.0, 1.0), 11))
    weights[draw(st.integers(0, 10))] += 1.0
    phases = draw(fixed_length(st.floats(-math.pi, math.pi), 11))
    total = sum(weights)
    return [
        [math.sqrt(w / total) * math.cos(p), math.sqrt(w / total) * math.sin(p)]
        for w, p in zip(weights, phases)
    ]


def at(where, values):
    """``values``, each paired with ``where``: the start of its refusal."""
    return st.tuples(st.just(where), values)


def _with_entry(field, entries, index, bad):
    index %= len(entries)
    return f"scenario.{field}[{index}]: ", [*entries[:index], bad, *entries[index + 1 :]]


def entry_faults(field, entries, bad):
    """Lists of ``entries`` with one replaced by a ``bad`` draw, each paired
    with that entry's path; the entries before it are valid."""
    return st.builds(_with_entry, st.just(field), entries, st.integers(0, 10), bad)


def _empty_interval(low, fraction):
    return {"low": low, "high": low * fraction}


def _scaled(amplitudes, factor):
    return [[factor * re, factor * im] for re, im in amplitudes]


# Each scenario field as a valid value (extreme magnitudes included) and as
# an invalid one.  Run counts between 2000 and 2**53 are valid but slow;
# past 2**53 the parser must refuse them.
VALID_FIELDS = {
    "seed": st.integers(0, 2**64 - 1),
    "system": st.one_of(
        st.builds(dict),
        st.builds(dict, total_volume=POSITIVE),
        st.builds(dict, transparent=st.booleans()),
        st.builds(dict, total_volume=POSITIVE, transparent=st.booleans()),
    ),
    "sampler": st.one_of(
        # Every pair low < high of positive finite floats, none drawn twice.
        st.floats(min_value=5e-324, max_value=sys.float_info.max, exclude_max=True).flatmap(
            lambda low: st.builds(
                dict,
                low=st.just(low),
                high=st.floats(min_value=low, exclude_min=True, allow_infinity=False),
            )
        ),
        st.just(TIE_PRONE),
    ),
    "runs_per_pair": st.integers(1, 2000),
    "tie_policy": st.sampled_from([policy.value for policy in TiePolicy]),
    "amplitudes": st.one_of(
        st.just(UNIFORM_AMPLITUDES),
        st.integers(0, 10).map(lambda k: [[float(i == k), 0.0] for i in range(11)]),
    ),
    "singlet_angles": fixed_length(st.one_of(st.floats(-720, 720), FINITE), 4),
}
# Each invalid value is drawn with the start of the message that must refuse
# it (``at``): the field's path and a colon, so that "scenario.seed" cannot
# pass for "scenario.seeds".  The parser refuses every draw whatever the
# valid fields around it hold, so no draw is filtered.
INVALID_FIELDS = {
    "seed": at(
        "scenario.seed: ",
        st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**70), NUMBERS, WRONG_TYPES),
    ),
    "system": st.one_of(
        at("scenario.system.total_volume: ", st.builds(dict, total_volume=NOT_POSITIVE)),
        at("scenario.system.transparent: ", st.builds(dict, transparent=NOT_BOOL)),
        at("scenario.system: unknown field", st.builds(dict, depth=ANY_VALUE)),
        at("scenario.system: ", NOT_AN_OBJECT),
    ),
    "sampler": st.one_of(
        at("scenario.sampler.low: ", st.builds(dict, low=NOT_POSITIVE)),
        # Not above the default low of 0.5, or not above a drawn low.
        at("scenario.sampler.high: ", st.builds(dict, high=st.floats(max_value=0.5) | BAD_NUMBERS)),
        at("scenario.sampler.high: ", st.builds(_empty_interval, POSITIVE, st.floats(0.0, 1.0))),
        at("scenario.sampler: unknown field", st.builds(dict, width=ANY_VALUE)),
        at("scenario.sampler: ", NOT_AN_OBJECT),
    ),
    "runs_per_pair": at(
        "scenario.runs_per_pair: ",
        st.integers(2**53 + 1, 2**200)
        | st.sampled_from([2**53 + 1, 10**30, 0, -3, 1.5, math.nan, "10", None]),
    ),
    "tie_policy": at("scenario.tie_policy: ", st.just("coin") | WRONG_TYPES),
    # Not a list, pairs of finite numbers but not 11 of them, 11 pairs not
    # normalized, or a list with one bad entry.
    "amplitudes": st.one_of(
        at(
            "scenario.amplitudes: ",
            st.one_of(
                NOT_A_LIST,
                *[fixed_length(fixed_length(FINITE, 2), size) for size in range(13) if size != 11],
                st.builds(_scaled, born_amplitudes(), st.floats(0, 0.99) | st.floats(1.01, 1e300)),
            ),
        ),
        entry_faults("amplitudes", st.just(UNIFORM_AMPLITUDES), NOT_A_PAIR),
    ),
    "singlet_angles": st.one_of(
        at(
            "scenario.singlet_angles: ",
            st.one_of(NOT_A_LIST, *[fixed_length(NUMBERS, size) for size in (0, 1, 2, 3, 5)]),
        ),
        entry_faults("singlet_angles", fixed_length(FINITE, 4), BAD_NUMBERS),
    ),
    "unknown_field": at("scenario: unknown field", ANY_VALUE),
}


# Every set of at most two field names, drawn as one choice.
UP_TO_TWO_VALID, UP_TO_TWO_INVALID = (
    [names for size in range(3) for names in combinations(sorted(fields), size)]
    for fields in (VALID_FIELDS, INVALID_FIELDS)
)


@st.composite
def scenario_dicts(draw):
    """A scenario with up to two fields left out and up to two made invalid,
    and the starts of the messages that refuse the invalid ones and a
    left-out seed, which the parser requires (none if the scenario is
    valid)."""
    absent = draw(st.sampled_from(UP_TO_TWO_VALID))
    broken = draw(st.sampled_from(UP_TO_TWO_INVALID))
    data = {name: draw(valid) for name, valid in VALID_FIELDS.items() if name not in absent}
    refusals = ["scenario.seed: "] if "seed" in absent else []
    for name in sorted(broken):
        where, data[name] = draw(INVALID_FIELDS[name])
        refusals.append(where)
    return data, refusals


def _amplitude(nonzero, x, y):
    return complex(x, y) if nonzero else 0j


def _with_amplitude(amplitudes, index, x, y):
    amplitudes[index] = cmath.rect(2e-3 + (1.0 - 2e-3) * abs(x), math.pi * y)
    return amplitudes


# Eleven complex amplitudes, many of them exactly zero (trailing ones
# included), not all negligible: the one at a drawn index has a modulus of
# at least 2e-3.  Every amplitude takes the same three choices, zero or
# not, and every float comes from the same range, so no span copy between
# them can misalign or leave a range.
UNIT = st.floats(-1.0, 1.0)
amplitude_vectors = st.builds(
    _with_amplitude,
    fixed_length(st.builds(_amplitude, st.booleans(), UNIT, UNIT), 11),
    st.sampled_from(range(11)),
    UNIT,
    UNIT,
)


FOLD_FIELDS = {
    **VALID_FIELDS,
    "system": st.builds(dict, transparent=st.booleans())
    | st.builds(dict, transparent=st.booleans(), total_volume=POSITIVE),
    "sampler": st.one_of(VALID_FIELDS["sampler"], st.just(TIE_PRONE)),
    "runs_per_pair": st.integers(1, 60),
    "amplitudes": st.one_of(VALID_FIELDS["amplitudes"], born_amplitudes()),
}


PAIR_LABELS = [pair.label for pair in vessels.ALL_PAIRS]
FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e16, 1e-05, 1.7976931348623157e308]),
)
CELLS = st.one_of(st.sampled_from(PAIR_LABELS), st.integers(), st.booleans(), FLOAT_CELLS)


def _tail_dump(label, leading, table, blocks):
    """Fieldnames, ``_row_blocks`` inputs and the rows they stand for.  Each
    row is the optional ``label``, a running index, the next of the
    ``leading`` rows (float cells, in float64 columns) and the ``table`` row
    at its code, the next of its block's picks.  Each block is a chunk: a
    row count and its picks, cycled."""
    width = len(leading[0])
    chunks, rows = [], []
    for length, picks in blocks:
        cells = list(islice(cycle(leading), length))
        codes = list(islice(cycle([pick % len(table) for pick in picks]), length))
        columns = [np.array([row[k] for row in cells], dtype=np.float64) for k in range(width)]
        chunks.append([*columns, np.array(codes, dtype=np.intp)])
        rows += [(*cell, *table[code]) for cell, code in zip(cells, codes)]
    prefix = () if label is None else (label,)
    rows = [(*prefix, index, *row) for index, row in enumerate(rows)]
    fieldnames = [f"field_{index}" for index in range(len(prefix) + 1 + width + len(table[0]))]
    tails = commands._csv_lines(table)
    texts = commands._row_blocks(chunks, tails, "" if label is None else label + ",")
    return fieldnames, texts, rows


# Up to three blocks of up to two row slices and a row, with 1 to 5 picks each;
# 1 to 5 leading rows of 0 to 3 float cells; 1 to 4 table rows of 1 to 3 cells.
tail_dumps = st.builds(
    _tail_dump,
    st.sampled_from([None, *PAIR_LABELS]),
    st.one_of([up_to(st.tuples(*[FLOAT_CELLS] * width), 5, min_size=1) for width in range(4)]),
    st.one_of([up_to(st.tuples(*[CELLS] * width), 4, min_size=1) for width in (1, 2, 3)]),
    up_to(st.tuples(st.integers(0, 2 * CSV_ROWS_PER_WRITE + 1), up_to(st.integers(0, 3), 5, 1)), 3),
)
