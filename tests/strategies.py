"""Sampler settings and hypothesis strategies shared by the test modules.

Hypothesis's mutator copies one drawn span over another with the same
label.  Where the two spans come from different strategies, or from a
variable-length collection (whose last "one more?" span is shorter than
the others), the copy can run out of choices and the example is discarded
as invalid, with no event.  Every ``st.lists``, ``st.sets`` and
``st.fixed_dictionaries`` does this, and every ``.map()`` and
``st.fixed_dictionaries`` shares one label.  So the strategies here are
built from ``st.builds``, ``st.tuples`` and ``st.one_of``, whose labels
follow their contents.
"""

import cmath
import math
import sys
from itertools import combinations

from hypothesis import strategies as st

from vesselsim import TiePolicy

# [1, 1 + 2**-48] holds only 17 doubles, so about one diameter pair in 17 is
# an exact tie; [0.5, 3], the default range, almost never ties.
TIE_PRONE = {"low": 1.0, "high": 1.0 + 2.0**-48}
NORMAL = {"low": 0.5, "high": 3.0}
UNIFORM_AMPLITUDES = [[1.0 / math.sqrt(11), 0.0]] * 11


def fixed_length(element, size):
    """Lists of exactly ``size`` elements."""
    return st.builds(list, st.tuples(*[element] * size))


def up_to(element, max_size):
    """Lists of 0 to ``max_size`` elements, each length equally likely."""
    return st.one_of([fixed_length(element, size) for size in range(max_size + 1)])


# Seeds that break the seed rule (an integer, not a bool, in [0, 2**64)).
BAD_SEEDS = [-1, 2**64, 1.5, 2.0, math.nan, "7", True, False]

EXTREME_NUMBERS = [0.0, -0.0, 5e-324, 1e-300, 1.0, 2.5, 1e300, 1.7e308, -1.0, 2**64, 10**400]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EXTREME_NUMBERS + [math.nan, math.inf, -math.inf]),
)
WRONG_TYPES = st.sampled_from([None, "1.0", True, [], {}, [1.0]])
ANY_VALUE = st.one_of(NUMBERS, WRONG_TYPES, st.integers(-(2**70), 2**70))
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)


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
    "singlet_angles": fixed_length(
        st.one_of(st.floats(-720, 720), st.floats(allow_nan=False, allow_infinity=False)), 4
    ),
}
INVALID_FIELDS = {
    "seed": st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**70), NUMBERS, WRONG_TYPES),
    "system": st.one_of(
        st.builds(dict, total_volume=NUMBERS),
        st.builds(dict, transparent=WRONG_TYPES),
        st.builds(dict, depth=ANY_VALUE),
        WRONG_TYPES,
    ),
    "sampler": st.one_of(
        st.builds(dict, low=st.one_of(NUMBERS, WRONG_TYPES), high=NUMBERS),
        WRONG_TYPES,
    ),
    "runs_per_pair": st.one_of(
        st.integers(2**53 + 1, 2**200),
        st.sampled_from([2**53 + 1, 10**30, 0, -3, 1.5, math.nan, "10", None]),
    ),
    "tie_policy": st.one_of(st.just("coin"), WRONG_TYPES),
    "amplitudes": st.one_of(up_to(fixed_length(NUMBERS, 2), 12), WRONG_TYPES),
    "singlet_angles": st.one_of(up_to(NUMBERS, 5), WRONG_TYPES),
    "unknown_field": ANY_VALUE,
}


# Every set of at most two field names, drawn as one choice.
UP_TO_TWO_VALID, UP_TO_TWO_INVALID = (
    [names for size in range(3) for names in combinations(sorted(fields), size)]
    for fields in (VALID_FIELDS, INVALID_FIELDS)
)


@st.composite
def scenario_dicts(draw):
    """A scenario with up to two fields left out and up to two made invalid."""
    absent = draw(st.sampled_from(UP_TO_TWO_VALID))
    broken = draw(st.sampled_from(UP_TO_TWO_INVALID))
    data = {name: draw(valid) for name, valid in VALID_FIELDS.items() if name not in absent}
    data.update({name: draw(INVALID_FIELDS[name]) for name in sorted(broken)})
    return data


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
