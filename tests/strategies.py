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

from hypothesis import strategies as st

# [1, 1 + 2**-48] holds only 17 doubles, so about one diameter pair in 17 is
# an exact tie; [0.5, 3], the default range, almost never ties.
TIE_PRONE = {"low": 1.0, "high": 1.0 + 2.0**-48}
NORMAL = {"low": 0.5, "high": 3.0}


def fixed_length(element, size):
    """Lists of exactly ``size`` elements."""
    return st.builds(list, st.tuples(*[element] * size))


def up_to(element, max_size):
    """Lists of 0 to ``max_size`` elements, each length equally likely."""
    return st.one_of([fixed_length(element, size) for size in range(max_size + 1)])
