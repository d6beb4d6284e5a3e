"""Shared test fixtures and hypothesis profiles.

Tier-1 runs on the ``tier1`` profile unless ``--hypothesis-profile`` names
another: derandomized, so that every run draws the same examples and a
fault is caught on every run or on none, and with no example database.
Such a run never tries new examples.  ``--hypothesis-profile explore``
draws random ones and replays failures from ``.hypothesis/``, for a
session that hunts for new failures.  ``--hypothesis-profile mutants`` is
``tier1`` without the shrink and explain phases: a failing test reports at
once, for checks that only ask whether a test fails.
"""

import pytest
from hypothesis import Phase, settings

from oracle import per_run_outcomes

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, print_blob=True)
settings.register_profile("explore", deadline=None, print_blob=True)
settings.register_profile(
    "mutants",
    settings.get_profile("tier1"),
    phases=set(Phase) - {Phase.shrink, Phase.explain},
)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("tier1")


@pytest.fixture
def per_run_oracle():
    """The README's per-run outcome rule, as ``oracle.per_run_outcomes``."""
    return per_run_outcomes
