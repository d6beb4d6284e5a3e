"""Shared test fixtures."""

import pytest

from oracle import per_run_outcomes


@pytest.fixture
def per_run_oracle():
    """The README's per-run outcome rule, as ``oracle.per_run_outcomes``."""
    return per_run_outcomes
