"""Shared test fixtures."""

import hashlib
import struct

import pytest


def per_run_outcomes(label, lambda_a, lambda_b, transparent, tie_policy="error", tie_seed=0):
    """Both outcomes of one run of pair ``label``, from the README rule alone.

    Independent re-statement, no shared code with the library: two siphons
    run together anti-correlate and the wider one scores +1; a siphon whose
    partner is a spoon test scores +1; a spoon test scores +1 exactly when
    the water is transparent.  An exact tie goes to the named policy; the
    split coin is the low bit of the first byte of the 8-byte BLAKE2b digest
    of the seed and both diameters.  Returns None for a tie under "error".
    """
    if label == "AB":
        if lambda_a != lambda_b:
            left_wins = lambda_a > lambda_b
        elif tie_policy == "error":
            return None
        elif tie_policy in ("favor_left", "favor_right"):
            left_wins = tie_policy == "favor_left"
        else:
            payload = struct.pack("<Qdd", tie_seed % 2**64, lambda_a, lambda_b)
            left_wins = bool(hashlib.blake2b(payload, digest_size=8).digest()[0] & 1)
        return (1, -1) if left_wins else (-1, 1)
    spoon = 1 if transparent else -1
    left = spoon if label.startswith("A'") else 1
    right = spoon if label.endswith("B'") else 1
    return left, right


@pytest.fixture
def per_run_oracle():
    """The README's per-run outcome rule, as ``per_run_outcomes``."""
    return per_run_outcomes
