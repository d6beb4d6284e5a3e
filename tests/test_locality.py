"""Factorization search, contextuality witnesses, correlation classification."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselsim import (
    ContextualOutcomeTable,
    CorrelationKind,
    DegenerateTieError,
    EmptySampleSetError,
    SiphonDiameters,
    TiePolicy,
    VesselSystem,
    classify_correlations,
    contextual_table,
    contextuality_witness,
    scan_columns,
    scan_hidden_variables,
    search_factorization,
)
from vesselsim.locality import PRODUCT_COLUMNS

VESSEL_TABLE = ContextualOutcomeTable(-1, 1, 1, 1)
RESOLVING_POLICIES = [policy for policy in TiePolicy if policy is not TiePolicy.ERROR]


def brute_force_satisfiable(table):
    """Independent re-check: nested loops, no shared code with the library."""
    for e_a in (1, -1):
        for e_aprime in (1, -1):
            for e_b in (1, -1):
                for e_bprime in (1, -1):
                    if (
                        e_a * e_b == table.product_ab
                        and e_aprime * e_b == table.product_aprime_b
                        and e_a * e_bprime == table.product_ab_prime
                        and e_aprime * e_bprime == table.product_aprime_bprime
                    ):
                        return True
    return False


class TestContextualTable:
    def test_transparent_vessel_table(self):
        table = contextual_table(SiphonDiameters(2.0, 1.0), VesselSystem())
        assert table.as_dict() == {"AB": -1, "A'B": 1, "AB'": 1, "A'B'": 1}

    def test_table_independent_of_which_siphon_is_wider(self):
        system = VesselSystem()
        assert contextual_table(SiphonDiameters(1.0, 2.0), system) == contextual_table(
            SiphonDiameters(2.0, 1.0), system
        )

    def test_opaque_vessel_table(self):
        table = contextual_table(SiphonDiameters(2.0, 1.0), VesselSystem(transparent=False))
        assert table.as_dict() == {"AB": -1, "A'B": -1, "AB'": -1, "A'B'": 1}

    def test_tie_propagates(self):
        with pytest.raises(DegenerateTieError):
            contextual_table(SiphonDiameters(1.0, 1.0), VesselSystem())

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            ContextualOutcomeTable(0, 1, 1, 1)


class TestSearchFactorization:
    def test_vessel_table_is_unsatisfiable(self):
        report = search_factorization(VESSEL_TABLE)
        assert not report.satisfiable
        assert report.search_exhausted
        assert report.assignment is None
        assert not brute_force_satisfiable(VESSEL_TABLE)

    def test_all_agreeing_table_is_satisfiable(self):
        report = search_factorization(ContextualOutcomeTable(1, 1, 1, 1))
        assert report.satisfiable
        assert report.assignment.reproduces(ContextualOutcomeTable(1, 1, 1, 1))

    def test_all_disagreeing_table_is_satisfiable(self):
        table = ContextualOutcomeTable(-1, -1, -1, -1)
        report = search_factorization(table)
        assert report.satisfiable
        assert report.assignment.reproduces(table)
        assert brute_force_satisfiable(table)

    def test_verdict_matches_brute_force_on_all_sixteen_tables(self):
        for entries in itertools.product((1, -1), repeat=4):
            table = ContextualOutcomeTable(*entries)
            assert search_factorization(table).satisfiable == brute_force_satisfiable(table)

    def test_parity_obstruction(self):
        # Parity lemma: a table factorizes exactly when its four entries
        # multiply to +1 (a factorized table multiplies out to a perfect
        # square, and every +1 table has an assignment).
        for entries in itertools.product((1, -1), repeat=4):
            table = ContextualOutcomeTable(*entries)
            assert search_factorization(table).satisfiable == (table.entry_product() == 1)
        assert VESSEL_TABLE.entry_product() == -1

    def test_found_assignment_always_reproduces_table(self):
        for entries in itertools.product((1, -1), repeat=4):
            table = ContextualOutcomeTable(*entries)
            report = search_factorization(table)
            if report.satisfiable:
                assert report.assignment.reproduces(table)


class TestContextualityWitness:
    def test_narrow_left_siphon_witnesses_context(self):
        witness = contextuality_witness(SiphonDiameters(1.0, 2.0))
        assert (witness.outcome_with_b, witness.outcome_with_bprime) == (-1, 1)
        assert witness.differs

    def test_wide_left_siphon_shows_no_difference(self):
        witness = contextuality_witness(SiphonDiameters(2.0, 1.0))
        assert (witness.outcome_with_b, witness.outcome_with_bprime) == (1, 1)
        assert not witness.differs

    def test_tiny_margin_still_witnesses(self):
        witness = contextuality_witness(SiphonDiameters(1.5, 1.5000001))
        assert (witness.outcome_with_b, witness.outcome_with_bprime) == (-1, 1)
        assert witness.differs

    def test_tie_raises(self):
        with pytest.raises(DegenerateTieError):
            contextuality_witness(SiphonDiameters(1.0, 1.0))

    @pytest.mark.parametrize("policy", RESOLVING_POLICIES)
    def test_tie_follows_policy_like_the_table(self, policy, per_run_oracle):
        for lam in (SiphonDiameters(1.0, 1.0), SiphonDiameters(2.5, 2.5)):
            witness = contextuality_witness(lam, policy, tie_seed=99)
            left, _ = per_run_oracle("AB", lam.lambda_a, lam.lambda_b, True, policy.value, 99)
            assert witness.outcome_with_b == left
            assert witness.differs == (left != 1)
            table = contextual_table(lam, VesselSystem(), policy, tie_seed=99)
            assert table.product_ab == -1

    def test_differs_exactly_when_left_is_narrower(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            lam = SiphonDiameters(*rng.uniform(0.5, 3.0, size=2))
            assert contextuality_witness(lam).differs == (lam.lambda_a < lam.lambda_b)


class TestClassifyCorrelations:
    def vessel_model(self, system=None):
        system = system or VesselSystem()
        return lambda lam: contextual_table(lam, system)

    def test_vessel_model_is_second_kind(self):
        rng = np.random.default_rng(17)
        samples = [SiphonDiameters(*rng.uniform(0.5, 3.0, size=2)) for _ in range(1000)]
        assert classify_correlations(self.vessel_model(), samples) is CorrelationKind.SECOND_KIND

    def test_single_sample_suffices(self):
        samples = [SiphonDiameters(2.0, 1.0)]
        assert classify_correlations(self.vessel_model(), samples) is CorrelationKind.SECOND_KIND

    def test_context_free_stub_is_first_kind(self):
        def stub(lam):
            # outcomes pre-assigned per hidden variable, independent of context
            e_a = 1 if lam.lambda_b < lam.lambda_a else -1
            return ContextualOutcomeTable(e_a, e_a, e_a, e_a)

        rng = np.random.default_rng(23)
        samples = [SiphonDiameters(*rng.uniform(0.5, 3.0, size=2)) for _ in range(50)]
        assert classify_correlations(stub, samples) is CorrelationKind.FIRST_KIND

    def test_empty_sample_set_rejected(self):
        with pytest.raises(EmptySampleSetError):
            classify_correlations(self.vessel_model(), [])


class TestScan:
    def test_scan_collects_consistent_records(self):
        rng = np.random.default_rng(31)
        samples = [SiphonDiameters(*rng.uniform(0.5, 3.0, size=2)) for _ in range(100)]
        scan = scan_hidden_variables(samples, VesselSystem())
        assert len(scan) == 100
        for entry in scan:
            assert entry.table == VESSEL_TABLE
            assert not entry.factorization.satisfiable
            # a differing witness certifies that no context-free assignment
            # can cover both partner contexts
            if entry.witness.differs:
                assert not search_factorization(entry.table).satisfiable

    @pytest.mark.parametrize("policy", RESOLVING_POLICIES)
    def test_scan_resolves_ties_by_policy(self, policy):
        lam = SiphonDiameters(1.0, 1.0)
        (entry,) = scan_hidden_variables([lam], VesselSystem(), policy, tie_seed=5)
        assert entry.table == contextual_table(lam, VesselSystem(), policy, tie_seed=5)
        assert entry.witness == contextuality_witness(lam, policy, tie_seed=5)
        assert not entry.factorization.satisfiable

    def test_empty_scan(self):
        assert scan_hidden_variables([], VesselSystem()) == []


# Draws with exact ties injected: a flagged row copies its left diameter.
draws = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.booleans(),
    ),
    max_size=40,
)


def as_columns(rows):
    lambda_a = np.array([a for a, _, _ in rows], dtype=np.float64)
    lambda_b = np.array([a if tie else b for a, b, tie in rows], dtype=np.float64)
    return lambda_a, lambda_b


class TestScanColumns:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=draws,
        transparent=st.booleans(),
        policy=st.sampled_from(RESOLVING_POLICIES),
        tie_seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_rows_match_per_sample_functions(self, rows, transparent, policy, tie_seed):
        system = VesselSystem(transparent=transparent)
        lambda_a, lambda_b = as_columns(rows)
        columns = scan_columns(lambda_a, lambda_b, system, policy, tie_seed)
        scan = scan_hidden_variables(
            [SiphonDiameters(a, b) for a, b in zip(lambda_a.tolist(), lambda_b.tolist())],
            system,
            policy,
            tie_seed,
        )
        assert len(scan) == len(rows)
        for index, entry in enumerate(scan):
            lam = entry.lam
            table = contextual_table(lam, system, policy, tie_seed)
            witness = contextuality_witness(lam, policy, tie_seed)
            row = {name: column[index].item() for name, column in columns.items()}
            assert tuple(row[name] for name in PRODUCT_COLUMNS) == tuple(
                table.as_dict().values()
            )
            assert row["satisfiable"] is search_factorization(table).satisfiable
            assert (row["witness_with_b"], row["witness_with_bprime"], row["witness_differs"]) == (
                witness.outcome_with_b,
                witness.outcome_with_bprime,
                witness.differs,
            )
            assert entry.table == table
            assert entry.factorization == search_factorization(table)
            assert entry.witness == witness

    @settings(max_examples=60, deadline=None)
    @given(rows=draws)
    def test_error_policy_raises_on_any_tie(self, rows):
        lambda_a, lambda_b = as_columns(rows)
        if np.any(lambda_a == lambda_b):
            with pytest.raises(DegenerateTieError):
                scan_columns(lambda_a, lambda_b, VesselSystem(), TiePolicy.ERROR)
        else:
            columns = scan_columns(lambda_a, lambda_b, VesselSystem(), TiePolicy.ERROR)
            assert not columns["satisfiable"].any()
