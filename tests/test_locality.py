"""Factorization search, contextuality witnesses, correlation classification."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselsim import (
    ContextualOutcomeTable,
    CorrelationKind,
    DegenerateTieError,
    EmptySampleSetError,
    FactorizationReport,
    HiddenVariableSampler,
    SignAssignment,
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
from vesselsim import locality
from vesselsim.locality import PRODUCT_COLUMNS, SCAN_COLUMNS, scan_counts

from oracle import per_run_outcomes, satisfiable
from strategies import NORMAL, TIE_PRONE, short_lists

VESSEL_TABLE = ContextualOutcomeTable(-1, 1, 1, 1)
RESOLVING_POLICIES = [policy for policy in TiePolicy if policy is not TiePolicy.ERROR]


def brute_force_satisfiable(table):
    """The oracle's search over the 16 sign assignments, no shared code with the library."""
    return satisfiable(astuple(table))


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
draws = short_lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.booleans(),
    ),
    40,
)


def as_columns(rows):
    lambda_a = np.array([a for a, _, _ in rows], dtype=np.float64)
    lambda_b = np.array([a if tie else b for a, b, tie in rows], dtype=np.float64)
    return lambda_a, lambda_b


class TestScanColumns:
    @settings(max_examples=60)
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
        assert tuple(columns) == SCAN_COLUMNS
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
            # The witness shares its rows with the scans; the README rule
            # checks them from outside.
            left, _ = per_run_outcomes(
                "AB", lam.lambda_a, lam.lambda_b, transparent, policy.value, tie_seed
            )
            assert row["witness_with_b"] == left
            assert entry.table == table
            assert entry.factorization == search_factorization(table)
            assert entry.witness == witness

    @settings(max_examples=60)
    @given(rows=draws)
    def test_error_policy_raises_on_any_tie(self, rows):
        lambda_a, lambda_b = as_columns(rows)
        if np.any(lambda_a == lambda_b):
            with pytest.raises(DegenerateTieError):
                scan_columns(lambda_a, lambda_b, VesselSystem(), TiePolicy.ERROR)
        else:
            columns = scan_columns(lambda_a, lambda_b, VesselSystem(), TiePolicy.ERROR)
            assert not columns["satisfiable"].any()

    def test_empty_batch_keeps_the_column_dtypes(self):
        # The columns index the scan's two rows; an empty index must still
        # give int64 products and outcomes and bool verdicts.
        columns = scan_columns(np.empty(0), np.empty(0), VesselSystem())
        assert tuple(columns) == SCAN_COLUMNS
        for name, column in columns.items():
            assert column.shape == (0,)
            flag = name in ("satisfiable", "witness_differs")
            assert column.dtype == (np.dtype(bool) if flag else np.dtype(np.int64))


class TestScanCounts:
    """The reduce-only counts of the JSON report against the scan's columns."""

    @settings(max_examples=80)
    @given(
        bounds=st.sampled_from([TIE_PRONE, NORMAL]),
        n=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        transparent=st.booleans(),
        policy=st.sampled_from(list(TiePolicy)),
        tie_seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_counts_match_the_scan_columns(
        self, bounds, n, seed, transparent, policy, tie_seed
    ):
        sampler = HiddenVariableSampler(**bounds, seed=seed)
        lambda_a, lambda_b = sampler.draw_arrays(n)
        # The same rows as uneven chunks, the last one possibly empty.
        splits = sorted({n // 3, n // 2, n})
        chunks = list(zip(np.split(lambda_a, splits), np.split(lambda_b, splits)))
        system = VesselSystem(transparent=transparent)
        try:
            columns = scan_columns(lambda_a, lambda_b, system, policy, tie_seed)
        except DegenerateTieError as expected:
            assert policy is TiePolicy.ERROR
            with pytest.raises(DegenerateTieError) as error:
                scan_counts(chunks, system, policy, tie_seed)
            assert str(error.value) == str(expected)
            return
        counts = scan_counts(chunks, system, policy, tie_seed)
        assert counts == (
            int(columns["satisfiable"].sum()),
            int(columns["witness_differs"].sum()),
        )

    def test_tie_prone_range_ties(self):
        lambda_a, lambda_b = HiddenVariableSampler(**TIE_PRONE, seed=1).draw_arrays(400)
        assert (lambda_a == lambda_b).sum() > 10

    @pytest.mark.parametrize("transparent", [True, False])
    def test_one_search_decides_every_row(self, transparent, monkeypatch):
        # Every vessel table is unsatisfiable; a forged satisfiable verdict
        # from the one search is what every row of every scan reads.
        system = VesselSystem(transparent=transparent)
        lambda_a, lambda_b = HiddenVariableSampler(**NORMAL, seed=4).draw_arrays(50)
        assert scan_counts([(lambda_a, lambda_b)], system)[0] == 0
        tables = []
        forged = FactorizationReport(satisfiable=True, assignment=SignAssignment(1, 1, 1, 1))

        def forged_search(table):
            tables.append(table)
            return forged

        monkeypatch.setattr(locality, "search_factorization", forged_search)
        columns = scan_columns(lambda_a, lambda_b, system)
        assert columns["satisfiable"].all()
        halves = [(lambda_a[:20], lambda_b[:20]), (lambda_a[20:], lambda_b[20:])]
        assert scan_counts(halves, system)[0] == 50
        samples = [SiphonDiameters(a, b) for a, b in zip(lambda_a.tolist(), lambda_b.tolist())]
        scan = scan_hidden_variables(samples, system)
        assert all(entry.factorization is forged for entry in scan)
        assert all(entry.table is scan[0].table for entry in scan)
        # One search per scan, always on the system's table.
        assert tables == [contextual_table(SiphonDiameters(2.0, 1.0), system)] * 3

    def test_scan_counts_of_no_chunks(self):
        assert scan_counts([], VesselSystem()) == (0, 0)
