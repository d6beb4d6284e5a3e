"""The public API, pinned: every addition or removal shows up in this diff."""

import vesselsim

# sorted(vesselsim.__all__): the names the package imports from its
# submodules.  The submodules themselves are not exported.
PUBLIC_NAMES = [
    "ALGEBRAIC_BOUND",
    "ALL_PAIRS",
    "BOUND_TOL",
    "BellClassification",
    "BellStatistic",
    "CoincidencePair",
    "ConfigError",
    "ContextualOutcomeTable",
    "CorrelationKind",
    "DegenerateTieError",
    "EmptySampleSetError",
    "ExpectationEstimate",
    "ExperimentKind",
    "FactorizationReport",
    "FlowRangeError",
    "HiddenVariableSampler",
    "InvalidStepError",
    "InvariantError",
    "LOCAL_BOUND",
    "MeasurementDirection",
    "MismatchedPairsError",
    "NORM_TOL",
    "N_AMPLITUDES",
    "NotNormalizedError",
    "NotUnitError",
    "PAIR_AB",
    "PAIR_AB_PRIME",
    "PAIR_APRIME_B",
    "PAIR_APRIME_BPRIME",
    "SampleAnalysis",
    "Scenario",
    "SignAssignment",
    "SiphonDiameters",
    "SplitVolume",
    "TOTAL_LITERS",
    "TSIRELSON_BOUND",
    "TiePolicy",
    "UNIT_TOL",
    "VesselSimError",
    "VesselSuperpositionState",
    "VesselSystem",
    "Witness",
    "WrongArityError",
    "bell_statistic",
    "born_histogram",
    "born_samples",
    "classify_correlations",
    "classify_value",
    "coefficient_matrix",
    "contextual_table",
    "contextuality_witness",
    "estimate_expectation",
    "is_entangled",
    "joint_outcome_ab",
    "left_analyzer_direction",
    "make_state",
    "outcome_solo_siphon",
    "pair_products",
    "parse_scenario",
    "right_analyzer_direction",
    "run_full_experiment",
    "scan_columns",
    "scan_hidden_variables",
    "scenario_from_dict",
    "schmidt_rank",
    "search_factorization",
    "simulate_flow",
    "singlet_analytic_estimates",
    "singlet_bell_value",
    "singlet_expectation",
    "singlet_experiment",
    "singlet_model",
    "singlet_samples",
    "spoon_outcome",
    "vessel_model",
]


def test_public_names_are_pinned():
    assert sorted(vesselsim.__all__) == PUBLIC_NAMES


def test_invariant_error_is_the_typed_value_error():
    assert issubclass(vesselsim.InvariantError, vesselsim.VesselSimError)
    assert issubclass(vesselsim.InvariantError, ValueError)
    for name in ("NotNormalizedError", "WrongArityError", "NotUnitError"):
        assert issubclass(getattr(vesselsim, name), vesselsim.InvariantError)
    assert vesselsim.InvariantError("bad", "seed").field == "seed"
    assert vesselsim.InvariantError("bad").field is None
