"""Coincidence experiments on two interconnected water vessels.

A library for the four joint measurements on the vessel system (siphon
drainage and spoonful transparency tests), the Bell statistic they maximize,
the exhaustive non-factorizability analysis, and the quantum-side reference
models (superposition over final divisions with Born sampling, spin-1/2
singlet correlations).
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .bell import (
    ALGEBRAIC_BOUND,
    BOUND_TOL,
    LOCAL_BOUND,
    TSIRELSON_BOUND,
    BellClassification,
    BellStatistic,
    ExpectationEstimate,
    HiddenVariableSampler,
    bell_statistic,
    classify_value,
    estimate_expectation,
    pair_chunks,
    run_full_experiment,
    vessel_model,
)
from .errors import (
    ConfigError,
    DegenerateTieError,
    EmptySampleSetError,
    FlowRangeError,
    InvalidStepError,
    InvariantError,
    MismatchedPairsError,
    NotNormalizedError,
    NotUnitError,
    VesselSimError,
    WrongArityError,
)
from .locality import (
    ContextualOutcomeTable,
    CorrelationKind,
    FactorizationReport,
    SampleAnalysis,
    SignAssignment,
    Witness,
    classify_correlations,
    contextual_table,
    contextuality_witness,
    scan_columns,
    scan_hidden_variables,
    search_factorization,
)
from .quantum import (
    N_AMPLITUDES,
    NORM_TOL,
    TOTAL_LITERS,
    UNIT_TOL,
    MeasurementDirection,
    VesselSuperpositionState,
    born_histogram,
    born_samples,
    coefficient_matrix,
    is_entangled,
    left_analyzer_direction,
    make_state,
    right_analyzer_direction,
    schmidt_rank,
    singlet_analytic_estimates,
    singlet_bell_value,
    singlet_expectation,
    singlet_experiment,
    singlet_model,
    singlet_samples,
)
from .scenario import Scenario, parse_scenario, scenario_from_dict
from .vessels import (
    ALL_PAIRS,
    PAIR_AB,
    PAIR_AB_PRIME,
    PAIR_APRIME_B,
    PAIR_APRIME_BPRIME,
    CoincidencePair,
    ExperimentKind,
    SiphonDiameters,
    SplitVolume,
    TiePolicy,
    VesselSystem,
    joint_outcome_ab,
    outcome_solo_siphon,
    pair_products,
    simulate_flow,
    spoon_outcome,
)

# The import block above is the one list of public names; the submodules
# it loads on the way are reached as ``vesselsim.<module>``, not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
