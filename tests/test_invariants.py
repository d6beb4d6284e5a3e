"""The library's error contract: a bad argument raises a ``VesselSimError``
subclass (an ``InvariantError`` when a value breaks an invariant), never a
bare ``ValueError``, ``TypeError`` or ``OverflowError``; what comes back
holds only finite numbers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsim import (
    ALL_PAIRS,
    PAIR_AB,
    PAIR_APRIME_B,
    BellClassification,
    BellStatistic,
    ExpectationEstimate,
    FactorizationReport,
    HiddenVariableSampler,
    InvariantError,
    MeasurementDirection,
    NotNormalizedError,
    NotUnitError,
    SiphonDiameters,
    TiePolicy,
    VesselSimError,
    VesselSystem,
    born_histogram,
    born_samples,
    contextual_table,
    contextuality_witness,
    estimate_expectation,
    joint_outcome_ab,
    left_analyzer_direction,
    make_state,
    pair_products,
    right_analyzer_direction,
    scan_columns,
    schmidt_rank,
    simulate_flow,
    singlet_bell_value,
    singlet_experiment,
    vessel_model,
    vessels,
)
from vesselsim.locality import scan_counts
from vesselsim.streams import chunk_sizes

from strategies import BAD_SEEDS, up_to

NAN, INF = math.nan, math.inf
UNIFORM = [1.0 / math.sqrt(11)] * 11
ANGLES = (0.0, 90.0, 45.0, 135.0)
BAD_DIAMETERS = [0.0, -0.0, -1.0, -2.0, -5e-324, -INF, NAN]

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-200, 0.5, 1.0, 3.0, 1e200, 1.7e308, -1.0, NAN, INF, -INF]
    ),
)
# Integer parameters get negative and past-64-bit values, and non-integral floats.
INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 0, 2**64 - 1, 2**64, True, False]),
    st.floats(allow_nan=True, allow_infinity=True),
)
AMPLITUDES = st.lists(st.builds(complex, FLOATS, FLOATS), min_size=10, max_size=12)
# Sample counts: valid ones small enough to run, negative and non-integral ones.
COUNTS = st.one_of(
    st.integers(0, 40),
    st.integers(-(2**70), -1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1.5, -0.5, 2.0, "3", None, True, False]),
)


def batch_calls(lambda_a, lambda_b, policy=TiePolicy.ERROR):
    """Every batch function of the outcome rule, on one batch of draws."""
    system = VesselSystem()
    return [
        lambda: pair_products(PAIR_AB, lambda_a, lambda_b, system, policy),
        lambda: pair_products(PAIR_APRIME_B, lambda_a, lambda_b, system, policy),
        lambda: vessels.left_wins(lambda_a, lambda_b, policy),
        lambda: scan_columns(lambda_a, lambda_b, system, policy),
        lambda: scan_counts([(lambda_a, lambda_b)], system, policy),
    ]


def outcome(fn, *args):
    """``fn(*args)``, or None when it raises a ``VesselSimError``; any other
    exception fails the test."""
    try:
        return fn(*args)
    except VesselSimError:
        return None


def all_finite(*values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=complex)).all())


class TestLibraryContract:
    @settings(max_examples=150, deadline=None)
    @given(total_volume=FLOATS, transparent=st.booleans())
    def test_vessel_system(self, total_volume, transparent):
        system = outcome(VesselSystem, total_volume, transparent)
        assert system is None or system.total_volume > 0.0

    @settings(max_examples=150, deadline=None)
    @given(lambda_a=FLOATS, lambda_b=FLOATS)
    def test_siphon_diameters(self, lambda_a, lambda_b):
        lam = outcome(SiphonDiameters, lambda_a, lambda_b)
        assert lam is None or (lam.lambda_a > 0.0 and lam.lambda_b > 0.0)

    @settings(max_examples=150, deadline=None)
    @given(low=FLOATS, high=FLOATS, seed=INTS)
    def test_sampler_draws(self, low, high, seed):
        sampler = outcome(HiddenVariableSampler, low, high, seed)
        if sampler is not None:
            for draws in sampler.draw_arrays(3):
                assert all_finite(*draws)
                assert ((low <= draws) & (draws <= high)).all()

    @settings(max_examples=200, deadline=None)
    @given(amplitudes=AMPLITUDES, normalize=st.booleans())
    def test_make_state(self, amplitudes, normalize):
        state = outcome(make_state, amplitudes, normalize)
        if state is not None:
            assert all_finite(*state.amplitudes)
            assert state.probabilities().sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(x=FLOATS, y=FLOATS, z=FLOATS)
    def test_measurement_direction(self, x, y, z):
        direction = outcome(MeasurementDirection, x, y, z)
        assert direction is None or all_finite(direction.x, direction.y, direction.z)

    @settings(max_examples=150, deadline=None)
    @given(angle=FLOATS)
    def test_analyzer_directions(self, angle):
        for make_direction in (left_analyzer_direction, right_analyzer_direction):
            direction = outcome(make_direction, angle)
            assert direction is None or all_finite(direction.x, direction.y, direction.z)

    @settings(max_examples=150, deadline=None)
    @given(angles=st.tuples(FLOATS, FLOATS, FLOATS, FLOATS))
    def test_singlet_bell_value(self, angles):
        value = outcome(singlet_bell_value, angles)
        assert value is None or abs(value) <= 4.0

    @settings(max_examples=150, deadline=None)
    @given(lambda_a=FLOATS, lambda_b=FLOATS, total_volume=FLOATS, dt=FLOATS)
    def test_simulate_flow(self, lambda_a, lambda_b, total_volume, dt):
        lam = outcome(SiphonDiameters, lambda_a, lambda_b)
        system = outcome(VesselSystem, total_volume)
        if lam is not None and system is not None:
            split = outcome(simulate_flow, lam, system, dt)
            assert split is None or all_finite(split.x_left, split.x_right)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=INTS,
        n=st.integers(-2, 40),
        angles=st.one_of(st.just(ANGLES), st.tuples(FLOATS, FLOATS, FLOATS, FLOATS)),
    )
    def test_singlet_experiment(self, seed, n, angles):
        statistic = outcome(singlet_experiment, angles, seed, n)
        assert statistic is None or abs(statistic.value) <= 4.0


    @settings(max_examples=150, deadline=None)
    @given(n=COUNTS)
    def test_sample_counts(self, n):
        sizes = outcome(chunk_sizes, n)
        assert sizes is None or sum(sizes) == n
        sampler = HiddenVariableSampler(seed=3)
        for draw in (sampler.draw_arrays, lambda n: next(sampler.draw_chunks(n), ())):
            draws = outcome(draw, n)
            assert draws is None or all(len(column) <= n for column in draws)
        estimate = outcome(estimate_expectation, vessel_model(sampler, VesselSystem()), PAIR_AB, n)
        assert estimate is None or estimate.n == n
        state = make_state(UNIFORM)
        samples = outcome(born_samples, state, n, 5)
        assert samples is None or len(samples) == n
        histogram = outcome(born_histogram, state, n, 5)
        assert histogram is None or histogram.sum() == n


class TestInvariantHoles:
    """Inputs that slipped past a check (NaN compares false) or failed only
    at draw time, each now stopped by its typed error."""

    @pytest.mark.parametrize(
        "amplitudes, normalize",
        [
            ([NAN] * 11, False),
            ([NAN] * 11, True),
            ([INF] + [0.0] * 10, True),
            ([-INF] + [0.0] * 10, True),
            ([1e200] + [0.0] * 10, True),
            ([0.0] * 11, True),
        ],
    )
    def test_amplitudes_that_cannot_make_a_state(self, amplitudes, normalize):
        with pytest.raises(NotNormalizedError) as error:
            make_state(amplitudes, normalize=normalize)
        assert error.value.field == "amplitudes"

    def test_nan_direction(self):
        with pytest.raises(NotUnitError):
            MeasurementDirection(NAN, 0.0, 0.0)

    @pytest.mark.parametrize("angle", [INF, -INF, NAN])
    def test_non_finite_analyzer_angle(self, angle):
        for make_direction in (left_analyzer_direction, right_analyzer_direction):
            with pytest.raises(InvariantError, match="finite"):
                make_direction(angle)
        with pytest.raises(InvariantError, match="finite"):
            singlet_bell_value((angle, 0.0, 0.0, 0.0))

    def test_nan_schmidt_tolerance(self):
        with pytest.raises(InvariantError) as error:
            schmidt_rank(make_state(UNIFORM), tol=NAN)
        assert error.value.field == "tol"

    @pytest.mark.parametrize(
        "low, high, field", [(0.5, INF, "high"), (0.5, NAN, "high"), (NAN, 3.0, "low")]
    )
    def test_sampler_range(self, low, high, field):
        with pytest.raises(InvariantError) as error:
            HiddenVariableSampler(low, high, 1)
        assert error.value.field == field

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_seed_rule_is_shared(self, seed):
        with pytest.raises(InvariantError) as error:
            HiddenVariableSampler(seed=seed)
        assert error.value.field == "seed"
        with pytest.raises(InvariantError) as error:
            singlet_experiment(ANGLES, seed, 10)
        assert error.value.field == "seed"

    def test_largest_seed_is_accepted(self):
        assert HiddenVariableSampler(seed=2**64 - 1).draw_arrays(1)[0].shape == (1,)
        assert abs(singlet_experiment(ANGLES, 2**64 - 1, 10).value) <= 4.0

    @pytest.mark.parametrize("tie_seed", BAD_SEEDS)
    def test_tie_seed_follows_the_seed_rule(self, tie_seed):
        with pytest.raises(InvariantError) as error:
            joint_outcome_ab(SiphonDiameters(1, 1), TiePolicy.SPLIT_COIN, tie_seed=tie_seed)
        assert error.value.field == "tie_seed"
        tied = np.ones(3)
        with pytest.raises(InvariantError) as error:
            pair_products(PAIR_AB, tied, tied, VesselSystem(), TiePolicy.SPLIT_COIN, tie_seed)
        assert error.value.field == "tie_seed"
        with pytest.raises(InvariantError) as error:
            vessels.left_wins(tied, tied, TiePolicy.SPLIT_COIN, tie_seed)
        assert error.value.field == "tie_seed"

    def test_tie_seed_is_checked_once_per_call(self, monkeypatch):
        checked = []
        monkeypatch.setattr(vessels, "check_seed", lambda *args: checked.append(args))
        tied = np.ones(100)
        pair_products(PAIR_AB, tied, tied, VesselSystem(), TiePolicy.SPLIT_COIN, 9)
        assert checked == [(9, "tie_seed")]
        pair_products(PAIR_APRIME_B, tied, tied, VesselSystem(), TiePolicy.SPLIT_COIN, 9)
        assert checked == [(9, "tie_seed")] * 2
        vessels.left_wins(tied, tied, TiePolicy.SPLIT_COIN, 9)
        assert checked == [(9, "tie_seed")] * 3

    @pytest.mark.parametrize(
        "lambda_a, lambda_b",
        [
            (np.full(1, 2.0), np.ones(3)),
            (np.ones(3), np.full(1, 2.0)),
            (np.full((2, 2), 2.0), np.ones((2, 2))),
            (np.float64(2.0), np.float64(1.0)),
            ([2.0, 1.0], [1.0, 2.0]),
            ((2.0, 1.0), (1.0, 2.0)),
        ],
        ids=["shorter-left", "shorter-right", "2-d", "0-d", "list", "tuple"],
    )
    def test_diameter_batches_are_1d_and_of_equal_length(self, lambda_a, lambda_b):
        for call in batch_calls(lambda_a, lambda_b):
            with pytest.raises(InvariantError, match="equal length") as error:
                call()
            assert error.value.field is None

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1 + 1j, 2.0]),
            np.array([True, True]),
            np.array(["2", "1"]),
            np.array(["2024-01-02", "2024-01-01"], dtype="datetime64[D]"),
            np.array([2.0, 1.0], dtype=object),
        ],
        ids=["complex", "bool", "str", "datetime", "object"],
    )
    @pytest.mark.parametrize("side", ["left", "right", "both"])
    def test_diameter_batches_have_a_real_number_dtype(self, bad, side):
        # Tied rows too, so that no policy is reached before the dtype check.
        good = np.array([1 + 1j, 2.0]).real
        lambda_a = good if side == "right" else bad
        lambda_b = good if side == "left" else bad
        for policy in TiePolicy:
            for call in batch_calls(lambda_a, lambda_b, policy):
                with pytest.raises(InvariantError) as error:
                    call()
                assert str(error.value) == (
                    "diameter arrays need a real integer or floating dtype, got "
                    f"{lambda_a.dtype} and {lambda_b.dtype}"
                )
                assert error.value.field is None
        for dtype in (np.int8, np.uint16, np.float16, np.float32, np.int64):
            for call in batch_calls(good.astype(dtype), np.array([2.0, 1.0]).astype(dtype)):
                call()

    @settings(max_examples=80, deadline=None)
    @given(
        rows=up_to(st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.booleans()), 5),
        bad=st.sampled_from(BAD_DIAMETERS),
        side=st.sampled_from(["left", "right", "tied"]),
        position=st.integers(0, 5),
        policy=st.sampled_from(TiePolicy),
    )
    @example(rows=[], bad=-1.0, side="tied", position=0, policy=TiePolicy.FAVOR_LEFT)
    @example(rows=[], bad=-2.0, side="left", position=0, policy=TiePolicy.ERROR)
    @example(rows=[(1.0, 1.0, True)], bad=NAN, side="right", position=1, policy=TiePolicy.ERROR)
    def test_every_row_of_a_batch_has_valid_diameters(self, rows, bad, side, position, policy):
        # Valid rows, tied where flagged, around one row whose left, right
        # or both (tied) diameters are bad: every batch function refuses it
        # with SiphonDiameters' text, before any tie reaches its policy.
        valid = [(a, a if tie else b) for a, b, tie in rows]
        invalid = {"left": (bad, 2.0), "right": (2.0, bad), "tied": (bad, bad)}[side]
        lambda_a, lambda_b = map(np.array, zip(*valid[:position], invalid, *valid[position:]))
        for call in batch_calls(lambda_a, lambda_b, policy):
            with pytest.raises(InvariantError) as error:
                call()
            assert str(error.value) == f"siphon diameters must be strictly positive, got {invalid}"
            assert error.value.field is None
        if valid and policy is not TiePolicy.ERROR:
            for call in batch_calls(*map(np.array, zip(*valid)), policy):
                call()

    def test_a_diameter_past_the_float_range_has_no_batch(self):
        lam = SiphonDiameters(10**400, 1.0)
        for view in (joint_outcome_ab, contextuality_witness):
            with pytest.raises(InvariantError, match="past the float range"):
                view(lam)
        with pytest.raises(InvariantError, match="past the float range"):
            contextual_table(lam, VesselSystem())

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_born_seed_follows_the_seed_rule(self, seed):
        for draw in (born_samples, born_histogram):
            with pytest.raises(InvariantError) as error:
                draw(make_state(UNIFORM), 3, seed)
            assert error.value.field == "seed_or_rng"

    def test_non_integral_count(self):
        model = vessel_model(HiddenVariableSampler(seed=1), VesselSystem())
        with pytest.raises(InvariantError) as error:
            estimate_expectation(model, PAIR_AB, 1.5)
        assert error.value.field == "n"
        with pytest.raises(InvariantError) as error:
            HiddenVariableSampler(seed=1).draw_arrays(-1)
        assert error.value.field == "n"
        # A bool is an Integral, but no count: n=True must not reach a report as true.
        sampler = HiddenVariableSampler(seed=1)
        bool_counts = [
            lambda n: estimate_expectation(model, PAIR_AB, n),
            sampler.draw_arrays,
            sampler.draw_chunks,
            chunk_sizes,
            lambda n: born_samples(make_state(UNIFORM), n, 5),
            lambda n: born_histogram(make_state(UNIFORM), n, 5),
        ]
        for count in (True, False):
            for call in bool_counts:
                with pytest.raises(InvariantError) as error:
                    call(count)
                assert error.value.field == "n"


def in_pair_order(means):
    return tuple(ExpectationEstimate(pair, mean, 0.1, 10) for pair, mean in zip(ALL_PAIRS, means))


class TestDataclassInvariants:
    """Each check of the result dataclasses raises with its documented
    field, NaN included."""

    @pytest.mark.parametrize(
        "mean, stderr, n, field",
        [
            (0.5, 0.1, 0, "n"),
            (0.5, 0.1, NAN, "n"),
            (1.5, 0.1, 10, "mean"),
            (NAN, 0.1, 10, "mean"),
            (0.5, -0.1, 10, "stderr"),
            (0.5, NAN, 10, "stderr"),
        ],
    )
    def test_expectation_estimate(self, mean, stderr, n, field):
        with pytest.raises(InvariantError) as error:
            ExpectationEstimate(PAIR_AB, mean, stderr, n)
        assert error.value.field == field

    @pytest.mark.parametrize(
        "value, components, field",
        [
            (0.0, in_pair_order([0.0] * 4)[::-1], "components"),
            (0.5, in_pair_order([0.0] * 4), "value"),
            (NAN, in_pair_order([0.0] * 4), "value"),
            # Valid estimates cannot pass 4, so stand-ins carry the means.
            (
                8.0,
                tuple(
                    SimpleNamespace(pair=pair, mean=mean)
                    for pair, mean in zip(ALL_PAIRS, (-2.0, 2.0, 2.0, 2.0))
                ),
                "value",
            ),
        ],
        ids=["pair-order", "value-mismatch", "nan-value", "ceiling"],
    )
    def test_bell_statistic(self, value, components, field):
        with pytest.raises(InvariantError) as error:
            BellStatistic(value, components, BellClassification.LOCAL)
        assert error.value.field == field

    @pytest.mark.parametrize(
        "satisfiable, search_exhausted, field",
        [(True, True, "assignment"), (False, False, None)],
    )
    def test_factorization_report(self, satisfiable, search_exhausted, field):
        with pytest.raises(InvariantError) as error:
            FactorizationReport(satisfiable, search_exhausted=search_exhausted)
        assert error.value.field == field
