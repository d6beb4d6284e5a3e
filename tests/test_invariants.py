"""The library's error contract: a bad argument raises a ``VesselSimError``
subclass (an ``InvariantError`` when a value breaks an invariant), never a
bare ``ValueError``, ``TypeError`` or ``OverflowError``; what comes back
holds only finite numbers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselsim import (
    HiddenVariableSampler,
    InvariantError,
    MeasurementDirection,
    NotNormalizedError,
    NotUnitError,
    SiphonDiameters,
    VesselSimError,
    VesselSystem,
    left_analyzer_direction,
    make_state,
    right_analyzer_direction,
    schmidt_rank,
    simulate_flow,
    singlet_bell_value,
    singlet_experiment,
)

NAN, INF = math.nan, math.inf
UNIFORM = [1.0 / math.sqrt(11)] * 11
ANGLES = (0.0, 90.0, 45.0, 135.0)

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-200, 0.5, 1.0, 3.0, 1e200, 1.7e308, -1.0, NAN, INF, -INF]
    ),
)
# Integer parameters get negative and past-64-bit values, and non-integral floats.
INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 0, 2**64 - 1, 2**64]),
    st.floats(allow_nan=True, allow_infinity=True),
)
AMPLITUDES = st.lists(st.builds(complex, FLOATS, FLOATS), min_size=10, max_size=12)


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

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 2.0, NAN, "7"])
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
