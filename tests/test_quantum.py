"""Superposition state machinery and the singlet reference model."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as scipy_linalg
from scipy import stats

from vesselsim.bell import PAIR_STREAM
from vesselsim.quantum import _born_cdf
from vesselsim.streams import substream

from vesselsim import (
    ALL_PAIRS,
    TSIRELSON_BOUND,
    BellClassification,
    ExpectationEstimate,
    ExperimentKind,
    InvariantError,
    MeasurementDirection,
    NotNormalizedError,
    NotUnitError,
    WrongArityError,
    bell_statistic,
    born_histogram,
    born_samples,
    coefficient_matrix,
    is_entangled,
    left_analyzer_direction,
    make_state,
    right_analyzer_direction,
    schmidt_rank,
    singlet_bell_value,
    singlet_expectation,
    singlet_experiment,
    singlet_analytic_estimates,
    singlet_model,
    singlet_samples,
)

from strategies import amplitude_vectors

UNIFORM = make_state(np.ones(11) / math.sqrt(11))


def random_state(rng):
    amplitudes = rng.normal(size=11) + 1j * rng.normal(size=11)
    return make_state(amplitudes, normalize=True)


def random_direction(rng):
    vector = rng.normal(size=3)
    vector /= np.linalg.norm(vector)
    return MeasurementDirection(*vector)


class TestMakeState:
    def test_single_branch_state(self):
        amplitudes = np.zeros(11)
        amplitudes[5] = 1.0
        state = make_state(amplitudes)
        assert state.probabilities()[5] == 1.0

    def test_uniform_amplitudes_are_normalized(self):
        assert UNIFORM.probabilities().sum() == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_state(np.ones(11))

    def test_wrong_arity_rejected(self):
        with pytest.raises(WrongArityError):
            make_state(np.ones(10) / math.sqrt(10))

    def test_normalization_tolerance_edges(self):
        scale = math.sqrt(1.0 + 2e-9)
        with pytest.raises(NotNormalizedError):
            make_state(scale * np.ones(11) / math.sqrt(11))
        near = math.sqrt(1.0 + 5e-10) * np.ones(11) / math.sqrt(11)
        make_state(near)

    def test_normalize_flag_rescales(self):
        state = make_state(np.ones(11), normalize=True)
        assert state.probabilities().sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_cannot_be_normalized(self):
        with pytest.raises(NotNormalizedError):
            make_state(np.zeros(11), normalize=True)

    def test_amplitudes_are_read_only(self):
        with pytest.raises(ValueError):
            UNIFORM.amplitudes[0] = 1.0


class TestBornSampling:
    def test_degenerate_state_always_collapses_to_its_branch(self):
        amplitudes = np.zeros(11)
        amplitudes[5] = 1.0
        state = make_state(amplitudes)
        for seed in range(20):
            assert born_samples(state, 1, seed).tolist() == [5]

    def test_zero_probability_branches_never_occur(self):
        amplitudes = np.zeros(11, dtype=complex)
        amplitudes[0] = amplitudes[10] = 1.0 / math.sqrt(2)
        state = make_state(amplitudes)
        draws = born_samples(state, 5000, np.random.default_rng(3))
        assert set(np.unique(draws)) <= {0, 10}

    def test_sampling_leaves_the_state_untouched(self):
        before = UNIFORM.amplitudes.copy()
        born_samples(UNIFORM, 1000, np.random.default_rng(0))
        assert np.array_equal(UNIFORM.amplitudes, before)

    @pytest.mark.parametrize("state_seed", [None, 2024, 77])
    def test_frequencies_match_probabilities(self, state_seed):
        if state_seed is None:
            state = UNIFORM
        else:
            state = random_state(np.random.default_rng(state_seed))
        draws = born_samples(state, 100_000, np.random.default_rng(101))
        counts = np.bincount(draws, minlength=11)
        expected = 100_000 * state.probabilities()
        keep = expected > 0
        result = stats.chisquare(counts[keep], expected[keep])
        assert result.pvalue > 0.001


sample_counts = st.one_of(st.integers(0, 5000), st.just(200_001))


def choice_draws(state, n, seed):
    """The Born draws as ``Generator.choice`` makes them."""
    probabilities = state.probabilities()
    return np.random.default_rng(seed).choice(
        11, size=n, p=probabilities / probabilities.sum()
    )


class TestBornCounting:
    @settings(max_examples=60)
    @given(amplitudes=amplitude_vectors, n=sample_counts, seed=st.integers(0, 2**32))
    def test_counted_histogram_equals_the_binned_choice_draws(self, amplitudes, n, seed):
        state = make_state(amplitudes, normalize=True)
        expected = np.bincount(choice_draws(state, n, seed), minlength=11)
        assert born_histogram(state, n, seed).tolist() == expected.tolist()

    @settings(max_examples=60)
    @given(amplitudes=amplitude_vectors, n=sample_counts, seed=st.integers(0, 2**32))
    @example(amplitudes=UNIFORM.amplitudes, n=100, seed=7)
    def test_samples_equal_the_choice_draws(self, amplitudes, n, seed):
        state = make_state(amplitudes, normalize=True)
        assert np.array_equal(born_samples(state, n, seed), choice_draws(state, n, seed))

    @given(amplitudes=amplitude_vectors)
    @example(amplitudes=[1.0, 0.5j, *[0j] * 9])
    def test_cdf_ends_at_exactly_one(self, amplitudes):
        # born_histogram counts every uniform below the last bound without a compare.
        assert _born_cdf(make_state(amplitudes, normalize=True))[-1] == 1.0


# Ratios of a modulus to the tolerance, at least 1e-9 relative away from 1.
RATIO_BELOW = st.floats(0.0, 1.0 - 1e-9)
RATIO_ABOVE = st.floats(1.0 + 1e-9, 3.0)


class TestSchmidtRank:
    def test_single_branch_is_a_product_state(self):
        amplitudes = np.zeros(11)
        amplitudes[5] = 1.0
        state = make_state(amplitudes)
        assert schmidt_rank(state) == 1
        assert not is_entangled(state)

    def test_uniform_state_has_full_rank(self):
        assert schmidt_rank(UNIFORM) == 11
        assert is_entangled(UNIFORM)

    def test_two_branch_state_has_rank_two(self):
        amplitudes = np.zeros(11, dtype=complex)
        amplitudes[0] = amplitudes[10] = 1.0 / math.sqrt(2)
        state = make_state(amplitudes)
        assert schmidt_rank(state) == 2
        assert is_entangled(state)

    @settings(max_examples=150)
    @given(
        tol=st.floats(1e-300, 0.03),
        ratios=st.tuples(RATIO_BELOW, RATIO_ABOVE, *[st.one_of(RATIO_BELOW, RATIO_ABOVE)] * 8),
        phases=st.tuples(*[st.floats(0.0, 2 * math.pi)] * 10),
        shift=st.integers(0, 10),
    )
    def test_rank_equals_amplitude_count_and_independent_svd(self, tol, ratios, phases, shift):
        # Ten moduli at ratio * tol, at least one on each side of tol, and the
        # rest of the norm on an eleventh amplitude far above it.
        scaled = [ratio * tol * cmath.exp(1j * phase) for ratio, phase in zip(ratios, phases)]
        rest = math.sqrt(1.0 - sum(abs(amplitude) ** 2 for amplitude in scaled))
        state = make_state(np.roll([*scaled, rest], shift))
        moduli = np.abs(state.amplitudes)
        assert np.all(np.abs(moduli - tol) > 1e-12 * tol)

        amplitude_count = 1 + sum(ratio > 1.0 for ratio in ratios)
        independent = int(np.count_nonzero(scipy_linalg.svdvals(coefficient_matrix(state)) > tol))
        assert schmidt_rank(state, tol=tol) == amplitude_count == independent

    @given(
        tol=st.one_of(
            st.floats(max_value=-5e-324), st.just(math.nan), st.integers(max_value=-1)
        )
    )
    @example(tol=-1.0)
    @example(tol=math.nan)
    def test_tolerance_that_is_not_non_negative_is_rejected(self, tol):
        with pytest.raises(InvariantError) as error:
            schmidt_rank(UNIFORM, tol=tol)
        assert error.value.field == "tol"


class TestDirections:
    def test_non_unit_vector_rejected(self):
        with pytest.raises(NotUnitError):
            MeasurementDirection(1.0, 1.0, 0.0)

    def test_analyzer_helpers_give_unit_vectors(self):
        for angle in (0.0, 37.0, 90.0, 245.5):
            left = left_analyzer_direction(angle)
            right = right_analyzer_direction(angle)
            assert left.dot(left) == pytest.approx(1.0, abs=1e-12)
            assert right.dot(right) == pytest.approx(1.0, abs=1e-12)

    def test_facing_frames_mirror_the_y_axis(self):
        left = left_analyzer_direction(30.0)
        right = right_analyzer_direction(30.0)
        assert left.x == right.x
        assert left.y == -right.y


class TestSingletExpectation:
    def test_equal_directions_anticorrelate_perfectly(self):
        direction = random_direction(np.random.default_rng(1))
        assert singlet_expectation(direction, direction) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_directions_are_uncorrelated(self):
        a = MeasurementDirection(1.0, 0.0, 0.0)
        b = MeasurementDirection(0.0, 1.0, 0.0)
        assert singlet_expectation(a, b) == 0.0

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_direction(rng), random_direction(rng)
            assert singlet_expectation(a, b) == singlet_expectation(b, a)

    def test_invariant_under_common_rotations(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_direction(rng), random_direction(rng)
            # random rotation via QR of a Gaussian matrix
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            q *= np.sign(np.diag(r))
            rotated_a = MeasurementDirection(*(q @ np.array([a.x, a.y, a.z])))
            rotated_b = MeasurementDirection(*(q @ np.array([b.x, b.y, b.z])))
            assert singlet_expectation(rotated_a, rotated_b) == pytest.approx(
                singlet_expectation(a, b), abs=1e-12
            )


def dataclass_estimates(angles):
    """The reference for the analytic path: each pair's expectation through
    ``MeasurementDirection`` and ``singlet_expectation``, in ``ALL_PAIRS`` order."""
    angle_a, angle_aprime, angle_b, angle_bprime = angles
    a, aprime = left_analyzer_direction(angle_a), left_analyzer_direction(angle_aprime)
    b, bprime = right_analyzer_direction(angle_b), right_analyzer_direction(angle_bprime)
    directions = ((a, b), (aprime, b), (a, bprime), (aprime, bprime))
    return [
        ExpectationEstimate(pair=pair, mean=singlet_expectation(left, right), stderr=0.0, n=1)
        for pair, (left, right) in zip(ALL_PAIRS, directions)
    ]


def bits(values):
    # float.hex tells -0.0 from 0.0, which == does not.
    return [value.hex() for value in values]


finite_angles = st.floats(allow_nan=False, allow_infinity=False)


class TestSingletBellValue:
    @settings(max_examples=400)
    @given(
        angles=st.one_of(
            st.tuples(*[st.floats(-720.0, 720.0)] * 4), st.tuples(*[finite_angles] * 4)
        )
    )
    def test_analytic_path_matches_the_dataclass_path_bit_for_bit(self, angles):
        reference = dataclass_estimates(angles)
        means = [estimate.mean for estimate in reference]
        assert singlet_analytic_estimates(angles) == reference
        assert bits(estimate.mean for estimate in singlet_analytic_estimates(angles)) == bits(means)
        assert bits([singlet_bell_value(angles)]) == bits([bell_statistic(reference).value])

    @pytest.mark.parametrize(
        "angles",
        [
            (math.nan, 0.0, 0.0, 0.0),
            (0.0, math.inf, -math.inf, 0.0),
            (0.0, 0.0, math.inf, 0.0),
            (0.0, 0.0, 0.0, math.nan),
        ],
    )
    def test_non_finite_angles_fail_like_the_dataclass_path(self, angles):
        with pytest.raises(InvariantError) as expected:
            dataclass_estimates(angles)
        for path in (singlet_analytic_estimates, singlet_bell_value):
            with pytest.raises(InvariantError) as raised:
                path(angles)
            assert raised.value.field == expected.value.field == "angle_deg"
            assert str(raised.value) == str(expected.value)

    def test_textbook_angles_attain_the_quantum_maximum(self):
        assert singlet_bell_value((0.0, 90.0, 45.0, 135.0)) == pytest.approx(
            TSIRELSON_BOUND, abs=1e-12
        )

    def test_never_beats_the_quantum_bound_on_random_angles(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            value = singlet_bell_value(tuple(rng.uniform(0.0, 360.0, size=4)))
            assert abs(value) <= TSIRELSON_BOUND + 1e-9

    def test_aligned_analyzers_stay_valid_despite_rounding(self):
        # Left at a and right at -a are the same direction in the shared
        # frame; at a = 348 degrees their dot product rounds to 1 + 2**-52.
        for angle in range(360):
            estimates = singlet_analytic_estimates((angle, 0.0, -angle, 0.0))
            assert abs(estimates[0].mean) <= 1.0
            assert abs(singlet_bell_value((angle, 0.0, -angle, 0.0))) <= TSIRELSON_BOUND
        assert singlet_analytic_estimates((348.0, 0.0, -348.0, 0.0))[0].mean == -1.0

    def test_direction_quadruples_respect_the_quantum_bound(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(100_000, 4, 3))
        vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
        a, aprime, b, bprime = (vectors[:, i, :] for i in range(4))
        dot = lambda u, v: np.sum(u * v, axis=1)
        combination = -dot(aprime, bprime) - dot(aprime, b) - dot(a, bprime) + dot(a, b)
        assert np.abs(combination).max() <= TSIRELSON_BOUND + 1e-9


class TestSingletSampling:
    def test_equal_directions_always_disagree(self):
        direction = MeasurementDirection(0.0, 0.0, 1.0)
        left, right = singlet_samples(direction, direction, 2000, np.random.default_rng(5))
        assert np.all(left == -right)

    def test_orthogonal_directions_cover_all_four_outcomes(self):
        a = MeasurementDirection(1.0, 0.0, 0.0)
        b = MeasurementDirection(0.0, 0.0, 1.0)
        left, right = singlet_samples(a, b, 40_000, np.random.default_rng(15))
        joint, counts = np.unique(np.stack([left, right]), axis=1, return_counts=True)
        assert joint.shape[1] == 4
        assert np.allclose(counts / counts.sum(), 0.25, atol=0.02)

    def test_mean_product_tracks_the_analytic_value(self):
        a = MeasurementDirection(1.0, 0.0, 0.0)
        b = MeasurementDirection(0.5, math.sqrt(0.75), 0.0)  # a.b = 0.5
        left, right = singlet_samples(a, b, 1_000_000, np.random.default_rng(19))
        products = left * right
        stderr = products.std(ddof=1) / math.sqrt(len(products))
        assert abs(products.mean() - (-0.5)) <= 3 * stderr

    def test_marginals_are_fair(self):
        a = MeasurementDirection(1.0, 0.0, 0.0)
        b = MeasurementDirection(0.5, math.sqrt(0.75), 0.0)
        left, right = singlet_samples(a, b, 200_000, np.random.default_rng(23))
        for side in (left, right):
            frequency = (side == 1).mean()
            stderr = math.sqrt(frequency * (1 - frequency) / len(side))
            assert abs(frequency - 0.5) <= 4 * stderr

    def test_mean_within_four_stderr_in_nearly_all_trials(self):
        a = MeasurementDirection(1.0, 0.0, 0.0)
        b = MeasurementDirection(0.5, math.sqrt(0.75), 0.0)
        rng = np.random.default_rng(27)
        hits = 0
        trials = 300
        for _ in range(trials):
            left, right = singlet_samples(a, b, 1500, rng)
            products = left * right
            stderr = products.std(ddof=1) / math.sqrt(len(products))
            if abs(products.mean() - (-0.5)) <= 4 * stderr:
                hits += 1
        assert hits >= math.ceil(0.99 * trials)


class TestSingletModel:
    def test_columns_are_the_keyed_singlet_draws(self):
        model = singlet_model((10.0, 100.0, 35.0, 125.0), seed=21)
        direction = {
            ExperimentKind.A: left_analyzer_direction(10.0),
            ExperimentKind.APRIME: left_analyzer_direction(100.0),
            ExperimentKind.B: right_analyzer_direction(35.0),
            ExperimentKind.BPRIME: right_analyzer_direction(125.0),
        }
        for pair in ALL_PAIRS:
            # Coins on column 0 of the pair's stream, agreement uniforms on column 1.
            coins, uniforms = (substream(21, PAIR_STREAM[pair], column) for column in (0, 1))
            [columns] = model.runs(pair, 500)
            left, right = singlet_samples(
                direction[pair.left], direction[pair.right], 500, coins, uniforms
            )
            assert list(columns) == ["outcome_left", "outcome_right"]
            assert np.array_equal(columns["outcome_left"], left)
            assert np.array_equal(columns["outcome_right"], right)
            assert list(model.sums(pair, 500)) == [int((left * right).sum())]


class TestSingletExperiment:
    def test_monte_carlo_lands_near_the_analytic_statistic(self):
        statistic = singlet_experiment((0.0, 90.0, 45.0, 135.0), seed=42, n_per_pair=200_000)
        stderr = math.sqrt(sum(est.stderr**2 for est in statistic.components))
        assert abs(statistic.value - TSIRELSON_BOUND) <= 3 * stderr
        assert statistic.classification in (
            BellClassification.QUANTUM_ATTAINABLE,
            BellClassification.SUPER_QUANTUM,
        )

    def test_same_seed_reproduces_bit_for_bit(self):
        # 50k runs per pair span two chunks.
        first = singlet_experiment((0.0, 90.0, 45.0, 135.0), seed=5, n_per_pair=50_000)
        second = singlet_experiment((0.0, 90.0, 45.0, 135.0), seed=5, n_per_pair=50_000)
        assert first == second
