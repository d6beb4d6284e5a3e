"""Expectation estimation, the Bell statistic, and its classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselsim import (
    ALL_PAIRS,
    PAIR_AB,
    PAIR_AB_PRIME,
    PAIR_APRIME_B,
    PAIR_APRIME_BPRIME,
    TSIRELSON_BOUND,
    BellClassification,
    DegenerateTieError,
    EmptySampleSetError,
    ExpectationEstimate,
    HiddenVariableSampler,
    MismatchedPairsError,
    TiePolicy,
    VesselSystem,
    bell_statistic,
    classify_value,
    estimate_expectation,
    pair_products,
    run_full_experiment,
    singlet_analytic_estimates,
    singlet_model,
    vessel_model,
)
from vesselsim.bell import PAIR_STREAM, mean_and_stderr, pair_chunks
from vesselsim.streams import CHUNK_SIZE, chunk_sizes

from strategies import TIE_PRONE

# The shared estimator must treat every model alike; tests loop over these.
MODELS = {
    "vessel": vessel_model(HiddenVariableSampler(seed=17), VesselSystem()),
    "vessel-opaque": vessel_model(
        HiddenVariableSampler(seed=8), VesselSystem(transparent=False)
    ),
    "singlet": singlet_model((0.0, 90.0, 45.0, 135.0), seed=17),
}


@st.composite
def any_model(draw):
    """A vessel model (either range, either transparency, any tie policy)
    or a singlet model at arbitrary angles."""
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        sampler_range = draw(st.sampled_from([{}, TIE_PRONE]))
        return vessel_model(
            HiddenVariableSampler(seed=seed, **sampler_range),
            VesselSystem(transparent=draw(st.booleans())),
            draw(st.sampled_from(TiePolicy)),
        )
    angles = tuple(draw(st.floats(-360.0, 360.0)) for _ in range(4))
    return singlet_model(angles, seed)


chunk_run_counts = st.one_of(
    st.just(1),
    st.integers(0, 3000).map(lambda k: 2 * k + 1),
    st.sampled_from([CHUNK_SIZE - 1, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 5]),
)


def tie_or(call):
    """``call()``, or the marker "tie" when it raises DegenerateTieError."""
    try:
        return call()
    except DegenerateTieError:
        return "tie"


def collected_estimate(model, pair, n):
    """The estimate from the per-run columns of every chunk, and the columns."""
    chunks = list(pair_chunks(model, pair, n, collect=True))
    columns = {
        name: np.concatenate([payload[name] for _, payload in chunks]) for name in chunks[0][1]
    }
    mean, stderr = mean_and_stderr(sum(product_sum for product_sum, _ in chunks), n)
    return ExpectationEstimate(pair=pair, mean=mean, stderr=stderr, n=n), columns


def make_estimates(means):
    """Estimates in canonical pair order from four means."""
    return [
        ExpectationEstimate(pair=pair, mean=mean, stderr=0.0, n=1)
        for pair, mean in zip(ALL_PAIRS, means)
    ]


class TestSampler:
    def test_interval_must_be_positive_and_ordered(self):
        with pytest.raises(ValueError):
            HiddenVariableSampler(low=0.0, high=1.0)
        with pytest.raises(ValueError):
            HiddenVariableSampler(low=2.0, high=1.0)

    def test_draws_stay_in_support(self):
        sampler = HiddenVariableSampler(low=0.5, high=3.0, seed=1)
        lambda_a, lambda_b = sampler.draw_arrays(10_000)
        assert lambda_a.min() >= 0.5 and lambda_a.max() <= 3.0
        assert lambda_b.min() >= 0.5 and lambda_b.max() <= 3.0

    def test_same_key_same_draws(self):
        sampler = HiddenVariableSampler(seed=99)
        first = sampler.draw_arrays(100, key=(0, 0))
        second = sampler.draw_arrays(100, key=(0, 0))
        other = sampler.draw_arrays(100, key=(1, 0))
        assert np.array_equal(first[0], second[0])
        assert not np.array_equal(first[0], other[0])


class TestEstimateExpectation:
    def test_joint_siphon_expectation_is_exactly_minus_one(self):
        model = vessel_model(HiddenVariableSampler(seed=4), VesselSystem())
        estimate = estimate_expectation(model, PAIR_AB, 1000)
        assert estimate.mean == -1.0
        assert estimate.stderr == 0.0
        assert estimate.n == 1000

    def test_single_run_two_spoons(self):
        model = vessel_model(HiddenVariableSampler(seed=4), VesselSystem())
        estimate = estimate_expectation(model, PAIR_APRIME_BPRIME, 1)
        assert estimate.mean == 1.0
        assert estimate.stderr == 0.0

    def test_empty_sample_rejected(self):
        for model in MODELS.values():
            with pytest.raises(EmptySampleSetError):
                estimate_expectation(model, PAIR_AB, 0)

    def test_vectorized_products_match_per_run_dispatch(self, per_run_oracle):
        sampler = HiddenVariableSampler(seed=123)
        system = VesselSystem(transparent=False)
        for pair in ALL_PAIRS:
            lambda_a, lambda_b = sampler.draw_arrays(256, key=(PAIR_STREAM[pair], 0))
            left, right = pair_products(pair, lambda_a, lambda_b, system)
            for i in range(256):
                expected = per_run_oracle(pair.label, lambda_a[i], lambda_b[i], False)
                assert (left[i], right[i]) == expected
        # Tied rows follow every resolving policy, the seeded coin included.
        tie_prone = HiddenVariableSampler(seed=5, **TIE_PRONE)
        lambda_a, lambda_b = tie_prone.draw_arrays(20_000)
        assert (lambda_a == lambda_b).sum() >= 2
        for policy in TiePolicy:
            if policy is TiePolicy.ERROR:
                continue
            left, _ = pair_products(PAIR_AB, lambda_a, lambda_b, system, policy, 77)
            for i in np.flatnonzero(lambda_a == lambda_b):
                expected = per_run_oracle("AB", lambda_a[i], lambda_b[i], False, policy.value, 77)
                assert left[i] == expected[0]

    def test_collect_returns_the_runs_behind_the_estimate(self):
        # 40k runs span two chunks, so the columns are concatenated in order.
        for model in MODELS.values():
            for pair in ALL_PAIRS:
                estimate, columns = collected_estimate(model, pair, 40_000)
                products = columns["outcome_left"] * columns["outcome_right"]
                assert len(products) == 40_000
                assert products.mean() == estimate.mean
                assert estimate == estimate_expectation(model, pair, 40_000)
                assert all(len(column) == 40_000 for column in columns.values())

    def test_vessel_columns_are_the_keyed_draws(self):
        sampler = HiddenVariableSampler(seed=8)
        [(_, columns)] = pair_chunks(
            vessel_model(sampler, VesselSystem()), PAIR_AB, 300, collect=True
        )
        lambda_a, lambda_b = sampler.draw_arrays(300, key=(PAIR_STREAM[PAIR_AB],))
        assert np.array_equal(columns["lambda_a"], lambda_a)
        assert np.array_equal(columns["lambda_b"], lambda_b)

    def test_estimate_folds_the_keyed_chunks_in_order(self):
        # 100k runs span four chunks, the last one ragged.
        n = 100_000
        for model in MODELS.values():
            for pair in ALL_PAIRS:
                results = list(model(pair, n, False))
                assert len(results) == len(list(chunk_sizes(n)))
                assert all(columns is None for _, columns in results)
                total = sum(product_sum for product_sum, _ in results)
                mean, stderr = mean_and_stderr(total, n)
                expected = ExpectationEstimate(pair=pair, mean=mean, stderr=stderr, n=n)
                assert estimate_expectation(model, pair, n) == expected

    @settings(max_examples=60)
    @given(
        model=any_model(),
        pair=st.sampled_from(ALL_PAIRS),
        n=chunk_run_counts,
    )
    def test_reduce_only_chunks_agree_with_the_collected_columns(self, model, pair, n):
        def reduced():
            results = list(model(pair, n, False))
            assert all(columns is None for _, columns in results)
            return [product_sum for product_sum, _ in results]

        def collected():
            results = list(model(pair, n, True))
            for product_sum, columns in results:
                products = columns["outcome_left"] * columns["outcome_right"]
                assert product_sum == int(products.sum())
            return [product_sum for product_sum, _ in results]

        assert tie_or(reduced) == tie_or(collected)
        assert tie_or(lambda: estimate_expectation(model, pair, n)) == tie_or(
            lambda: collected_estimate(model, pair, n)[0]
        )

    def test_tie_handling_under_policies(self):
        lambda_a = np.array([1.0, 2.0, 1.5])
        lambda_b = np.array([1.0, 1.0, 1.5])
        with pytest.raises(Exception):
            pair_products(PAIR_AB, lambda_a, lambda_b, VesselSystem())
        left, right = pair_products(
            PAIR_AB, lambda_a, lambda_b, VesselSystem(), TiePolicy.FAVOR_RIGHT
        )
        assert left.tolist() == [-1, 1, -1]
        assert (left * right).tolist() == [-1, -1, -1]


class TestMeanAndStderr:
    def test_matches_numpy_sample_statistics(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            products = rng.choice([-1, 1], size=rng.integers(2, 500))
            mean, stderr = mean_and_stderr(int(products.sum()), len(products))
            assert mean == pytest.approx(products.mean())
            assert stderr == pytest.approx(products.std(ddof=1) / math.sqrt(len(products)))

    def test_single_sample_has_zero_stderr(self):
        assert mean_and_stderr(1, 1) == (1.0, 0.0)

    def test_constant_outcomes_have_zero_stderr(self):
        assert mean_and_stderr(-400, 400) == (-1.0, 0.0)


class TestBellStatistic:
    def test_vessel_values_reach_the_algebraic_ceiling(self):
        statistic = bell_statistic(make_estimates([-1.0, 1.0, 1.0, 1.0])[::-1])
        assert statistic.value == 4.0
        assert statistic.classification is BellClassification.SUPER_QUANTUM

    def test_null_correlations_are_local(self):
        estimates = make_estimates([0.0, 0.0, 0.0, 0.0])
        statistic = bell_statistic(estimates)
        assert statistic.value == 0.0
        assert statistic.classification is BellClassification.LOCAL

    def test_components_are_matched_by_pair_not_position(self):
        estimates = {est.pair: est for est in make_estimates([-1.0, 1.0, 1.0, 1.0])}
        statistic = bell_statistic(
            estimates[pair]
            for pair in (PAIR_APRIME_BPRIME, PAIR_APRIME_B, PAIR_AB_PRIME, PAIR_AB)
        )
        shuffled = bell_statistic(
            estimates[pair]
            for pair in (PAIR_AB, PAIR_AB_PRIME, PAIR_APRIME_B, PAIR_APRIME_BPRIME)
        )
        assert statistic == shuffled
        assert statistic.value == 4.0

    def test_missing_pair_rejected(self):
        estimates = make_estimates([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(MismatchedPairsError):
            bell_statistic([estimates[0], estimates[0], estimates[1], estimates[2]])

    def test_duplicated_pair_rejected_even_with_all_four_present(self):
        estimates = make_estimates([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(MismatchedPairsError):
            bell_statistic([*estimates, estimates[2]])

    def test_fewer_than_four_rejected(self):
        with pytest.raises(MismatchedPairsError):
            bell_statistic(make_estimates([-1.0, 1.0, 1.0, 1.0])[:3])

    def test_singlet_optimum_is_quantum_attainable(self):
        statistic = bell_statistic(singlet_analytic_estimates((0, 90, 45, 135)))
        assert statistic.value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)
        assert statistic.classification is BellClassification.QUANTUM_ATTAINABLE


class TestClassificationBoundaries:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, BellClassification.LOCAL),
            (2.0, BellClassification.LOCAL),
            (-2.0, BellClassification.LOCAL),
            (2.0 + 1e-13, BellClassification.LOCAL),
            (2.0 + 1e-9, BellClassification.QUANTUM_ATTAINABLE),
            (TSIRELSON_BOUND, BellClassification.QUANTUM_ATTAINABLE),
            (-TSIRELSON_BOUND, BellClassification.QUANTUM_ATTAINABLE),
            (TSIRELSON_BOUND + 1e-9, BellClassification.SUPER_QUANTUM),
            (4.0, BellClassification.SUPER_QUANTUM),
            (-4.0, BellClassification.SUPER_QUANTUM),
        ],
    )
    def test_thresholds(self, value, expected):
        assert classify_value(value) is expected


class TestRunFullExperiment:
    def test_transparent_system_gives_exactly_four(self):
        for seed in (0, 1, 31337):
            for n in (1, 10, 1000):
                statistic = run_full_experiment(
                    HiddenVariableSampler(seed=seed), VesselSystem(), n
                )
                assert statistic.value == 4.0
                assert statistic.classification is BellClassification.SUPER_QUANTUM

    def test_opaque_system_scores_zero(self):
        statistic = run_full_experiment(
            HiddenVariableSampler(seed=12), VesselSystem(transparent=False), 2000
        )
        # spoon tests flip sign: products become (-1, -1, -1, +1)
        assert statistic.value == 0.0
        assert statistic.classification is BellClassification.LOCAL

    def test_same_seed_reproduces_bit_for_bit(self):
        first = run_full_experiment(HiddenVariableSampler(seed=55), VesselSystem(), 5000)
        second = run_full_experiment(HiddenVariableSampler(seed=55), VesselSystem(), 5000)
        assert first == second

    def test_multi_chunk_runs_reproduce_bit_for_bit(self):
        # 70k runs per pair span three chunks.
        first = run_full_experiment(HiddenVariableSampler(seed=55), VesselSystem(), 70_000)
        second = run_full_experiment(HiddenVariableSampler(seed=55), VesselSystem(), 70_000)
        assert first == second

    def test_estimates_stay_in_range(self):
        statistic = run_full_experiment(HiddenVariableSampler(seed=2), VesselSystem(), 500)
        for estimate in statistic.components:
            assert abs(estimate.mean) <= 1.0
            assert estimate.stderr == 0.0
