"""Single-run vessel dynamics: outcome rules, tie policies, flow integration."""

import json

import numpy as np
import pytest

from vesselsim import (
    ALL_PAIRS,
    PAIR_AB,
    PAIR_AB_PRIME,
    PAIR_APRIME_B,
    PAIR_APRIME_BPRIME,
    CoincidencePair,
    ContextualOutcomeTable,
    DegenerateTieError,
    ExperimentKind,
    InvalidStepError,
    SiphonDiameters,
    SplitVolume,
    TiePolicy,
    VesselSystem,
    contextual_table,
    joint_outcome_ab,
    outcome_solo_siphon,
    pair_products,
    simulate_flow,
    spoon_outcome,
)
from vesselsim import bell, commands, locality, vessels
from vesselsim.cli import main
from vesselsim.locality import contextuality_witness, scan_columns, scan_hidden_variables
from vesselsim.streams import CHUNK_SIZE
from vesselsim.vessels import constant_outcomes, left_wins


class TestTypes:
    def test_diameters_must_be_positive(self):
        with pytest.raises(ValueError):
            SiphonDiameters(0.0, 1.0)
        with pytest.raises(ValueError):
            SiphonDiameters(1.0, -2.0)

    def test_system_volume_must_be_positive(self):
        with pytest.raises(ValueError):
            VesselSystem(total_volume=0.0)

    def test_system_defaults(self):
        system = VesselSystem()
        assert system.total_volume == 20.0
        assert system.transparent is True
        assert system.half_volume == 10.0

    def test_pair_sides_are_checked(self):
        with pytest.raises(ValueError):
            CoincidencePair(ExperimentKind.B, ExperimentKind.A)
        with pytest.raises(ValueError):
            CoincidencePair(ExperimentKind.A, ExperimentKind.APRIME)

    def test_pair_labels(self):
        assert [pair.label for pair in ALL_PAIRS] == ["AB", "A'B", "AB'", "A'B'"]

    def test_split_volume_nonnegative(self):
        with pytest.raises(ValueError):
            SplitVolume(-0.1, 20.1)


class TestJointOutcome:
    def test_wider_left_siphon_wins(self):
        assert joint_outcome_ab(SiphonDiameters(2.0, 1.0)) == (1, -1)

    def test_wider_right_siphon_wins(self):
        assert joint_outcome_ab(SiphonDiameters(1.0, 2.0)) == (-1, 1)

    def test_tie_raises_by_default(self):
        with pytest.raises(DegenerateTieError):
            joint_outcome_ab(SiphonDiameters(1.0, 1.0))

    def test_tie_favor_policies(self):
        tie = SiphonDiameters(1.5, 1.5)
        assert joint_outcome_ab(tie, TiePolicy.FAVOR_LEFT) == (1, -1)
        assert joint_outcome_ab(tie, TiePolicy.FAVOR_RIGHT) == (-1, 1)

    def test_tie_split_coin_is_deterministic_and_unbiased(self):
        outcomes = set()
        for value in np.linspace(0.5, 3.0, 100):
            tie = SiphonDiameters(value, value)
            first = joint_outcome_ab(tie, TiePolicy.SPLIT_COIN, tie_seed=7)
            second = joint_outcome_ab(tie, TiePolicy.SPLIT_COIN, tie_seed=7)
            assert first == second
            assert first in ((1, -1), (-1, 1))
            outcomes.add(first)
        # across many tie values the coin lands on both sides
        assert outcomes == {(1, -1), (-1, 1)}

    @pytest.mark.parametrize(
        "diameter, tie_seed, left_side_wins",
        [(1.5, 7, True), (1.5, 8, False), (2.0, 7, True), (0.75, 0, False),
         (4.5, 1, True), (1.0, 2**63, False)],
    )
    def test_split_coin_values_are_pinned(self, diameter, tie_seed, left_side_wins):
        """Known coin values: a change to the hash, its payload or the bit
        it reads would change the tie outcomes of every report."""
        assert vessels._break_tie(diameter, TiePolicy.SPLIT_COIN, tie_seed) is left_side_wins

    def test_outcomes_anticorrelate_for_any_resolved_tiepolicy(self):
        tie = SiphonDiameters(2.5, 2.5)
        for policy in (TiePolicy.FAVOR_LEFT, TiePolicy.FAVOR_RIGHT, TiePolicy.SPLIT_COIN):
            left, right = joint_outcome_ab(tie, policy, tie_seed=1)
            assert left * right == -1


class TestSingleSideOutcomes:
    def test_solo_siphon_always_wins(self):
        assert outcome_solo_siphon() == 1
        # independent of any diameters and of the configured volume
        for volume in (0.3, 10.0, 20.0):
            system = VesselSystem(total_volume=volume, transparent=False)
            assert constant_outcomes(PAIR_AB_PRIME, system) == (1, -1)
            assert constant_outcomes(PAIR_APRIME_B, system) == (-1, 1)

    def test_spoon_reads_transparency_only(self):
        assert spoon_outcome(VesselSystem(transparent=True)) == 1
        assert spoon_outcome(VesselSystem(transparent=False)) == -1
        assert spoon_outcome(VesselSystem()) == 1


def naive_flow(lam, system, dt, coeff=1.0):
    """Step-by-step reference integration, no algebraic shortcuts."""
    step_left = coeff * lam.lambda_a**2 * dt
    step_right = coeff * lam.lambda_b**2 * dt
    x_left = x_right = 0.0
    available = system.total_volume
    while available > 0.0:
        per_vessel = available / 2.0
        drawn_left = min(step_left, per_vessel)
        drawn_right = min(step_right, per_vessel)
        x_left += drawn_left
        x_right += drawn_right
        available -= drawn_left + drawn_right
    return x_left, x_right


class TestSimulateFlow:
    def test_symmetric_diameters_split_evenly(self):
        split = simulate_flow(SiphonDiameters(1.0, 1.0), VesselSystem(), dt=1e-3)
        assert split.x_left == pytest.approx(10.0, abs=1e-9)
        assert split.x_right == pytest.approx(10.0, abs=1e-9)

    def test_matches_rate_ratio_closed_form(self):
        # 20 * 4 / 5 for diameters (2, 1)
        split = simulate_flow(SiphonDiameters(2.0, 1.0), VesselSystem(), dt=1e-4)
        assert abs(split.x_left - 16.0) <= 0.05

    def test_invalid_step_rejected(self):
        for dt in (0.0, -1e-3, float("inf"), float("nan")):
            with pytest.raises(InvalidStepError):
                simulate_flow(SiphonDiameters(1.0, 2.0), VesselSystem(), dt)

    def test_agrees_with_naive_integration(self):
        rng = np.random.default_rng(11)
        system = VesselSystem()
        for _ in range(25):
            lam = SiphonDiameters(*rng.uniform(0.5, 3.0, size=2))
            dt = 10.0 ** rng.uniform(-3.5, -1.0)
            split = simulate_flow(lam, system, dt)
            x_left, x_right = naive_flow(lam, system, dt)
            assert split.x_left == pytest.approx(x_left, abs=1e-9)
            assert split.x_right == pytest.approx(x_right, abs=1e-9)

    def test_conserves_total_volume(self):
        rng = np.random.default_rng(5)
        for total in (20.0, 7.5):
            system = VesselSystem(total_volume=total)
            for _ in range(20):
                lam = SiphonDiameters(*rng.uniform(0.5, 3.0, size=2))
                split = simulate_flow(lam, system, dt=1e-4)
                assert split.x_left + split.x_right == pytest.approx(total, abs=1e-9)

    def test_sign_agrees_with_winner_rule_on_grid(self):
        system = VesselSystem()
        for lambda_a in np.linspace(0.5, 3.0, 8):
            for lambda_b in np.linspace(0.5, 3.0, 8):
                if abs(lambda_a - lambda_b) <= 0.01:
                    continue
                lam = SiphonDiameters(lambda_a, lambda_b)
                split = simulate_flow(lam, system, dt=1e-3)
                outcome_left, _ = joint_outcome_ab(lam)
                assert np.sign(split.x_left - system.half_volume) == outcome_left


def one_run(pair, lam, system):
    """Both outcomes of one run: a single row of ``pair_products``."""
    left, right = pair_products(pair, np.array([lam.lambda_a]), np.array([lam.lambda_b]), system)
    return int(left[0]), int(right[0])


class TestPairProducts:
    def test_joint_siphons_anticorrelate(self):
        lam = SiphonDiameters(2.0, 1.0)
        assert one_run(PAIR_AB, lam, VesselSystem()) == (1, -1)
        assert contextual_table(lam, VesselSystem()).product_ab == -1

    def test_two_spoons_agree(self):
        lam = SiphonDiameters(0.7, 2.2)
        assert one_run(PAIR_APRIME_BPRIME, lam, VesselSystem()) == (1, 1)
        assert contextual_table(lam, VesselSystem()).product_aprime_bprime == 1

    def test_siphon_with_spoon(self):
        lam = SiphonDiameters(1.0, 2.0)
        assert one_run(PAIR_AB_PRIME, lam, VesselSystem()) == (1, 1)
        assert contextual_table(lam, VesselSystem()).product_ab_prime == 1

    def test_spoon_with_siphon(self):
        lam = SiphonDiameters(1.0, 2.0)
        assert one_run(PAIR_APRIME_B, lam, VesselSystem()) == (1, 1)
        assert contextual_table(lam, VesselSystem()).product_aprime_b == 1

    def test_anticorrelation_holds_for_all_untied_diameters(self):
        rng = np.random.default_rng(9)
        system = VesselSystem()
        lambda_a, lambda_b = rng.uniform(0.5, 3.0, size=(2, 500))
        left, right = pair_products(PAIR_AB, lambda_a, lambda_b, system)
        assert (left * right == -1).all()
        for a, b in zip(lambda_a[:50], lambda_b[:50]):
            assert contextual_table(SiphonDiameters(a, b), system).product_ab == -1

    def test_tie_propagates(self):
        with pytest.raises(DegenerateTieError):
            one_run(PAIR_AB, SiphonDiameters(1.0, 1.0), VesselSystem())
        with pytest.raises(DegenerateTieError):
            contextual_table(SiphonDiameters(1.0, 1.0), VesselSystem())

    @pytest.mark.parametrize(
        "policy", [TiePolicy.FAVOR_LEFT, TiePolicy.FAVOR_RIGHT, TiePolicy.SPLIT_COIN]
    )
    def test_joint_pair_products_follow_left_wins_and_sum_to_minus_n(self, policy):
        # Diameters on a 17-point grid, so about one row in 17 is tied.
        rng = np.random.default_rng(3)
        lambda_a, lambda_b = 1.0 + rng.integers(0, 17, size=(2, 2000)) / 16
        assert (lambda_a == lambda_b).sum() > 50
        left, right = pair_products(PAIR_AB, lambda_a, lambda_b, VesselSystem(), policy, 5)
        wins = left_wins(lambda_a, lambda_b, policy, 5)
        assert wins.dtype == bool
        assert np.array_equal(wins, left == 1)
        # Whoever wins, the other side loses: the products sum to -n.
        assert int(left @ right) == -2000

    def test_pair_products_and_left_wins_raise_at_the_first_tie(self):
        lambda_a = np.array([1.0, 2.0, 1.5, 1.25])
        lambda_b = np.array([1.5, 2.0, 1.5, 1.0])
        with pytest.raises(DegenerateTieError) as expected:
            pair_products(PAIR_AB, lambda_a, lambda_b, VesselSystem())
        with pytest.raises(DegenerateTieError) as error:
            left_wins(lambda_a, lambda_b)
        assert str(error.value) == str(expected.value)
        with pytest.raises(DegenerateTieError) as error:
            joint_outcome_ab(SiphonDiameters(2.0, 2.0))
        assert str(error.value) == str(expected.value)
        assert "diameters 2.0 " in str(error.value)

    @pytest.mark.parametrize(
        "policy", [TiePolicy.FAVOR_LEFT, TiePolicy.FAVOR_RIGHT, TiePolicy.SPLIT_COIN]
    )
    def test_left_wins_and_scan_counts_count_the_left_outcomes(self, policy):
        rng = np.random.default_rng(4)
        lambda_a, lambda_b = 1.0 + rng.integers(0, 17, size=(2, 2000)) / 16
        assert (lambda_a == lambda_b).sum() > 50
        left, _ = pair_products(PAIR_AB, lambda_a, lambda_b, VesselSystem(), policy, 5)
        wins = left_wins(lambda_a, lambda_b, policy, 5)
        assert np.array_equal(wins, left == 1)
        # The locality scan counts the runs the left side loses.
        _, losses = locality.scan_counts([(lambda_a, lambda_b)], VesselSystem(), policy, 5)
        assert losses == 2000 - int(np.count_nonzero(wins)) == int((left == -1).sum())
        assert left_wins(lambda_a[:0], lambda_b[:0], policy, 5).shape == (0,)

    def test_scan_counts_raises_at_the_first_tie_like_left_wins(self):
        lambda_a = np.array([1.0, 2.0, 1.5, 1.25])
        lambda_b = np.array([1.5, 2.0, 1.5, 1.0])
        with pytest.raises(DegenerateTieError) as expected:
            left_wins(lambda_a, lambda_b)
        with pytest.raises(DegenerateTieError) as error:
            locality.scan_counts([(lambda_a, lambda_b)], VesselSystem())
        assert str(error.value) == str(expected.value)

    def test_opaque_water_flips_spoons_only(self):
        lam = SiphonDiameters(2.0, 1.0)
        opaque = VesselSystem(transparent=False)
        assert contextual_table(lam, opaque) == ContextualOutcomeTable(-1, -1, -1, 1)
        assert one_run(PAIR_APRIME_B, lam, opaque) == (-1, 1)
        assert one_run(PAIR_AB_PRIME, lam, opaque) == (1, -1)
        assert one_run(PAIR_APRIME_BPRIME, lam, opaque) == (-1, -1)

    def test_deterministic(self):
        lam = SiphonDiameters(1.3, 2.6)
        system = VesselSystem()
        runs = [one_run(pair, lam, system) for pair in ALL_PAIRS]
        again = [one_run(pair, lam, system) for pair in ALL_PAIRS]
        assert runs == again
        assert contextual_table(lam, system) == contextual_table(lam, system)


# A run of two full chunks and a ragged third one.
THREE_CHUNKS = 2 * CHUNK_SIZE + 3
CHUNKS = [CHUNK_SIZE, CHUNK_SIZE, 3]
# The batches of joint runs one such run puts through left_wins, by
# subcommand, format and tie policy.
WINNER_BATCHES = [
    # Reduce-only chunks draw nothing unless a tie must raise.
    ("vessel-chsh", "json", "error", CHUNKS),
    ("vessel-chsh", "json", "favor_left", []),
    ("vessel-chsh", "json", "favor_right", []),
    ("vessel-chsh", "json", "split_coin", []),
    # The collected AB columns, chunk by chunk.
    ("vessel-chsh", "csv", "error", CHUNKS),
    ("locality-check", "json", "error", CHUNKS),
    # The chunks alone: the fixed tails are the scan's two rows, which need
    # no diameters.
    ("locality-check", "csv", "error", CHUNKS),
]


class TestOneWinnerRule:
    """Every batch of joint runs gets its winners from ``left_wins``, so a
    hook there sees every batch of every consumer."""

    @pytest.fixture
    def batches(self, monkeypatch):
        batches, rule = [], vessels.left_wins

        def recorded_rule(lambda_a, *args):
            batches.append(len(lambda_a))
            return rule(lambda_a, *args)

        for module in (vessels, bell, locality, commands):
            monkeypatch.setattr(module, "left_wins", recorded_rule)
        return batches

    @pytest.mark.parametrize(
        "subcommand, fmt, policy, expected",
        WINNER_BATCHES,
        ids=[f"{subcommand}-{fmt}-{policy}" for subcommand, fmt, policy, _ in WINNER_BATCHES],
    )
    def test_every_cli_batch_comes_from_left_wins(
        self, tmp_path, batches, subcommand, fmt, policy, expected
    ):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps({"seed": 3, "runs_per_pair": THREE_CHUNKS, "tie_policy": policy})
        )
        out = tmp_path / f"out.{fmt}"
        argv = [subcommand, "--scenario", str(scenario), "--format", fmt, "--out", str(out)]
        assert main(argv) == 0
        assert batches == expected

    def test_the_library_views_come_from_left_wins(self, batches):
        rng = np.random.default_rng(6)
        lambda_a, lambda_b = rng.uniform(0.5, 3.0, size=(2, THREE_CHUNKS))
        scan_columns(lambda_a, lambda_b, VesselSystem())
        assert batches == [THREE_CHUNKS]
        contextual_table(SiphonDiameters(1.0, 2.0), VesselSystem())
        assert batches == [THREE_CHUNKS, 1]
        joint_outcome_ab(SiphonDiameters(1.0, 2.0))
        contextuality_witness(SiphonDiameters(2.0, 1.0))
        samples = [SiphonDiameters(a, b) for a, b in zip(lambda_a[:5], lambda_b[:5])]
        scan_hidden_variables(samples, VesselSystem())
        assert batches == [THREE_CHUNKS, 1, 1, 1, 5]
