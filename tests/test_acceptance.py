"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with  pytest -v -s tests/test_acceptance.py  to see one PASS line per
criterion; a failing criterion shows up as a failing test.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import linalg as scipy_linalg
from scipy import stats

from vesselsim import (
    TSIRELSON_BOUND,
    CorrelationKind,
    HiddenVariableSampler,
    NotNormalizedError,
    SiphonDiameters,
    VesselSystem,
    born_samples,
    classify_correlations,
    coefficient_matrix,
    contextual_table,
    joint_outcome_ab,
    make_state,
    schmidt_rank,
    simulate_flow,
    singlet_bell_value,
    singlet_experiment,
)
from vesselsim.cli import main
from vesselsim.locality import scan_hidden_variables
from vesselsim.streams import BORN_STREAM, LOCALITY_STREAM, substream

GRID = np.linspace(0.5, 3.0, 10)


def write_scenario(tmp_path, name="scenario.json", **fields):
    data = {"seed": 42}
    data.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    assert main([*args, "--out", str(out)]) == 0
    return out


def test_bell_statistic_reproduction(tmp_path):
    """vessel-chsh yields exactly 4.0 for every seed and sample count; <1s at 1e5."""
    for seed in (0, 1, 42, 2**63 + 11):
        for n in (1, 1000):
            scenario = write_scenario(tmp_path, f"s{seed}_{n}.json", seed=seed, runs_per_pair=n)
            out = run_to_file(tmp_path, f"r{seed}_{n}.json", ["vessel-chsh", "--scenario", scenario])
            report = json.loads(out.read_text())
            assert report["bell"]["value"] == 4.0
            assert report["bell"]["classification"] == "SuperQuantum"

    scenario = write_scenario(tmp_path, "big.json", seed=7, runs_per_pair=100_000)
    start = time.perf_counter()
    out = run_to_file(tmp_path, "big_report.json", ["vessel-chsh", "--scenario", scenario])
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text())
    assert report["bell"]["value"] == 4.0
    assert elapsed < 1.0, f"vessel-chsh at n=1e5 took {elapsed:.3f}s"
    print("\nACCEPTANCE PASS: Bell statistic reproduction (value 4.0, < 1 s at n=1e5)")


def test_non_factorizability(tmp_path):
    """Every sampled hidden variable defeats all 16 assignments; witnesses flag
    every sample whose left diameter is the narrower one."""
    scenario = write_scenario(tmp_path, seed=42, runs_per_pair=1000)
    out = run_to_file(tmp_path, "locality.json", ["locality-check", "--scenario", scenario])
    report = json.loads(out.read_text())
    summary = report["factorization"]
    assert summary["satisfiable"] is False
    assert summary["sample_count"] == 1000
    assert summary["unsatisfiable_count"] == 1000

    # per-sample certificates on the same seeded stream the command used
    sampler = HiddenVariableSampler(seed=42)
    samples = sampler.draw(1000, key=(LOCALITY_STREAM,))
    scan = scan_hidden_variables(samples, VesselSystem())
    witness_count = 0
    for entry in scan:
        assert not entry.factorization.satisfiable
        assert entry.factorization.search_exhausted
        if entry.lam.lambda_a < entry.lam.lambda_b:
            assert entry.witness.differs
            assert (entry.witness.outcome_with_b, entry.witness.outcome_with_bprime) == (-1, 1)
            witness_count += 1
    assert witness_count == summary["witness_count"]
    print("\nACCEPTANCE PASS: non-factorizability (1000/1000 unsatisfiable, witnesses complete)")


def test_correlation_classification():
    """The vessel model classifies as second kind on any tie-free sample."""
    system = VesselSystem()
    model = lambda lam: contextual_table(lam, system)

    assert classify_correlations(model, [SiphonDiameters(2.0, 1.0)]) is CorrelationKind.SECOND_KIND

    rng = np.random.default_rng(77)
    samples = [SiphonDiameters(*rng.uniform(0.5, 3.0, size=2)) for _ in range(1000)]
    assert classify_correlations(model, samples) is CorrelationKind.SECOND_KIND

    grid_samples = [
        SiphonDiameters(a, b) for a in GRID for b in GRID if a != b
    ]
    assert classify_correlations(model, grid_samples) is CorrelationKind.SECOND_KIND
    print("\nACCEPTANCE PASS: correlation classification (SecondKind on every sample set)")


def test_flow_model_oracle():
    """Integration at dt=1e-4 stays within 0.05 L of the rate-ratio closed form
    and its sign matches the winner rule off the diagonal."""
    system = VesselSystem()
    worst = 0.0
    for lambda_a in GRID:
        for lambda_b in GRID:
            lam = SiphonDiameters(lambda_a, lambda_b)
            split = simulate_flow(lam, system, dt=1e-4)
            closed_form = 20.0 * lambda_a**2 / (lambda_a**2 + lambda_b**2)
            worst = max(worst, abs(split.x_left - closed_form))
            assert abs(split.x_left - closed_form) <= 0.05
            if lambda_a != lambda_b:
                outcome_left, _ = joint_outcome_ab(lam)
                assert np.sign(split.x_left - 10.0) == outcome_left
    print(f"\nACCEPTANCE PASS: flow-model oracle (worst deviation {worst:.2e} L <= 0.05)")


def test_superposition_state_machinery():
    """Normalization gate at 1e-9, Born sampling passes chi-square at 0.001,
    Schmidt rank agrees with amplitude counts and an independent SVD."""
    with pytest.raises(NotNormalizedError):
        make_state(math.sqrt(1.0 + 2e-9) * np.ones(11) / math.sqrt(11))
    make_state(math.sqrt(1.0 + 5e-10) * np.ones(11) / math.sqrt(11))

    states = [make_state(np.ones(11) / math.sqrt(11))]
    for state_seed in (2024, 77):
        rng = np.random.default_rng(state_seed)
        amplitudes = rng.normal(size=11) + 1j * rng.normal(size=11)
        states.append(make_state(amplitudes, normalize=True))
    for state in states:
        draws = born_samples(state, 100_000, substream(42, BORN_STREAM, 0))
        counts = np.bincount(draws, minlength=11)
        expected = 100_000 * state.probabilities()
        keep = expected > 0
        assert stats.chisquare(counts[keep], expected[keep]).pvalue > 0.001

    rng = np.random.default_rng(13)
    for _ in range(100):
        support = rng.choice(11, size=int(rng.integers(1, 12)), replace=False)
        amplitudes = np.zeros(11, dtype=complex)
        amplitudes[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        state = make_state(amplitudes, normalize=True)
        amplitude_count = int(np.count_nonzero(np.abs(state.amplitudes) > 1e-9))
        independent = int(
            np.count_nonzero(scipy_linalg.svdvals(coefficient_matrix(state)) > 1e-9)
        )
        assert schmidt_rank(state, tol=1e-9) == amplitude_count == independent
    print("\nACCEPTANCE PASS: superposition state machinery (gate, chi-square, Schmidt rank)")


def test_quantum_reference():
    """Analytic statistic hits 2*sqrt(2) at the textbook angles, Monte Carlo at
    n=1e6 lands within 3 stderr, no settings quadruple beats the bound; <5s."""
    start = time.perf_counter()
    analytic = singlet_bell_value((0.0, 90.0, 45.0, 135.0))
    assert abs(analytic - TSIRELSON_BOUND) <= 1e-12

    statistic = singlet_experiment((0.0, 90.0, 45.0, 135.0), seed=42, n_per_pair=1_000_000)
    stderr = math.sqrt(sum(est.stderr**2 for est in statistic.components))
    assert abs(statistic.value - analytic) <= 3 * stderr

    rng = np.random.default_rng(99)
    angles = rng.uniform(0.0, 360.0, size=(100_000, 4))
    worst = max(abs(singlet_bell_value(tuple(row))) for row in angles)
    assert worst <= TSIRELSON_BOUND + 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"quantum reference checks took {elapsed:.3f}s"
    print(
        f"\nACCEPTANCE PASS: quantum reference (|MC - analytic| <= 3 stderr, "
        f"search max {worst:.12f} <= bound, {elapsed:.2f}s < 5s)"
    )


def test_determinism(tmp_path):
    """Identical scenario and seed give byte-identical reports for every
    subcommand, independent of worker count."""
    uniform = [[1.0 / math.sqrt(11), 0.0]] * 11
    cases = [
        ("vessel-chsh", (), {"runs_per_pair": 2000}),
        ("locality-check", (), {"runs_per_pair": 300}),
        ("sample-state", (), {"runs_per_pair": 2000, "amplitudes": uniform}),
        ("quantum-chsh", (), {"runs_per_pair": 2000, "singlet_angles": [0, 90, 45, 135]}),
        ("flow", ("--lambda-a", "1.7", "--lambda-b", "2.3"), {}),
    ]
    for index, (subcommand, extra, fields) in enumerate(cases):
        scenario = write_scenario(tmp_path, f"d{index}.json", **fields)
        first = run_to_file(
            tmp_path, f"d{index}_a.json", [subcommand, "--scenario", scenario, *extra]
        )
        second = run_to_file(
            tmp_path, f"d{index}_b.json", [subcommand, "--scenario", scenario, *extra]
        )
        assert first.read_bytes() == second.read_bytes()

    for subcommand, fields in (
        ("vessel-chsh", {"runs_per_pair": 100_000}),
        ("quantum-chsh", {"runs_per_pair": 100_000, "singlet_angles": [0, 90, 45, 135]}),
    ):
        scenario = write_scenario(tmp_path, f"w_{subcommand}.json", **fields)
        outputs = []
        for workers in ("1", "4"):
            outputs.append(
                run_to_file(
                    tmp_path,
                    f"w_{subcommand}_{workers}.json",
                    [subcommand, "--scenario", scenario, "--workers", workers],
                )
            )
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
    print("\nACCEPTANCE PASS: determinism (byte-identical reports, worker-count invariant)")
